"""Execution runtime: session-scoped persistent worker pools.

One subsystem owns every process pool in the system.  The
:class:`ExecutionRuntime` is a lazily-started, spawn-safe, persistent
pool that serves campaign mutant simulation and corpus generation;
localization always runs in the calling process.  See
:mod:`repro.runtime.runtime` for the full design and
``docs/architecture.md`` ("Execution runtime") for the lifecycle.

Typical use is indirect — :class:`repro.api.VeriBugSession` owns a
runtime whenever ``SessionConfig.n_workers > 0`` — but the layer is
public for callers that want pool control without a session::

    from repro.runtime import ExecutionRuntime

    with ExecutionRuntime(4) as runtime:
        engine = CampaignEngine(localizer, n_workers=4, runtime=runtime)
        result = engine.run(module, target)
"""

from .runtime import SPAWN_SAFE_METHODS, ExecutionRuntime, RuntimeStats
from .seeding import corpus_design_seed, mutant_topup_seed

__all__ = [
    "SPAWN_SAFE_METHODS",
    "ExecutionRuntime",
    "RuntimeStats",
    "corpus_design_seed",
    "mutant_topup_seed",
]
