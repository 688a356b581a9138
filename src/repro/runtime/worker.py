"""Worker-process side of the execution runtime.

Each pool worker is a plain Python process (spawned, never forked — see
:class:`~repro.runtime.ExecutionRuntime`) whose entire mutable state is
the module-level :data:`_STATE` dict: a small LRU of campaign contexts
(golden design, stimuli, golden traces, trace policy).  Simulation tasks
carry their context as a pre-pickled blob that is deserialized once per
worker per campaign and served from this store afterwards.

Task functions return plain picklable values.  Mutant traces travel
back in their columnar form (the simulator records struct-of-arrays
natively and ``Trace`` serializes the same arrays), so neither the
worker nor the parent materializes per-execution record objects for
transport — the explainer dedups straight off the columns on arrival.
"""

from __future__ import annotations

import pickle
import time
from collections import OrderedDict
from typing import Any

#: Campaign contexts retained per worker; one campaign rarely overlaps
#: more than one other, so a handful bounds memory without thrashing.
MAX_CONTEXTS = 4


class MissingWorkerContext(RuntimeError):
    """A simulation task referenced a campaign context this worker lacks.

    Context blobs ride along only on a campaign's first few tasks (enough
    to cover every worker in the common case); a worker that received
    none of those raises this, and the parent resubmits the task with the
    blob attached.
    """


#: Worker-process state (one dict per spawned process).
_STATE: dict[str, Any] = {
    "contexts": OrderedDict(),  # ctx_id -> campaign context tuple
}


def _install_context(ctx_id: int, context_blob: bytes | None) -> tuple:
    """Deserialize and LRU-store a campaign context, once per worker."""
    contexts: OrderedDict = _STATE["contexts"]
    cached = contexts.get(ctx_id)
    if cached is not None:
        contexts.move_to_end(ctx_id)
        return cached
    if context_blob is None:
        raise MissingWorkerContext(f"worker has no campaign context {ctx_id}")
    context = pickle.loads(context_blob)
    while len(contexts) >= MAX_CONTEXTS:
        contexts.popitem(last=False)
    contexts[ctx_id] = context
    return context


def _task_simulate_mutant(ctx_id: int, context_blob: bytes | None, mutation):
    """Simulate and classify one campaign mutant (no localization).

    ``context_blob`` is the campaign context pickled once in the parent
    and attached only to a campaign's first few tasks; a worker that
    already installed ``ctx_id`` skips deserialization, and one that
    never saw a blob raises :class:`MissingWorkerContext` for the parent
    to retry with the blob attached.
    """
    from ..datagen.campaign import _simulate_mutant

    (
        module,
        target,
        stimuli,
        golden_traces,
        testbench_config,
        n_traces,
        seed,
        min_correct_traces,
        max_extra_batches,
    ) = _install_context(ctx_id, context_blob)
    return _simulate_mutant(
        module,
        target,
        mutation,
        stimuli,
        golden_traces,
        testbench_config,
        n_traces,
        seed,
        min_correct_traces,
        max_extra_batches,
    )


def _task_corpus_design(index: int, source: str, spec, seed: int):
    """Simulate one corpus design into training samples (self-contained)."""
    from ..pipeline import _design_samples

    return _design_samples(index, source, spec, seed)


def _task_warmup(delay: float = 0.0) -> int:
    """No-op task used to force worker spawn before a timed benchmark."""
    if delay:
        time.sleep(delay)
    import os

    return os.getpid()
