"""The session-scoped execution runtime: one pool for simulation work.

Before this layer existed the system started a throwaway
``ProcessPoolExecutor`` per campaign and per corpus run, paying full
process startup every time.  :class:`ExecutionRuntime` replaces both
with one session-owned, lazily-started, persistent worker pool:

* **Spawn-safe by construction.**  Pools use an explicit ``spawn`` (or
  ``forkserver``) multiprocessing context; ``fork`` is rejected because
  forked children inherit the parent's RNG streams, cache contents, and
  lock states mid-flight — a correctness hazard this runtime exists to
  rule out.  Determinism comes from task identity instead: every random
  stream is derived from *what* is computed (design index, mutation
  node), never from *where* (see :mod:`repro.runtime.seeding`).
* **Workers simulate only.**  The pool serves mutant simulation and
  corpus generation.  Localization always runs in the parent process
  (:meth:`LocalizationEngine.localize_many`), where the context cache
  and attention-row memo see every request; workers carry no model.
* **Sticky campaign contexts.**  Mutant-simulation tasks reference their
  campaign context (golden design, stimuli, golden traces) by id and
  carry it as a parent-side memoized pickle blob, deserialized at most
  once per worker per campaign.
* **Zero-repack trace wire format.**  Mutant trace sets coming back from
  simulation tasks are columnar end to end: the simulator records
  straight into :class:`~repro.sim.trace.ExecutionColumns`,
  ``Trace.__getstate__`` ships those arrays as-is, and the parent
  consumes them without ever materializing record objects.

Lifecycle: the runtime is cheap to construct (no processes until the
first parallel dispatch), reusable across campaigns/corpora, and closed
by :meth:`close` (or ``with`` scope).  :class:`repro.api.VeriBugSession`
owns one when ``SessionConfig.n_workers > 0``; entry points without a
session build one per call and close it on return.
"""

from __future__ import annotations

import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator

from .worker import (
    MissingWorkerContext,
    _task_corpus_design,
    _task_simulate_mutant,
    _task_warmup,
)

#: Start methods that do not inherit parent state mid-flight.
SPAWN_SAFE_METHODS = ("spawn", "forkserver")


@dataclass(frozen=True)
class RuntimeStats:
    """A point-in-time snapshot of one runtime's counters."""

    n_workers: int
    start_method: str
    started: bool
    closed: bool
    pools_started: int
    campaigns_served: int
    corpus_runs: int
    tasks_dispatched: int

    def to_dict(self) -> dict:
        """JSON-friendly view (used by ``campaign --json``)."""
        return {
            "pool_size": self.n_workers,
            "start_method": self.start_method,
            "started": self.started,
            "closed": self.closed,
            "pools_started": self.pools_started,
            "campaigns_served": self.campaigns_served,
            "corpus_runs": self.corpus_runs,
            "tasks_dispatched": self.tasks_dispatched,
        }


@dataclass
class _Counters:
    pools_started: int = 0
    campaigns_served: int = 0
    corpus_runs: int = 0
    tasks_dispatched: int = 0


class ExecutionRuntime:
    """A persistent, spawn-safe worker pool serving a whole session.

    Args:
        n_workers: Pool size; must be >= 1 (callers gate the ``0`` =
            sequential case before constructing a runtime).
        mp_context: Start-method name or an existing multiprocessing
            context; must be spawn-safe (``spawn`` or ``forkserver``).

    The pool itself starts on the first parallel dispatch, so merely
    owning a runtime costs nothing.  Construction is cheap; `close()`
    is idempotent and the object refuses new work afterwards.
    """

    def __init__(
        self,
        n_workers: int,
        *,
        mp_context: str | multiprocessing.context.BaseContext = "spawn",
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if isinstance(mp_context, str):
            if mp_context not in SPAWN_SAFE_METHODS:
                raise ValueError(
                    f"mp_context {mp_context!r} is not spawn-safe; fork"
                    " inherits RNG/cache state mid-flight — use one of:"
                    f" {', '.join(SPAWN_SAFE_METHODS)}"
                )
            mp_context = multiprocessing.get_context(mp_context)
        elif mp_context.get_start_method() not in SPAWN_SAFE_METHODS:
            raise ValueError(
                f"mp_context start method {mp_context.get_start_method()!r}"
                f" is not spawn-safe; use one of: {', '.join(SPAWN_SAFE_METHODS)}"
            )
        self.n_workers = n_workers
        self._mp_context = mp_context
        self._pool: ProcessPoolExecutor | None = None
        self._closed = False
        self._counters = _Counters()
        self._next_ctx_id = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        """True once the process pool has been created."""
        return self._pool is not None

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def start_method(self) -> str:
        return self._mp_context.get_start_method()

    def __enter__(self) -> "ExecutionRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut the pool down and join every worker.  Idempotent."""
        self._closed = True
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._closed:
            raise RuntimeError("ExecutionRuntime is closed")
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.n_workers,
                mp_context=self._mp_context,
            )
            self._counters.pools_started += 1
        return self._pool

    def warm_up(self) -> list[int]:
        """Force every worker process to exist now.

        Submitting ``n_workers`` tasks makes the executor spawn its full
        complement, so a caller can keep pool startup out of a timed
        region the way a long-lived session amortizes it.  Returns the
        worker PIDs that answered.
        """
        pool = self._ensure_pool()
        futures = [
            pool.submit(_task_warmup, 0.05) for _ in range(self.n_workers)
        ]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # Campaign simulation
    # ------------------------------------------------------------------
    def simulate_mutants(self, context: tuple, mutations: Iterable) -> Iterator:
        """Fan one campaign's mutant simulations across the pool.

        ``context`` is the per-campaign tuple the simulate task consumes
        (golden design, target, stimuli, golden traces, trace policy); it
        is pickled once here, attached to the campaign's first
        ``2 * n_workers`` tasks (statistically enough to seed every
        worker once), and installed at most once per worker.  A worker
        that received none of the seeded tasks raises
        :class:`MissingWorkerContext` and that task is retried with the
        blob attached, so later tasks pay no per-task context transfer
        without any scheduling assumption.  Yields
        ``(outcome, failing, correct)`` triples in mutation order as
        they complete, so campaign streaming semantics are preserved.

        Submission is windowed, not bulk: at most ``2 * n_workers``
        simulation tasks are in flight at a time, the next one submitted
        only as results are consumed.  The window keeps every worker
        busy (``n_workers`` tasks run while ``n_workers`` more sit
        queued) without pickling and queueing the campaign's whole
        mutant list up front, and a consumer that stops early (a closed
        stream) leaves at most one window of tasks to drain.
        """
        pool = self._ensure_pool()
        ctx_id = self._next_ctx_id
        self._next_ctx_id += 1
        blob = pickle.dumps(context, protocol=pickle.HIGHEST_PROTOCOL)
        mutations = list(mutations)
        # The window size doubles as the blob-seeding horizon: every
        # submission in the first window carries the context blob, so
        # the seeding guarantee of the bulk-submit scheme is unchanged.
        window = 2 * self.n_workers
        self._counters.campaigns_served += 1
        self._counters.tasks_dispatched += len(mutations)

        def submit(index: int):
            return pool.submit(
                _task_simulate_mutant,
                ctx_id,
                blob if index < window else None,
                mutations[index],
            )

        futures = [submit(index) for index in range(min(window, len(mutations)))]
        for index in range(len(mutations)):
            try:
                result = futures[index].result()
            except MissingWorkerContext:
                result = pool.submit(
                    _task_simulate_mutant, ctx_id, blob, mutations[index]
                ).result()
            # Top the window up before yielding: the consumer may take
            # arbitrarily long with the result (e.g. localizing), and the
            # pool should be working on the next mutants meanwhile.
            if len(futures) < len(mutations):
                futures.append(submit(len(futures)))
            yield result

    # ------------------------------------------------------------------
    # Corpus generation
    # ------------------------------------------------------------------
    def map_corpus(self, sources: list[str], spec, seed: int) -> list:
        """Simulate corpus designs in parallel; one task per design.

        Each design's testbench seed derives from its index (see
        :func:`~repro.runtime.seeding.corpus_design_seed`), so results
        are in design order and bit-identical to the sequential path.
        """
        pool = self._ensure_pool()
        futures = [
            pool.submit(_task_corpus_design, index, source, spec, seed)
            for index, source in enumerate(sources)
        ]
        self._counters.corpus_runs += 1
        self._counters.tasks_dispatched += len(futures)
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> RuntimeStats:
        """Snapshot of the runtime's counters (see :class:`RuntimeStats`)."""
        return RuntimeStats(
            n_workers=self.n_workers,
            start_method=self.start_method,
            started=self.started,
            closed=self.closed,
            **asdict(self._counters),
        )
