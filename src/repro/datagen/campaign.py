"""Bug-injection campaign driver (reproduces paper Table III).

For each sampled mutation the campaign:

1. simulates the golden design and the mutant under the same random
   testbenches,
2. classifies each trace: *failing* when the mutant diverges from the
   golden design at the target output, *correct* when it diverges
   nowhere (traces diverging only at non-target outputs are dropped, as
   the failure did not symptomatize at ``t``),
3. declares the bug *observable* when at least one failing trace exists,
4. runs the localizer and scores *top-1 localization*: the mutated
   statement must hold the single highest suspiciousness in ``Ht``.

Simulation of mutants is embarrassingly parallel: with ``n_workers > 0``
the campaign fans the simulate/classify phase out across an
:class:`~repro.runtime.ExecutionRuntime` worker pool (one task per
mutation; the campaign context — golden design, stimuli, golden traces —
is shipped once per worker and referenced by id afterwards).  A session
passes its own persistent runtime so consecutive campaigns reuse one
pool; callers that only set ``n_workers`` get a runtime scoped to the
call.  Parallel campaigns are bit-identical to
sequential ones because every mutant derives its extra testbench seeds
from its own ``node_index``
(:func:`repro.runtime.seeding.mutant_topup_seed`), never from the
worker that happens to simulate it.

Localization itself runs on the inference fast path: up to
``localize_batch`` observable mutants are handed to
:meth:`BugLocalizer.localize_many`, which deduplicates their executions
and encodes them into shared no-grad forward passes; under that no-grad
scope the model runs the fused PathRNN kernel and serves repeated
statement contexts from its context-embedding cache (each mutant's
contexts are re-extracted per localization, so within a batch the cache
collapses the PathRNN cost of every distinct operand-value combination
of one statement down to a single embedding).  Rankings are identical
to per-mutant localization.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Iterator

from ..core.localizer import (
    LocalizationEngine,
    LocalizationRequest,
    LocalizationResult,
)
from ..runtime.seeding import mutant_topup_seed
from ..sim.simulator import SimulationError, Simulator
from ..sim.testbench import TestbenchConfig, generate_testbench_suite
from ..sim.trace import Trace
from ..verilog.ast_nodes import Module
from .mutation import Mutation, apply_mutation


@dataclass
class MutantOutcome:
    """Result of injecting and localizing one bug.

    Attributes:
        mutation: The injected mutation.
        observable: True when the bug symptomatized at the target output.
        localized: True when the mutated statement ranked top-1.
        rank: 1-based heatmap rank of the buggy statement (None if absent).
        suspiciousness: Suspiciousness score of the buggy statement.
        n_failing / n_correct: Trace-set sizes used for localization.
        error: Non-empty when simulation failed (e.g. oscillation).
    """

    mutation: Mutation
    observable: bool = False
    localized: bool = False
    rank: int | None = None
    suspiciousness: float | None = None
    n_failing: int = 0
    n_correct: int = 0
    error: str = ""


@dataclass
class CampaignResult:
    """Aggregated outcome of a campaign on one (design, target) pair."""

    design: str
    target: str
    outcomes: list[MutantOutcome] = field(default_factory=list)

    @property
    def injected(self) -> int:
        """Number of mutants simulated (excluding erroring mutants)."""
        return sum(1 for o in self.outcomes if not o.error)

    @property
    def observable(self) -> int:
        """Mutants whose bug symptomatized at the target output."""
        return sum(1 for o in self.outcomes if o.observable)

    @property
    def localized(self) -> int:
        """Observable mutants localized at top-1."""
        return sum(1 for o in self.outcomes if o.localized)

    @property
    def coverage(self) -> float:
        """Top-1 bug coverage = localized / observable (0 when none)."""
        return self.localized / self.observable if self.observable else 0.0

    def count_by_kind(self, kind: str) -> int:
        """Injected mutants of one mutation kind."""
        return sum(1 for o in self.outcomes if o.mutation.kind == kind and not o.error)


def _simulate_mutant(
    module: Module,
    target: str,
    mutation: Mutation,
    stimuli: list[list[dict[str, int]]],
    golden_traces: list[Trace],
    testbench_config: TestbenchConfig,
    n_traces: int,
    seed: int,
    min_correct_traces: int,
    max_extra_batches: int,
) -> tuple[MutantOutcome, list[Trace], list[Trace]]:
    """Simulate and classify one mutant (no localization).

    Pure function of its arguments so it can run either inline or inside a
    worker process; returns the outcome shell plus the failing/correct
    trace sets the localizer needs.  Recorded mutant runs are columnar
    end to end: the simulator writes execution columns natively, failure
    classification only reads outputs, and the localizer dedups off the
    columns — no per-execution record objects exist anywhere on this
    path, in-process or across the worker boundary.
    """
    engine = testbench_config.engine
    outcome = MutantOutcome(mutation=mutation)
    failing: list[Trace] = []
    correct: list[Trace] = []
    try:
        mutant = apply_mutation(module, mutation)
        simulator = Simulator(mutant, engine=engine)
    except (ValueError, SimulationError) as exc:
        outcome.error = str(exc)
        return outcome, failing, correct

    all_outputs = module.outputs

    def classify_one(trace: Trace, golden_trace: Trace) -> None:
        if trace.diverges_from(golden_trace, signals=[target]):
            trace.is_failure = True
            failing.append(trace)
        elif not trace.diverges_from(golden_trace, signals=all_outputs):
            correct.append(trace)
        # Traces failing only at non-target outputs are dropped.

    def classify(stims, goldens) -> bool:
        try:
            traces = simulator.run_suite(stims)
        except SimulationError:
            # A single oscillating stimulus fails the whole batch (the
            # vector engine runs the suite in lockstep).  Rerun trace by
            # trace so classification stops exactly at the offending
            # stimulus, preserving the partial trace sets the scalar
            # path always produced.
            for stim, golden_trace in zip(stims, goldens):
                try:
                    trace = simulator.run(stim)
                except SimulationError as exc:
                    outcome.error = str(exc)
                    return False
                classify_one(trace, golden_trace)
            return True
        for trace, golden_trace in zip(traces, goldens):
            classify_one(trace, golden_trace)
        return True

    if not classify(stimuli, golden_traces):
        return outcome, failing, correct

    # A verification environment has no shortage of passing runs:
    # top up the correct set so Ft/Ct comparison is well-conditioned.
    golden_sim = None
    extra_batch = 0
    while (
        failing
        and len(correct) < min_correct_traces
        and extra_batch < max_extra_batches
    ):
        if golden_sim is None:
            golden_sim = Simulator(module, engine=engine)
        extra_batch += 1
        extra_stimuli = generate_testbench_suite(
            module,
            n_traces,
            testbench_config,
            seed=mutant_topup_seed(seed, extra_batch, mutation.node_index),
        )
        extra_golden = golden_sim.run_suite(extra_stimuli, record=False)
        if not classify(extra_stimuli, extra_golden):
            return outcome, failing, correct

    outcome.n_failing = len(failing)
    outcome.n_correct = len(correct)
    outcome.observable = bool(failing)
    return outcome, failing, correct


class CampaignEngine:
    """Runs mutation campaigns against a trained localizer.

    This is the *engine* layer driven by
    :meth:`repro.api.VeriBugSession.campaign` (whose handle adds
    streaming heatmap snapshots on top of :meth:`iter_localized`) or, for
    legacy callers, the :class:`BugInjectionCampaign` shim.

    Args:
        localizer: Trained localizer scored against each observable bug.
        n_traces: Testbenches per batch.
        testbench_config: Stimulus knobs; its ``engine`` field selects the
            simulation engine for golden and mutant runs.
        seed: Base seed for the testbench suite.
        min_correct_traces / max_extra_batches: Correct-trace top-up policy.
        n_workers: When > 0, simulate mutants on a worker pool of this
            size; localization always runs in this process.
        runtime: Optional :class:`~repro.runtime.ExecutionRuntime` to
            fan simulation out on.  A session passes its persistent
            pool so consecutive campaigns reuse one set of workers;
            when omitted and ``n_workers > 0`` a runtime is created (and
            closed) per :meth:`iter_localized` execution.
        localize_batch: Cap on the number of observable mutants whose
            localizations are encoded into shared model forward passes
            (the inference fast path).  Batches ramp 1 → 2 → 4 → … up to
            this cap so the first outcome streams immediately; 1
            localizes each mutant with its own model call stream, larger
            caps amortize per-call overhead at the cost of keeping up to
            that many mutants' trace sets alive at once.  Outcomes are
            identical for every value (attention is segment-local).
    """

    def __init__(
        self,
        localizer: LocalizationEngine,
        n_traces: int = 12,
        testbench_config: TestbenchConfig | None = None,
        seed: int = 0,
        min_correct_traces: int = 4,
        max_extra_batches: int = 4,
        n_workers: int = 0,
        localize_batch: int = 8,
        runtime=None,
    ):
        if localize_batch < 1:
            raise ValueError("localize_batch must be >= 1")
        self.localizer = localizer
        self.n_traces = n_traces
        self.testbench_config = testbench_config or TestbenchConfig()
        self.seed = seed
        self.min_correct_traces = min_correct_traces
        self.max_extra_batches = max_extra_batches
        self.n_workers = n_workers
        self.localize_batch = localize_batch
        self.runtime = runtime

    def run(
        self,
        module: Module,
        target: str,
        mutations: list[Mutation],
    ) -> CampaignResult:
        """Execute a campaign for one design/target pair.

        Drains :meth:`iter_localized`, so batch and streaming semantics
        are one implementation: per-mutant outcomes are identical however
        they are consumed.

        Args:
            module: The golden design.
            target: Output where failures must symptomatize.
            mutations: The bug-injection plan.

        Returns:
            Per-mutant outcomes and aggregate coverage.
        """
        result = CampaignResult(design=module.name, target=target)
        for outcome, _localization in self.iter_localized(module, target, mutations):
            result.outcomes.append(outcome)
        return result

    def iter_localized(
        self,
        module: Module,
        target: str,
        mutations: list[Mutation],
    ) -> Iterator[tuple[MutantOutcome, LocalizationResult | None]]:
        """Stream fully-scored outcomes as the campaign progresses.

        Yields ``(outcome, localization)`` pairs in mutation order, each
        emitted as soon as its localization (or the decision that none is
        needed — simulation error / not observable) completes.  Mutants
        are simulated as they arrive (in parallel when ``n_workers > 0``)
        and localized in shared batches of observable mutants whose size
        ramps 1 → 2 → 4 → … up to ``localize_batch``: the first result
        streams as soon as one mutant is localizable, while long
        campaigns still amortize model calls across full batches.  At
        most ``localize_batch`` mutants' trace sets are alive at once,
        and batch composition cannot change any outcome (attention is
        segment-local; see :meth:`LocalizationEngine.localize_many`), so
        :meth:`run` — which drains this iterator — is unaffected by the
        ramp.  ``localization`` is None for erroring or unobservable
        mutants.
        """
        stimuli = generate_testbench_suite(
            module, self.n_traces, self.testbench_config, seed=self.seed
        )
        golden = Simulator(module, engine=self.testbench_config.engine)
        golden_traces = golden.run_suite(stimuli, record=False)

        if self.n_workers > 0 and len(mutations) > 1:
            simulated = self._simulate_parallel(
                module, target, mutations, stimuli, golden_traces
            )
        else:
            simulated = (
                self._simulate(module, target, mutation, stimuli, golden_traces)
                for mutation in mutations
            )

        # ``buffered`` holds outcome slots awaiting emission in mutation
        # order; observable ones stay un-emittable until their shared
        # localization batch runs, which also flushes everything queued
        # behind them.
        buffered: list[tuple[MutantOutcome, LocalizationResult | None]] = []
        pending: list[tuple[Mutation, MutantOutcome, list[Trace], list[Trace]]] = []
        slots: list[int] = []  # buffered index of each pending mutant
        # Batch-size ramp: stream the first localization immediately,
        # then double toward the configured cap.
        flush_at = 1
        for mutation, (outcome, failing, correct) in zip(mutations, simulated):
            buffered.append((outcome, None))
            if outcome.error or not outcome.observable:
                if not pending:
                    yield from buffered
                    buffered.clear()
                continue
            pending.append((mutation, outcome, failing, correct))
            slots.append(len(buffered) - 1)
            if len(pending) >= min(flush_at, self.localize_batch):
                for slot, localization in zip(
                    slots, self._localize_pending(module, target, pending)
                ):
                    buffered[slot] = (buffered[slot][0], localization)
                pending.clear()
                slots.clear()
                flush_at *= 2
                yield from buffered
                buffered.clear()
        if pending:
            for slot, localization in zip(
                slots, self._localize_pending(module, target, pending)
            ):
                buffered[slot] = (buffered[slot][0], localization)
        yield from buffered

    def _simulate(self, module, target, mutation, stimuli, golden_traces):
        return _simulate_mutant(
            module,
            target,
            mutation,
            stimuli,
            golden_traces,
            self.testbench_config,
            self.n_traces,
            self.seed,
            self.min_correct_traces,
            self.max_extra_batches,
        )

    def _simulate_parallel(self, module, target, mutations, stimuli, golden_traces):
        from ..runtime import ExecutionRuntime

        context = (
            module,
            target,
            stimuli,
            golden_traces,
            self.testbench_config,
            self.n_traces,
            self.seed,
            self.min_correct_traces,
            self.max_extra_batches,
        )
        if self.runtime is not None and not self.runtime.closed:
            # Session-owned persistent pool: reused across campaigns.
            yield from self.runtime.simulate_mutants(context, mutations)
            return
        # No (live) shared runtime: scope one to this execution, e.g. for
        # legacy callers that only pass n_workers, or a handle executed
        # after its owning session closed.
        with ExecutionRuntime(self.n_workers) as runtime:
            # yield from inside the context manager so results stream to
            # the caller while the pool stays alive.
            yield from runtime.simulate_mutants(context, mutations)

    def _localize_pending(
        self,
        module: Module,
        target: str,
        pending: list[tuple[Mutation, MutantOutcome, list[Trace], list[Trace]]],
    ) -> list[LocalizationResult]:
        """Localize a batch of observable mutants and score their outcomes."""
        requests = [
            LocalizationRequest(
                module=apply_mutation(module, mutation),
                target=target,
                failing_traces=failing,
                correct_traces=correct,
            )
            for mutation, _outcome, failing, correct in pending
        ]
        localizations: list[LocalizationResult] = self.localizer.localize_many(
            requests
        )
        for (mutation, outcome, _failing, _correct), localization in zip(
            pending, localizations
        ):
            outcome.rank = localization.rank_of(mutation.stmt_id)
            outcome.suspiciousness = localization.heatmap.suspiciousness.get(
                mutation.stmt_id
            )
            outcome.localized = localization.is_top1(mutation.stmt_id)
        return localizations


class BugInjectionCampaign(CampaignEngine):
    """Deprecated alias of :class:`CampaignEngine`.

    Retained so pre-``repro.api`` code keeps working unchanged; new code
    should go through :meth:`repro.api.VeriBugSession.campaign`, whose
    handle adds streaming (:meth:`~repro.api.CampaignHandle.stream`) and
    incremental heatmap snapshots on top of this engine.
    """

    def __init__(self, *args, **kwargs):
        warnings.warn(
            "BugInjectionCampaign is deprecated; use"
            " repro.api.VeriBugSession.campaign (the session facade) instead",
            DeprecationWarning,
            stacklevel=2,
        )
        super().__init__(*args, **kwargs)
