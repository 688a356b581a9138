"""Execution-runtime guarantees: reuse, windowed dispatch, shutdown.

The runtime layer's contract (see ``docs/architecture.md``, "Execution
runtime") is pinned here:

* a worker session localizes exactly like a sequential one (the pool
  simulates only; localization stays in-process);
* one session = one process pool, reused across campaigns and corpus
  runs (pool reuse is the whole point of the layer);
* ``close()`` joins every worker process — nothing leaks;
* pools are spawn-safe by construction.
"""

from __future__ import annotations

import multiprocessing
import pathlib

import pytest

from repro.analysis import compute_static_slice
from repro.api import SessionConfig, VeriBugSession, generate_corpus
from repro.core import VeriBugConfig
from repro.core.localizer import LocalizationRequest
from repro.datagen import sample_mutations
from repro.datagen.campaign import _simulate_mutant
from repro.datagen.mutation import apply_mutation
from repro.designs import design_info, design_testbench, load_design
from repro.pipeline import CorpusSpec
from repro.runtime import ExecutionRuntime

CACHE = pathlib.Path(__file__).parent / ".cache" / "model_e30_d20_s1.npz"
PAPER_CONFIG = VeriBugConfig(epochs=30)
TOL = 1e-9


def _paper_session(n_workers: int = 0) -> VeriBugSession:
    """A fresh session over the committed paper-scale checkpoint."""
    config = SessionConfig(model=PAPER_CONFIG).with_workers(n_workers)
    return VeriBugSession.from_checkpoint(CACHE, config)


@pytest.fixture(scope="module", autouse=True)
def _ensure_checkpoint(trained_pipeline):
    """Depend on the shared fixture so the checkpoint file exists."""


@pytest.fixture(scope="module")
def worker_session():
    session = _paper_session(n_workers=2)
    yield session
    session.close()


def _build_requests() -> list[LocalizationRequest]:
    """Observable localization requests from a small wb_mux_2 campaign."""
    module = load_design("wb_mux_2")
    testbench = design_testbench("wb_mux_2", n_cycles=8)
    stimuli_seed = 29
    requests: list[LocalizationRequest] = []
    from repro.sim import Simulator, generate_testbench_suite

    stimuli = generate_testbench_suite(module, 8, testbench, seed=stimuli_seed)
    golden = Simulator(module, engine=testbench.engine)
    golden_traces = golden.run_suite(stimuli, record=False)
    for target in design_info("wb_mux_2").targets:
        cone = compute_static_slice(module, target).stmt_ids
        mutations = sample_mutations(
            module,
            {"negation": 2, "operation": 2, "misuse": 3},
            seed=13,
            restrict_to=cone,
            min_operands=2,
        )
        for mutation in mutations:
            outcome, failing, correct = _simulate_mutant(
                module, target, mutation, stimuli, golden_traces,
                testbench, 8, stimuli_seed, 4, 4,
            )
            if outcome.observable and not outcome.error:
                requests.append(
                    LocalizationRequest(
                        apply_mutation(module, mutation),
                        target,
                        failing,
                        correct,
                    )
                )
    return requests


@pytest.fixture(scope="module")
def requests():
    built = _build_requests()
    assert len(built) >= 2, "workload must produce a multi-request batch"
    return built


def _assert_identical(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.ranking == b.ranking
        assert set(a.heatmap.suspiciousness) == set(b.heatmap.suspiciousness)
        for stmt_id, score in b.heatmap.suspiciousness.items():
            assert abs(a.heatmap.suspiciousness[stmt_id] - score) <= TOL


class TestInProcessLocalization:
    def test_worker_session_matches_sequential(self, worker_session, requests):
        _assert_identical(
            worker_session.localize_many(requests),
            _paper_session(n_workers=0).localize_many(requests),
        )
        # Localization never touches the pool.
        assert not worker_session.runtime.started


class TestPoolLifecycle:
    def test_one_pool_across_two_campaigns(self, requests):
        session = _paper_session(n_workers=2)
        try:
            module = load_design("wb_mux_2")
            plan = {"negation": 1, "operation": 1, "misuse": 1}
            first = session.campaign(
                module, "wbs0_we_o", plan=plan, seed=29
            ).run()
            second = session.campaign(
                module, "wbs0_we_o", plan=plan, seed=29
            ).run()
            assert [o.observable for o in first.outcomes] == [
                o.observable for o in second.outcomes
            ]
            stats = session.runtime_stats()
            assert stats["pools_started"] == 1
            assert stats["campaigns_served"] == 2
        finally:
            session.close()

    def test_corpus_generation_reuses_session_pool(self):
        spec = CorpusSpec(
            n_designs=3, n_traces_per_design=2, n_cycles=8, n_workers=2
        )
        session = _paper_session(n_workers=2)
        try:
            parallel = session.generate_corpus(spec, seed=5)
            stats = session.runtime_stats()
            assert stats["corpus_runs"] == 1
            assert stats["pools_started"] == 1
        finally:
            session.close()
        sequential = generate_corpus(
            CorpusSpec(n_designs=3, n_traces_per_design=2, n_cycles=8),
            seed=5,
        )
        assert len(parallel) == len(sequential)
        for got, want in zip(parallel, sequential):
            assert got.design == want.design
            assert got.operand_values == want.operand_values
            assert got.label == want.label

    def test_default_spec_inherits_session_pool(self):
        # A corpus spec that doesn't ask for workers of its own (the
        # CorpusSpec default) must ride the session pool, not silently
        # de-parallelize.
        session = _paper_session(n_workers=2)
        try:
            session.generate_corpus(
                CorpusSpec(n_designs=2, n_traces_per_design=1, n_cycles=6),
                seed=3,
            )
            assert session.runtime_stats()["corpus_runs"] == 1
        finally:
            session.close()
        # After close(), the same call runs sequentially — no new pools
        # (the no-spec default resolves through the same post-close
        # zero-workers path before the spec is even built).
        before = set(multiprocessing.active_children())
        session.generate_corpus(
            CorpusSpec(n_designs=2, n_traces_per_design=1, n_cycles=6),
            seed=3,
        )
        assert set(multiprocessing.active_children()) == before

    @pytest.mark.timeout(120)
    def test_clean_shutdown_leaves_no_processes(self, requests):
        before = set(multiprocessing.active_children())
        session = _paper_session(n_workers=2)
        session.runtime.warm_up()
        assert session.runtime.started
        session.close()
        leaked = [
            p for p in multiprocessing.active_children() if p not in before
        ]
        assert leaked == []
        assert session.runtime is None
        # The session stays usable on the in-process path after close().
        assert session.localize_many(requests[:1])

    def test_close_is_idempotent_and_refuses_new_work(self):
        runtime = ExecutionRuntime(2)
        runtime.close()
        runtime.close()
        with pytest.raises(RuntimeError):
            runtime.warm_up()

    def test_runtime_scopes_to_with_block(self):
        with ExecutionRuntime(1) as runtime:
            pids = runtime.warm_up()
            assert len(pids) == 1
        assert runtime.closed


class TestColumnarTraces:
    """The columnar trace wire format campaign workers return."""

    def _roundtrip(self, traces):
        import pickle

        return pickle.loads(pickle.dumps(traces, protocol=5))

    def test_roundtrip_is_lossless(self, requests):
        trace = requests[0].failing_traces[0]
        (back,) = self._roundtrip([trace])
        assert len(back.executions) == len(trace.executions)
        for got, want in zip(back.executions, trace.executions):
            assert got == want
        assert back.stimulus == trace.stimulus
        assert back.outputs == trace.outputs
        assert back.is_failure == trace.is_failure
        # A deserialized trace re-serializes from its columns directly.
        (again,) = self._roundtrip([back])
        assert list(again.executions) == list(trace.executions)

    def test_columnar_dedup_matches_object_loop(self, requests):
        from repro.analysis import compute_static_slice
        from repro.analysis.contexts import extract_module_contexts
        from repro.analysis.slicing import slice_statements
        from repro.core import BatchEncoder, VeriBugConfig, VeriBugModel, Vocabulary
        from repro.core.explainer import Explainer

        vocab = Vocabulary()
        model = VeriBugModel(VeriBugConfig(), vocab)
        explainer = Explainer(model, BatchEncoder(vocab))
        for request in requests:
            static_slice = compute_static_slice(request.module, request.target)
            contexts = extract_module_contexts(
                slice_statements(request.module, static_slice)
            )
            for traces in (request.failing_traces, request.correct_traces):
                want = explainer.distinct_samples(
                    contexts, traces, static_slice.stmt_ids
                )
                got = explainer.distinct_samples(
                    contexts, self._roundtrip(traces), static_slice.stmt_ids
                )
                assert got[1] == want[1]  # stmt ids, in first-seen order
                assert got[2] == want[2]  # multiplicities
                for got_sample, want_sample in zip(got[0], want[0]):
                    assert got_sample.operand_values == want_sample.operand_values
                    assert got_sample.label == want_sample.label
                    assert (
                        got_sample.context.stmt_id == want_sample.context.stmt_id
                    )

    def test_traces_with_different_statement_shapes(self, arbiter):
        """Branch-dependent designs execute different statement sets per
        trace, so per-trace operand widths differ; the columnar dedup
        must pad chunks to a common width, not crash stacking them."""
        from repro.analysis import extract_module_contexts
        from repro.core import BatchEncoder, VeriBugConfig, VeriBugModel, Vocabulary
        from repro.core.explainer import Explainer
        from repro.sim.trace import StatementExecution, Trace

        contexts = extract_module_contexts(arbiter.statements())
        by_width = {}
        for stmt_id, context in contexts.items():
            by_width.setdefault(context.n_operands, (stmt_id, context))
        widths = sorted(by_width)
        assert len(widths) >= 2, "need statements of differing operand width"

        def trace_for(width: int, value: int) -> Trace:
            stmt_id, context = by_width[width]
            names = tuple(dict.fromkeys(op.name for op in context.operands))
            executions = [
                StatementExecution(
                    stmt_id=stmt_id,
                    cycle=cycle,
                    target="t",
                    operands=names,
                    operand_values=tuple(value for _ in names),
                    lhs_value=cycle % 2,
                    lhs_width=1,
                )
                for cycle in range(3)
            ]
            return Trace(design="arb", executions=executions)

        traces = [trace_for(widths[0], 1), trace_for(widths[-1], 0)]
        vocab = Vocabulary()
        explainer = Explainer(
            VeriBugModel(VeriBugConfig(), vocab), BatchEncoder(vocab)
        )
        want = explainer.distinct_samples(contexts, traces)
        got = explainer.distinct_samples(contexts, self._roundtrip(traces))
        assert got[1] == want[1]
        assert got[2] == want[2]
        assert [s.operand_values for s in got[0]] == [
            s.operand_values for s in want[0]
        ]
        assert [s.label for s in got[0]] == [s.label for s in want[0]]

    def test_wide_values_fall_back_to_object_path(self):
        from repro.sim.trace import ExecutionColumns, StatementExecution, Trace

        executions = [
            StatementExecution(
                stmt_id=0,
                cycle=cycle,
                target="y",
                operands=("a",),
                operand_values=(1 << 90,),
                lhs_value=1,
                lhs_width=128,
            )
            for cycle in range(3)
        ]
        trace = Trace(design="wide", executions=executions)
        columns = ExecutionColumns.pack(executions)
        assert isinstance(columns.flat_values, list)  # >63-bit: no array
        (back,) = self._roundtrip([trace])
        assert list(back.executions) == executions


class _FakeFuture:
    def __init__(self, value, error=None):
        self._value = value
        self._error = error

    def result(self):
        if self._error is not None:
            error, self._error = self._error, None
            raise error

        return self._value


class _FakePool:
    """Records submissions; results come back immediately (no processes)."""

    def __init__(self, fail_first_without_blob: bool = False):
        self.submissions: list[tuple] = []
        self._fail_first_without_blob = fail_first_without_blob

    def submit(self, fn, ctx_id, blob, mutation):
        from repro.runtime.worker import MissingWorkerContext

        self.submissions.append((ctx_id, blob, mutation))
        if self._fail_first_without_blob and blob is None:
            self._fail_first_without_blob = False
            return _FakeFuture(
                None, MissingWorkerContext("worker lacks context")
            )
        return _FakeFuture(mutation)

    def shutdown(self, wait=True):
        pass


class TestWindowedSimulationDispatch:
    """``simulate_mutants`` keeps at most one small window of sim tasks
    queued — never the whole campaign backlog.  These tests pin the
    window invariant deterministically with a recording fake pool.
    """

    def _runtime_with_fake_pool(self, n_workers=2, **fake_kwargs):
        runtime = ExecutionRuntime(n_workers)
        fake = _FakePool(**fake_kwargs)
        runtime._pool = fake  # bypasses _ensure_pool's lazy start
        return runtime, fake

    def test_in_flight_tasks_never_exceed_window(self):
        runtime, fake = self._runtime_with_fake_pool(n_workers=2)
        mutations = [f"m{i}" for i in range(11)]
        window = 2 * runtime.n_workers
        stream = runtime.simulate_mutants(("ctx",), mutations)
        # Submission is lazy: nothing hits the queue before consumption.
        assert fake.submissions == []
        consumed = []
        for result in stream:
            consumed.append(result)
            in_flight = len(fake.submissions) - len(consumed)
            assert in_flight <= window
        assert consumed == mutations  # mutation order preserved
        assert len(fake.submissions) == len(mutations)
        assert runtime.stats().tasks_dispatched == len(mutations)
        runtime.close()

    def test_first_window_carries_context_blob(self):
        runtime, fake = self._runtime_with_fake_pool(n_workers=2)
        mutations = [f"m{i}" for i in range(11)]
        window = 2 * runtime.n_workers
        list(runtime.simulate_mutants(("ctx",), mutations))
        blobs = [blob for _ctx_id, blob, _mutation in fake.submissions]
        assert all(blob is not None for blob in blobs[:window])
        assert all(blob is None for blob in blobs[window:])
        runtime.close()

    def test_missing_context_retry_survives_windowing(self):
        runtime, fake = self._runtime_with_fake_pool(
            n_workers=1, fail_first_without_blob=True
        )
        mutations = [f"m{i}" for i in range(5)]
        results = list(runtime.simulate_mutants(("ctx",), mutations))
        assert results == mutations
        # The failed submission was retried once, with the blob attached.
        retried = [
            (blob, mutation)
            for _ctx_id, blob, mutation in fake.submissions
            if mutation == mutations[2 * runtime.n_workers]
        ]
        assert len(retried) == 2
        assert retried[0][0] is None and retried[1][0] is not None
        runtime.close()


class TestWorkerProtocol:
    """In-process checks of the worker task protocol's recovery paths."""

    def test_missing_context_raises_for_retry(self):
        from repro.runtime.worker import (
            MissingWorkerContext,
            _STATE,
            _install_context,
        )

        _STATE["contexts"].clear()
        with pytest.raises(MissingWorkerContext):
            _install_context(99, None)


class TestSpawnSafety:
    def test_fork_context_is_rejected(self):
        with pytest.raises(ValueError, match="spawn-safe"):
            ExecutionRuntime(2, mp_context="fork")

    def test_session_runtime_uses_spawn(self, worker_session):
        assert worker_session.runtime.start_method == "spawn"
