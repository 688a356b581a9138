"""The three workloads: their set-up, their inputs, one pass, its checks.

Every workload runs sequentially (``n_workers=0``) on session defaults:
the ``auto`` simulation engine, 12 traces per campaign, localization
batches of 8 and the structural inference cache.  Campaign workloads load
the committed model fixture; ``train`` trains from scratch.

A pass is a fixed list of work units made from the workload seed, so two
passes on the same seed give the same outcomes and the same digest.
Each campaign gets its own seed, so no round replays an earlier one.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

FIXTURE = "tests/.cache/model_e30_d20_s1.npz"
CORPUS_DIR = "examples/corpus"

#: Nominal cost of one unit of work, measured at the baseline on a
#: 2-core x86-64 host; it only converts ``--seconds`` into a fixed
#: number of rounds or epochs.
TABLE3_ROUND_S = 3.3  # 8 campaigns, ~56 mutants
CORPUS_ROUND_S = 4.0  # 43 campaigns, ~140 mutants
TRAIN_EPOCH_S = 5.0  # ~14.5k training samples

#: The paper corpus spec (20 RVDG designs x 4 traces x 25 cycles).
TRAIN_DESIGNS, TRAIN_TRACES, TRAIN_CYCLES = 20, 4, 25

#: Observable mutants per pass re-localized by the reference arm.
REFERENCE_SAMPLE = 4
#: Held-out samples whose fused predictions are checked against autograd.
PREDICT_SAMPLE = 512
TOLERANCE = 1e-9


def campaign_seed(seed: int, round_index: int, design: str, target: str) -> int:
    """A 32-bit seed of its own for one campaign of one round."""
    text = f"{seed}/{round_index}/{design}/{target}".encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big")


@dataclass
class PassResult:
    """What one pass produced and how long it took."""

    wall_s: float
    attempted: int
    latencies: list[float]
    digest: str
    quality: dict[str, float]
    failures: list[str] = field(default_factory=list)
    failed: int = 0
    # Workload-specific material for the output checks.
    records: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Campaign workloads
# ----------------------------------------------------------------------


@dataclass
class CampaignRecord:
    design: str
    target: str
    seed: int
    outcomes: list
    ranking: tuple


class CampaignWorkload:
    """Bug-injection campaigns, one per (design, target, seed) unit."""

    def __init__(self, name: str, round_s: float):
        self.name = name
        self.round_s = round_s

    def session(self, **overrides):
        """A warm-ready session: package import, checkpoint load and,
        for ``corpus``, ingest with lint."""
        from repro.api import SessionConfig, VeriBugSession

        config = SessionConfig(**overrides)
        if self.name == "corpus":
            config = config.with_corpus(CORPUS_DIR)
        session = VeriBugSession.from_checkpoint(FIXTURE, config)
        if self.name == "corpus":
            session.corpus  # noqa: B018 - ingest and lint now, not mid-pass
        return session

    setup = session

    def pairs(self, session) -> list[tuple[str, str]]:
        if self.name == "table3":
            from repro.designs import REGISTRY

            return [(name, t) for name, info in REGISTRY.items() for t in info.targets]
        corpus = session.corpus
        return [(name, out) for name in corpus.names() for out in corpus.module(name).outputs]

    def plan(self, session, seed: int, seconds: int) -> list[tuple[str, str, int]]:
        rounds = max(1, round(seconds / self.round_s))
        pairs = self.pairs(session)
        return [
            (design, target, campaign_seed(seed, r, design, target))
            for r in range(rounds)
            for design, target in pairs
        ]

    def run(self, session, units, tracer=None) -> PassResult:
        records: list[CampaignRecord] = []
        latencies: list[float] = []
        failures: list[str] = []
        attempted = 0
        begin = time.perf_counter()
        for design, target, seed in units:
            start = time.perf_counter()
            try:
                if tracer is None:
                    report = session.campaign(design, target, seed=seed).run()
                else:
                    report = tracer.call(
                        "api.campaign",
                        lambda: session.campaign(design, target, seed=seed).run(),
                    )
            except Exception as exc:  # one failed campaign must not end the pass
                attempted += 1
                failures.append(f"{design}/{target} seed {seed}: {type(exc).__name__}: {exc}")
                continue
            # Targets whose cone has no statement with two operands never
            # get a mutant; their ~4 ms empty campaigns would make the
            # latency distribution bimodal, so only real campaigns count.
            if report.outcomes:
                latencies.append(time.perf_counter() - start)
            attempted += len(report.outcomes)
            records.append(
                CampaignRecord(design, target, seed, report.outcomes, report.snapshot.ranking)
            )
        wall = time.perf_counter() - begin
        return PassResult(
            wall_s=wall,
            attempted=max(attempted, 1),
            latencies=latencies,
            digest=campaign_digest(records),
            quality=campaign_quality(records),
            failures=failures,
            failed=len(failures),
            records=records,
        )

    # -- output checks, outside the timed pass ---------------------------
    def check(self, session, result: PassResult) -> None:
        self._check_oracle(session, result)
        self._check_reference(result)

    def _testbench(self, session, design: str):
        from repro.designs import REGISTRY, design_testbench

        # The campaign defaults: 10 cycles on the session's engine.
        if design in REGISTRY:
            testbench = design_testbench(design, n_cycles=10)
        else:
            testbench = session.corpus.design(design).testbench(10)
        testbench.engine = session.config.engine
        return testbench

    def _check_oracle(self, session, result: PassResult) -> None:
        """Golden traces of every design match the interpreted engine."""
        from repro.sim import Simulator, generate_testbench_suite

        first_seed: dict[str, int] = {}
        for record in result.records:
            first_seed.setdefault(record.design, record.seed)
        for design, seed in first_seed.items():
            module = session.resolve_design(design)
            stimuli = generate_testbench_suite(
                module, session.config.n_traces, self._testbench(session, design), seed=seed
            )
            fast = Simulator(module, engine=session.config.engine).run_suite(stimuli)
            oracle = Simulator(module, engine="interpreted")
            mismatch = next(
                (i for i, (s, t) in enumerate(zip(stimuli, fast)) if not same_trace(t, oracle.run(s))),
                None,
            )
            if mismatch is not None:
                result.failures.append(f"oracle: {design} trace {mismatch} differs from interpreted")
                result.failed += sum(
                    len(r.outcomes) for r in result.records if r.design == design
                )

    def _check_reference(self, result: PassResult) -> None:
        """A sample of observable mutants re-localized by the autograd
        reference (``fast_inference=False``, no cache) ranks identically."""
        reference = self.session(fast_inference=False, cache_policy="off")
        sampled: set[str] = set()
        for record in result.records:
            if len(sampled) >= REFERENCE_SAMPLE:
                break
            if record.design in sampled:
                continue
            outcome = next((o for o in record.outcomes if o.observable), None)
            if outcome is None:
                continue
            sampled.add(record.design)
            (ref,) = reference.campaign(
                record.design, record.target, [outcome.mutation], seed=record.seed
            ).run().outcomes
            if not same_outcome(outcome, ref):
                result.failures.append(
                    f"reference: {record.design}/{record.target} {outcome.mutation.detail}:"
                    f" rank {outcome.rank} vs reference {ref.rank}"
                )
                result.failed += 1


def same_trace(left, right) -> bool:
    if left.outputs != right.outputs:
        return False
    a, b = left.execution_columns(), right.execution_columns()
    if a.stmt_table != b.stmt_table:
        return False
    return all(
        np.array_equal(np.asarray(getattr(a, f)), np.asarray(getattr(b, f)))
        for f in ("stmt_slots", "cycles", "lhs_values", "flat_values")
    )


def same_outcome(fast, reference) -> bool:
    if (fast.observable, fast.rank, fast.localized, fast.n_failing, fast.n_correct) != (
        reference.observable,
        reference.rank,
        reference.localized,
        reference.n_failing,
        reference.n_correct,
    ):
        return False
    if fast.suspiciousness is None or reference.suspiciousness is None:
        return fast.suspiciousness is reference.suspiciousness
    return abs(fast.suspiciousness - reference.suspiciousness) <= TOLERANCE


def campaign_digest(records: list[CampaignRecord]) -> str:
    """sha256 over every (mutant, observable, rank) and each final ranking."""
    h = hashlib.sha256()
    for r in records:
        h.update(f"{r.design}/{r.target}/{r.seed}:{r.ranking}\n".encode())
        for o in r.outcomes:
            m = o.mutation
            h.update(
                f"{m.kind},{m.stmt_id},{m.node_index},{m.replacement},"
                f"{o.observable},{o.rank},{bool(o.error)}\n".encode()
            )
    return h.hexdigest()


def campaign_quality(records: list[CampaignRecord]) -> dict[str, float]:
    """Table III coverage: localized at top-1 (top-3) / observable."""
    observable = [o for r in records for o in r.outcomes if o.observable]
    if not observable:
        return {"quality.top1_coverage": 0.0, "quality.top3_coverage": 0.0}
    top1 = sum(1 for o in observable if o.localized)
    top3 = sum(1 for o in observable if o.rank is not None and o.rank <= 3)
    return {
        "quality.top1_coverage": top1 / len(observable),
        "quality.top3_coverage": top3 / len(observable),
    }


# ----------------------------------------------------------------------
# Training workload
# ----------------------------------------------------------------------


class StepClock:
    """Records when each optimizer step ends, to give per-minibatch
    latency without tracing: one clock read per ~20 ms step."""

    def __init__(self):
        from repro.nn import Adam

        self.ends: list[float] = []
        self._cls = Adam
        self._original = Adam.__dict__["step"]
        original, ends = self._original, self.ends

        def step(optimizer):
            original(optimizer)
            ends.append(time.perf_counter())

        Adam.step = step

    def restore(self) -> None:
        self._cls.step = self._original

    def latencies(self) -> list[float]:
        return [b - a for a, b in zip(self.ends, self.ends[1:])]


class TrainWorkload:
    """``VeriBugSession.train`` with the design-level held-out split."""

    name = "train"

    def setup(self):
        """Package import: training builds everything else itself."""
        import repro.api  # noqa: F401
        import repro.pipeline  # noqa: F401

    def plan(self, _ctx, seed: int, seconds: int) -> dict:
        return {"seed": seed, "epochs": max(1, round(seconds / TRAIN_EPOCH_S))}

    @staticmethod
    def _spec():
        from repro.pipeline import CorpusSpec

        return CorpusSpec(
            n_designs=TRAIN_DESIGNS, n_traces_per_design=TRAIN_TRACES, n_cycles=TRAIN_CYCLES
        )

    def run(self, _ctx, plan: dict, tracer=None) -> PassResult:
        from repro.api import SessionConfig, VeriBugSession
        from repro.core import VeriBugConfig

        seed, epochs = plan["seed"], plan["epochs"]
        config = SessionConfig(model=VeriBugConfig(epochs=epochs, seed=seed)).with_seed(seed)
        clock = StepClock()
        try:
            begin = time.perf_counter()
            if tracer is None:
                session = VeriBugSession.train(config, self._spec(), evaluate=True)
            else:
                session = tracer.call(
                    "api.train", VeriBugSession.train, config, self._spec(), evaluate=True
                )
            wall = time.perf_counter() - begin
        finally:
            clock.restore()
        h = hashlib.sha256()
        for param in session.model.parameters():
            h.update(np.ascontiguousarray(param.data).tobytes())
        h.update(repr(session.test_metrics).encode())
        return PassResult(
            wall_s=wall,
            attempted=session.train_metrics.n_samples * epochs,
            latencies=clock.latencies(),
            digest=h.hexdigest(),
            quality={"quality.heldout_accuracy": session.test_metrics.accuracy},
            extra={"session": session, "seed": seed},
        )

    def check(self, _ctx, result: PassResult) -> None:
        from repro.api import generate_corpus
        from repro.core import train_test_split
        from repro.datagen import RandomVerilogDesignGenerator, RVDGConfig
        from repro.runtime.seeding import corpus_design_seed
        from repro.sim import Simulator, TestbenchConfig, generate_testbench_suite
        from repro.verilog import parse_module

        session, seed = result.extra["session"], result.extra["seed"]
        spec = self._spec()
        # Golden traces of every corpus design match the interpreted engine.
        generator = RandomVerilogDesignGenerator(RVDGConfig(), seed=seed)
        for index, (name, source) in enumerate(generator.generate_corpus_sources(TRAIN_DESIGNS)):
            module = parse_module(source)
            stimuli = generate_testbench_suite(
                module, TRAIN_TRACES, TestbenchConfig(n_cycles=TRAIN_CYCLES),
                seed=corpus_design_seed(seed, index),
            )
            fast = Simulator(module, engine=session.config.engine).run_suite(stimuli)
            oracle = Simulator(module, engine="interpreted")
            if not all(same_trace(t, oracle.run(s)) for s, t in zip(stimuli, fast)):
                result.failures.append(f"oracle: {name} differs from interpreted")
        # Held-out predictions of the fused no-grad path match autograd,
        # and re-evaluating the held-out split reproduces the metric.
        _, held_out = train_test_split(
            generate_corpus(spec, seed=seed), spec.test_fraction, seed=seed, split_by_design=True
        )
        batch = session.encoder.encode(held_out[:PREDICT_SAMPLE])
        if not np.array_equal(
            session.model.predict(batch), session.model(batch).predictions()
        ):
            result.failures.append("reference: fused predictions differ from autograd")
        if session.evaluate(held_out).accuracy != session.test_metrics.accuracy:
            result.failures.append("reference: held-out accuracy does not reproduce")
        if result.failures:
            result.failed = result.attempted


WORKLOADS = {
    "table3": CampaignWorkload("table3", TABLE3_ROUND_S),
    "corpus": CampaignWorkload("corpus", CORPUS_ROUND_S),
    "train": TrainWorkload(),
}
