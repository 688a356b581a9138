"""Legacy convenience pipeline: train a model, localize bugs.

This module wires the substrates together the way the paper's evaluation
does: train on an RVDG synthetic corpus (free supervision from simulation
traces), then localize injected bugs on arbitrary designs with the
*same* model instance — the transferability claim of §VI-A.

The public entry points here (:func:`train_pipeline`,
:func:`generate_corpus_samples`) are **deprecation shims** over the
session facade in :mod:`repro.api`; they keep their historical signatures
and behavior but new code should use
:meth:`repro.api.VeriBugSession.train` /
:meth:`~repro.api.VeriBugSession.generate_corpus`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from .analysis import extract_module_contexts
from .core import (
    BatchEncoder,
    BugLocalizer,
    EvalMetrics,
    Sample,
    VeriBugConfig,
    VeriBugModel,
    build_samples,
)
from .datagen import RandomVerilogDesignGenerator, RVDGConfig
from .runtime.seeding import corpus_design_seed
from .sim import Simulator, TestbenchConfig, generate_testbench_suite
from .verilog import parse_module


@dataclass
class TrainedPipeline:
    """A trained model plus everything needed to run localization.

    Attributes:
        model: The trained VeriBug model.
        encoder: Batch encoder bound to the model's vocabulary.
        localizer: Ready-to-use bug localizer.
        train_metrics / test_metrics: Predictor quality on the synthetic
            corpus split (Table II columns).
    """

    model: VeriBugModel
    encoder: BatchEncoder
    localizer: BugLocalizer
    config: VeriBugConfig
    train_metrics: EvalMetrics | None = None
    test_metrics: EvalMetrics | None = None


@dataclass
class CorpusSpec:
    """What training data to generate (synthetic or ingested).

    Attributes:
        n_designs: RVDG designs in the corpus.  With ``source_dir`` set,
            the number of ingested designs to train on (0 = all usable).
        n_traces_per_design: Random testbenches per design.
        n_cycles: Cycles per testbench.
        test_fraction: Held-out fraction for Table-II-style evaluation.
        rvdg: Generator shape knobs (unused with ``source_dir``).
        engine: Simulation engine ("auto", "vector", "compiled", or
            "interpreted").  The default "auto" batches each design's
            testbench suite onto the lockstep vector engine.
        n_workers: When > 0, simulate designs on a process pool of this
            size; results are bit-identical to the sequential path because
            every design's testbench seed is derived from its index.
        source_dir: When set, train on the Verilog corpus ingested from
            this directory (see :mod:`repro.ingest`) instead of RVDG
            synthetics.  Usable designs ship to workers as canonical
            printed sources, so parallel runs match sequential ones.
    """

    n_designs: int = 16
    n_traces_per_design: int = 4
    n_cycles: int = 25
    test_fraction: float = 0.2
    rvdg: RVDGConfig = field(default_factory=RVDGConfig)
    engine: str = "auto"
    n_workers: int = 0
    source_dir: str | None = None


def _design_samples(
    index: int,
    source: str,
    spec: CorpusSpec,
    seed: int,
) -> list[Sample]:
    """Simulate one corpus design and build its training samples.

    Module-level so the parallel corpus layer can dispatch it to worker
    processes; the sequential path calls it inline with identical results.
    """
    module = parse_module(source)
    simulator = Simulator(module, engine=spec.engine)
    stimuli = generate_testbench_suite(
        module,
        spec.n_traces_per_design,
        TestbenchConfig(n_cycles=spec.n_cycles),
        seed=corpus_design_seed(seed, index),
    )
    traces = simulator.run_suite(stimuli)
    contexts = extract_module_contexts(module.statements())
    return build_samples(contexts, traces, design=module.name)


def generate_corpus_samples(spec: CorpusSpec, seed: int = 0) -> list[Sample]:
    """Deprecated shim over :meth:`repro.api.VeriBugSession.generate_corpus`.

    Same behavior as the internal corpus generator the session uses;
    retained for pre-``repro.api`` callers.
    """
    warnings.warn(
        "generate_corpus_samples is deprecated; use"
        " repro.api.VeriBugSession.generate_corpus (the session facade)"
        " instead",
        DeprecationWarning,
        stacklevel=2,
    )
    return _generate_corpus_samples(spec, seed)


def _corpus_design_sources(spec: CorpusSpec, seed: int) -> list[str]:
    """The corpus design sources: RVDG synthetics or an ingested directory."""
    if spec.source_dir is not None:
        from .ingest import ingest_directory

        corpus = ingest_directory(spec.source_dir)
        sources = [source for _name, source in corpus.design_sources()]
        if not sources:
            raise ValueError(
                f"no usable designs ingested from {spec.source_dir!r}"
            )
        if spec.n_designs > 0:
            sources = sources[: spec.n_designs]
        return sources
    generator = RandomVerilogDesignGenerator(spec.rvdg, seed=seed)
    return [
        source
        for _name, source in generator.generate_corpus_sources(spec.n_designs)
    ]


def _generate_corpus_samples(
    spec: CorpusSpec, seed: int = 0, runtime=None
) -> list[Sample]:
    """Simulate a corpus and convert traces to training samples.

    Design sources come from :func:`_corpus_design_sources` (RVDG
    synthetics, or an ingested directory when ``spec.source_dir`` is
    set), then each design is simulated and featurized either inline
    or — when ``spec.n_workers > 0`` — fanned out across an
    :class:`~repro.runtime.ExecutionRuntime` worker pool (the caller's
    ``runtime`` when given, e.g. the owning session's persistent pool;
    one scoped to this call otherwise).  All paths yield samples in design
    order, so the execution strategy never changes the corpus.
    """
    design_sources = _corpus_design_sources(spec, seed)
    if spec.n_workers > 0 and len(design_sources) > 1:
        from .runtime import ExecutionRuntime

        if runtime is not None:
            results = runtime.map_corpus(design_sources, spec, seed)
        else:
            with ExecutionRuntime(spec.n_workers) as scoped:
                results = scoped.map_corpus(design_sources, spec, seed)
    else:
        results = [
            _design_samples(index, source, spec, seed)
            for index, source in enumerate(design_sources)
        ]
    samples: list[Sample] = []
    for design_samples in results:
        samples.extend(design_samples)
    return samples


def train_pipeline(
    config: VeriBugConfig | None = None,
    corpus: CorpusSpec | None = None,
    seed: int = 0,
    evaluate: bool = True,
    log: bool = False,
) -> TrainedPipeline:
    """Deprecated shim over :meth:`repro.api.VeriBugSession.train`.

    Args:
        config: Model/training hyper-parameters.
        corpus: Synthetic corpus size knobs.
        seed: Seed for corpus generation (model init uses config.seed).
        evaluate: Compute train/test metrics on the corpus split.
        log: Print per-epoch training losses.

    Returns:
        The trained pipeline, ready for :meth:`BugLocalizer.localize`.
    """
    warnings.warn(
        "train_pipeline is deprecated; use repro.api.VeriBugSession.train"
        " (the session facade) instead",
        DeprecationWarning,
        stacklevel=2,
    )
    from .api import SessionConfig, VeriBugSession

    session = VeriBugSession.train(
        SessionConfig(model=config or VeriBugConfig(), seed=seed),
        corpus,
        evaluate=evaluate,
        log=log,
    )
    return session.as_pipeline()
