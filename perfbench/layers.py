"""Which ``repro`` calls the traced run wraps, and the per-layer metrics.

Span names are ``<layer>.<call>`` after the ``repro`` module the call
belongs to.  ``api.*`` spans are the benchmark's own calls into the
session facade; everything below them is a layer span.
"""

from __future__ import annotations

import importlib
import weakref


def _import_all() -> None:
    """Import every repro module first, so none binds a wrapper by name
    while tracing and keeps it after :meth:`Tracer.restore`."""
    import pkgutil

    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def install(tracer) -> None:
    """Wrap the public boundary of every layer the workloads reach."""
    _import_all()
    from repro.analysis import slicing
    from repro.api import VeriBugSession
    from repro.core import LocalizationEngine, Trainer
    from repro.datagen import mutation
    from repro.ingest import corpus
    from repro.lint import LintEngine
    from repro.sim import Simulator, testbench
    from repro.verilog.parser import Parser

    seen = weakref.WeakSet()

    def suite_attrs(args, _kwargs):
        simulator = args[0]
        cold = simulator not in seen
        seen.add(simulator)
        return {"cold": cold}

    def fit_attrs(args, kwargs):
        trainer, samples = args[0], args[1]
        epochs = kwargs.get("epochs", args[2] if len(args) > 2 else None)
        return {"samples": len(samples), "epochs": epochs or trainer.config.epochs}

    tracer.wrap_function(mutation.sample_mutations, "mutation.sample")
    tracer.wrap_function(mutation.apply_mutation, "mutation.apply")
    tracer.wrap_function(slicing.compute_static_slice, "analysis.slice")
    tracer.wrap_method(Simulator, "__init__", "compiler.init")
    tracer.wrap_method(Simulator, "run_suite", "simulator.suite", suite_attrs)
    tracer.wrap_function(testbench.generate_testbench_suite, "testbench.suite")
    tracer.wrap_method(
        LocalizationEngine,
        "localize_many",
        "localizer.localize_many",
        lambda args, _kwargs: {"requests": len(args[1])},
    )
    tracer.wrap_method(VeriBugSession, "generate_corpus", "pipeline.generate_corpus")
    tracer.wrap_method(Trainer, "train", "trainer.fit", fit_attrs)
    tracer.wrap_method(Trainer, "evaluate", "trainer.evaluate")
    tracer.wrap_function(corpus.ingest_directory, "ingest.ingest")
    tracer.wrap_method(LintEngine, "run", "lint.run")
    tracer.wrap_method(Parser, "parse", "verilog.parse")


class Counters:
    """Process-wide program counters, read before and after a pass."""

    def __init__(self):
        from repro.sim.compiler import compile_cache_stats
        from repro.sim.simulator import engine_stats

        self.engines = engine_stats()
        self.compile = compile_cache_stats()

    def since(self, before: "Counters") -> dict[str, float]:
        vector = {k: v - before.engines["vector"][k] for k, v in self.engines["vector"].items()}
        hits = self.compile["hits"] - before.compile["hits"]
        misses = self.compile["misses"] - before.compile["misses"]
        return {
            "lane_cycles": vector["cycles"],
            "scalar_fallbacks": vector["scalar_fallbacks"],
            "compile_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        }


def _rate(stats: dict) -> float:
    total = stats["hits"] + stats["misses"]
    return stats["hits"] / total if total else 0.0


def metrics(tracer, counters: dict, session, result, traced_wall: float, untraced_wall: float):
    """Every per-layer metric of the traced run (0 where a layer is idle).

    ``session`` is the campaign session whose inference cache and memo
    served the traced pass, or None for ``train``.
    """
    spans = tracer.spans
    table = tracer.stage_table()

    def self_s(name: str) -> float:
        return table.get(name, {}).get("self_s", 0.0)

    def count(name: str) -> int:
        return int(table.get(name, {}).get("count", 0))

    suites = [s for s in spans if s.name == "simulator.suite"]
    suite_s = sum(s.self_s for s in suites)
    campaigns = [s for s in spans if s.name == "api.campaign"]
    campaign_roots = {s.sid for s in campaigns}
    suites_in_campaigns = sum(
        1 for s in spans if s.name == "testbench.suite" and s.root in campaign_roots
    )
    fits = [s for s in spans if s.name == "trainer.fit"]
    fit_s = sum(s.duration for s in fits)
    fit_samples = sum(s.attrs["samples"] * s.attrs["epochs"] for s in fits)
    setup_roots = {s.sid for s in spans if s.name == "api.setup"}
    layer_self = sum(
        s.self_s for s in spans if not s.name.startswith("api.") and s.root not in setup_roots
    )
    outcomes = [o for r in result.records for o in r.outcomes]
    cache = session.cache_stats() if session is not None else None
    memo = session.memo_stats() if session is not None else None
    values = {
        "mutation.sample_s": self_s("mutation.sample"),
        "mutation.apply_s": self_s("mutation.apply"),
        "mutation.apply_calls": count("mutation.apply"),
        "simulator.cold_suite_s": sum(s.self_s for s in suites if s.attrs["cold"]),
        "simulator.warm_suite_s": sum(s.self_s for s in suites if not s.attrs["cold"]),
        "simulator.lane_cycles_per_s": counters["lane_cycles"] / suite_s if suite_s else 0.0,
        "simulator.scalar_fallbacks": counters["scalar_fallbacks"],
        "compiler.init_s": self_s("compiler.init"),
        "compiler.cache_hit_rate": counters["compile_hit_rate"],
        "testbench.suite_s": self_s("testbench.suite"),
        "testbench.suite_calls": count("testbench.suite"),
        "campaign.topup_batches": suites_in_campaigns - len(campaigns),
        "localizer.localize_many_s": self_s("localizer.localize_many"),
        "localizer.requests": sum(
            s.attrs["requests"] for s in spans if s.name == "localizer.localize_many"
        ),
        "localizer.cache_hit_rate": _rate(cache) if cache else 0.0,
        "localizer.memo_hit_rate": _rate(memo) if memo else 0.0,
        "campaign.observable_ratio": (
            sum(1 for o in outcomes if o.observable) / len(outcomes) if outcomes else 0.0
        ),
        "campaign.mutant_errors": sum(1 for o in outcomes if o.error),
        "api.campaign_self_s": self_s("api.campaign"),
        "pipeline.generate_corpus_s": self_s("pipeline.generate_corpus"),
        "trainer.fit_s": self_s("trainer.fit"),
        "trainer.samples_per_s": fit_samples / fit_s if fit_s else 0.0,
        "trainer.evaluate_s": self_s("trainer.evaluate"),
        "ingest.ingest_s": self_s("ingest.ingest"),
        "lint.run_s": self_s("lint.run"),
        "verilog.parse_s": self_s("verilog.parse"),
        "quality.top1_coverage": 0.0,
        "quality.top3_coverage": 0.0,
        "quality.heldout_accuracy": 0.0,
        "trace.layer_coverage": layer_self / traced_wall if traced_wall else 0.0,
        "trace.overhead_ratio": traced_wall / untraced_wall if untraced_wall else 0.0,
    }
    values.update(result.quality)
    return values

