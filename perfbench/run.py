"""VeriBug benchmark: end-to-end and per-layer metrics on three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload table3 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --write-spec              # regenerate BENCHMARK.json
    python3 perfbench/run.py --write-baseline          # traced runs -> baseline.json

``--trace 0`` reports the end-to-end metrics of one untraced pass;
``--trace 1`` runs the same pass untraced and then traced (wrappers on
the layers' public calls, see ``layers.py``), reports the per-layer
metrics and writes every span to ``perfbench/out/``.  Outputs are
checked outside the timed pass; a failed check counts against
``success_rate`` and makes the exit code 1.  The last line of standard
output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = pathlib.Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

import spec  # noqa: E402  (perfbench/ is sys.path[0] when run as a script)


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) by ``statistics.quantiles``."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_probes(workload: str, count: int) -> list[float]:
    """Wall times of ``count`` fresh-interpreter set-ups of ``workload``."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", workload],
            cwd=ROOT,
            check=True,
            timeout=120,
        )
        times.append(time.perf_counter() - start)
    return times


def traced_pass(name: str, workload, plan, untraced) -> tuple[dict, dict]:
    """Run the pass again with every layer wrapped; per-layer metrics and
    the spans.  The traced set-up runs under its own ``api.setup`` span."""
    import layers
    from tracer import Tracer

    tracer = Tracer()
    layers.install(tracer)
    try:
        ctx = tracer.call("api.setup", workload.setup)
        gc.collect()
        before = layers.Counters()
        traced = workload.run(ctx, plan, tracer)
        counters = layers.Counters().since(before)
    finally:
        tracer.restore()
    if traced.digest != untraced.digest:
        untraced.failures.append("trace: traced pass digest differs from untraced pass")
        untraced.failed = untraced.attempted
    metrics = layers.metrics(
        tracer, counters, ctx if name != "train" else None, traced, traced.wall_s, untraced.wall_s
    )
    return metrics, {"stage_table": tracer.stage_table(), "spans": tracer.to_json()}


def bench(name: str, seed: int, seconds: int, trace: bool) -> dict:
    import workloads

    workload = workloads.WORKLOADS[name]
    ctx = workload.setup()
    plan = workload.plan(ctx, seed, seconds)
    metrics: dict[str, float] = {}
    spans = None
    if trace:
        result = workload.run(ctx, plan)
        metrics, spans = traced_pass(name, workload, plan, result)
        workload.check(ctx, result)
    else:
        # Host speed drifts over seconds, so half the set-ups run before
        # the pass and half after it; setup_s is their median.
        setups = setup_probes(name, spec.SETUP_REPEATS // 2)
        gc.collect()
        result = workload.run(ctx, plan)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setups += setup_probes(name, spec.SETUP_REPEATS - len(setups))
        workload.check(ctx, result)
        metrics["setup_s"] = statistics.median(setups)
        metrics["items_per_s"] = result.attempted / result.wall_s
        metrics["item_p50_s"] = percentile(result.latencies, 50)
        metrics["item_p75_s"] = percentile(result.latencies, 75)
        metrics["success_rate"] = (result.attempted - result.failed) / result.attempted
    return {
        "result": result,
        "metrics": metrics,
        "spans": spans,
        "plan_size": len(plan) if isinstance(plan, list) else plan["epochs"],
    }


def report(name: str, seed: int, trace: bool, run: dict) -> dict:
    result = run["result"]
    print(f"workload {name} seed {seed} trace {int(trace)}")
    print(f"pass: {run['plan_size']} units, {result.attempted} items, {result.wall_s:.3f} s")
    print(f"item latency samples: {len(result.latencies)}")
    for key, value in result.quality.items():
        print(f"{key} = {value:.6f}")
    print(f"digest {result.digest}")
    for failure in result.failures:
        print(f"CHECK FAILED: {failure}")
    print(f"checks: {'ok' if not result.failures else 'FAILED'}")
    names = [m["name"] for m in spec.END_TO_END] if not trace else list(spec.PER_LAYER)
    metrics = {n: {"value": run["metrics"][n], "unit": spec.unit_of(n)} for n in names}
    for n, m in metrics.items():
        print(f"{n} = {m['value']:.6g} {m['unit']}")
    if run["spans"] is not None:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{name}-seed{seed}-spans.json"
        payload = {"workload": name, "seed": seed, "digest": result.digest, **run["spans"]}
        path.write_text(json.dumps(payload, indent=1))
        print(f"spans written to {path.relative_to(ROOT)}")
    return {
        "correct": not result.failures,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }


def write_baseline(seed: int, seconds: int) -> int:
    """Record seeds, the layer map, exclusions and each workload's traced
    stage table in ``perfbench/baseline.json``."""
    doc = {
        "default_seed": spec.DEFAULT_SEED,
        "heldout_seed": spec.HELDOUT_SEED,
        "seed": seed,
        "seconds": seconds,
        "layer_map": {
            name: {"moves": moves, "shows_on": where}
            for name, (_unit, _better, moves, where) in spec.PER_LAYER.items()
        },
        "excluded": spec.EXCLUDED,
        "workloads": {},
    }
    for w in spec.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode:
            sys.stderr.write(proc.stdout + proc.stderr)
            return proc.returncode
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        spans = json.loads((OUT_DIR / f"{w['name']}-seed{seed}-spans.json").read_text())
        doc["workloads"][w["name"]] = {
            "why": w["why"],
            "digest": spans["digest"],
            "per_layer": {k: round(v["value"], 4) for k, v in line["metrics"].items()},
            "stage_table": {
                k: {f: round(v, 4) for f, v in row.items()}
                for k, row in sorted(spans["stage_table"].items(), key=lambda kv: -kv[1]["self_s"])
            },
        }
    (HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec.WORKLOADS] + ["all"])
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    parser.add_argument("--write-spec", action="store_true", help="regenerate BENCHMARK.json")
    parser.add_argument("--write-baseline", action="store_true",
                        help="run every workload traced and write perfbench/baseline.json")
    args = parser.parse_args(argv)

    if args.write_spec:
        text = json.dumps(spec.benchmark_json(), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text)
        return 0
    if args.write_baseline:
        return write_baseline(args.seed, args.seconds)
    if args.workload is None and args.setup_probe is None:
        parser.error("--workload is required")

    missing = [p for p in ("src/repro", "tests/.cache/model_e30_d20_s1.npz", "examples/corpus")
               if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: not a repository checkout, missing {missing}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)

    if args.setup_probe:
        import workloads

        workloads.WORKLOADS[args.setup_probe].setup()
        return 0
    if args.workload == "all":
        status = 0
        for w in spec.WORKLOADS:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
        return status

    run = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    line = report(args.workload, args.seed, bool(args.trace), run)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
