"""Tests of the benchmark's own code.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``
(about two minutes: each workload runs once untraced and once traced at
smoke size).
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
HERE = ROOT / "perfbench"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import spec  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = [w["name"] for w in spec.WORKLOADS]


def _bindings() -> dict:
    """Every attribute of every loaded repro module and class, by identity."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in vars(module).items():
            seen[(name, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("repro"):
                for key, member in vars(value).items():
                    seen[(name, attr, key)] = member
    return seen


def test_benchmark_json_matches_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()
    names = [m["name"] for m in committed["end_to_end"] + committed["per_layer"]]
    assert len(names) == len(set(names))
    assert all(m["bound"] <= 0.25 for m in committed["end_to_end"])
    bounds = {m["name"]: m["bound"] for m in committed["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in committed["workloads"])


def test_wrappers_restore_repro_exactly():
    layers._import_all()  # install() does this too; snapshot the full set
    before = _bindings()
    tracer = Tracer()
    layers.install(tracer)
    try:
        during = _bindings()
        changed = [key for key, value in before.items() if during.get(key) is not value]
        assert ("repro.datagen.campaign", "apply_mutation") in changed
        assert ("repro.api.session", "sample_mutations") in changed
        assert ("repro.sim.simulator", "Simulator", "run_suite") in changed
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_self_time_excludes_children():
    tracer = Tracer()

    def child():
        time.sleep(0.02)

    def parent():
        tracer.call("child", child)
        tracer.call("child", child)
        time.sleep(0.01)

    tracer.call("parent", parent)
    outer, first, second = tracer.spans
    assert first.parent == outer.sid and second.root == outer.sid
    assert outer.self_s == pytest.approx(outer.duration - first.duration - second.duration)
    assert 0.01 <= outer.self_s < 0.02
    table = tracer.stage_table()
    assert table["child"]["count"] == 2
    assert table["child"]["self_s"] == pytest.approx(table["child"]["total_s"])


_RUNS: dict = {}


def _smoke(workload: str, trace: int) -> tuple[dict, str]:
    key = (workload, trace)
    if key not in _RUNS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        lines = proc.stdout.strip().splitlines()
        digest = next(line.split()[1] for line in lines if line.startswith("digest "))
        _RUNS[key] = (json.loads(lines[-1]), digest)
    return _RUNS[key]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric(workload):
    for trace, expected in ((0, spec.END_TO_END), (1, spec.benchmark_json()["per_layer"])):
        result, _ = _smoke(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in expected]
        for metric in expected:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    end_to_end = _smoke(workload, 0)[0]["metrics"]
    assert all(m["value"] > 0 for m in end_to_end.values())
    if workload != "train":
        assert _smoke(workload, 1)[0]["metrics"]["trace.layer_coverage"]["value"] >= 0.9


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_smoke_runs_give_the_same_digest(workload):
    assert _smoke(workload, 0)[1] == _smoke(workload, 1)[1]


def test_refuses_to_run_outside_a_checkout(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
