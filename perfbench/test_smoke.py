"""Smoke tests of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

They are not part of the package's test suite (``tests/``): they check the
benchmark, not qkd2way.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from qkd2way.attacks import AttackParams  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = workloads.Sizes(mc_rounds=200, log_rounds=300, grid_step=0.01, lmax_km=5.0, lstep_km=1.0)


def _run(workload, trace):
    return run.run_benchmark(workload, seed=3, seconds=0, trace=trace, sizes=TINY,
                             probes=1, cold_starts=1)["line"]


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    line = _run(workload, trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    if trace:
        assert line["metrics"]["checks_failed_frac"]["value"] == 0
        assert line["metrics"]["ops_failed_frac"]["value"] == 0


def test_same_seed_same_inputs():
    for workload in run.WORKLOADS:
        assert workloads.build_inputs(workload, 5, TINY, 2) == workloads.build_inputs(workload, 5, TINY, 2)
    assert workloads.build_inputs("mc_verify", 5) != workloads.build_inputs("mc_verify", 6)


def test_wrong_golden_value_fails_a_check(monkeypatch):
    monkeypatch.setattr(workloads, "GOLDEN_CROSSOVER_KM", 3.5)
    line = _run("figures", True)
    assert line["metrics"]["checks_failed_frac"]["value"] > 0
    assert not line["correct"]


def test_call_that_raises_is_counted(monkeypatch):
    two_way_only = ("bb84_nort", "bb84", AttackParams(kind="nort", x=0.5))
    monkeypatch.setattr(workloads, "MC_SCENARIOS", workloads.MC_SCENARIOS + (two_way_only,))
    line = _run("mc_verify", True)
    assert line["failed"] == 2  # the timed pass and its repeat
    assert line["metrics"]["ops_failed_frac"]["value"] > 0
    assert not line["correct"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "figures",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
