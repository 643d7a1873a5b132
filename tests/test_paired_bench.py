import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "paired_bench.py"

# a stand-in for perfbench/run.py: fails on the seeds in FAIL, prints the log line
# alone on those in MALFORMED and nothing on those in EMPTY, and else prints the
# log line and then its JSON verdict, whose one metric is OFFSET + seed
_STUB = """
import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
if seed in {fail}:
    sys.exit(1)
if seed in {empty}:
    sys.exit(0)
print("pass 0 done")
if seed in {malformed}:
    sys.exit(0)
print(json.dumps({{"correct": True, "attempted": 4, "failed": 0,
                  "metrics": {{"pass_p50_ref": {{"value": {offset} + seed}}}}}}))
"""


def _checkout(root: Path, offset: float, fail=(), malformed=(), empty=()) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "pass_p50_ref", "unit": "ref", "better": "lower", "bound": 0.1}]}))
    (root / "perfbench" / "run.py").write_text(_STUB.format(fail=tuple(fail), malformed=tuple(malformed),
                                                            empty=tuple(empty), offset=offset))
    return root


def _paired(base: Path, change: Path, pairs: int) -> list[str]:
    proc = subprocess.run([sys.executable, str(SCRIPT), "--base", str(base), "--change", str(change),
                           "--workload", "round_log", "--pairs", str(pairs), "--seed", "5",
                           "--seconds", "1"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_a_failed_run_is_named_and_the_pairs_go_on(tmp_path):
    base = _checkout(tmp_path / "base", 2.0)
    change = _checkout(tmp_path / "change", 1.0, fail=(5, 6))  # every run exits 1
    lines = _paired(base, change, 2)
    assert "pair 0 seed 5 change failed with exit code 1" in lines
    assert "pair 1 seed 6 change failed with exit code 1" in lines
    assert sum(line.startswith("pair") for line in lines) == 4
    assert any(line.startswith("pass_p50_ref") and "too few runs" in line for line in lines)
    assert lines[-1] == "failed: change pair 0 (exit code 1), change pair 1 (exit code 1)"


def test_a_failed_run_is_left_out_of_the_medians_and_wins(tmp_path):
    base = _checkout(tmp_path / "base", 2.0)
    change = _checkout(tmp_path / "change", 1.0, fail=[5])
    lines = _paired(base, change, 3)
    metric = next(line.split() for line in lines if line.startswith("pass_p50_ref"))
    # base 7, 8, 9 on seeds 5-7; the change 7, 8 on seeds 6-7, winning both whole pairs
    assert metric[1] == "8" and metric[4] == "7.5" and metric[-2] == "2/2"
    assert lines[-1] == "failed: change pair 0 (exit code 1)"


def test_a_run_without_a_json_verdict_is_named_malformed_and_left_out(tmp_path):
    base = _checkout(tmp_path / "base", 2.0, empty=[6])
    change = _checkout(tmp_path / "change", 1.0, malformed=[5])  # its last line is not JSON
    lines = _paired(base, change, 3)
    assert "pair 0 seed 5 change failed with malformed output" in lines
    assert "pair 1 seed 6 base   failed with malformed output" in lines
    metric = next(line.split() for line in lines if line.startswith("pass_p50_ref"))
    # base 7, 9 on seeds 5 and 7; the change 7, 8 on seeds 6 and 7, winning the one whole pair
    assert metric[1] == "8" and metric[4] == "7.5" and metric[-2] == "1/1"
    assert lines[-1] == "failed: change pair 0 (malformed output), base pair 1 (malformed output)"
