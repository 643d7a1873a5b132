"""qkd2way benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload {mc_verify,round_log,figures} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports ``qkd2way`` from that
checkout's ``src`` and exits 2 when there is none.  Everything runs in this
one process and its short-lived children (set-up probes and CLI cold
starts), one at a time: no worker processes.

A run measures, with tracing off:

* set-up: the time for a fresh interpreter to import qkd2way and build
  the workload's inputs (``probe.py``), over several probes.  Raw seconds
  drift with the machine's process-start speed by up to 30% between runs,
  so the gated ``setup_s`` is the median ratio of a probe to a bare
  ``python -c "import numpy"`` run beside it, times that run's nominal
  0.16 s on the machine the benchmark was tuned on, a 2-vCPU 2 GHz VM
  (raw seconds are in the run record);
* passes of the workload's public calls for ``--seconds`` seconds, each
  pass with fresh inputs derived from the seed;
* fresh ``python -m qkd2way thresholds`` processes (CLI cold start), in
  seconds and, gated, as a multiple of the bare ``python -c "import numpy"``
  runs on either side of each;
* ``peak_rss_mb``: peak resident memory of this process.

Pass times are reported in seconds and, gated, in *reference units*: each
call sits between runs of a fixed loop (``workloads.reference_chunk``) and
the call time is divided by that loop's time.  On a shared machine the CPU
speed drifts by tens of percent between runs; the ratios cancel most of
that drift, where raw seconds would not be steady enough to gate on.

Then pass 0 is repeated with the same inputs and must reproduce its
outputs exactly.  With ``--trace 1`` the repeat (passes 0-2 for
``figures``) runs under spans and cProfile and the run prints the
per-layer metrics instead (see ``tracing.py``); their self times, call
counts and bytes are per repeated pass.  Spans, the per-module table and
the run record go to ``.bench_out/`` in the checkout.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``attempted``/``failed``
count public calls and the calls that raised or exited non-zero;
``correct`` is false when any output check or call failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("mc_verify", "round_log", "figures")
SETUP_PROBES = 11
COLD_STARTS = 15
REPEATED_PASSES = {"mc_verify": 1, "round_log": 1, "figures": 3}
TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples beyond it
CHILD_TIMEOUT_S = 60
# A bare `python -c "import numpy"` on the machine the benchmark was tuned
# on, a 2-vCPU 2 GHz VM (median of 30 runs).  setup_s is the set-up time at this
# process-start speed; see _children.
NOMINAL_NUMPY_START_S = 0.16


def _setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """(seconds from spawn until the inputs exist, seconds of `import qkd2way`)."""
    started = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "probe.py"), workload, str(seed)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - started
        proc.stdout.read()
        if proc.wait(timeout=CHILD_TIMEOUT_S) != 0 or not line:
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return ready, json.loads(line)["import_s"]


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=False)


def _numpy_start() -> float:
    started = time.perf_counter()
    _python("-c", "import numpy")
    return time.perf_counter() - started


def _between_numpy_starts(ledger, count: int, span: str, label: str, fn, *args) -> list:
    """(result, seconds, ratio) of `count` calls of fn, after one untimed warm-up.

    Each call sits between two bare ``python -c "import numpy"`` runs and
    its ratio is to their mean.  Process start-up speed drifts with the
    machine by tens of percent between runs (and unlike the reference
    chunk, which tracks interpreter speed); the ratio stays steady.
    """
    timed = []
    before = _numpy_start()
    for i in range(count + 1):
        result, seconds = ledger.call(span, label, fn, *args)
        after = _numpy_start()
        if result is not None and i > 0:
            timed.append((result, seconds, 2.0 * seconds / (before + after)))
        before = after
    return timed


def _children(ledger, workload: str, seed: int, probes: int, cold_starts: int) -> dict:
    """Set-up probes and CLI cold starts, in seconds and relative to a bare numpy start."""
    setups = _between_numpy_starts(ledger, probes, "startup.probe", workload,
                                   _setup_probe, workload, seed)
    colds = _between_numpy_starts(ledger, cold_starts, "cli.cold_start", "thresholds",
                                  _python, "-m", "qkd2way", "thresholds")
    for proc, _, _ in colds:
        ledger.check(proc.returncode == 0 and proc.stdout.startswith("attack"),
                     f"cold-start thresholds exited {proc.returncode}")
    return {"setup_s": [s for _, s, _ in setups], "setup_vs_numpy": [r for *_, r in setups],
            "import_s": [probe[1] for probe, _, _ in setups],
            "cold_s": [s for _, s, _ in colds], "cold_vs_numpy": [r for *_, r in colds]}


def _one_pass(ledger, run_pass, seed, index, sizes, workdir):
    """Run pass `index`; its result carries the timings of its calls."""
    first = len(ledger.timings)
    ledger.begin()
    with ledger.tracer.span("pass", index=index) if ledger.tracer else contextlib.nullcontext():
        result = run_pass(ledger, seed, index, sizes, workdir)
    result.timings = ledger.timings[first:]
    return result


def _tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it.

    With too few samples for that, the maximum (percentile 100).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _normalized(passes) -> list[float]:
    """Each pass's time in reference units: the sum of its calls' time / chunk ratios."""
    return [sum(seconds / chunk for _, seconds, chunk in p.timings) for p in passes]


def _pass_p50_ref(passes) -> float:
    """Median pass in reference units, call by call: the sum over a pass's
    calls of each call's median time / chunk ratio across passes.

    Taking the median per call, between its own reference chunks, keeps
    the swings of machine speed within one pass out of it.
    """
    ratios: dict[str, list[float]] = {}
    for p in passes:
        for what, seconds, chunk in p.timings:
            ratios.setdefault(what, []).append(seconds / chunk)
    return sum(statistics.median(values) for values in ratios.values())


def _revision() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qkd2way").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=CHILD_TIMEOUT_S, check=False)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    return {"git": commit, "src_sha256": digest.hexdigest()}


def _describe(call) -> dict:
    """One call of the first pass, as recorded in the run record."""
    name, *args = call
    if len(args) == 1:  # figures: output file and CLI argv
        return {"out": name, "argv": args[0]}
    config, attack = args
    return {"name": name, "protocol": config.protocol, "rounds": config.rounds,
            "seed": config.seed, "attack": asdict(attack)}


def _sample_count(name: str, samples: dict) -> int:
    """How many measurements a printed metric summarises."""
    if name in ("setup_s", "setup_raw_s", "startup.import_s"):
        return samples["setup_probes"]
    if name.startswith("cli_cold_start"):
        return samples["cold_starts"]
    if name == "peak_rss_mb":
        return 1
    if name.startswith(("pass_", "figures_", "mc_rounds", "log_rounds", "montecarlo.rounds_per_s",
                        "reference_chunk")):
        return samples["passes"]
    return samples["repeated_passes"]  # per-layer numbers from the traced passes


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _layer_metrics(wl, tracing, prof, tracer, workload, passes, repeats, ledger, children) -> dict:
    """Per-layer metrics; self times, counts and bytes are per repeated (traced) pass."""
    k = len(repeats)
    table = prof.by_bucket()

    def self_s(layer):
        return _metric(table.get(layer, {}).get("self_s", 0.0) / k, "s")

    def calls(layer):
        return _metric(table.get(layer, {}).get("calls", 0) // k, "count")

    def per_pass_s(value):
        return _metric(value / k, "s")

    def is_write(key):  # qkd2way write_* functions and builtin file/csv writes
        filename, _, name = key
        if filename == "~":
            return "'write" in name
        return Path(filename).parent == tracing.PACKAGE_DIR and name.startswith("write")

    def rounds_per_s(done):
        seconds = sum(s for s, _ in done)
        return _metric(sum(n for _, n in done) / seconds if seconds else 0.0, "1/s")

    rounds = sum(r.rounds for r in repeats) // k
    trials = sum(r.trials for r in repeats) // k
    draws = prof.draws() // k
    whole = [(p.seconds, p.rounds) for p in passes]
    metrics = {
        "pass_s_p50": _metric(_median([p.seconds for p in passes]), "s"),
        "pass_s_tail": _metric(_tail([p.seconds for p in passes])[0], "s"),
        "pass_tail_ref": _metric(_tail(_normalized(passes))[0], "ref"),
        "cli_cold_start_s": _metric(_median(children["cold_s"]), "s"),
        "reference_chunk_s": _metric(_median([chunk for p in passes for *_, chunk in p.timings]), "s"),
        "mc_rounds_per_s": rounds_per_s(whole if workload == "mc_verify" else []),
        "log_rounds_per_s": rounds_per_s(whole if workload == "round_log" else []),
        "qsim.self_s": self_s("qsim"),
        "qsim.calls": calls("qsim"),
        "attacks.self_s": self_s("attacks"),
        "attacks.calls": calls("attacks"),
        "protocol.self_s": self_s("protocol"),
        "protocol.rounds": _metric(rounds, "count"),
        "protocol.tally_s": per_pass_s(prof.tally_s()),
        "protocol.write_round_log_s": per_pass_s(tracer.total_s("protocol.write_round_log")),
        "protocol.log_bytes": _metric(sum(r.log_bytes for r in repeats) // k, "B"),
        "protocol.useful_frac": _metric(trials / rounds if rounds else 0.0, "fraction"),
        "rng.self_s": self_s("rng"),
        "rng.streams": _metric(prof.calls("rng", "stream") // k, "count"),
        "rng.draws": _metric(draws, "count"),
        "rng.draws_per_round": _metric(draws / rounds if rounds else 0.0, "count"),
        "numpy.self_s": self_s("numpy"),
        "montecarlo.run_batch_s": per_pass_s(tracer.total_s("montecarlo.run_batch")),
        "montecarlo.self_s": self_s("montecarlo"),
        "montecarlo.gate_s": per_pass_s(prof.cum_s("montecarlo", "predicted_rates")
                                        + prof.cum_s("montecarlo", "wilson_interval")),
    }
    for name, _, _ in wl.MC_SCENARIOS:
        metrics[f"montecarlo.rounds_per_s.{name}"] = rounds_per_s(
            [(p.call_seconds[name], p.call_rounds[name]) for p in passes if name in p.call_rounds])
    metrics.update({
        "infotheory.curve_points_s": per_pass_s(prof.cum_s("infotheory", "curve_points")),
        "infotheory.threshold_s": per_pass_s(prof.cum_s("infotheory", "threshold")),
        "infotheory.secrecy_calls": _metric(prof.calls("infotheory", "secrecy") // k, "count"),
        "numerics.self_s": self_s("numerics"),
        "numerics.objective_evals": _metric(prof.calls_from("numerics") // k, "count"),
        "photonics.scan_s": per_pass_s(prof.cum_s("photonics", "scan_distances")),
        "photonics.crossover_s": per_pass_s(prof.cum_s("photonics", "crossover_distance")),
        "photonics.optimize_mu_calls": _metric(prof.calls("photonics", "optimize_mu") // k, "count"),
        "cli.self_s": self_s("cli"),
        "cli.write_s": per_pass_s(prof.cum_s_called_from("cli", is_write)),
        "cli.bytes_out": _metric(sum(r.bytes_out for r in repeats) // k, "B"),
        "startup.import_s": _metric(_median(children["import_s"]), "s"),
        "tracing_overhead_frac": _metric(
            _median(_normalized(repeats)) / _median(_normalized(passes[:k])) - 1.0, "fraction"),
        "checks_failed_frac": _metric(ledger.checks_failed / max(ledger.checks, 1), "fraction"),
        "ops_failed_frac": _metric(ledger.ops_failed / max(ledger.ops, 1), "fraction"),
    })
    return metrics


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, sizes=None,
                  probes: int = SETUP_PROBES, cold_starts: int = COLD_STARTS) -> dict:
    """Run one workload; returns {"line": the final JSON object, "record": what ran}."""
    import numpy as np

    import qkd2way
    import tracing
    import workloads as wl

    sizes = sizes or wl.Sizes()
    ledger = wl.Ledger()
    run_pass = wl.PASSES[workload]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR))
    try:
        children = _children(ledger, workload, seed, probes, cold_starts)
        ledger.reference = wl.reference_chunk
        passes = []
        started = time.perf_counter()
        while not passes or time.perf_counter() - started < seconds:
            passes.append(_one_pass(ledger, run_pass, seed, len(passes), sizes, workdir))
        if workload in wl.PASS_INVARIANT:
            for p in passes[1:]:
                ledger.check(p.fingerprint == passes[0].fingerprint,
                             "a pass's outputs differ from the first pass's")

        with tracing.profiled() if trace else contextlib.nullcontext() as prof:
            tracer = ledger.tracer = tracing.Tracer(prof) if trace else None
            repeats = [_one_pass(ledger, run_pass, seed, index, sizes, workdir)
                       for index in range(min(REPEATED_PASSES[workload] if trace else 1, len(passes)))]
        ledger.tracer = ledger.reference = None
        for p, again in zip(passes, repeats):
            ledger.check(again.fingerprint == p.fingerprint,
                         "a repeated pass with the same seed changed its outputs")
        matches = (wl.run_matches_run_batch(ledger, seed, sizes, passes[0])
                   if workload == "round_log" else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times = [p.seconds for p in passes]
    tail, tail_pct = _tail(times)
    if trace:
        prof = tracing.Profile(prof)
        metrics = _layer_metrics(wl, tracing, prof, tracer, workload, passes, repeats, ledger, children)
    else:
        metrics = {
            "setup_s": _metric(_median(children["setup_vs_numpy"]) * NOMINAL_NUMPY_START_S, "s"),
            "pass_p50_ref": _metric(_pass_p50_ref(passes), "ref"),
            "cli_cold_start_vs_numpy": _metric(_median(children["cold_vs_numpy"]), "ratio"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    all_rounds = sum(p.rounds for p in passes)
    workload_metrics = {
        "mc_verify": {"mc_rounds_per_s": _metric(all_rounds / sum(times), "1/s")},
        "round_log": {"log_rounds_per_s": _metric(all_rounds / sum(times), "1/s")},
        "figures": {"figures_s_p50": _metric(_median(times), "s"),
                    "figures_s_tail": _metric(tail, "s")},
    }[workload]
    workload_metrics["cli_cold_start_s"] = _metric(_median(children["cold_s"]), "s")
    workload_metrics["setup_raw_s"] = _metric(_median(children["setup_s"]), "s")
    record = {
        "benchmark": "qkd2way", "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "sizes": asdict(sizes),
        "calls_per_pass": [_describe(call) for call in wl.build_inputs(workload, seed, sizes)],
        "revision": _revision(), "qkd2way": qkd2way.__version__,
        "python": platform.python_version(), "numpy": np.__version__, "nproc": os.cpu_count(),
        "samples": {"passes": len(passes), "repeated_passes": len(repeats),
                    "setup_probes": len(children["setup_s"]), "cold_starts": len(children["cold_s"])},
        "tail": {"percentile": tail_pct, "samples": len(times)},
        "workload_metrics": workload_metrics,
        "run_matches_run_batch": matches,
        "checks": {"attempted": ledger.checks, "failed": ledger.checks_failed},
        "ops": {"attempted": ledger.ops, "failed": ledger.ops_failed},
        "failures": ledger.failures[:50],
    }
    line = {"correct": ledger.checks > 0 and ledger.checks_failed == 0 and ledger.ops_failed == 0,
            "attempted": ledger.ops, "failed": ledger.ops_failed, "metrics": metrics}
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(
        {**record, **line, "pass_seconds": times,
         "pass_timings": [p.timings for p in passes]}, indent=1))
    if trace:
        modules = {name: {"self_s": row["self_s"] / len(repeats), "calls": row["calls"] / len(repeats)}
                   for name, row in prof.by_bucket().items()}
        (OUT_DIR / f"trace-{stem}.json").write_text(json.dumps(
            {"modules_per_pass": modules, "spans": tracer.spans}, indent=1))
    return {"line": line, "record": record}


def _report(result: dict) -> None:
    record, line = result["record"], result["line"]
    print(f"qkd2way benchmark  workload={record['workload']} seed={record['seed']} "
          f"trace={record['trace']} python={record['python']} numpy={record['numpy']} "
          f"nproc={record['nproc']} rev={record['revision']['git']}")
    for name, m in {**line["metrics"], **record["workload_metrics"]}.items():
        print(f"  {name:<46} {m['value']:>14.6g} {m['unit']:<9} n={_sample_count(name, record['samples'])}")
    print(f"  samples: {json.dumps(record['samples'])}; tail = p{record['tail']['percentile']:.1f} "
          f"of {record['tail']['samples']} passes")
    print(f"  checks failed {record['checks']['failed']}/{record['checks']['attempted']}, "
          f"calls failed {line['failed']}/{line['attempted']}")
    if record["run_matches_run_batch"] is not None:
        print(f"  tally(run(c)) == run_batch(c).tallies: {record['run_matches_run_batch']}")
    for failure in record["failures"]:
        print(f"  FAIL {failure}")
    print(json.dumps(record))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qkd2way" / "__init__.py").is_file():
        print(f"error: no qkd2way sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qkd2way

    if Path(qkd2way.__file__).resolve().parent != SRC / "qkd2way":
        print(f"error: imported qkd2way from {qkd2way.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    _report(result)
    print(json.dumps(result["line"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
