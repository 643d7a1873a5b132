"""The three benchmark workloads: their inputs, one timed pass, and output checks.

Each workload is a fixed list of public ``qkd2way`` calls.  A *pass* makes
every call once; the harness in ``run.py`` repeats passes for the requested
number of seconds.  Pass ``p`` of a run with seed ``s`` always gets the same
inputs, so a repeated pass must reproduce its outputs exactly.

* ``mc_verify``  -- ``montecarlo.run_batch(workers=1)`` over the attack
  scenarios of ``scripts/verify_attacks.py`` plus ``nort`` with a misaligned
  backward probe, whose rates are partly ungated.  Nearly all time is in
  qsim / attacks / protocol / rng.
* ``round_log``  -- ``protocol.run`` -> ``tally`` -> ``write_round_log``: the
  same physics, but every round is kept as a record and written out, so
  memory grows with the round count.
* ``figures``    -- the CSV pipeline of ``scripts/make_figure_data.py``
  driven in process through ``cli.main``.  The Monte Carlo layers stay idle,
  so it is the no-change control for Monte Carlo optimisations.

The module imports ``qkd2way``; the caller puts the checkout's ``src`` on
``sys.path`` first.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from qkd2way.attacks import AttackParams
from qkd2way.cli import main as cli_main
from qkd2way.montecarlo import predicted_rates, run_batch, wilson_interval
from qkd2way.protocol import ProtocolConfig, run, tally, write_round_log

RATE_NAMES = ("q1", "q_ab", "q_ae", "q_be")
GATE_Z = 5.0  # the five-sigma Wilson band run_batch gates with
REFERENCE_STEPS = 30_000  # one reference chunk: 6-10 ms on a 2 GHz VM core
REFERENCE_SHARE = 0.1  # reference time after each call, as a share of the call's time

# (name, protocol, attack); names become montecarlo.rounds_per_s.<name>
MC_SCENARIOS = (
    ("lm05_none", "lm05", AttackParams(kind="none")),
    ("lm05_ir_xi1", "lm05", AttackParams(kind="ir", xi=1.0)),
    ("lm05_ir_xi0.5", "lm05", AttackParams(kind="ir", xi=0.5)),
    ("lm05_nort_pi6", "lm05", AttackParams(kind="nort", x=math.pi / 6)),
    ("lm05_nort_pi4", "lm05", AttackParams(kind="nort", x=math.pi / 4)),
    ("lm05_nort_pi3", "lm05", AttackParams(kind="nort", x=math.pi / 3)),
    ("lm05_dcnot", "lm05", AttackParams(kind="dcnot")),
    ("lm05_dcnot_star_chi0.1", "lm05", AttackParams(kind="dcnot_star", chi=0.1)),
    ("bb84_ir", "bb84", AttackParams(kind="ir", xi=1.0)),
    ("lm05_nort_x0.7_xp1.1", "lm05", AttackParams(kind="nort", x=0.7, x_prime=1.1)),
)
LOG_SCENARIOS = (
    ("lm05_nort_pi4", "lm05", AttackParams(kind="nort", x=math.pi / 4)),
    ("bb84_ir", "bb84", AttackParams(kind="ir", xi=1.0)),
)

FIGURE_CURVES = ("ir", "nort", "dcnot-star", "generic", "bb84-ir", "bb84-opt")
# Paper threshold table (fractions) as rows of the thresholds CSV; empty = n/a.
PAPER_THRESHOLDS = {
    "IR": (0.119, 0.250, 0.171),
    "NORT": (0.100, 0.250, 0.146),
    "DCNOT*": (0.119, 0.119, None),
    "Generic": (0.088, None, 0.088),
}
THRESHOLD_TOL = 5e-4
GOLDEN_CROSSOVER_KM = 2.6367
CROSSOVER_TOL_KM = 0.01


@dataclass(frozen=True)
class Sizes:
    """Work per call; the defaults are the benchmark, smaller ones are for smoke tests."""

    mc_rounds: int = 5_000
    log_rounds: int = 10_000
    grid_step: float = 0.001
    lmax_km: float = 50.0
    lstep_km: float = 0.25


def _entropy(p: float) -> float:
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def reference_chunk() -> float:
    """Seconds taken by a fixed pure-Python loop: the machine's current speed.

    The CPU speed of a shared machine drifts by tens of percent over
    seconds, and interpreter-bound code like qkd2way drifts with it.
    Chunks run around each timed call measure the speed of that moment, so
    call time / chunk time cancels much of the drift.  (A loop that also
    makes tiny numpy calls tracked the Monte Carlo calls worse.)  The loop
    creates no garbage-collected objects, so the program's heap size does
    not change its speed.
    """
    started = time.perf_counter()
    acc = 0.0
    for i in range(1, REFERENCE_STEPS):
        acc += _entropy(i / REFERENCE_STEPS)
    return time.perf_counter() - started


class Ledger:
    """Counts public calls and output checks, and keeps what failed.

    While ``tracer`` is set, each call is recorded as a span named after
    its layer.  When ``reference`` is set (to a function timing a chunk),
    every call is followed by chunks worth at least REFERENCE_SHARE of its
    time (one at least), and ``timings`` gets (call, seconds, chunk
    seconds), where the chunk time is the mean of the chunks just before
    and just after the call.  ``begin()`` marks a gap between calls, after
    which the next call gets a chunk of its own before it.
    """

    def __init__(self):
        self.ops = 0
        self.ops_failed = 0
        self.checks = 0
        self.checks_failed = 0
        self.failures: list[str] = []
        self.tracer = None
        self.reference = None
        self.timings: list[tuple[str, float, float]] = []
        self._chunk_before = None

    def begin(self) -> None:
        self._chunk_before = None

    def _chunk(self) -> float:
        with self.untraced():
            return self.reference()

    def untraced(self):
        """Context in which the profile (if any) is paused: checks, input building."""
        return self.tracer.untraced() if self.tracer else contextlib.nullcontext()

    def call(self, span: str, label: str, fn, *args, **kwargs):
        """Call fn and return (result, seconds); a call that raises gives (None, seconds).

        ``span`` names the layer entry point (e.g. ``montecarlo.run_batch``),
        ``label`` tells this call from the others of a pass.
        """
        what = f"{span} {label}"
        self.ops += 1
        if self.reference is not None and self._chunk_before is None:
            self._chunk_before = self._chunk()
        with self.tracer.span(span, call=label) if self.tracer else contextlib.nullcontext():
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:  # counted, reported, and the run goes on
                self.ops_failed += 1
                self.failures.append(f"{what} raised {exc!r}")
                result = None
            seconds = time.perf_counter() - started
        if self.reference is not None:
            spent, chunks = 0.0, 0
            while chunks == 0 or spent < REFERENCE_SHARE * seconds:
                spent += self._chunk()
                chunks += 1
            self.timings.append((what, seconds, (self._chunk_before + spent / chunks) / 2.0))
            self._chunk_before = spent / chunks
        return result, seconds

    def cli(self, label: str, argv: list[str], sink: io.StringIO) -> float:
        """Run cli.main in process; a non-zero exit status counts as a failed call."""
        with contextlib.redirect_stdout(sink):
            status, seconds = self.call("cli.main", label, cli_main, argv)
        if status not in (0, None):
            self.ops_failed += 1
            self.failures.append(f"cli.main {label} exited {status}")
        return seconds

    def check(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.checks_failed += 1
            self.failures.append(f"check failed: {what}")


def pass_seed(seed: int, pass_index: int, item: int) -> int:
    """Seed for one call; a pure function of the workload seed, pass and call index."""
    digest = hashlib.blake2b(f"{seed}:{pass_index}:{item}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def build_inputs(workload: str, seed: int, sizes: Sizes = Sizes(), pass_index: int = 0):
    """The public-call arguments of one pass (configs, attacks, argv lists)."""
    if workload == "mc_verify":
        return [(name, ProtocolConfig(protocol=protocol, rounds=sizes.mc_rounds,
                                      seed=pass_seed(seed, pass_index, i)), attack)
                for i, (name, protocol, attack) in enumerate(MC_SCENARIOS)]
    if workload == "round_log":
        return [(name, ProtocolConfig(protocol=protocol, rounds=sizes.log_rounds,
                                      seed=pass_seed(seed, pass_index, i)), attack)
                for i, (name, protocol, attack) in enumerate(LOG_SCENARIOS)]
    if workload == "figures":
        scan = ["--lmin", "0", "--lmax", repr(sizes.lmax_km), "--lstep", repr(sizes.lstep_km)]
        argvs = [(f"curve_{a.replace('-', '_')}.csv",
                  ["curves", "--attack", a, "--grid-step", repr(sizes.grid_step)])
                 for a in FIGURE_CURVES]
        argvs += [("thresholds.csv", ["thresholds"]),
                  ("secure_gain.csv", ["gain", *scan]),
                  ("pns_regions.csv", ["pns", *scan])]
        return argvs
    raise ValueError(f"unknown workload {workload!r}")


def _in_gate(errors: int, trials: int, prediction: float) -> bool:
    lo, hi = wilson_interval(errors, trials, z=GATE_Z)
    return lo - 1e-15 <= prediction <= hi + 1e-15


def _check_rates(ledger: Ledger, label: str, tallies, protocol: str, attack) -> None:
    predictions = predicted_rates(protocol, attack)
    for rate in RATE_NAMES:
        errors, trials = getattr(tallies, rate)
        if predictions[rate] is not None and trials > 0:
            ledger.check(_in_gate(errors, trials, predictions[rate]),
                         f"{label} {rate}={errors}/{trials} outside the 5-sigma band "
                         f"around {predictions[rate]:.6f}")


def _trials(tallies) -> int:
    return sum(getattr(tallies, rate)[1] for rate in RATE_NAMES)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class PassResult:
    """What one pass did: its timed calls, work counts and outputs for repeat checks."""

    seconds: float = 0.0
    timings: list = field(default_factory=list)  # Ledger.timings of this pass's calls
    rounds: int = 0
    trials: int = 0
    log_bytes: int = 0
    bytes_out: int = 0
    call_seconds: dict = field(default_factory=dict)  # per scenario, for rounds/s by scenario
    call_rounds: dict = field(default_factory=dict)
    fingerprint: dict = field(default_factory=dict)   # tallies or file hashes; equal on a repeat


def mc_verify_pass(ledger: Ledger, seed: int, p: int, sizes: Sizes, workdir: Path) -> PassResult:
    out = PassResult()
    with ledger.untraced():
        calls = build_inputs("mc_verify", seed, sizes, p)
    for name, config, attack in calls:
        report, seconds = ledger.call("montecarlo.run_batch", name, run_batch, config, attack, workers=1)
        out.seconds += seconds
        out.call_seconds[name] = seconds
        if report is None:
            continue
        with ledger.untraced():
            out.rounds += report.rounds
            out.call_rounds[name] = report.rounds
            out.trials += _trials(report.tallies)
            out.fingerprint[name] = report.tallies
            for rate in report.rates:
                if rate.verdict is not None:
                    ledger.check(rate.verdict == "PASS",
                                 f"{name} {rate.name}={rate.errors}/{rate.trials} failed its gate")
    return out


def _write_log(records, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        write_round_log(records, fh)


def round_log_pass(ledger: Ledger, seed: int, p: int, sizes: Sizes, workdir: Path) -> PassResult:
    out = PassResult()
    with ledger.untraced():
        calls = build_inputs("round_log", seed, sizes, p)
    for name, config, attack in calls:
        path = workdir / f"rounds_{name}.csv"
        records, t_run = ledger.call("protocol.run", name, run, config, attack)
        if records is None:
            continue
        tallies, t_tally = ledger.call("protocol.tally", name, tally, records)
        _, t_write = ledger.call("protocol.write_round_log", name, _write_log, records, path)
        del records
        out.seconds += t_run + t_tally + t_write
        with ledger.untraced():
            out.rounds += config.rounds
            lines = 0
            if path.is_file():
                out.log_bytes += path.stat().st_size
                with open(path, "rb") as fh:
                    lines = sum(1 for _ in fh)
            ledger.check(lines == config.rounds + 1,
                         f"{name} round log has {lines} lines, want {config.rounds + 1}")
            out.fingerprint[name] = (tallies, _sha256(path) if lines else None)
            if tallies is not None:
                out.trials += _trials(tallies)
                _check_rates(ledger, name, tallies, config.protocol, attack)
    return out


def _check_figures(ledger: Ledger, workdir: Path) -> None:
    with open(workdir / "thresholds.csv", newline="") as fh:
        rows = {row["attack"]: row for row in csv.DictReader(fh)}
    for label, expected in PAPER_THRESHOLDS.items():
        row = rows.get(label, {})
        for column, want in zip(("lm05_dr", "lm05_rr", "bb84"), expected):
            cell = row.get(column, "")
            if want is not None:
                ledger.check(cell != "" and abs(float(cell) - want) <= THRESHOLD_TOL,
                             f"threshold {label} {column}={cell!r}, paper {want}")
    with open(workdir / "pns_regions.csv", newline="") as fh:
        footer = [row for row in csv.DictReader(fh) if row["protocol"] == "crossover"]
    km = float(footer[0]["L_km"]) if footer and footer[0]["L_km"] else math.nan
    ledger.check(abs(km - GOLDEN_CROSSOVER_KM) <= CROSSOVER_TOL_KM,
                 f"pns crossover {km} km, golden {GOLDEN_CROSSOVER_KM} km")


def figures_pass(ledger: Ledger, seed: int, p: int, sizes: Sizes, workdir: Path) -> PassResult:
    out = PassResult()
    sink = io.StringIO()
    calls = build_inputs("figures", seed, sizes, p)
    for filename, argv in calls:
        out.seconds += ledger.cli(filename, [*argv, "--out", str(workdir / filename)], sink)
    with ledger.untraced():
        for filename, _ in calls:
            path = workdir / filename
            if path.is_file():
                out.bytes_out += path.stat().st_size
                out.fingerprint[filename] = _sha256(path)
        if p == 0:
            try:
                _check_figures(ledger, workdir)
            except (OSError, KeyError, ValueError) as exc:
                ledger.check(False, f"figure outputs unreadable: {exc!r}")
    return out


PASSES = {"mc_verify": mc_verify_pass, "round_log": round_log_pass, "figures": figures_pass}
# Workloads whose inputs do not depend on the pass index: every pass must
# reproduce the outputs of the first one byte for byte.
PASS_INVARIANT = ("figures",)


def run_matches_run_batch(ledger: Ledger, seed: int, sizes: Sizes, first: PassResult) -> dict:
    """Per scenario: does tally(run(c)) equal run_batch(c).tallies for the same seed?

    Recorded, not gated: the two entry points lay out their random streams
    differently, so today they differ.
    """
    same = {}
    for name, config, attack in build_inputs("round_log", seed, sizes, 0):
        report, _ = ledger.call("montecarlo.run_batch", name, run_batch, config, attack, workers=1)
        logged = (first.fingerprint.get(name) or (None, None))[0]
        same[name] = report is not None and logged is not None and report.tallies == logged
    return same
