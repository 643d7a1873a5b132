"""Traced-run plumbing: spans around public calls and self time by module.

Spans are recorded by the benchmark around each public call it makes, kept
in memory and written out when the run ends.  The same calls run under
``cProfile``; its entries are folded into one bucket per ``qkd2way`` module
file, with numpy as its own bucket.

cProfile does not see methods of numpy's compiled ``Generator``: their time
would land in the caller's self time.  While profiling, every stream that
``qkd2way.rng.stream`` hands out is therefore wrapped in
:class:`CountingGenerator`, whose ``random`` frame carries the draw time and
the draw count into the ``rng`` bucket.  numpy array operators (``@``, ``*``)
are not calls at all and stay in the caller's self time.
"""

from __future__ import annotations

import contextlib
import cProfile
import pstats
import time
from pathlib import Path

import numpy as np

import qkd2way
import qkd2way.rng

PACKAGE_DIR = Path(qkd2way.__file__).resolve().parent
NUMPY_DIR = Path(np.__file__).resolve().parent
HERE = Path(__file__).resolve()


class Tracer:
    """In-memory spans: name, start, end, parent span and trace (the root span's id)."""

    def __init__(self, profile: cProfile.Profile):
        self.profile = profile
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        record = {"id": sid, "parent": self._stack[-1] if self._stack else None,
                  "trace": self._stack[0] if self._stack else sid, "name": name,
                  "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def untraced(self):
        """Pause the profile, e.g. while the benchmark checks outputs."""
        self.profile.disable()
        try:
            yield
        finally:
            self.profile.enable()

    def total_s(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)


class CountingGenerator:
    """Forwards to a numpy Generator; ``random`` is a Python frame cProfile can count."""

    __slots__ = ("_gen",)

    def __init__(self, gen):
        self._gen = gen

    def random(self, *args, **kwargs):
        return self._gen.random(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


@contextlib.contextmanager
def profiled():
    """cProfile the block, with counted random streams; yields the Profile."""
    original = qkd2way.rng.stream

    def counted_stream(*args, **kwargs):
        return CountingGenerator(original(*args, **kwargs))

    profile = cProfile.Profile()
    qkd2way.rng.stream = counted_stream
    profile.enable()
    try:
        yield profile
    finally:
        profile.disable()
        qkd2way.rng.stream = original


def bucket(key) -> str:
    """Layer a cProfile entry belongs to: a qkd2way module name, numpy, rng, ..."""
    filename, _, funcname = key
    if filename == "~":  # a builtin; numpy's show their module in the name
        if "numpy.random" in funcname:
            return "rng"
        return "numpy" if "numpy" in funcname else "builtins"
    path = Path(filename)
    if path.parent == PACKAGE_DIR:
        return path.stem
    if path == HERE and funcname == "random":
        return "rng"
    if path.parent == HERE.parent:
        return "bench"
    if NUMPY_DIR in path.parents:
        return "rng" if NUMPY_DIR / "random" in path.parents else "numpy"
    return "other"


class Profile:
    """Queries over cProfile stats: self time per bucket, per-function time and calls."""

    def __init__(self, profile: cProfile.Profile):
        # key -> (primitive calls, calls, self time, cumulative time, callers)
        self.stats = pstats.Stats(profile).stats

    def by_bucket(self) -> dict[str, dict]:
        table: dict[str, dict] = {}
        for key, (_, calls, tottime, _, _) in self.stats.items():
            row = table.setdefault(bucket(key), {"self_s": 0.0, "calls": 0})
            row["self_s"] += tottime
            row["calls"] += calls
        return dict(sorted(table.items(), key=lambda kv: -kv[1]["self_s"]))

    def _entries(self, module: str, funcname: str):
        for key, value in self.stats.items():
            if key[2] == funcname and Path(key[0]).parent == PACKAGE_DIR and Path(key[0]).stem == module:
                yield key, value

    def calls(self, module: str, funcname: str) -> int:
        return sum(v[1] for _, v in self._entries(module, funcname))

    def cum_s(self, module: str, funcname: str) -> float:
        return sum(v[3] for _, v in self._entries(module, funcname))

    def draws(self) -> int:
        """Generator.random calls made through CountingGenerator."""
        return sum(v[1] for key, v in self.stats.items()
                   if Path(key[0]) == HERE and key[2] == "random")

    def calls_from(self, module: str) -> int:
        """Calls made by functions of one qkd2way module (e.g. solver objective evaluations)."""
        return sum(nc for _, (_, _, _, _, callers) in self.stats.items()
                   for caller, (_, nc, _, _) in callers.items()
                   if Path(caller[0]).parent == PACKAGE_DIR and Path(caller[0]).stem == module)

    def cum_s_called_from(self, module: str, callee) -> float:
        """Cumulative time of the callees matching callee(key) when called from one module."""
        total = 0.0
        for key, (_, _, _, _, callers) in self.stats.items():
            if not callee(key):
                continue
            for caller, (_, _, _, ct) in callers.items():
                if Path(caller[0]).parent == PACKAGE_DIR and Path(caller[0]).stem == module:
                    total += ct
        return total

    def tally_s(self) -> float:
        """Time inside protocol.tally, minus the rounds a generator argument produced for it."""
        total = self.cum_s("protocol", "tally")
        for key, (_, _, _, _, callers) in self.stats.items():
            if key[2] != "<genexpr>":
                continue
            for caller, (_, _, _, ct) in callers.items():
                if caller[2] == "tally" and Path(caller[0]).parent == PACKAGE_DIR:
                    total -= ct
        return total
