"""Deterministic random streams and the package's one random decision.

All sampling in the package goes through explicitly seeded, counter-based
Philox generators.  A stream is keyed by a 64-bit seed plus an optional
branch path, so any piece of work can re-derive its own generator
independent of execution order.

Every random decision of the protocol, the attacks and the Born rule is a
:func:`coin`.  Handing the same code a :class:`Branching` stream instead of
a generator makes each coin fork rather than sample, which is how
:func:`enumerate_paths` lists every outcome of a round with its exact
probability.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def stream(seed: int, *branch: int) -> np.random.Generator:
    """Generator for (seed, branch...); identical inputs give identical streams."""
    seq = np.random.SeedSequence(seed & _MASK64, spawn_key=tuple(b & _MASK64 for b in branch))
    return np.random.Generator(np.random.Philox(seq))


class Branching:
    """Stand-in stream that follows one fixed path of coin outcomes.

    Coins beyond the forced ``path`` come up True when that is possible;
    each coin whose other outcome is also possible queues that other path
    in ``forks``.  ``weight`` is the probability of the path taken so far.
    """

    __slots__ = ("_path", "_taken", "weight", "forks")

    def __init__(self, path: tuple[bool, ...] = ()):
        self._path = path
        self._taken: list[bool] = []
        self.weight = 1.0
        self.forks: list[tuple[bool, ...]] = []

    def coin(self, p: float) -> bool:
        depth = len(self._taken)
        if depth < len(self._path):
            outcome = self._path[depth]
        else:
            outcome = p > 0.0
            if outcome and p < 1.0:
                self.forks.append((*self._taken, False))
        self._taken.append(outcome)
        self.weight *= p if outcome else 1.0 - p
        return outcome


def coin(stream, p: float) -> bool:
    """True with probability p.

    ``stream`` is a numpy Generator, or anything with its ``random()``
    method, or a :class:`Branching` stream, which forks instead of sampling.
    """
    if type(stream) is Branching:
        return stream.coin(p)
    return stream.random() < p


def enumerate_paths(fn):
    """Call fn(stream) once per possible path of coin outcomes.

    Yields (probability, result) per path; outcomes of probability 0 are
    never followed.  fn must draw only through :func:`coin` and be
    deterministic given the outcomes.
    """
    pending = [()]
    while pending:
        branch = Branching(pending.pop())
        result = fn(branch)
        pending.extend(branch.forks)
        yield branch.weight, result
