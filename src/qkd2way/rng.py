"""Deterministic random streams and the package's one random decision.

All sampling goes through seeded, counter-based Philox generators:
:func:`stream` hands out numpy's own ``Generator``, keyed by a 64-bit seed and
an optional branch path, each key checked, so any work can re-derive its own
generator in any order.  This module names ``numpy.random``, which numpy loads
on first use, only inside calls, so importing the simulator does not load it.

Every random decision of the protocol, the attacks and the Born rule is a
``coin(p)`` on the stream it was handed: a :class:`Stream` compares one
uniform draw with p, and a :class:`Branching` forks instead, which is how
:func:`enumerate_paths` lists every outcome of a round with its probability.

A function is enumerated by rerunning it once per path of coin outcomes, so
coins early in a deep tree are replayed for every leaf below them.  Split
into a chain of stages, each stage reruns only once per path of its own
coins, from the value its parent stage returned: a coin prefix shared by
many leaves runs once.  Each stage's :class:`Branching` starts at its
parent's path weight and multiplies its own coins onto it, so every leaf
weight is the same product, taken in the same order, as one function
replayed from the root: the weights are bit-identical.
"""

from __future__ import annotations

import numpy as np

from .numerics import integer

MAX_SEED = 2**64 - 1  # a seed, and each branch key, is a 64-bit key


def stream(seed: int, *branch: int) -> np.random.Generator:
    """Generator for (seed, branch...); each key, an int in [0, MAX_SEED], is refused by name otherwise."""
    seq = np.random.SeedSequence(integer("seed", seed, 0, MAX_SEED),
                                 spawn_key=[integer("branch", key, 0, MAX_SEED) for key in branch])
    return np.random.Generator(np.random.Philox(seq))


class Stream:
    """Coins from ``stream(seed, *branch)``: ``coin(p)`` is True with probability p."""

    __slots__ = ("random",)

    def __init__(self, seed: int, *branch: int):
        self.random = stream(seed, *branch).random

    def coin(self, p: float) -> bool:
        return self.random() < p


class Branching:
    """Stand-in stream that follows one fixed path of coin outcomes.

    Coins beyond the forced ``path`` come up True when that is possible;
    each coin whose other outcome is also possible queues that other path
    in ``forks``.  ``weight`` is the probability of the path taken so far,
    times the ``weight`` the stream starts from.
    """

    __slots__ = ("_path", "_taken", "weight", "forks")

    def __init__(self, path: tuple[bool, ...] = (), weight: float = 1.0):
        self._path = path
        self._taken: list[bool] = []
        self.weight = weight
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


def enumerate_paths(*stages):
    """Run a chain of stages once per possible path of coin outcomes.

    ``stages[0](stream)`` starts a path and each later ``stage(value, stream)``
    continues it from the value the stage before returned; a single function
    of the stream is the one-stage chain.  Yields (probability, result of
    the last stage) per path, depth first with True before False, which is
    the order of one function replayed from the root.  Outcomes of
    probability 0 are never followed.  A stage must draw only through the
    stream's ``coin``, be deterministic given its value and outcomes, and leave
    its value unchanged: its sibling paths read that value again.
    """
    last = len(stages) - 1
    # (stage index, its input, weight so far, forced coins); the first stage
    # takes the stream alone.  A stage's forks go below its child, so the
    # child's whole subtree is walked before the stage's next path.
    pending = [(0, (), 1.0, ())]
    while pending:
        depth, args, weight, path = pending.pop()
        branch = Branching(path, weight)
        value = stages[depth](*args, branch)
        for fork in branch.forks:
            pending.append((depth, args, weight, fork))
        if depth == last:
            yield branch.weight, value
        else:
            pending.append((depth + 1, (value,), branch.weight, ()))
