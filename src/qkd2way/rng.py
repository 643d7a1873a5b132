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


def stream(seed: int, *branch: int) -> np.random.Generator:
    """Generator for (seed, branch...): one stream per non-negative input, refusing a negative one."""
    seq = np.random.SeedSequence(seed, spawn_key=branch)
    return np.random.Generator(np.random.Philox(seq))


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


def coin(stream, p: float) -> bool:
    """True with probability p.

    ``stream`` is a numpy Generator, or anything with its ``random()``
    method, or a :class:`Branching` stream, which forks instead of sampling.
    """
    if type(stream) is Branching:
        return stream.coin(p)
    return stream.random() < p


def enumerate_paths(*stages):
    """Run a chain of stages once per possible path of coin outcomes.

    ``stages[0](stream)`` starts a path and each later ``stage(value, stream)``
    continues it from the value the stage before returned; a single function
    of the stream is the one-stage chain.  Yields (probability, result of
    the last stage) per path, depth first with True before False, which is
    the order of one function replayed from the root.  Outcomes of
    probability 0 are never followed.  A stage must draw only through
    :func:`coin`, be deterministic given its value and outcomes, and leave
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
