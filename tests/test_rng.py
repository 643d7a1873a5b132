import math

import pytest

from qkd2way.rng import Branching, coin, enumerate_paths, stream


def _two_coins(rng):
    first = coin(rng, 0.3)
    second = coin(rng, 0.0 if first else 0.6)  # impossible outcomes are pruned
    return first, second


def test_enumerate_paths_lists_every_possible_outcome_with_its_probability():
    leaves = {result: weight for weight, result in enumerate_paths(_two_coins)}
    assert leaves == {(True, False): pytest.approx(0.3),
                      (False, True): pytest.approx(0.7 * 0.6),
                      (False, False): pytest.approx(0.7 * 0.4)}
    assert math.fsum(leaves.values()) == pytest.approx(1.0, abs=1e-15)


def test_branching_stream_follows_its_forced_path():
    branch = Branching((False,))
    assert _two_coins(branch) == (False, True)
    assert branch.weight == pytest.approx(0.7 * 0.6)
    assert branch.forks == [(False, False)]


class _Wrapped:
    """Any object with the Generator's random() is a valid stream."""

    def __init__(self, gen):
        self.gen = gen

    def random(self):
        return self.gen.random()


def test_coin_draws_like_comparing_a_uniform_draw():
    plain, wrapped, reference = stream(5), _Wrapped(stream(5)), stream(5)
    for p in (0.0, 0.25, 0.5, 0.9, 1.0) * 20:
        expected = reference.random() < p
        assert coin(plain, p) == expected
        assert coin(wrapped, p) == expected
