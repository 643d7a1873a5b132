import math

import pytest

from qkd2way.rng import Branching, enumerate_paths, stream


def _two_coins(rng):
    first = rng.coin(0.3)
    second = rng.coin(0.0 if first else 0.6)  # impossible outcomes are pruned
    return first, second


def test_enumerate_paths_lists_every_possible_outcome_with_its_probability():
    leaves = {result: weight for weight, result in enumerate_paths(_two_coins)}
    assert leaves == {(True, False): pytest.approx(0.3),
                      (False, True): pytest.approx(0.7 * 0.6),
                      (False, False): pytest.approx(0.7 * 0.4)}
    assert math.fsum(leaves.values()) == pytest.approx(1.0, abs=1e-15)


def _ladder_head(rng):
    return [rng.coin(0.1), rng.coin(1.0 / 3.0)]


def _ladder_tail(taken, rng):
    # the tail's coins depend on the head's outcomes; its value is a new list
    p = 0.37 if taken[0] else 0.0
    return [*taken, rng.coin(p), rng.coin(0.7 if taken[1] else 0.29)]


def _ladder(rng):
    return _ladder_tail(_ladder_head(rng), rng)


def test_a_chain_of_stages_lists_the_paths_of_one_function_bit_for_bit():
    one_stage = list(enumerate_paths(_ladder))
    two_stages = list(enumerate_paths(_ladder_head, _ladder_tail))
    assert len(one_stage) == 12
    assert two_stages == one_stage  # weights with ==, in the same order


def test_branching_stream_follows_its_forced_path():
    branch = Branching((False,))
    assert _two_coins(branch) == (False, True)
    assert branch.weight == pytest.approx(0.7 * 0.6)
    assert branch.forks == [(False, False)]


def test_coin_draws_like_comparing_a_uniform_draw():
    plain, reference = stream(5), stream(5)
    for p in (0.0, 0.25, 0.5, 0.9, 1.0) * 20:
        expected = reference.random() < p
        assert plain.coin(p) == expected
