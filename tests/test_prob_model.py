import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfl_lines.prob_model import (
    NoGamesAtSpreadError,
    WinDistribution,
    WinModel,
    empirical_win_rate,
    expected_wins,
    parlay_probability,
    poisson_binomial,
    win_probability,
)

from conftest import make_dataset, make_game


def brute_force_pmf(probs):
    """Oracle: sum the probability of every one of the 2^n outcome sequences."""
    n = len(probs)
    pmf = [0.0] * (n + 1)
    for mask in range(1 << n):
        p = 1.0
        k = 0
        for i, pi in enumerate(probs):
            if (mask >> i) & 1:
                p *= pi
                k += 1
            else:
                p *= 1.0 - pi
        pmf[k] += p
    return pmf


MODEL = WinModel()


def test_win_probability_model_column():
    for spread, expected in ((1, 0.529), (3, 0.587), (5, 0.644), (7, 0.697)):
        assert abs(win_probability(MODEL, spread) - expected) < 5e-4


def test_win_probability_edge_cases():
    assert win_probability(MODEL, 0.0) == 0.5
    assert win_probability(MODEL, -7.0) < 0.5 < win_probability(MODEL, 7.0)


@given(st.floats(-30, 30))
def test_win_probability_signed_symmetry(spread):
    assert abs(win_probability(MODEL, spread) + win_probability(MODEL, -spread) - 1.0) < 1e-12


def test_win_probability_strictly_increasing():
    spreads = np.linspace(-20, 20, 201)
    probs = [win_probability(MODEL, float(s)) for s in spreads]
    assert all(a < b for a, b in zip(probs, probs[1:]))


def test_win_model_validation():
    with pytest.raises(ValueError):
        WinModel(sigma=0.0)


def test_parlay_examples():
    assert abs(parlay_probability(MODEL, [7.0, 4.0]) - 0.429) < 1e-3
    assert parlay_probability(MODEL, []) == 1.0
    assert parlay_probability(MODEL, [0.0, 0.0]) == 0.25


@given(st.floats(-15, 15))
def test_parlay_singleton(spread):
    assert parlay_probability(MODEL, [spread]) == win_probability(MODEL, spread)


def test_empirical_win_rate(divisions):
    games = [
        make_game(week=1, home="NE", away="NYJ", home_score=30, away_score=10, line_close=7.0),
        make_game(week=2, home="MIA", away="NE", home_score=10, away_score=24, line_close=-7.0),
        make_game(week=3, home="BUF", away="NE", home_score=20, away_score=27, line_close=3.0),
        make_game(week=4, home="NE", away="BUF", home_score=13, away_score=27, line_close=7.0),
    ]
    ds = make_dataset(games, divisions)
    result = empirical_win_rate(ds, 7.0)
    # favorites at 7: won, won, lost
    assert result.n == 3
    assert result.rate == pytest.approx(2 / 3)
    assert result.ties == 0


def test_empirical_win_rate_tie_counts_half(divisions):
    games = [
        make_game(week=1, home="NE", away="NYJ", home_score=20, away_score=20, line_close=3.0),
        make_game(week=2, home="NE", away="MIA", home_score=24, away_score=10, line_close=3.0),
    ]
    result = empirical_win_rate(make_dataset(games, divisions), 3.0)
    assert result == (0.75, 2, 1)


def test_empirical_win_rate_tolerance(divisions):
    games = [
        make_game(week=1, home="NE", away="NYJ", home_score=30, away_score=10, line_close=6.5),
        make_game(week=2, home="NE", away="MIA", home_score=10, away_score=30, line_close=7.5),
    ]
    ds = make_dataset(games, divisions)
    assert empirical_win_rate(ds, 7.0, tolerance=0.5).n == 2
    with pytest.raises(NoGamesAtSpreadError):
        empirical_win_rate(ds, 7.0, tolerance=0.0)


def test_empirical_win_rate_empty(divisions):
    with pytest.raises(NoGamesAtSpreadError):
        empirical_win_rate(make_dataset([], divisions), 7.0)


def test_poisson_binomial_two_coins():
    dist = poisson_binomial([0.5, 0.5])
    assert dist.as_dict() == {0: 0.25, 1: 0.5, 2: 0.25}


def test_poisson_binomial_certainty():
    dist = poisson_binomial([1.0, 1.0, 1.0])
    assert dist.prob(3) == 1.0
    assert dist.prob(0) == 0.0


def test_poisson_binomial_sixteen_fair_coins():
    dist = poisson_binomial([0.5] * 16)
    # exact rational oracle: C(16, k) / 2^16
    for k in range(17):
        exact = Fraction(math.comb(16, k), 2**16)
        assert abs(dist.prob(k) - float(exact)) < 1e-12
    assert abs(dist.prob(8) - 0.196381) < 5e-7


@given(st.lists(st.floats(0.0, 1.0), min_size=0, max_size=10))
@settings(max_examples=60, deadline=None)
def test_poisson_binomial_matches_enumeration(probs):
    dist = poisson_binomial(probs)
    oracle = brute_force_pmf(probs)
    assert np.allclose(dist.pmf, oracle, atol=1e-12, rtol=0.0)


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=24))
@settings(max_examples=60)
def test_poisson_binomial_moment_identities(probs):
    dist = poisson_binomial(probs)
    assert abs(dist.pmf.sum() - 1.0) < 1e-9
    assert abs(dist.mean() - expected_wins(probs)) < 1e-9
    assert abs(dist.variance() - sum(p * (1 - p) for p in probs)) < 1e-9


def test_poisson_binomial_validates_probabilities():
    with pytest.raises(ValueError):
        poisson_binomial([0.5, 1.5])


def test_expected_wins():
    assert expected_wins([0.697, 0.616]) == pytest.approx(1.313)
    assert expected_wins([]) == 0.0
    assert expected_wins([0.5] * 16) == 8.0


def test_win_distribution_validation():
    with pytest.raises(ValueError):
        WinDistribution(np.array([0.5, 0.6]), 1)
    with pytest.raises(ValueError):
        WinDistribution(np.array([0.5, 0.5]), 3)


def test_win_distribution_csv():
    text = poisson_binomial([0.5, 0.5]).to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "k,probability"
    assert lines[1] == "0,0.25"


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
def test_win_model_rejects_non_finite_sigma(sigma):
    with pytest.raises(ValueError, match="sigma must be"):
        WinModel(sigma=sigma)
