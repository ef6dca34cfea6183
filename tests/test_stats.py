import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import chi2

from nfl_lines.metrics import Histogram
from nfl_lines.render import histogram_svg
from nfl_lines.stats import (
    MAX_BINS,
    DegenerateBinningError,
    EmptySampleError,
    InsufficientDataError,
    TooManyBinsError,
    _fold_sparse_bins,
    chi2_isf,
    chi_square_gof,
    moments,
    proportion_z,
    std_normal_cdf,
)


def cdf_by_quadrature(x):
    """Independent oracle: numerically integrate the standard normal pdf."""
    pdf = lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)
    if x >= 0:
        tail, _ = quad(pdf, x, np.inf)
        return 1.0 - tail
    tail, _ = quad(pdf, -np.inf, x)
    return tail


def test_cdf_basics():
    assert std_normal_cdf(0.0) == 0.5
    assert abs(std_normal_cdf(1.959964) - 0.975) < 1e-6
    assert abs(std_normal_cdf(7.0 / 13.588) - 0.6968) < 5e-4


def test_cdf_matches_quadrature_oracle():
    for x in np.linspace(-6.0, 6.0, 41):
        assert abs(std_normal_cdf(float(x)) - cdf_by_quadrature(float(x))) < 1e-7


@given(st.floats(-8.0, 8.0, allow_nan=False))
def test_cdf_symmetry(x):
    assert abs(std_normal_cdf(x) + std_normal_cdf(-x) - 1.0) < 1e-12


def test_cdf_monotone():
    xs = np.linspace(-8.0, 8.0, 400)
    values = [std_normal_cdf(float(x)) for x in xs]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_moments_examples():
    m = moments([5.0, 5.0, 5.0])
    assert (m.mean, m.std_dev, m.n) == (5.0, 0.0, 3)
    m = moments([0.0, 2.0])
    assert m.mean == 1.0
    assert abs(m.std_dev - math.sqrt(2.0)) < 1e-12


def test_moments_requires_two():
    with pytest.raises(InsufficientDataError):
        moments([1.0])


@given(st.lists(st.floats(-100, 100), min_size=2, max_size=40), st.randoms())
@settings(max_examples=60)
def test_moments_permutation_invariant(values, rnd):
    base = moments(values)
    shuffled = list(values)
    rnd.shuffle(shuffled)
    other = moments(shuffled)
    assert math.isclose(base.mean, other.mean, rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(base.std_dev, other.std_dev, rel_tol=1e-12, abs_tol=1e-12)


@given(
    st.lists(st.floats(-50, 50), min_size=2, max_size=20),
    st.floats(-4, 4).filter(lambda c: abs(c) > 1e-3),
)
@settings(max_examples=60)
def test_moments_scale_equivariant(values, c):
    scaled = moments([c * v for v in values])
    base = moments(values)
    assert math.isclose(scaled.std_dev, abs(c) * base.std_dev, rel_tol=1e-9, abs_tol=1e-9)


def _z_oracle(wins, losses, p0):
    n = wins + losses
    return (wins / n - p0) / math.sqrt(p0 * (1.0 - p0) / n)


def test_proportion_z_examples():
    assert proportion_z(50, 50, 0.5).z == 0.0
    # the customary formula; the published table prints -1.858 for this
    # record, which no standard variant reproduces
    r = proportion_z(816, 888, 0.5)
    assert abs(r.z - (-1.744)) < 1e-3
    assert abs(r.z - _z_oracle(816, 888, 0.5)) < 1e-10
    assert abs(proportion_z(15, 13, 0.5).z - 0.378) < 1e-3


def test_proportion_z_fields():
    r = proportion_z(30, 10, 0.5)
    assert (r.p_hat, r.n, r.p0) == (0.75, 40, 0.5)


@given(st.integers(0, 500), st.integers(0, 500), st.floats(0.01, 0.99))
@settings(max_examples=100)
def test_proportion_z_antisymmetry(wins, losses, p0):
    if wins + losses == 0:
        return
    a = proportion_z(wins, losses, p0).z
    b = proportion_z(losses, wins, 1.0 - p0).z
    assert math.isclose(a, -b, rel_tol=1e-12, abs_tol=1e-12)


def test_proportion_z_empty():
    with pytest.raises(EmptySampleError):
        proportion_z(0, 0, 0.5)
    with pytest.raises(ValueError):
        proportion_z(3, 4, 1.0)


def test_gof_accepts_matching_normal():
    rng = np.random.default_rng(7)
    values = rng.normal(0.0, 13.588, 2560)
    result = chi_square_gof(values, 13.588)
    assert not result.reject_at_05
    assert result.degrees_of_freedom == result.bins_used - 1


def test_gof_rejects_uniform():
    rng = np.random.default_rng(7)
    values = rng.uniform(-40.0, 40.0, 2560)
    assert chi_square_gof(values, 13.588).reject_at_05


def test_gof_expected_counts_sum_to_n():
    rng = np.random.default_rng(11)
    values = rng.normal(0.0, 13.588, 2560)
    result = chi_square_gof(values, 13.588)
    assert abs(sum(result.expected) - 2560) < 1e-9 * 2560
    assert sum(result.observed) == 2560
    assert min(result.expected) >= 5.0


def test_gof_permutation_invariant():
    rng = np.random.default_rng(3)
    values = rng.normal(0.0, 10.0, 500)
    a = chi_square_gof(values, 10.0)
    b = chi_square_gof(values[::-1].copy(), 10.0)
    assert a.statistic == b.statistic


@pytest.mark.parametrize("n, bin_width", [(100, 4.0), (500, 2.0), (2000, 1.0), (20000, 0.5)])
def test_gof_critical_value_matches_chi2_ppf(n, bin_width):
    values = np.random.default_rng(3).normal(0.0, 13.588, n)
    result = chi_square_gof(values, 13.588, bin_width=bin_width)
    assert result.critical_value == pytest.approx(chi2.ppf(0.95, result.degrees_of_freedom), abs=1e-9)


@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.10])
def test_chi2_isf_matches_scipy(alpha):
    for dof in range(1, 301):
        assert chi2_isf(dof, alpha) == pytest.approx(chi2.isf(alpha, dof), rel=1e-9, abs=0)


def test_chi2_isf_increases_with_dof_and_falls_with_alpha():
    rows = [[chi2_isf(dof, alpha) for dof in range(1, 301)] for alpha in (0.10, 0.05, 0.01)]
    for row in rows:
        assert all(a < b for a, b in zip(row, row[1:]))
    assert all(a < b < c for a, b, c in zip(*rows))


@pytest.mark.parametrize("dof, alpha", [(0, 0.05), (1, 0.0), (1, 1.0), (1, math.nan)])
def test_chi2_isf_rejects_bad_arguments(dof, alpha):
    with pytest.raises(ValueError, match="need dof >= 1"):
        chi2_isf(dof, alpha)


def _fold_oracle(obs, exp, min_expected):
    """The list loop that folded sparse bins before the fold ran on arrays."""
    obs, exp = list(obs), list(exp)
    while len(exp) > 1 and min(exp) < min_expected:
        i = exp.index(min(exp))
        if i == 0:
            j = 1
        elif i == len(exp) - 1:
            j = i - 1
        else:
            j = i - 1 if i < len(exp) / 2 else i + 1
        exp[j] += exp[i]
        obs[j] += obs[i]
        del exp[i], obs[i]
    return obs, exp


# ties and zeros are common in real layouts: draw from a few values as well
_EXPECTED = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.5, 5.0]), st.floats(0.0, 40.0))


@given(st.lists(st.tuples(st.integers(0, 50), _EXPECTED), min_size=1, max_size=80), st.floats(0.0, 30.0))
@settings(max_examples=300)
def test_fold_matches_the_list_loop(layout, min_expected):
    obs, exp = zip(*layout)
    got = _fold_sparse_bins(np.array(obs), np.array(exp, dtype=float), min_expected)
    assert got == _fold_oracle(obs, exp, min_expected)
    assert all(type(o) is int for o in got[0])


def test_gof_narrow_width_fails_fast():
    # 9,997 bins, under the bound, all of which fold into the two tails
    start = time.perf_counter()
    with pytest.raises(DegenerateBinningError, match="only 2 bins left"):
        chi_square_gof(np.linspace(-1.0, 1.0, 40), 1.0, bin_width=6 / 4996)
    assert time.perf_counter() - start < 0.5


def test_gof_insufficient_data():
    with pytest.raises(InsufficientDataError):
        chi_square_gof([0.0] * 29, 13.588)
    # 30 values are enough: wide bins leave cells to test
    assert chi_square_gof(np.linspace(-20.0, 20.0, 30), 13.588, bin_width=8.0).bins_used == 5


def test_gof_degenerate_binning():
    rng = np.random.default_rng(5)
    values = rng.normal(0.0, 1.0, 50)
    with pytest.raises(DegenerateBinningError):
        chi_square_gof(values, 1.0, bin_width=1.0, min_expected=30.0)


def test_gof_parameter_validation():
    values = list(range(40))
    with pytest.raises(ValueError):
        chi_square_gof(values, 0.0)
    with pytest.raises(ValueError):
        chi_square_gof(values, 1.0, bin_width=-1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", ["sigma", "bin_width", "min_expected"])
def test_gof_rejects_non_finite_parameters(name, value):
    kwargs = {"sigma": 13.588, "bin_width": 2.0, "min_expected": 5.0, name: value}
    with pytest.raises(ValueError, match=f"{name} must be"):
        chi_square_gof(list(range(40)), **kwargs)


def test_gof_rejects_a_width_just_past_the_bin_bound():
    # values within 6 sigma give interior edges out to 6 + width: 2 * 4999 + 3 bins
    width = 6.0 / 4998
    with pytest.raises(TooManyBinsError, match=f"gives {2 * 4999 + 3} bins, more than {MAX_BINS}") as err:
        chi_square_gof(np.linspace(-1.0, 1.0, 40), 1.0, bin_width=width)
    assert err.value.bin_width == width


def test_histogram_svg_rejects_one_bar_past_the_bin_bound():
    with pytest.raises(TooManyBinsError, match=f"gives {MAX_BINS + 1} bins"):
        histogram_svg(Histogram(1.0, 0.0, {0: 1, MAX_BINS: 1}, 2))
    assert histogram_svg(Histogram(1.0, 0.0, {0: 1, MAX_BINS - 1: 1}, 2)).count("<rect ") == MAX_BINS + 1
