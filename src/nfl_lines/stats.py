"""Statistical primitives: normal CDF, sample moments, one-proportion
z-tests, the upper chi-squared quantile, and a chi-squared goodness-of-fit
test against a zero-mean Gaussian. Only ``math`` and numpy are used."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

_SQRT2 = math.sqrt(2.0)

#: Most bins a binned layout may have: its time and memory grow with the
#: bin count, which a narrow enough width makes as large as it likes.
MAX_BINS = 10_000


class InsufficientDataError(ValueError):
    pass


class EmptySampleError(ValueError):
    pass


class DegenerateBinningError(ValueError):
    pass


class TooManyBinsError(ValueError):
    def __init__(self, bin_width: float, bins: float):
        count = f"{bins:.0f}" if bins < 1e9 else f"{bins:.3g}"  # gof --sigma 1e300 gives 6e300
        super().__init__(f"bin width {bin_width:g} gives {count} bins, more than {MAX_BINS}")
        self.bin_width = bin_width
        self.bins = bins


def check_bins(bin_width: float, bins: float) -> None:
    """Raise TooManyBinsError if a layout at ``bin_width`` has more than MAX_BINS bins."""
    if bins > MAX_BINS:
        raise TooManyBinsError(bin_width, bins)


def check_positive(name: str, *values: float, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` unless every one of ``values`` is positive and finite."""
    got = ", ".join(f"{value}" for value in values)
    if any(value <= 0 for value in values):
        raise error(f"{name} must be positive, got {got}")
    if not all(value < math.inf for value in values):  # false for nan
        raise error(f"{name} must be finite, got {got}")


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function.

    Accurate to well under 1e-7 absolute; monotone, with
    cdf(0) = 0.5 and cdf(-x) = 1 - cdf(x).
    """
    return 0.5 * math.erfc(-x / _SQRT2)


@dataclass(frozen=True)
class Moments:
    mean: float
    std_dev: float
    n: int


def moments(values: Sequence[float]) -> Moments:
    """Sample mean and sample (n-1) standard deviation."""
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        raise InsufficientDataError(f"need at least 2 values, got {arr.size}")
    return Moments(float(arr.mean()), float(arr.std(ddof=1)), int(arr.size))


@dataclass(frozen=True)
class ZTestResult:
    p_hat: float
    n: int
    p0: float
    z: float


def proportion_z(wins: int, losses: int, p0: float) -> ZTestResult:
    """One-proportion z statistic with null-variance denominator.

    z = (p_hat - p0) / sqrt(p0 (1 - p0) / n), with n = wins + losses
    (pushes are excluded upstream).
    """
    n = wins + losses
    if n < 1:
        raise EmptySampleError("wins + losses must be at least 1")
    if not 0 < p0 < 1:
        raise ValueError(f"p0 must be in (0, 1), got {p0}")
    p_hat = wins / n
    # the roots taken apart: p0 * (1 - p0) / n underflows to 0 for a tiny p0
    z = (p_hat - p0) / (math.sqrt(p0) * math.sqrt(1 - p0) / math.sqrt(n))
    return ZTestResult(p_hat, n, p0, z)


def _upper_gamma(a: float, y: float) -> tuple[float, float]:
    """Regularised upper incomplete gamma Q(a, y) and the Gamma(a) density at y > 0."""
    density = math.exp((a - 1) * math.log(y) - y - math.lgamma(a))
    if y < a + 1:
        # series: P(a, y) = y density sum_n y**n / (a (a+1) ... (a+n))
        term = total = 1.0 / a
        while term > total * 1e-17:
            a += 1  # the next denominator; a is not read again
            term *= y / a
            total += term
        return 1.0 - y * density * total, density
    # modified Lentz evaluation of Q's continued fraction
    b, c, i = y + 1 - a, math.inf, 0
    q = d = 1 / b
    while abs(c * d - 1) >= 3e-16:
        i += 1
        an = -i * (i - a)
        b += 2
        d = 1 / (an * d + b)
        c = b + an / c
        q *= c * d
    return y * density * q, density


def chi2_isf(dof: int, alpha: float) -> float:
    """Upper chi-squared quantile: the x with P(X > x) = alpha for X ~ chi2(dof).

    Newton's method on log Q(dof/2, x/2) = log alpha from the Wilson-Hilferty
    start, bisecting where a step would leave the bracket found so far.
    """
    if not (dof >= 1 and 0 < alpha < 1):
        raise ValueError(f"need dof >= 1 and 0 < alpha < 1, got {dof}, {alpha}")
    t = math.sqrt(-2.0 * math.log(min(alpha, 1 - alpha)))  # normal quantile: A&S 26.2.23
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (1 + t * (1.432788 + t * (0.189269 + t * 0.001308)))
    x = dof * max(1 - 2 / (9 * dof) + math.copysign(z, 0.5 - alpha) * math.sqrt(2 / (9 * dof)), 0.1) ** 3
    lo, hi = 0.0, math.inf
    for _ in range(200):
        q, density = _upper_gamma(dof / 2, x / 2)
        lo, hi = (x, hi) if q > alpha else (lo, x)
        # log Q is near linear in the far tail; dQ/dx = -density/2
        new = x + 2 * q * math.log(q / alpha) / density if density > 0 else math.nan
        if abs(new - x) <= 1e-13 * x:
            return new
        x = new if lo < new < hi else 2 * x if hi == math.inf else (lo + hi) / 2
    return x


@dataclass(frozen=True)
class GofResult:
    statistic: float
    degrees_of_freedom: int
    bins_used: int
    critical_value: float
    reject_at_05: bool
    observed: tuple[int, ...] = ()
    expected: tuple[float, ...] = ()


def _fold_sparse_bins(observed: np.ndarray, expected: np.ndarray, min_expected: float) -> tuple[list, list]:
    """Fold the first sparsest bin into a neighbour until no expected count is
    below ``min_expected`` or one bin is left, overwriting both arrays."""
    bins = len(expected)
    while bins > 1 and expected[i := int(expected[:bins].argmin())] < min_expected:
        # fold toward the nearer tail so sparse mass accumulates in the
        # open-ended bins; an outermost bin folds inward instead
        j = 1 if i == 0 else i - 1 if i == bins - 1 or i < bins / 2 else i + 1
        expected[j] += expected[i]
        observed[j] += observed[i]
        expected[i : bins - 1] = expected[i + 1 : bins]
        observed[i : bins - 1] = observed[i + 1 : bins]
        bins -= 1
    return observed[:bins].tolist(), expected[:bins].tolist()


def chi_square_gof(
    values: Sequence[float],
    sigma: float,
    bin_width: float = 2.0,
    min_expected: float = 5.0,
) -> GofResult:
    """Chi-squared goodness of fit of ``values`` against Normal(0, sigma).

    Values are binned on a width ``bin_width`` grid centered at 0 with
    open-ended tails; sparse bins are folded outward into their tail
    until every expected count reaches ``min_expected``. Degrees of
    freedom are bins - 1: the mean and sigma are fixed a priori, not
    estimated from the binned sample. The critical value is
    ``chi2_isf(dof, 0.05)``.
    """
    arr = np.asarray(values, dtype=float)
    n = arr.size
    if n < 30:
        raise InsufficientDataError(f"need at least 30 values, got {n}")
    check_positive("sigma", sigma)
    check_positive("bin_width", bin_width)
    check_positive("min_expected", min_expected)  # a bin that expects 0 is folded, never divided by

    # interior edges at +/-(w/2 + k*w), wide enough to cover both the data
    # and essentially all model mass
    half = bin_width / 2.0
    reach = max(float(np.abs(arr).max()), 6.0 * sigma) + bin_width
    k_max = np.ceil((reach - half) / bin_width)  # inf when the division overflows
    check_bins(bin_width, 2 * k_max + 3)
    k = np.arange(int(k_max) + 1)
    edges = np.concatenate((-half - k[::-1] * bin_width, half + k * bin_width))

    # bin i is [edges[i-1], edges[i]); bins 0 and len(edges) are the tails
    observed = np.bincount(np.searchsorted(edges, arr, side="right"), minlength=len(edges) + 1)
    cdf = np.array([std_normal_cdf(e / sigma) for e in edges])
    expected = n * np.diff(np.concatenate(([0.0], cdf, [1.0])))

    obs, exp = _fold_sparse_bins(observed, expected, min_expected)
    if len(exp) < 3:
        raise DegenerateBinningError(f"only {len(exp)} bins left after merging")

    statistic = float(sum((o - e) ** 2 / e for o, e in zip(obs, exp)))
    dof = len(exp) - 1
    critical = chi2_isf(dof, 0.05)
    return GofResult(statistic, dof, len(exp), critical, statistic > critical, tuple(obs), tuple(exp))
