"""Statistical primitives: normal CDF, sample moments, one-proportion
z-tests, and a chi-squared goodness-of-fit test against a zero-mean
Gaussian."""

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
        super().__init__(f"bin width {bin_width:g} gives {bins:.0f} bins, more than {MAX_BINS}")
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
    z = (p_hat - p0) / math.sqrt(p0 * (1 - p0) / n)
    return ZTestResult(p_hat, n, p0, z)


@dataclass(frozen=True)
class GofResult:
    statistic: float
    degrees_of_freedom: int
    bins_used: int
    critical_value: float
    reject_at_05: bool
    observed: tuple[int, ...] = ()
    expected: tuple[float, ...] = ()


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
    estimated from the binned sample.
    """
    arr = np.asarray(values, dtype=float)
    n = arr.size
    if n < 30:
        raise InsufficientDataError(f"need at least 30 values, got {n}")
    check_positive("sigma", sigma)
    check_positive("bin_width", bin_width)
    if not -math.inf < min_expected < math.inf:
        raise ValueError(f"min_expected must be finite, got {min_expected}")

    # interior edges at +/-(w/2 + k*w), wide enough to cover both the data
    # and essentially all model mass
    half = bin_width / 2.0
    reach = max(float(np.abs(arr).max()), 6.0 * sigma) + bin_width
    k_max = np.ceil((reach - half) / bin_width)  # inf when the division overflows
    check_bins(bin_width, 2 * k_max + 3)
    k_max = int(k_max)
    edges = np.array(
        [-half - k * bin_width for k in range(k_max, 0, -1)]
        + [-half]
        + [half + k * bin_width for k in range(k_max + 1)]
    )

    # bin i is [edges[i-1], edges[i]); bins 0 and len(edges) are the tails
    observed = np.bincount(np.searchsorted(edges, arr, side="right"), minlength=len(edges) + 1)
    cdf = np.array([std_normal_cdf(e / sigma) for e in edges])
    expected = n * np.diff(np.concatenate(([0.0], cdf, [1.0])))

    obs = list(map(int, observed))
    exp = list(map(float, expected))
    while len(exp) > 1 and min(exp) < min_expected:
        i = exp.index(min(exp))
        # fold toward the nearer tail so sparse mass accumulates in the
        # open-ended bins; an outermost bin folds inward instead
        if i == 0:
            j = 1
        elif i == len(exp) - 1:
            j = i - 1
        else:
            j = i - 1 if i < len(exp) / 2 else i + 1
        exp[j] += exp[i]
        obs[j] += obs[i]
        del exp[i], obs[i]

    if len(exp) < 3:
        raise DegenerateBinningError(f"only {len(exp)} bins left after merging")

    statistic = float(sum((o - e) ** 2 / e for o, e in zip(obs, exp)))
    dof = len(exp) - 1
    # imported here so that loading the package does not pay for scipy
    from scipy.special import chdtri

    critical = float(chdtri(dof, 0.05))
    return GofResult(statistic, dof, len(exp), critical, statistic > critical, tuple(obs), tuple(exp))
