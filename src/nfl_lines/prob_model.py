"""Gaussian line-error model: spreads to win probabilities, empirical
comparison, parlays, and exact season win distributions."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .dataset import Dataset
from .stats import check_positive, std_normal_cdf

#: Fitted standard deviation of the line-difference distribution over the
#: 2002-2011 seasons; the default model sigma.
DEFAULT_SIGMA = 13.588


class NoGamesAtSpreadError(ValueError):
    pass


@dataclass(frozen=True)
class WinModel:
    """Win probability of a p-point favorite is cdf(p / sigma).

    The fitted sample mean of the line error is close enough to zero
    that the model centres the error at 0.
    """

    sigma: float = DEFAULT_SIGMA

    def __post_init__(self):
        check_positive("sigma", self.sigma)


def win_probability(model: WinModel, spread: float) -> float:
    """Probability the named team wins straight up, given its signed spread.

    Positive spread means the team is favored by that much; negative
    means underdog; 0 is a coin flip.
    """
    return std_normal_cdf(spread / model.sigma)


def parlay_probability(model: WinModel, spreads: Sequence[float]) -> float:
    """Probability of winning every game in the list (independent products)."""
    result = 1.0
    for s in spreads:
        result *= win_probability(model, s)
    return result


class EmpiricalWinRate(NamedTuple):
    rate: float
    n: int
    ties: int


def empirical_win_rate(dataset: Dataset, spread: float, tolerance: float = 0.0) -> EmpiricalWinRate:
    """Observed straight-up win rate of favorites laying about ``spread`` points.

    Includes games whose closing spread magnitude is within ``tolerance``
    of ``spread``. Straight-up ties count as half a win; the tie count is
    returned so an exact-exclusion rate can be recomputed.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be non-negative, got {tolerance}")
    table = dataset.table
    side = np.sign(table.close2)  # +1 home favorite, -1 away favorite, 0 pick-em
    # "not beyond", so that a nan spread or tolerance keeps the game, as a scalar test would
    near = (side != 0) & ~(np.abs(np.abs(table.close2) * 0.5 - spread) > tolerance)
    margin = (side * table.home_margin)[near]
    wins = int(np.count_nonzero(margin > 0))
    ties = int(np.count_nonzero(margin == 0))
    n = len(margin)
    if n == 0:
        raise NoGamesAtSpreadError(f"no games with spread within {tolerance} of {spread}")
    return EmpiricalWinRate((wins + 0.5 * ties) / n, n, ties)


@dataclass(frozen=True)
class WinDistribution:
    """Probability distribution over the number of games won, 0..n."""

    pmf: np.ndarray
    n: int

    def __post_init__(self):
        pmf = np.asarray(self.pmf, dtype=float)
        if pmf.shape != (self.n + 1,):
            raise ValueError(f"pmf must have {self.n + 1} entries, got shape {pmf.shape}")
        if (pmf < 0).any() or abs(pmf.sum() - 1.0) > 1e-9:
            raise ValueError("pmf entries must be non-negative and sum to 1")
        pmf.flags.writeable = False
        object.__setattr__(self, "pmf", pmf)

    def prob(self, k: int) -> float:
        return float(self.pmf[k]) if 0 <= k <= self.n else 0.0

    def as_dict(self) -> dict[int, float]:
        return {k: float(p) for k, p in enumerate(self.pmf)}

    def mean(self) -> float:
        return float(np.dot(np.arange(self.n + 1), self.pmf))

    def variance(self) -> float:
        ks = np.arange(self.n + 1)
        m = self.mean()
        return float(np.dot((ks - m) ** 2, self.pmf))

    def to_csv(self) -> str:
        lines = ["k,probability"]
        lines += [f"{k},{p:.12g}" for k, p in enumerate(self.pmf)]
        return "\n".join(lines) + "\n"


def poisson_binomial(probs: Sequence[float]) -> WinDistribution:
    """Exact distribution of successes over independent unequal coin flips.

    Dynamic programming over the probability generating function, O(n^2);
    identical to summing over all C(n, k) outcome sequences.
    """
    pmf = np.array([1.0])
    for p in probs:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability {p} outside [0, 1]")
        nxt = np.zeros(pmf.size + 1)
        nxt[:-1] = pmf * (1.0 - p)
        nxt[1:] += pmf * p
        pmf = nxt
    return WinDistribution(pmf, len(probs))


def expected_wins(probs: Sequence[float]) -> float:
    """Sum of per-game win probabilities (the mean of the win distribution)."""
    for p in probs:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability {p} outside [0, 1]")
    return float(math.fsum(probs))
