"""Betting-strategy backtests with exact risk/payout accounting.

Flat staking: every bet risks ``stake`` units to win ``win_payout`` units
(the customary book prices a $110 risk against a $100 payout). Pushes
refund the stake and are excluded from win-ratio denominators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .dataset import Dataset, GameSide, GameTable
from .metrics import AtsOutcome, UnresolvableSideError, ats_signs
from .stats import check_positive

DEFAULT_STAKE = 110.0
DEFAULT_WIN_PAYOUT = 100.0


class NonPositiveStakeError(ValueError):
    pass


class NoDecidedBetsError(ValueError):
    pass


@dataclass(frozen=True)
class Strategy:
    """Bet ``side`` on every game that ``predicate`` accepts.

    ``predicate`` is called once, with the whole :class:`GameTable`, and
    returns one truth value per game, or one value for every game. It must
    combine conditions elementwise, with ``&``, ``|`` and ``~`` rather than
    ``and``, ``or`` and ``not``. ``line_close`` holds the spread the
    backtest runs on; ``home``/``away`` are team indices, and ``day``
    stands in for ``date``. A strategy bets the same side in every game.
    """

    name: str
    predicate: Callable[[GameTable], np.ndarray | bool]
    side: GameSide


def when(name: str, predicate: Callable[[GameTable], np.ndarray | bool], side: GameSide) -> Strategy:
    """The strategy that bets ``side`` on every game the predicate accepts,
    e.g. ``when("big-home-dogs", lambda g: (g.line_close <= -7) & (g.week > 8), GameSide.HOME)``."""
    return Strategy(name, predicate, side)


HOME_UNDERDOG = when("home-underdog", lambda g: g.line_close < 0, GameSide.HOME)
HOME_FAVORITE = when("home-favorite", lambda g: g.line_close > 0, GameSide.HOME)
ALL_HOME = when("all-home", lambda g: True, GameSide.HOME)
ALL_FAVORITES = when("all-favorites", lambda g: g.line_close != 0, GameSide.FAVORITE)
ALL_UNDERDOGS = when("all-underdogs", lambda g: g.line_close != 0, GameSide.UNDERDOG)

BUILTIN_STRATEGIES: dict[str, Strategy] = {
    s.name: s for s in (HOME_UNDERDOG, HOME_FAVORITE, ALL_HOME, ALL_FAVORITES, ALL_UNDERDOGS)
}


def break_even_ratio(win_payout: float, stake: float) -> float:
    """Win proportion at which flat betting returns exactly zero.

    Solves win_payout * WR = stake * (1 - WR); at the customary 110/100
    pricing this is 110/210 = 52.38%.
    """
    check_positive("stake and payout", stake, win_payout, error=NonPositiveStakeError)
    return stake / (stake + win_payout)


@dataclass(frozen=True)
class LedgerSummary:
    wins: int
    losses: int
    pushes: int
    win_ratio: float
    profit: float


@dataclass(frozen=True)
class StrategyLedger(LedgerSummary):
    """The totals over every bet, the bets themselves, and a per-season breakdown.

    Bet ``k`` is on ``sides[k]`` in row ``k`` of ``bets``, the games bet on
    in bet order, and settles as ``outcomes[k]`` for ``cashflows[k]``.
    """

    bets: GameTable = field(compare=False)
    sides: tuple[GameSide, ...]
    outcomes: tuple[AtsOutcome, ...]
    cashflows: tuple[float, ...]
    per_season: Mapping[int, LedgerSummary]

    def to_csv(self) -> str:
        """One line per bet; the bets' GameRecords are built here, and only here."""
        lines = ["season,week,date,home,away,side,line_close,outcome,cashflow"]
        for g, side, outcome, cashflow in zip(self.bets.records(), self.sides, self.outcomes, self.cashflows):
            lines.append(
                f"{g.season},{g.week},{g.date.isoformat()},{g.home},{g.away},"
                f"{side.value},{g.line_close:g},{outcome.value},{cashflow:g}"
            )
        return "\n".join(lines) + "\n"


def _summary(wins: int, losses: int, pushes: int, cashflows: Sequence[float]) -> LedgerSummary:
    decided = wins + losses
    ratio = wins / decided if decided else 0.0
    # summed bet by bet, in order, so profits match a running total to the bit
    return LedgerSummary(wins, losses, pushes, ratio, sum(cashflows))


def run_strategy(
    dataset: Dataset,
    strategy: Strategy,
    stake: float = DEFAULT_STAKE,
    win_payout: float = DEFAULT_WIN_PAYOUT,
    line: str = "close",
) -> StrategyLedger:
    """Bet ``strategy.side`` on every game its predicate accepts, and settle
    against the spread.

    ``line`` chooses which spread both selection and settlement use:
    "close" (default) or "open". The predicate is called once, on the whole
    table; a result that is neither one value nor one per game raises
    ValueError.
    """
    check_positive("stake and payout", stake, win_payout, error=NonPositiveStakeError)
    priced = dataset.table.on_line(line)
    accepted = np.asarray(strategy.predicate(priced))
    if accepted.shape not in ((), (len(priced),)):
        raise ValueError(
            f"strategy {strategy.name!r}: predicate gave shape {accepted.shape}, not one value per game ({len(priced)})"
        )
    rows = np.flatnonzero(np.broadcast_to(accepted, len(priced)))
    return _settle(dataset.table, priced, rows, strategy.side, stake, win_payout)


#: a bet's outcome, indexed by its ATS sign: 0 push, 1 cover, -1 no cover
_OUTCOMES = (AtsOutcome.PUSH, AtsOutcome.COVER, AtsOutcome.NO_COVER)


def _settle(
    table: GameTable, priced: GameTable, rows: np.ndarray, side: GameSide, stake: float, win_payout: float
) -> StrategyLedger:
    """Settle a bet on ``side`` in each game of ``rows``, all at once, on the
    spread in ``priced``; ``table`` holds the games as the dataset has them."""
    result = _bet_signs(priced, rows, side)
    signs = result.tolist()
    # every bet's outcome and cashflow is one of three shared objects
    cash = tuple(map((0.0, win_payout, -stake).__getitem__, signs))
    wins, losses = signs.count(1), signs.count(-1)
    # per season: one bincount of (season, result), and the cashflows in bet order
    seasons, season = np.unique(table.season[rows], return_inverse=True)
    season = season.reshape(-1)
    counts = np.bincount(season * 3 + result + 1, minlength=3 * len(seasons)).reshape(-1, 3)
    ordered = np.array(cash, dtype=object)[np.argsort(season, kind="stable")]
    flows = np.split(ordered, np.cumsum(counts.sum(axis=1))[:-1])
    per_season = {
        s: _summary(won, lost, pushed, season_flows)
        for s, (lost, pushed, won), season_flows in zip(seasons.tolist(), counts.tolist(), flows)
    }
    return StrategyLedger(
        **vars(_summary(wins, losses, len(signs) - wins - losses, cash)),
        bets=table.take(rows), sides=(side,) * len(signs), outcomes=tuple(map(_OUTCOMES.__getitem__, signs)),
        cashflows=cash, per_season=per_season,
    )


def _bet_signs(priced: GameTable, rows: np.ndarray, side: GameSide) -> np.ndarray:
    """Each bet's ATS sign: +1 cover, 0 push, -1 no cover."""
    # the sign that turns the home side's result into the bet side's
    spread = np.sign(priced.close2[rows])
    flip = {GameSide.HOME: 1, GameSide.AWAY: -1, GameSide.FAVORITE: spread, GameSide.UNDERDOG: -spread}[side]
    if side in (GameSide.FAVORITE, GameSide.UNDERDOG) and not spread.all():
        k = rows[np.flatnonzero(spread == 0)[0]]  # the first bet on a pick-em
        key = (priced.season[k].item(), priced.week[k].item(),
               priced.teams[priced.home[k]], priced.teams[priced.away[k]])
        raise UnresolvableSideError(f"no favorite on pick-em game {key}")
    return flip * ats_signs(priced)[rows]


def yearly_cover_series(dataset: Dataset, strategy: Strategy, line: str = "close") -> dict[int, float]:
    """Per-season win ratio (pushes excluded); seasons with no decided bet are absent."""
    ledger = run_strategy(dataset, strategy, line=line)
    return {
        season: summary.win_ratio
        for season, summary in ledger.per_season.items()
        if summary.wins + summary.losses > 0
    }


@dataclass(frozen=True)
class BreakevenComparison:
    margin: float
    profitable: bool


def compare_to_breakeven(
    ledger: StrategyLedger,
    stake: float = DEFAULT_STAKE,
    win_payout: float = DEFAULT_WIN_PAYOUT,
) -> BreakevenComparison:
    """How far the ledger's win ratio sits above or below break-even."""
    if ledger.wins + ledger.losses == 0:
        raise NoDecidedBetsError("ledger has no decided bets")
    margin = ledger.win_ratio - break_even_ratio(win_payout, stake)
    return BreakevenComparison(margin, margin > 0)
