"""Betting-strategy backtests with exact risk/payout accounting.

Flat staking: every bet risks ``stake`` units to win ``win_payout`` units
(the customary book prices a $110 risk against a $100 payout). Pushes
refund the stake and are excluded from win-ratio denominators.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .dataset import Dataset, GameRecord, GameSide, GameTable
from .metrics import AtsOutcome, ats_outcome, ats_signs
from .stats import check_positive

DEFAULT_STAKE = 110.0
DEFAULT_WIN_PAYOUT = 100.0


class NonPositiveStakeError(ValueError):
    pass


class NoDecidedBetsError(ValueError):
    pass


@dataclass(frozen=True)
class Strategy:
    """A named rule mapping a game to a bet side, or None to pass.

    A built-in also carries ``rule``, ``(accepts, side)``: it bets ``side``
    wherever ``accepts(spread)`` holds, and ``accepts`` takes the chosen
    spread as a float or as a whole column. ``run_strategy`` applies rules
    to the column; any other strategy has its selector called per game.
    """

    name: str
    selector: Callable[[GameRecord], GameSide | None]
    rule: tuple[Callable, GameSide] | None = field(default=None, compare=False, repr=False)

    def __call__(self, game: GameRecord) -> GameSide | None:
        return self.selector(game)


def when(name: str, predicate: Callable[[GameRecord], bool], side: GameSide) -> Strategy:
    """Composable form: bet ``side`` on every game the predicate accepts."""
    return Strategy(name, lambda g: side if predicate(g) else None)


def _on_spread(name: str, side: GameSide, accepts: Callable) -> Strategy:
    return Strategy(name, lambda g: side if accepts(g.line_close) else None, (accepts, side))


HOME_UNDERDOG = _on_spread("home-underdog", GameSide.HOME, lambda line: line < 0)
HOME_FAVORITE = _on_spread("home-favorite", GameSide.HOME, lambda line: line > 0)
ALL_HOME = _on_spread("all-home", GameSide.HOME, lambda line: np.ones(np.shape(line), dtype=bool))
ALL_FAVORITES = _on_spread("all-favorites", GameSide.FAVORITE, lambda line: line != 0)
ALL_UNDERDOGS = _on_spread("all-underdogs", GameSide.UNDERDOG, lambda line: line != 0)

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
    """Place one bet per accepted game and settle against the spread.

    ``line`` chooses which spread both selection and settlement use:
    "close" (default) or "open".
    """
    check_positive("stake and payout", stake, win_payout, error=NonPositiveStakeError)
    if line not in ("close", "open"):
        raise ValueError(f"line must be 'close' or 'open', got {line!r}")
    if strategy.rule is None:
        rows, sides = _select(_priced(dataset, line), strategy)
    else:
        accepts, side = strategy.rule
        rows = np.flatnonzero(accepts(dataset.table.line2(line) * 0.5))
        sides = [side] * len(rows)
    return _settle(dataset.table, rows, tuple(sides), line, stake, win_payout)


def _priced(dataset: Dataset, line: str) -> tuple[GameRecord, ...]:
    """The games as a strategy sees them: on the open line, line_close holds the opening spread."""
    if line == "close":
        return dataset.games
    return replace(dataset.table, line_close=dataset.table.line_open).records()


def _select(games: Sequence[GameRecord], strategy: Strategy) -> tuple[np.ndarray, list]:
    """Rows and sides a per-game selector bets: the one path for strategies without a rule."""
    rows, sides = [], []
    for i, game in enumerate(games):
        side = strategy(game)
        if side is not None:
            rows.append(i)
            sides.append(side)
    return np.array(rows, dtype=np.int64), sides


#: a bet's outcome, indexed by its ATS sign: 0 push, 1 cover, -1 no cover
_OUTCOMES = (AtsOutcome.PUSH, AtsOutcome.COVER, AtsOutcome.NO_COVER)


def _settle(
    table: GameTable, rows: np.ndarray, sides: tuple, line: str, stake: float, win_payout: float
) -> StrategyLedger:
    """Settle a bet on ``sides[k]`` in game ``rows[k]``, all at once."""
    result = _bet_signs(table, rows, sides, line)
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
        bets=table.take(rows), sides=sides, outcomes=tuple(map(_OUTCOMES.__getitem__, signs)), cashflows=cash,
        per_season=per_season,
    )


def _bet_signs(table: GameTable, rows: np.ndarray, sides: tuple, line: str) -> np.ndarray:
    """Each bet's ATS sign: +1 cover, 0 push, -1 no cover."""
    # the sign that turns the home side's result into the bet side's; away,
    # and any other side, mirrors the home side, as in ats_outcome
    spread = np.sign(table.line2(line)[rows]).astype(np.int8)
    flip = np.full(len(rows), -1, dtype=np.int8)
    for side, sign in ((GameSide.HOME, 1), (GameSide.FAVORITE, spread), (GameSide.UNDERDOG, -spread)):
        np.copyto(flip, sign, where=np.fromiter((s is side for s in sides), dtype=bool, count=len(sides)))
    unresolved = np.flatnonzero(flip == 0)  # a favorite or underdog bet on a pick-em on this line
    if unresolved.size:
        k = int(unresolved[0])
        game = table.take(rows[k : k + 1]).records()[0]
        ats_outcome(replace(game, line_close=0.0), sides[k])  # a pick-em here: raises UnresolvableSideError
    return flip * ats_signs(table, line)[rows]


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
