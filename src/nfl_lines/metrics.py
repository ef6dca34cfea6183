"""Per-game and aggregate line-accuracy metrics.

Margin of victory, line difference (the line's signed error), against-the-
spread settlement, line movement, histograms, and the per-season home-record
breakdown. The per-game quantities use elementwise operators only, so each
takes one GameRecord or a whole GameTable, one value per game.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .dataset import Dataset, GameRecord, GameTable
from .stats import check_positive

#: Default bin width for line-difference values: whole points.
LD_BIN_WIDTH = 1.0


class UnresolvableSideError(ValueError):
    """Favorite/Underdog side requested on a pick-em game."""


class AtsOutcome(Enum):
    COVER = "cover"
    NO_COVER = "no_cover"
    PUSH = "push"


def mov(game: GameRecord | GameTable) -> int | np.ndarray:
    """Margin of victory: winner score minus loser score (0 for a tie)."""
    return abs(game.home_margin)


def line_difference(game: GameRecord | GameTable) -> float | np.ndarray:
    """Signed line error: favorite margin minus spread magnitude.

    Positive means the favorite was undervalued (or the underdog
    overvalued). On a pick-em the home team is taken as the favorite
    operand with spread 0, so the value is the home margin.
    """
    # the home frame's error, negated where the visitor is favored
    return (game.home_score - game.away_score - game.line_close) * (1 - 2 * (game.line_close < 0))


def line_movement(game: GameRecord | GameTable) -> float | np.ndarray:
    """Closing line minus opening line, in the signed home-positive frame."""
    return game.line_close - game.line_open


def movement_magnitude(game: GameRecord | GameTable) -> float | np.ndarray:
    """Absolute size of the open-to-close move.

    When the favorite flips, this equals the full swing through zero
    (e.g. home +6 open to home -7 close is a 13-point move).
    """
    return abs(game.line_close - game.line_open)


class FavoriteAtsSummary(NamedTuple):
    """Partition of non-pick-em games by the favorite's straight-up/ATS result."""

    covers: int
    wins_no_cover: int
    losses: int
    pushes: int


def favorite_ats_summary(dataset: Dataset) -> FavoriteAtsSummary:
    """Count favorite covers, straight-up wins without a cover, losses, pushes.

    Pick-ems are excluded; the four counts plus the pick-em count always
    sum to the dataset size. A straight-up tie counts with the losses
    (the favorite failed to win).
    """
    table = dataset.table
    favored = table.close2 != 0
    ld = favorite_signs(table)
    won = np.sign(table.close2[favored]) * table.home_margin[favored] > 0
    covers = _count(ld > 0)
    pushes = _count(ld == 0)
    wins_no_cover = _count((ld < 0) & won)
    return FavoriteAtsSummary(covers, wins_no_cover, len(ld) - covers - pushes - wins_no_cover, pushes)


def ats_signs(table: GameTable) -> np.ndarray:
    """Home-side settlement of every game against the closing spread.

    +1 where the home side covers (beats the spread from its own frame),
    0 on a push, -1 where it does not; a pick-em home bet covers iff the
    home team wins straight up. Negate it for the away side. For the
    opening line, pass ``table.on_line("open")``.
    """
    return np.sign(2 * table.home_margin - table.close2)


def favorite_signs(table: GameTable) -> np.ndarray:
    """The favorite's settlement in each non-pick-em game, in game order.

    +1 cover, 0 push, -1 no cover against the closing spread; negate it
    for the underdog. A pick-em has no favorite and no entry here.
    """
    close2 = table.close2
    return (np.sign(close2) * ats_signs(table))[close2 != 0]


def _count(mask: np.ndarray) -> int:
    return int(np.count_nonzero(mask))


def pick_em_count(dataset: Dataset) -> int:
    return _count(dataset.table.close2 == 0)


@dataclass(frozen=True)
class RecordCell:
    wins: int = 0
    losses: int = 0

    @property
    def win_ratio(self) -> float:
        """wins / decided; 0 when no decided games."""
        decided = self.wins + self.losses
        return self.wins / decided if decided else 0.0

    def __add__(self, other: "RecordCell") -> "RecordCell":
        return RecordCell(self.wins + other.wins, self.losses + other.losses)


@dataclass(frozen=True)
class HomeRecordRow:
    favorites: RecordCell
    underdogs: RecordCell
    pick_ems: RecordCell
    all_home: RecordCell


@dataclass(frozen=True)
class HomeRecordTable:
    """Per-season and total home ATS records, split by the home team's role."""

    by_season: Mapping[int, HomeRecordRow]
    total: HomeRecordRow

    def to_csv(self) -> str:
        header = ["season"]
        for col in ("favorites", "underdogs", "pick_ems", "all_home"):
            header += [f"{col}_wins", f"{col}_losses", f"{col}_ratio"]
        lines = [",".join(header)]
        rows = [(str(season), row) for season, row in self.by_season.items()]
        rows.append(("total", self.total))
        for label, row in rows:
            fields = [label]
            for cell in (row.favorites, row.underdogs, row.pick_ems, row.all_home):
                fields += [str(cell.wins), str(cell.losses), f"{cell.win_ratio:.3f}"]
            lines.append(",".join(fields))
        return "\n".join(lines) + "\n"


def home_record_table(dataset: Dataset) -> HomeRecordTable:
    """Home-side ATS wins/losses per season, split favorite/underdog/pick-em.

    Pushes are excluded from every cell; the pick-em column is the home
    team's straight-up record (ATS at spread 0 is the same thing). A season
    with pushes only has no row.
    """
    table = dataset.table
    result = ats_signs(table)
    decided = result != 0
    # column 0 favorites, 1 underdogs, 2 pick-ems; outcome 0 win, 1 loss
    column = np.select([table.close2 > 0, table.close2 < 0], [0, 1], 2)[decided]
    seasons, season = np.unique(table.season[decided], return_inverse=True)
    cell = (season.reshape(-1) * 3 + column) * 2 + (result[decided] < 0)
    counts = np.bincount(cell, minlength=6 * len(seasons)).reshape(-1, 3, 2)

    def make_row(cells: np.ndarray) -> HomeRecordRow:
        favorites, underdogs, pick_ems = (RecordCell(wins, losses) for wins, losses in cells.tolist())
        return HomeRecordRow(favorites, underdogs, pick_ems, favorites + underdogs + pick_ems)

    by_season = {season: make_row(cells) for season, cells in zip(seasons.tolist(), counts)}
    return HomeRecordTable(by_season, make_row(counts.sum(axis=0)))


@dataclass(frozen=True)
class Histogram:
    """Fixed-width binning; the bin of value v is floor((v - origin)/bin_width)."""

    bin_width: float
    origin: float
    bins: Mapping[int, int]
    total: int

    def bin_center(self, index: int) -> float:
        return self.origin + (index + 0.5) * self.bin_width

    def sorted_items(self) -> list[tuple[int, int]]:
        return sorted(self.bins.items())

    def to_csv(self) -> str:
        lines = ["bin_center,count"]
        for idx, count in self.sorted_items():
            lines.append(f"{self.bin_center(idx):g},{count}")
        return "\n".join(lines) + "\n"


def histogram(values: Sequence[float], bin_width: float, origin: float = 0.0) -> Histogram:
    """Bin values at the given width; empty input gives an empty histogram."""
    check_positive("bin_width", bin_width)
    # tolerance of one part in 1e9 so grid-aligned values land in the
    # bin they are the left edge of despite float division error
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.floor((np.asarray(values, dtype=float) - origin) / bin_width + 1e-9)
    if not np.isfinite(q).all():
        raise ValueError(f"a value falls in no finite bin at bin_width {bin_width:g}")
    bins, counts = np.unique(q, return_counts=True)
    return Histogram(bin_width, origin, dict(zip(map(int, bins.tolist()), counts.tolist())), q.size)


@dataclass(frozen=True)
class WeeklyMovement:
    """Share of games per week whose line moved at least ``threshold`` points."""

    threshold: float
    by_week: Mapping[int, float]
    week_mean: float
    week_std: float
    overall: float

    def to_csv(self) -> str:
        lines = ["week,fraction"]
        lines += [f"{week},{fraction:.6f}" for week, fraction in sorted(self.by_week.items())]
        return "\n".join(lines) + "\n"


def movement_fraction_by_week(dataset: Dataset, threshold: float) -> WeeklyMovement:
    """Fraction of each week's games with |open-to-close move| >= threshold.

    Also reports the mean and (sample) standard deviation of the weekly
    fractions and the overall game-weighted fraction.
    """
    check_positive("threshold", threshold)
    table = dataset.table
    weeks, week = np.unique(table.week, return_inverse=True)
    week = week.reshape(-1)
    totals = np.bincount(week, minlength=len(weeks)).tolist()
    moved = np.bincount(week[movement_magnitude(table) >= threshold], minlength=len(weeks)).tolist()
    by_week = {w: m / n for w, m, n in zip(weeks.tolist(), moved, totals)}
    fractions = list(by_week.values())
    mean = sum(fractions) / len(fractions) if fractions else 0.0
    std = math.sqrt(sum((f - mean) ** 2 for f in fractions) / (len(fractions) - 1)) if len(fractions) >= 2 else 0.0
    n_games = sum(totals)
    overall = sum(moved) / n_games if n_games else 0.0
    return WeeklyMovement(threshold, by_week, mean, std, overall)


def movement_cumulative_counts(
    dataset: Dataset, thresholds: Iterable[float] | None = None
) -> dict[float, int]:
    """Games with |open-to-close move| <= t, for each requested threshold.

    Defaults to the half-point grid from 0 up to the largest move seen.
    """
    magnitudes = movement_magnitude(dataset.table)
    if thresholds is None:
        top = float(magnitudes.max()) if magnitudes.size else 0.0
        steps = int(math.ceil(top / 0.5)) + 1
        thresholds = [0.5 * k for k in range(steps)]
    return {t: _count(magnitudes <= t) for t in thresholds}

