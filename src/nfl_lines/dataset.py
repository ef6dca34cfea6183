"""Core domain types and CSV ingestion for games, lines, and divisions.

Sign convention for spreads: home-positive. ``line_close > 0`` means the
home team is favored by that many points; negative values favor the
visitor; ``0`` is a pick-em with no favorite.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import date as Date
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

GAME_COLUMNS = (
    "season",
    "week",
    "date",
    "home",
    "away",
    "home_score",
    "away_score",
    "line_open",
    "line_close",
)
DIVISION_COLUMNS = ("team", "conference", "division")

CONFERENCES = ("AFC", "NFC")
DIVISION_NAMES = ("East", "North", "South", "West")

#: Weeks above this are treated as postseason for this era.
REGULAR_SEASON_MAX_WEEK = 17

#: Largest spread magnitude accepted, in points; NFL lines stay far below it.
MAX_ABS_SPREAD = 60.0


class DatasetError(ValueError):
    """Base class for ingestion/validation failures."""


class MissingColumnError(DatasetError):
    def __init__(self, missing: Sequence[str], got: Sequence[str]):
        super().__init__(f"missing column(s) {sorted(missing)}; header was {list(got)}")
        self.missing = tuple(missing)


class MalformedRowError(DatasetError):
    def __init__(self, row: int, reason: str):
        super().__init__(f"row {row}: {reason}")
        self.row = row
        self.reason = reason


class NonHalfPointSpreadError(DatasetError):
    def __init__(self, value: float, row: int | None = None):
        where = f"row {row}: " if row is not None else ""
        super().__init__(f"{where}spread {value!r} is not a multiple of 0.5")
        self.value = value
        self.row = row


class DuplicateGameError(DatasetError):
    def __init__(self, row: int | None, key: tuple):
        where = f"row {row}: " if row is not None else ""
        super().__init__(f"{where}duplicate game {key}")
        self.row = row
        self.key = key


class WrongTeamCountError(DatasetError):
    def __init__(self, count: int):
        super().__init__(f"division map must list exactly 32 teams, got {count}")
        self.count = count


class UnknownConferenceError(DatasetError):
    def __init__(self, value: str, row: int | None = None):
        where = f"row {row}: " if row is not None else ""
        super().__init__(f"{where}unknown conference {value!r} (expected one of {CONFERENCES})")
        self.value = value


class UnknownDivisionError(DatasetError):
    def __init__(self, value: str, row: int | None = None):
        where = f"row {row}: " if row is not None else ""
        super().__init__(f"{where}unknown division {value!r} (expected one of {DIVISION_NAMES})")
        self.value = value


class UnbalancedDivisionError(DatasetError):
    def __init__(self, conference: str, division: str, count: int):
        super().__init__(f"{conference} {division} has {count} teams, expected 4")
        self.conference = conference
        self.division = division
        self.count = count


class UnknownTeamError(DatasetError):
    def __init__(self, team: str):
        super().__init__(f"team {team!r} does not resolve in the division map")
        self.team = team


class GameSide(Enum):
    """A side a bet can be placed on."""

    HOME = "home"
    AWAY = "away"
    FAVORITE = "favorite"
    UNDERDOG = "underdog"


def _is_half_point(value: float) -> bool:
    return float(2 * value).is_integer()


@dataclass(frozen=True)
class GameRecord:
    """One game: teams, final scores, opening and closing spreads.

    Spreads are in the home-positive frame, must be multiples of 0.5 and
    at most ``MAX_ABS_SPREAD`` in magnitude. The date's year is the
    season's or the next one (January and February playoff games).
    """

    season: int
    week: int
    date: Date
    home: str
    away: str
    home_score: int
    away_score: int
    line_open: float
    line_close: float

    def __post_init__(self):
        if not self.home or not self.away:
            raise DatasetError("team codes must be non-empty")
        if self.home == self.away:
            raise DatasetError(f"home and away are both {self.home!r}")
        if self.season < 0:
            raise DatasetError(f"season must be non-negative, got {self.season}")
        if self.week < 1:
            raise DatasetError(f"week must be at least 1, got {self.week}")
        if not 0 <= self.date.year - self.season <= 1:
            raise DatasetError(f"date {self.date.isoformat()} is outside season {self.season}")
        if self.home_score < 0 or self.away_score < 0:
            raise DatasetError(f"scores must be non-negative, got {self.home_score}-{self.away_score}")
        for line in (self.line_open, self.line_close):
            if not -MAX_ABS_SPREAD <= line <= MAX_ABS_SPREAD:  # also rejects nan
                raise DatasetError(f"spread {line!r} is beyond the {MAX_ABS_SPREAD:g}-point cap")
            if not _is_half_point(line):
                raise NonHalfPointSpreadError(line)

    @property
    def key(self) -> tuple[int, int, str, str]:
        return (self.season, self.week, self.home, self.away)

    @property
    def is_regular_season(self) -> bool:
        return self.week <= REGULAR_SEASON_MAX_WEEK

    @property
    def home_margin(self) -> int:
        """Home score minus away score (signed)."""
        return self.home_score - self.away_score


class FavoriteInfo(NamedTuple):
    favorite: str
    underdog: str
    spread: float


def favorite_of(game: GameRecord) -> FavoriteInfo | None:
    """Resolve the closing-line favorite, or ``None`` on a pick-em."""
    if game.line_close > 0:
        return FavoriteInfo(game.home, game.away, game.line_close)
    if game.line_close < 0:
        return FavoriteInfo(game.away, game.home, -game.line_close)
    return None


@dataclass(frozen=True)
class DivisionMap:
    """Mapping of team code to (conference, division), 32 teams in 8 cells of 4."""

    entries: Mapping[str, tuple[str, str]]

    def __post_init__(self):
        if len(self.entries) != 32:
            raise WrongTeamCountError(len(self.entries))
        counts: dict[tuple[str, str], int] = {}
        for team, (conf, div) in self.entries.items():
            if not team:
                raise DatasetError("empty team code in division map")
            if conf not in CONFERENCES:
                raise UnknownConferenceError(conf)
            if div not in DIVISION_NAMES:
                raise UnknownDivisionError(div)
            counts[(conf, div)] = counts.get((conf, div), 0) + 1
        for conf in CONFERENCES:
            for div in DIVISION_NAMES:
                if counts.get((conf, div), 0) != 4:
                    raise UnbalancedDivisionError(conf, div, counts.get((conf, div), 0))

    def __contains__(self, team: str) -> bool:
        return team in self.entries

    @property
    def teams(self) -> tuple[str, ...]:
        return tuple(sorted(self.entries))

    def conference_of(self, team: str) -> str:
        return self._lookup(team)[0]

    def division_of(self, team: str) -> str:
        return self._lookup(team)[1]

    def _lookup(self, team: str) -> tuple[str, str]:
        try:
            return self.entries[team]
        except KeyError:
            raise UnknownTeamError(team) from None

    def cells(self) -> Iterator[tuple[str, str, tuple[str, ...]]]:
        """Yield (conference, division, teams) for the 8 cells, in fixed order."""
        for conf in CONFERENCES:
            for div in DIVISION_NAMES:
                teams = tuple(sorted(t for t, cd in self.entries.items() if cd == (conf, div)))
                yield conf, div, teams


@dataclass(frozen=True)
class Dataset:
    """Validated, ordered collection of games plus the division map."""

    games: tuple[GameRecord, ...]
    divisions: DivisionMap
    provenance: str = ""

    def __post_init__(self):
        object.__setattr__(self, "games", tuple(self.games))
        seen: set[tuple] = set()
        for g in self.games:
            if g.key in seen:
                raise DuplicateGameError(None, g.key)
            seen.add(g.key)
            for team in (g.home, g.away):
                if team not in self.divisions:
                    raise UnknownTeamError(team)

    def __len__(self) -> int:
        return len(self.games)

    def __iter__(self) -> Iterator[GameRecord]:
        return iter(self.games)

    def seasons(self) -> tuple[int, ...]:
        return tuple(sorted({g.season for g in self.games}))

    def filter(
        self,
        seasons: int | tuple[int, int] | None = None,
        weeks: int | tuple[int, int] | None = None,
        regular_season_only: bool = False,
    ) -> "Dataset":
        """Subset by season range and/or week range, preserving order.

        Ranges are inclusive; a bare int means a single-value range. The
        division map and provenance carry over unchanged.
        """
        season_rng = _as_range(seasons)
        week_rng = _as_range(weeks)
        kept = tuple(
            g
            for g in self.games
            if (season_rng is None or season_rng[0] <= g.season <= season_rng[1])
            and (week_rng is None or week_rng[0] <= g.week <= week_rng[1])
            and (not regular_season_only or g.is_regular_season)
        )
        return Dataset(kept, self.divisions, self.provenance)


def _as_range(value: int | tuple[int, int] | None) -> tuple[int, int] | None:
    if value is None:
        return None
    if isinstance(value, int):
        return (value, value)
    lo, hi = value
    if lo > hi:
        raise DatasetError(f"empty range {lo}..{hi}")
    return (int(lo), int(hi))


def _split_rows(csv_text: str) -> list[list[str]]:
    # splitlines() handles LF and CRLF alike
    reader = csv.reader(csv_text.splitlines())
    try:
        return list(reader)
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise MalformedRowError(reader.line_num, str(exc)) from None


def _header_index(header: Sequence[str], required: Sequence[str]) -> dict[str, int]:
    cleaned = [h.strip() for h in header]
    missing = [c for c in required if c not in cleaned]
    if missing:
        raise MissingColumnError(missing, cleaned)
    extra = [c for c in cleaned if c not in required]
    if extra:
        raise MalformedRowError(1, f"unexpected column(s) {extra}")
    return {c: cleaned.index(c) for c in required}


def parse_games(csv_text: str) -> list[GameRecord]:
    """Parse the games CSV into validated records, preserving row order.

    Row numbers in errors are 1-based physical rows (header is row 1).
    """
    rows = _split_rows(csv_text)
    if not rows:
        raise MissingColumnError(list(GAME_COLUMNS), [])
    idx = _header_index(rows[0], GAME_COLUMNS)
    records: list[GameRecord] = []
    seen: set[tuple] = set()
    for rownum, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue  # blank line
        if len(row) != len(GAME_COLUMNS):
            raise MalformedRowError(rownum, f"expected {len(GAME_COLUMNS)} fields, got {len(row)}")
        get = lambda col: row[idx[col]].strip()
        try:
            season = int(get("season"))
            week = int(get("week"))
            date = Date.fromisoformat(get("date"))
            home = get("home")
            away = get("away")
            home_score = int(get("home_score"))
            away_score = int(get("away_score"))
            line_open = float(get("line_open"))
            line_close = float(get("line_close"))
        except (ValueError, TypeError) as exc:
            raise MalformedRowError(rownum, str(exc)) from None
        try:
            record = GameRecord(
                season, week, date, home, away, home_score, away_score, line_open, line_close
            )
        except NonHalfPointSpreadError as exc:
            raise NonHalfPointSpreadError(exc.value, row=rownum) from None
        except DatasetError as exc:
            raise MalformedRowError(rownum, str(exc)) from None
        if record.key in seen:
            raise DuplicateGameError(rownum, record.key)
        seen.add(record.key)
        records.append(record)
    return records


def parse_divisions(csv_text: str) -> DivisionMap:
    """Parse the divisions CSV (columns team,conference,division; 32 rows)."""
    rows = _split_rows(csv_text)
    if not rows:
        raise MissingColumnError(list(DIVISION_COLUMNS), [])
    idx = _header_index(rows[0], DIVISION_COLUMNS)
    entries: dict[str, tuple[str, str]] = {}
    for rownum, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(DIVISION_COLUMNS):
            raise MalformedRowError(rownum, f"expected {len(DIVISION_COLUMNS)} fields, got {len(row)}")
        team = row[idx["team"]].strip()
        conf = row[idx["conference"]].strip()
        div = row[idx["division"]].strip()
        if not team:
            raise MalformedRowError(rownum, "empty team code")
        if conf not in CONFERENCES:
            raise UnknownConferenceError(conf, row=rownum)
        if div not in DIVISION_NAMES:
            raise UnknownDivisionError(div, row=rownum)
        if team in entries:
            raise MalformedRowError(rownum, f"duplicate team {team!r}")
        entries[team] = (conf, div)
    return DivisionMap(entries)


def format_spread(value: float) -> str:
    """Canonical spread text: integers bare, halves with one decimal."""
    return str(int(value)) if float(value).is_integer() else f"{value:.1f}"


def games_to_csv(games: Iterable[GameRecord]) -> str:
    """Serialize records back to the games CSV schema (round-trips with parse_games)."""
    out = [",".join(GAME_COLUMNS)]
    for g in games:
        out.append(
            ",".join(
                (
                    str(g.season),
                    str(g.week),
                    g.date.isoformat(),
                    g.home,
                    g.away,
                    str(g.home_score),
                    str(g.away_score),
                    format_spread(g.line_open),
                    format_spread(g.line_close),
                )
            )
        )
    return "\n".join(out) + "\n"


def load_games(path: str | Path) -> list[GameRecord]:
    return parse_games(Path(path).read_text(encoding="utf-8-sig"))


def load_divisions(path: str | Path) -> DivisionMap:
    return parse_divisions(Path(path).read_text(encoding="utf-8-sig"))


def load_dataset(games_path: str | Path, divisions_path: str | Path) -> Dataset:
    """Load and cross-validate a games file against a division map."""
    games = load_games(games_path)
    divisions = load_divisions(divisions_path)
    return Dataset(tuple(games), divisions, provenance=str(games_path))
