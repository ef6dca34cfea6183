"""Core domain types and CSV ingestion for games, lines, and divisions.

Sign convention for spreads: home-positive. ``line_close > 0`` means the
home team is favored by that many points; negative values favor the
visitor; ``0`` is a pick-em with no favorite.

Storage: a :class:`Dataset` holds its games once, as numpy columns
(``Dataset.table``, a :class:`GameTable`), which the metrics, backtests,
season schedules and every CLI command compute on; ``==`` compares those
columns. ``Dataset.games`` (and iterating a Dataset) reads them back as
:class:`GameRecord` rows, the public row type, the first time it is asked.

Lines: ``line_close`` is the spread every computation reads.
``GameTable.on_line("open")`` gives the games priced on the opening line
instead, and it is the one place the two lines are chosen between.

Validation: each rule a single game must pass is defined once, in
``_RULES``. ``GameRecord`` raises the first rule a record fails, and
``parse_games`` runs the same tests over whole columns; one column search
finds repeated keys and teams outside the division map. Only when a check
fails is the text re-read row by row through ``GameRecord``, so the error
names the first bad row as a row-by-row parse would, even when a later row
cannot be read. ``filter`` is a mask.
"""

from __future__ import annotations

import contextlib
import csv
import io
from dataclasses import dataclass, fields, replace
from datetime import date as Date
from enum import Enum
from functools import cached_property
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Iterator, Mapping, NamedTuple, NoReturn, Sequence

import numpy as np

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

#: Largest week number or score accepted; keeps every column and its
#: differences well inside int64.
MAX_COUNT = 2**31 - 1


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


def _spread_rules(name: str) -> tuple:
    """The cap rule, then the half-point rule, for one spread field."""
    line = attrgetter(name)
    return (
        (lambda g: (-MAX_ABS_SPREAD <= line(g)) & (line(g) <= MAX_ABS_SPREAD),  # false for nan
         lambda g: DatasetError(f"spread {line(g)!r} is beyond the {MAX_ABS_SPREAD:g}-point cap")),
        (lambda g: 2 * line(g) % 1 == 0, lambda g: NonHalfPointSpreadError(line(g))),
    )


#: Every rule a game must pass, as (test, error), in the order failures are
#: reported. A test uses only elementwise operators, so it takes one
#: GameRecord or whole columns under the same names (see ``_columns``),
#: and it may assume the game passed every test above it. ``error`` words
#: the failure of one GameRecord.
_RULES = (
    (lambda g: (g.home != "") & (g.away != ""), lambda g: DatasetError("team codes must be non-empty")),
    (lambda g: g.home != g.away, lambda g: DatasetError(f"home and away are both {g.home!r}")),
    (lambda g: g.season >= 0, lambda g: DatasetError(f"season must be non-negative, got {g.season}")),
    (lambda g: g.week >= 1, lambda g: DatasetError(f"week must be at least 1, got {g.week}")),
    (lambda g: (g.season <= g.date.year) & (g.date.year <= g.season + 1),
     lambda g: DatasetError(f"date {g.date.isoformat()} is outside season {g.season}")),
    (lambda g: (g.home_score >= 0) & (g.away_score >= 0),
     lambda g: DatasetError(f"scores must be non-negative, got {g.home_score}-{g.away_score}")),
    *_spread_rules("line_open"),
    *_spread_rules("line_close"),
    (lambda g: (g.week <= MAX_COUNT) & (g.home_score <= MAX_COUNT) & (g.away_score <= MAX_COUNT),
     lambda g: DatasetError(f"week and scores must be at most {MAX_COUNT}, got week {g.week}, "
                            f"score {g.home_score}-{g.away_score}")),
)


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
        for test, error in _RULES:
            if not test(self):
                raise error(self)

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


def _ints(values) -> np.ndarray:
    return np.array(values, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class GameTable:
    """Games as aligned numpy columns, one row per game, in dataset order.

    ``home``/``away`` index into ``teams`` (sorted codes), ``day`` is the
    date's ordinal, and ``line_open``/``line_close`` are the spreads as
    parsed (a ``-0`` keeps its sign). ``close2`` gives the closing spread
    in integer half-points, so settlement is exact integer arithmetic, and
    ``on_line`` prices the games on the opening line instead.
    """

    season: np.ndarray
    week: np.ndarray
    day: np.ndarray
    home: np.ndarray
    away: np.ndarray
    home_score: np.ndarray
    away_score: np.ndarray
    line_open: np.ndarray
    line_close: np.ndarray
    teams: tuple[str, ...]

    @classmethod
    def of(cls, games: SimpleNamespace) -> "GameTable":
        """The table of games that pass every rule, from their ``_columns``."""
        teams = tuple(sorted(set(games.home).union(games.away)))
        index = {team: i for i, team in enumerate(teams)}.__getitem__
        return cls(
            games.season, games.week, games.date.day,
            _ints(list(map(index, games.home))), _ints(list(map(index, games.away))),
            games.home_score, games.away_score, games.line_open, games.line_close, teams,
        )

    @classmethod
    def of_records(cls, games: Sequence[GameRecord]) -> "GameTable":
        """The table of GameRecords."""
        return cls.of(_columns(*(list(zip(*map(attrgetter(*GAME_COLUMNS), games))) or [()] * len(GAME_COLUMNS))))

    def __len__(self) -> int:
        return len(self.season)

    def take(self, rows: np.ndarray) -> "GameTable":
        """The rows a boolean mask or an index array selects, in that order."""
        return GameTable(*(getattr(self, f.name)[rows] for f in fields(self)[:-1]), self.teams)

    def records(self) -> tuple[GameRecord, ...]:
        """The games as GameRecords, read back from the columns."""
        team = self.teams.__getitem__
        return tuple(map(
            _checked_record, self.season.tolist(), self.week.tolist(), map(Date.fromordinal, self.day.tolist()),
            map(team, self.home.tolist()), map(team, self.away.tolist()), self.home_score.tolist(),
            self.away_score.tolist(), self.line_open.tolist(), self.line_close.tolist(),
        ))

    def on_line(self, line: str) -> "GameTable":
        """The games priced on the "close" or "open" line: ``line_close``
        holds that spread. Every choice between the two lines is made here."""
        if line not in ("close", "open"):
            raise ValueError(f"line must be 'close' or 'open', got {line!r}")
        return self if line == "close" else replace(self, line_close=self.line_open)

    close2 = property(lambda self: (2 * self.line_close).astype(np.int64))

    @property
    def home_margin(self) -> np.ndarray:
        """Home score minus away score (signed)."""
        return self.home_score - self.away_score


@dataclass(frozen=True, init=False, eq=False)
class Dataset:
    """Validated, ordered collection of games plus the division map.

    ``table`` holds the games, and ``games`` reads them back as records on
    first use. Built from records, keys and teams are checked here;
    ``load_dataset`` and ``filter`` hand over a table that is already checked.
    """

    table: GameTable
    divisions: DivisionMap
    provenance: str = ""

    def __init__(self, games: Iterable[GameRecord], divisions: DivisionMap, provenance: str = ""):
        table = GameTable.of_records(tuple(games))
        _check_keys_and_teams(table, divisions)
        self.__dict__.update(table=table, divisions=divisions, provenance=provenance)

    @classmethod
    def _checked(cls, table: GameTable, divisions: DivisionMap, provenance: str) -> "Dataset":
        dataset = object.__new__(cls)
        dataset.__dict__.update(table=table, divisions=divisions, provenance=provenance)
        return dataset

    @cached_property
    def games(self) -> tuple[GameRecord, ...]:
        """The games as GameRecords, in dataset order."""
        return self.table.records()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            all(map(np.array_equal, _game_columns(self.table), _game_columns(other.table)))
            and (self.divisions, self.provenance) == (other.divisions, other.provenance)
        )

    def __len__(self) -> int:
        return len(self.table)

    def __iter__(self) -> Iterator[GameRecord]:
        return iter(self.games)

    def seasons(self) -> tuple[int, ...]:
        return tuple(np.unique(self.table.season).tolist())

    def season_rows(self, season: int) -> np.ndarray:
        """Positions of the season's games in ``games``, in dataset order."""
        return np.flatnonzero(self.table.season == season)

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
        keep = np.ones(len(self.table), dtype=bool)
        for column, rng in ((self.table.season, _as_range(seasons)), (self.table.week, _as_range(weeks))):
            if rng is not None:
                # range ends may be any int; seasons and weeks sit far inside +-2**62
                lo, hi = (min(max(end, -(2**62)), 2**62) for end in rng)
                keep &= (column >= lo) & (column <= hi)
        if regular_season_only:
            keep &= self.table.week <= REGULAR_SEASON_MAX_WEEK
        return Dataset._checked(self.table.take(keep), self.divisions, self.provenance)


def _game_columns(table: GameTable) -> tuple[np.ndarray, ...]:
    """The table's columns with team codes in place of indices: equal
    exactly when the games' records are, whatever ``teams`` each indexes."""
    team = np.array(table.teams, dtype=object)
    return (table.season, table.week, table.day, team[table.home], team[table.away],
            table.home_score, table.away_score, table.line_open, table.line_close)


def _as_range(value: int | tuple[int, int] | None) -> tuple[int, int] | None:
    if value is None:
        return None
    if isinstance(value, int):
        return (value, value)
    lo, hi = value
    if lo > hi:
        raise DatasetError(f"empty range {lo}..{hi}")
    return (int(lo), int(hi))


def _check_keys_and_teams(table: GameTable, divisions: DivisionMap | None = None, rows: Sequence[int] = ()) -> None:
    """Raise for the first game, in dataset order, that repeats an earlier
    game's key or has a team outside ``divisions`` (when given).

    A repeated key is reported before a team of the same game. ``rows``,
    when given, holds the row number each game is reported with.
    """
    keys = (table.away, table.home, table.week, table.season)
    order = np.lexsort(keys)  # a stable sort: of equal keys, the earliest game comes first
    repeated = order[1:][np.logical_and.reduce([key[order][1:] == key[order][:-1] for key in keys])]
    first = int(repeated.min()) if repeated.size else len(table)
    if divisions is not None:
        _check_teams(table.take(np.arange(first)), divisions)
    if repeated.size:
        game = table.take(np.array([first])).records()[0]
        raise DuplicateGameError(rows[first] if rows else None, game.key)


def _check_teams(table: GameTable, divisions: DivisionMap) -> None:
    """Raise for the first game, in dataset order, with a team outside
    ``divisions``: its home team if that one is missing, else its away team."""
    known = np.array([team in divisions for team in table.teams], dtype=bool)
    bad = np.flatnonzero(~known[table.home] | ~known[table.away])
    if bad.size:
        game = table.take(bad[:1]).records()[0]
        raise UnknownTeamError(game.home if game.home not in divisions else game.away)


def _is_blank(row: Sequence[str]) -> bool:
    return not "".join(row).strip()


def _header_index(header: Sequence[str], required: Sequence[str]) -> dict[str, int]:
    cleaned = [h.strip() for h in header]
    missing = [c for c in required if c not in cleaned]
    if missing:
        raise MissingColumnError(missing, cleaned)
    extra = [c for c in cleaned if c not in required]
    if extra:
        raise MalformedRowError(1, f"unexpected column(s) {extra}")
    return {c: cleaned.index(c) for c in required}


#: Each games column and how it is read, in GameRecord field order.
_FIELDS = tuple(zip(GAME_COLUMNS, (int, int, Date.fromisoformat, str, str, int, int, float, float)))


def parse_games(csv_text: str) -> list[GameRecord]:
    """Parse the games CSV into validated records, preserving row order.

    Row numbers in errors are the 1-based physical lines rows start on
    (the header is line 1).
    """
    return list(_parse_games(csv_text).records())


def _parse_games(csv_text: str) -> GameTable:
    try:
        rows = list(csv.reader(io.StringIO(csv_text, newline="")))
    except csv.Error:  # e.g. a field over csv.field_size_limit(): the error path names its line
        rows = []
    body = [row for row in rows[1:] if not _is_blank(row)]
    if rows and all(len(row) == len(GAME_COLUMNS) for row in body):
        idx = _header_index(rows[0], GAME_COLUMNS)
        # read whole columns, dropping each column's text once it is read
        cells = list(zip(*body)) or [()] * len(GAME_COLUMNS)
        del rows, body
        try:
            columns = []
            for name, convert in _FIELDS:
                columns.append(list(map(convert, map(str.strip, cells[idx[name]]))))
                cells[idx[name]] = ()
            view = _columns(*columns)
            valid = all(test(view).all() for test, _ in _RULES)
        except (ValueError, TypeError, OverflowError):  # OverflowError: an integer beyond int64
            valid = False
        if valid:
            table = GameTable.of(view)
            with contextlib.suppress(DuplicateGameError):  # the error path names its row
                _check_keys_and_teams(table)
                return table
    _raise_first_error(csv_text)


def _columns(season, week, dates, home, away, home_score, away_score, line_open, line_close) -> SimpleNamespace:
    """Field values, as lists in GameRecord field order, turned into arrays
    under GameRecord's field names: the rules test them all at once, and
    GameTable stores them. Of a date, only its ``year`` and ordinal ``day``."""
    return SimpleNamespace(
        season=_ints(season), week=_ints(week),
        date=SimpleNamespace(year=_ints([d.year for d in dates]), day=_ints([d.toordinal() for d in dates])),
        home=np.array(home, dtype=object), away=np.array(away, dtype=object),
        home_score=_ints(home_score), away_score=_ints(away_score),
        line_open=np.array(line_open, dtype=float), line_close=np.array(line_close, dtype=float),
    )


def _checked_record(season, week, date, home, away, home_score, away_score, line_open, line_close) -> GameRecord:
    """A GameRecord over values that already passed its checks, which do not run again."""
    record = object.__new__(GameRecord)
    put = object.__setattr__  # as the frozen dataclass's own __init__ sets fields
    put(record, "season", season)
    put(record, "week", week)
    put(record, "date", date)
    put(record, "home", home)
    put(record, "away", away)
    put(record, "home_score", home_score)
    put(record, "away_score", away_score)
    put(record, "line_open", line_open)
    put(record, "line_close", line_close)
    return record


def _raise_first_error(csv_text: str) -> NoReturn:
    """Parse row by row through GameRecord, and raise the first bad row's error."""
    games, starts, error = [], [], None
    try:
        for line, row in _data_rows(csv_text, GAME_COLUMNS):
            try:
                games.append(GameRecord(*(convert(value) for (_, convert), value in zip(_FIELDS, row))))
            except NonHalfPointSpreadError as exc:
                raise NonHalfPointSpreadError(exc.value, row=line) from None
            except (ValueError, TypeError) as exc:  # a conversion, or a GameRecord check
                raise MalformedRowError(line, str(exc)) from None
            starts.append(line)
    except DatasetError as exc:
        error = exc
    # a key repeated before the first bad row is reported first
    _check_keys_and_teams(GameTable.of_records(games), rows=starts)
    raise error or AssertionError("the column checks rejected games that GameRecord accepts")


def _data_rows(csv_text: str, columns: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """The 1-based physical line and stripped fields, in ``columns`` order,
    of each non-blank data row, read one row at a time: an error names the
    first bad row even when a later row is one the CSV reader cannot read.

    Only CR and LF end a line: a form feed or U+2028 stays inside its field,
    and a quoted field may span lines.
    """
    reader = csv.reader(io.StringIO(csv_text, newline=""))
    line = 1
    try:
        idx = _header_index(next(reader, []), columns)
        line = reader.line_num + 1
        for row in reader:
            if not _is_blank(row):
                if len(row) != len(columns):
                    raise MalformedRowError(line, f"expected {len(columns)} fields, got {len(row)}")
                yield line, [row[idx[name]].strip() for name in columns]
            line = reader.line_num + 1
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise MalformedRowError(line, str(exc)) from None


def parse_divisions(csv_text: str) -> DivisionMap:
    """Parse the divisions CSV (columns team,conference,division; 32 rows)."""
    entries: dict[str, tuple[str, str]] = {}
    for rownum, (team, conf, div) in _data_rows(csv_text, DIVISION_COLUMNS):
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


def _read_text(path: str | Path) -> str:
    return Path(path).read_text(encoding="utf-8-sig")


def load_divisions(path: str | Path) -> DivisionMap:
    return parse_divisions(_read_text(path))


def load_dataset(games_path: str | Path, divisions_path: str | Path) -> Dataset:
    """Load and cross-validate a games file against a division map."""
    table = _parse_games(_read_text(games_path))
    divisions = load_divisions(divisions_path)
    _check_teams(table, divisions)  # the keys are unique: _parse_games checked them
    return Dataset._checked(table, divisions, str(games_path))
