"""The game rules against record-by-record oracles.

``GameRecord`` and the column checks of ``parse_games`` share one rule
table, and one column search finds repeated keys and unknown teams. The
oracles below are the row-by-row checks they replaced, kept as the
reference: every drawn game must be rejected with the oracle's class and
message, or accepted exactly when the oracle accepts it. ``oracle_parse``
is the row-by-row parse of a whole file, which ``parse_games`` must match
in the error it raises and the row it names.
"""

import csv
import io
import math
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfl_lines.dataset import (
    MAX_ABS_SPREAD,
    MAX_COUNT,
    Dataset,
    DatasetError,
    DuplicateGameError,
    GameRecord,
    MalformedRowError,
    NonHalfPointSpreadError,
    UnknownTeamError,
    parse_games,
)

HEADER = "season,week,date,home,away,home_score,away_score,line_open,line_close"


def oracle_record_check(season, week, day, home, away, home_score, away_score, line_open, line_close):
    """The former GameRecord.__post_init__, check by check."""
    if not home or not away:
        raise DatasetError("team codes must be non-empty")
    if home == away:
        raise DatasetError(f"home and away are both {home!r}")
    if season < 0:
        raise DatasetError(f"season must be non-negative, got {season}")
    if week < 1:
        raise DatasetError(f"week must be at least 1, got {week}")
    if not 0 <= day.year - season <= 1:
        raise DatasetError(f"date {day.isoformat()} is outside season {season}")
    if home_score < 0 or away_score < 0:
        raise DatasetError(f"scores must be non-negative, got {home_score}-{away_score}")
    for line in (line_open, line_close):
        if not -MAX_ABS_SPREAD <= line <= MAX_ABS_SPREAD:  # also rejects nan
            raise DatasetError(f"spread {line!r} is beyond the {MAX_ABS_SPREAD:g}-point cap")
        if not float(2 * line).is_integer():
            raise NonHalfPointSpreadError(line)
    if max(week, home_score, away_score) > MAX_COUNT:
        raise DatasetError(
            f"week and scores must be at most {MAX_COUNT}, got week {week}, "
            f"score {home_score}-{away_score}"
        )


def oracle_keys_and_teams(games, divisions):
    """The former record walk: the first repeated key or unknown team, in game order."""
    seen = set()
    for g in games:
        if g.key in seen:
            raise DuplicateGameError(None, g.key)
        seen.add(g.key)
        for team in (g.home, g.away):
            if team not in divisions:
                raise UnknownTeamError(team)


_CONVERTERS = (int, int, date.fromisoformat, str, str, int, int, float, float)


def oracle_parse(text):
    """Parse one row at a time: each row is checked with ``oracle_record_check``
    as it is read, and the keys of the good rows before the first bad row are
    walked before that row's error is raised."""
    reader = csv.reader(io.StringIO(text, newline=""))
    assert next(reader) == HEADER.split(",")
    games, error, line = [], None, reader.line_num + 1
    try:
        for row in reader:
            if "".join(row).strip():
                if len(row) != len(_CONVERTERS):
                    raise MalformedRowError(line, f"expected {len(_CONVERTERS)} fields, got {len(row)}")
                try:
                    values = [convert(field.strip()) for convert, field in zip(_CONVERTERS, row)]
                    oracle_record_check(*values)
                except NonHalfPointSpreadError as exc:
                    raise NonHalfPointSpreadError(exc.value, row=line) from None
                except ValueError as exc:  # a conversion, or a DatasetError of the check
                    raise MalformedRowError(line, str(exc)) from None
                games.append((line, values))
            line = reader.line_num + 1
    except csv.Error as exc:
        error = MalformedRowError(line, str(exc))
    except DatasetError as exc:
        error = exc
    seen = set()
    for line, (season, week, _, home, away, *_) in games:
        if (season, week, home, away) in seen:
            raise DuplicateGameError(line, (season, week, home, away))
        seen.add((season, week, home, away))
    if error:
        raise error
    return [GameRecord(*values) for _, values in games]


def outcome(call):
    """None if ``call`` returns, else the class and message it raises."""
    try:
        call()
    except DatasetError as exc:
        return type(exc), str(exc)
    return None


@st.composite
def edge_values(draw):
    """GameRecord field values at and around every rule's edge."""
    season = draw(st.sampled_from([-1, 0, 2007]))
    year = draw(st.integers(season - 1, season + 2).filter(lambda y: 1 <= y <= 9999))
    spreads = st.sampled_from([60.0, -60.0, 60.5, -60.5, 0.25, -0.0, math.nan, math.inf, -math.inf, -7.0, 3.5])
    scores = st.sampled_from([-1, 0, 2**31, 24])
    home = draw(st.sampled_from(["", "NE", "NYJ"]))
    away = draw(st.sampled_from(["", "NE", home]))
    return (
        season,
        draw(st.sampled_from([0, 1, 2**31 - 1, 2**31])),
        date(year, draw(st.sampled_from([1, 9, 12])), 9),
        home,
        away,
        draw(scores),
        draw(scores),
        draw(spreads),
        draw(spreads),
    )


@given(edge_values())
@settings(max_examples=400, deadline=None)
def test_game_record_matches_oracle(values):
    assert outcome(lambda: GameRecord(*values)) == outcome(lambda: oracle_record_check(*values))


@given(edge_values())
@settings(max_examples=400, deadline=None)
def test_one_row_parse_matches_oracle(values):
    season, week, day, home, away, home_score, away_score, line_open, line_close = values
    fields = (season, week, day.isoformat(), home, away, home_score, away_score, repr(line_open), repr(line_close))
    text = HEADER + "\n" + ",".join(map(str, fields)) + "\n"
    expected = outcome(lambda: oracle_record_check(*values))
    if expected is None:
        assert list(map(repr, parse_games(text))) == [repr(GameRecord(*values))]
        return
    with pytest.raises(DatasetError) as err:
        parse_games(text)
    cls, message = expected
    assert type(err.value) is (NonHalfPointSpreadError if cls is NonHalfPointSpreadError else MalformedRowError)
    assert str(err.value) == f"row 2: {message}"
    assert err.value.row == 2


_KEYED_GAMES = st.lists(
    st.tuples(
        st.sampled_from([2002, 2003]),
        st.integers(1, 2),
        st.sampled_from(["NE", "NYJ", "MIA", "ZZZ", "QQQ"]),
        st.sampled_from(["NE", "BUF", "ZZZ"]),
    ).filter(lambda t: t[2] != t[3]),
    max_size=8,
)


@given(_KEYED_GAMES)
@settings(max_examples=400, deadline=None)
def test_dataset_reports_the_oracle_walk_game(divisions, keys):
    games = tuple(GameRecord(s, w, date(s, 9, 8), h, a, 0, 0, 0.0, 0.0) for s, w, h, a in keys)
    assert outcome(lambda: Dataset(games, divisions)) == outcome(lambda: oracle_keys_and_teams(games, divisions))


_VALID_ROWS = st.builds(
    lambda week, teams, scores, spreads: [
        "2007", str(week), f"2007-09-{week + 8:02d}", *teams, *map(str, scores), *map(repr, spreads)
    ],
    st.integers(1, 2),
    st.permutations(["NE", "NYJ", "MIA"]).map(lambda teams: teams[:2]),  # few keys: repeats are common
    st.tuples(st.integers(0, 40), st.integers(0, 40)),
    st.tuples(*[st.integers(-20, 20).map(lambda k: k / 2)] * 2),
)

#: Values at and around each rule's edge, by field, for a row of _VALID_ROWS.
_EDGES = (
    ["-1", "0", "2006", "2008"],
    ["0", "1", str(2**31 - 1), str(2**31)],
    ["2006-12-31", "2008-12-31", "2009-01-01"],
    ["", "NE", "MIA"],
    ["", "NE", "NYJ"],
    ["-1", str(2**31)],
    ["-1", str(2**31)],
    ["60", "-60.0", "60.5", "-60.5", "0.25", "-0.0", "nan", "inf", "-inf", "1e300"],
    ["60", "-60.0", "60.5", "-60.5", "0.25", "-0.0", "nan", "inf", "-inf", "1e300"],
)


@st.composite
def _file_rows(draw):
    """One physical row of a games file: good, bad in one field, or not a game at all."""
    kind = draw(st.sampled_from(
        ["valid"] * 3 + ["edge"] * 4 + ["unconvertible", "huge", "width", "blank", "spans", "oversized"]
    ))
    if kind == "blank":
        return draw(st.sampled_from(["", "   ", ",,,,,,,,", ' , "" ']))
    fields = draw(_VALID_ROWS)
    i = draw(st.integers(0, len(fields) - 1))
    if kind == "edge":
        fields[i] = draw(st.sampled_from(_EDGES[i]))
    elif kind == "unconvertible":
        fields[i] = draw(st.sampled_from(["x", "", "2007.5", "2007-13-40", "1e3"]))
    elif kind == "huge":  # an int beyond int64, in an int field
        fields[draw(st.sampled_from([0, 1, 5, 6]))] = draw(st.sampled_from(["9" * 20, "-" + "9" * 20, str(2**63)]))
    elif kind == "width":
        fields = draw(st.sampled_from([fields[:-1], fields + ["0"]]))
    elif kind == "spans":  # a quoted field holding a line break, which may strip away
        fields[i] = '"' + draw(st.sampled_from(["{}\n", "\r\n{}", "{}\nX"])).format(fields[i]) + '"'
    elif kind == "oversized":
        fields[i] = "x" * (csv.field_size_limit() + 1)
    return ",".join(fields)


@given(st.lists(_file_rows(), min_size=1, max_size=6), st.sampled_from(["\n", "\r\n"]), st.booleans())
@settings(max_examples=500, deadline=None)
def test_multi_row_parse_matches_oracle(rows, newline, repeat):
    if repeat:  # a repeat of the first row's key, or of its error
        rows = rows + rows[:1]
    text = newline.join([HEADER, *rows]) + newline

    def parsed(parse):
        try:
            return list(map(repr, parse(text)))
        except DatasetError as exc:
            return type(exc), str(exc), getattr(exc, "row", None)

    assert parsed(parse_games) == parsed(oracle_parse)
