"""The game rules against record-by-record oracles.

``GameRecord`` and the column checks of ``parse_games`` share one rule
table, and one column search finds repeated keys and unknown teams. The
oracles below are the row-by-row checks they replaced, kept as the
reference: every drawn game must be rejected with the oracle's class and
message, or accepted exactly when the oracle accepts it.
"""

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
