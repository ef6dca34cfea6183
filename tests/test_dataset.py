from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfl_lines.dataset import (
    Dataset,
    DatasetError,
    DuplicateGameError,
    MalformedRowError,
    MissingColumnError,
    NonHalfPointSpreadError,
    UnbalancedDivisionError,
    UnknownConferenceError,
    UnknownTeamError,
    WrongTeamCountError,
    favorite_of,
    games_to_csv,
    load_dataset,
    parse_divisions,
    parse_games,
)

from conftest import DIVISIONS, FIXTURE_GAMES, game_records, make_dataset, make_game

HEADER = "season,week,date,home,away,home_score,away_score,line_open,line_close"


def test_parse_worked_example_row():
    # visiting side closed a 7-point favorite and won 38-14
    rows = parse_games(HEADER + "\n2007,1,2007-09-09,NYJ,NE,14,38,-6,-7\n")
    assert len(rows) == 1
    g = rows[0]
    assert (g.season, g.week, g.date) == (2007, 1, date(2007, 9, 9))
    assert (g.home, g.away) == ("NYJ", "NE")
    assert (g.home_score, g.away_score) == (14, 38)
    assert (g.line_open, g.line_close) == (-6.0, -7.0)


def test_parse_header_only_is_empty():
    assert parse_games(HEADER + "\n") == []


def test_parse_quarter_point_spread_rejected():
    with pytest.raises(NonHalfPointSpreadError) as err:
        parse_games(HEADER + "\n2007,1,2007-09-09,NYJ,NE,14,38,-6,3.25\n")
    assert err.value.row == 2


def test_parse_missing_column():
    bad = HEADER.replace(",line_close", "")
    with pytest.raises(MissingColumnError) as err:
        parse_games(bad + "\n")
    assert "line_close" in str(err.value)


def test_parse_malformed_row_reports_row_number():
    text = HEADER + "\n2007,1,2007-09-09,NYJ,NE,14,38,-6,-7\n2007,two,2007-09-16,NE,SD,24,14,3,3\n"
    with pytest.raises(MalformedRowError) as err:
        parse_games(text)
    assert err.value.row == 3


def test_parse_missing_line_rejected():
    text = HEADER + "\n2007,1,2007-09-09,NYJ,NE,14,38,,-7\n"
    with pytest.raises(MalformedRowError):
        parse_games(text)


def test_parse_duplicate_game():
    row = "2007,1,2007-09-09,NYJ,NE,14,38,-6,-7"
    with pytest.raises(DuplicateGameError) as err:
        parse_games(HEADER + f"\n{row}\n{row}\n")
    assert err.value.row == 3


def test_parse_accepts_crlf():
    text = HEADER + "\r\n2007,1,2007-09-09,NYJ,NE,14,38,-6,-7\r\n"
    assert len(parse_games(text)) == 1


def test_load_accepts_utf8_bom(tmp_path):
    games = tmp_path / "games.csv"
    divisions = tmp_path / "divisions.csv"
    games.write_bytes(b"\xef\xbb\xbf" + FIXTURE_GAMES.read_bytes())
    divisions.write_bytes(b"\xef\xbb\xbf" + DIVISIONS.read_bytes())
    assert len(load_dataset(games, divisions)) == 524


def test_parse_week_zero_rejected():
    with pytest.raises(MalformedRowError) as err:
        parse_games(HEADER + "\n2007,0,2007-09-09,NYJ,NE,14,38,-6,-7\n")
    assert err.value.row == 2


@pytest.mark.parametrize("spread", ["1e300", "60.5", "-61", "inf", "nan"])
def test_parse_out_of_range_spread_rejected(spread):
    with pytest.raises(MalformedRowError) as err:
        parse_games(HEADER + f"\n2007,1,2007-09-09,NYJ,NE,14,38,-6,{spread}\n")
    assert err.value.row == 2


def test_parse_largest_spread_accepted():
    assert len(parse_games(HEADER + "\n2007,1,2007-09-09,NYJ,NE,14,38,60,-60\n")) == 1


def test_parse_negative_season_rejected():
    with pytest.raises(MalformedRowError) as err:
        parse_games(HEADER + "\n2007,1,2007-09-09,NYJ,NE,14,38,-6,-7\n-5,1,0001-09-09,NYJ,NE,14,38,-6,-7\n")
    assert err.value.row == 3


@pytest.mark.parametrize("day", ["1990-09-09", "2006-12-31", "2009-01-04"])
def test_parse_date_outside_season_rejected(day):
    with pytest.raises(MalformedRowError) as err:
        parse_games(HEADER + f"\n2007,1,{day},NYJ,NE,14,38,-6,-7\n")
    assert err.value.row == 2


def test_parse_oversized_field_rejected():
    with pytest.raises(MalformedRowError) as err:
        parse_games(HEADER + "\n" + "x" * 200_000 + "\n")
    assert err.value.row == 2


_FIELD = st.one_of(
    st.text(max_size=12),
    st.integers(-3, 2030).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.dates().map(date.isoformat),
    st.sampled_from(["NE", "NYJ", "AFC", "NFC", "East", "North", "1e300", "-0", '"']),
)


def _csv_text(header):
    rows = st.lists(st.lists(_FIELD, min_size=1, max_size=10).map(",".join), max_size=5)
    return st.one_of(st.text(), rows.map(lambda lines: "\n".join([header, *lines])))


@given(_csv_text(HEADER))
@settings(max_examples=200, deadline=None)
def test_fuzz_parse_games_raises_only_dataset_error(text):
    try:
        parse_games(text)
    except DatasetError:
        pass


@given(_csv_text("team,conference,division"))
@settings(max_examples=200, deadline=None)
def test_fuzz_parse_divisions_raises_only_dataset_error(text):
    try:
        parse_divisions(text)
    except DatasetError:
        pass


def test_same_team_both_sides_rejected():
    text = HEADER + "\n2007,1,2007-09-09,NE,NE,14,38,-6,-7\n"
    with pytest.raises(MalformedRowError):
        parse_games(text)


@given(st.lists(game_records(), max_size=30))
@settings(max_examples=50)
def test_csv_round_trip(games):
    assert parse_games(games_to_csv(_dedupe(games))) == _dedupe(games)


def _dedupe(games):
    seen, out = set(), []
    for g in games:
        if g.key not in seen:
            seen.add(g.key)
            out.append(g)
    return out


def test_round_trip_fixture(fixture_dataset):
    assert parse_games(games_to_csv(fixture_dataset.games)) == list(fixture_dataset.games)


def test_favorite_of_examples():
    g = make_game(home="NYJ", away="NE", line_close=-7.0)
    assert favorite_of(g) == ("NE", "NYJ", 7.0)
    assert favorite_of(make_game(line_close=0.0)) is None
    g = make_game(home="DAL", away="WAS", line_close=3.5)
    assert favorite_of(g) == ("DAL", "WAS", 3.5)


@given(game_records())
@settings(max_examples=100)
def test_favorite_of_antisymmetric(g):
    swapped = make_game(
        season=g.season,
        week=g.week,
        home=g.away,
        away=g.home,
        home_score=g.away_score,
        away_score=g.home_score,
        line_open=-g.line_open,
        line_close=-g.line_close,
        day=g.date,
    )
    assert favorite_of(g) == favorite_of(swapped)


def test_divisions_file_shape(divisions):
    cells = list(divisions.cells())
    assert len(cells) == 8
    assert all(len(teams) == 4 for _, _, teams in cells)
    assert len(divisions.teams) == 32


def test_divisions_wrong_count():
    text = DIVISIONS.read_text()
    trimmed = "\n".join(text.strip().splitlines()[:-1]) + "\n"
    with pytest.raises(WrongTeamCountError):
        parse_divisions(trimmed)


def test_divisions_unbalanced():
    # move a team into AFC East: 5 teams there, 3 in its old cell
    text = DIVISIONS.read_text().replace("DEN,AFC,West", "DEN,AFC,East")
    with pytest.raises(UnbalancedDivisionError):
        parse_divisions(text)


def test_divisions_unknown_conference():
    text = DIVISIONS.read_text().replace("NE,AFC,East", "NE,XFL,East")
    with pytest.raises(UnknownConferenceError):
        parse_divisions(text)


def test_dataset_rejects_unknown_team(divisions):
    with pytest.raises(UnknownTeamError):
        make_dataset([make_game(home="ZZZ", away="NE")], divisions)


def test_dataset_rejects_duplicates(divisions):
    g = make_game()
    with pytest.raises(DuplicateGameError):
        make_dataset([g, g], divisions)


def test_filter_single_season(fixture_dataset):
    only = fixture_dataset.filter(seasons=2002)
    assert only.seasons() == (2002,)
    assert len(only) + len(fixture_dataset.filter(seasons=2003)) == len(fixture_dataset)


def test_filter_week_one_of_a_season(fixture_dataset):
    week1 = fixture_dataset.filter(seasons=2002, weeks=1)
    assert len(week1) == 16


def test_filter_regular_season_only(fixture_dataset):
    regular = fixture_dataset.filter(regular_season_only=True)
    assert len(regular) == 512
    assert all(g.week <= 17 for g in regular)


def test_filter_preserves_order_and_divisions(fixture_dataset):
    sub = fixture_dataset.filter(seasons=2003)
    assert sub.divisions is fixture_dataset.divisions
    positions = [fixture_dataset.games.index(g) for g in sub.games[:20]]
    assert positions == sorted(positions)


@given(
    seasons=st.tuples(st.integers(2002, 2003), st.integers(2002, 2003)).map(lambda t: (min(t), max(t))),
    weeks=st.tuples(st.integers(1, 19), st.integers(1, 19)).map(lambda t: (min(t), max(t))),
)
@settings(max_examples=20, deadline=None)
def test_filter_composes_as_intersection(fixture_dataset, seasons, weeks):
    once = fixture_dataset.filter(seasons=seasons, weeks=weeks)
    twice = fixture_dataset.filter(seasons=seasons).filter(weeks=weeks)
    assert once.games == twice.games


def test_load_dataset_sorts_the_keys_once(monkeypatch):
    # the parse finds repeated keys; the division map then needs only the team lookup
    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(keys) or lexsort(keys))
    assert len(load_dataset(FIXTURE_GAMES, DIVISIONS)) == 524
    assert len(calls) == 1


def test_form_feed_in_team_field_names_the_value(tmp_path):
    # only CR and LF end a CSV line, so the form feed stays inside the team code
    text = HEADER + "\n2007,1,2007-09-09,N\x0cE,NYJ,14,38,-6,-7\n"
    (game,) = parse_games(text)
    assert game.home == "N\x0cE"
    games = tmp_path / "games.csv"
    games.write_text(text, encoding="utf-8")
    with pytest.raises(UnknownTeamError) as err:
        load_dataset(games, DIVISIONS)
    assert err.value.team == "N\x0cE"
    assert repr("N\x0cE") in str(err.value)


def test_row_number_is_the_physical_line_after_a_multiline_field():
    # the quoted home field spans lines 2-3, so the bad week sits on line 4
    text = HEADER + '\n2007,1,2007-09-09,"NYJ\nX",NE,14,38,-6,-7\n2007,two,2007-09-16,NE,SD,24,14,3,3\n'
    with pytest.raises(MalformedRowError) as err:
        parse_games(text)
    assert err.value.row == 4
    assert str(err.value).startswith("row 4: ")


# -- one store: records are read back from the table --------------------------

OVERSIZED = "x" * 200_000  # over csv.field_size_limit()


@pytest.mark.parametrize("spelled", ["-0", "-0.0", "+3", "3.50"])
def test_loaded_records_equal_parsed_records(tmp_path, spelled):
    text = HEADER + f"\n2007,1,2007-09-09,NYJ,NE,14,38,{spelled},{spelled}\n"
    games = tmp_path / "games.csv"
    games.write_text(text, encoding="utf-8")
    loaded = load_dataset(games, DIVISIONS).games
    assert repr(loaded) == repr(tuple(parse_games(text)))
    assert repr(loaded[0].line_open) == repr(loaded[0].line_close) == repr(float(spelled))


def test_fixture_records_equal_parsed_records(fixture_dataset):
    assert repr(fixture_dataset.games) == repr(tuple(parse_games(FIXTURE_GAMES.read_text())))


def test_dataset_equality_reads_the_games(fixture_dataset, divisions):
    games = fixture_dataset.filter(seasons=2002).games
    assert Dataset(games, divisions).games == games
    assert load_dataset(FIXTURE_GAMES, DIVISIONS) == load_dataset(FIXTURE_GAMES, DIVISIONS)
    assert fixture_dataset.filter(seasons=2002) != fixture_dataset


# -- the first bad row wins over a later row the CSV reader cannot read -------


def test_bad_week_before_an_oversized_field_is_reported():
    good = "2007,1,2007-09-09,NYJ,NE,14,38,-6,-7"
    text = "\n".join([HEADER, good, "2007,two,2007-09-16,NE,SD,24,14,3,3", good, OVERSIZED]) + "\n"
    with pytest.raises(MalformedRowError) as err:
        parse_games(text)
    assert err.value.row == 3


def test_bad_conference_before_an_oversized_field_is_reported():
    text = "\n".join(["team,conference,division", "NE,AFC,East", "NYJ,XFL,East", "MIA,AFC,East", OVERSIZED]) + "\n"
    with pytest.raises(UnknownConferenceError) as err:
        parse_divisions(text)
    assert str(err.value).startswith("row 3: ")


def test_missing_column_before_an_oversized_field_is_reported():
    with pytest.raises(MissingColumnError):
        parse_games(HEADER.replace(",line_close", "") + "\n" + OVERSIZED + "\n")
