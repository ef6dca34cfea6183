import math
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfl_lines.dataset import GameSide, favorite_of
from nfl_lines.metrics import (
    AtsOutcome,
    UnresolvableSideError,
    ats_outcome,
    favorite_ats_summary,
    histogram,
    home_record_table,
    line_difference,
    line_movement,
    mov,
    movement_cumulative_counts,
    movement_fraction_by_week,
    movement_magnitude,
    pick_em_count,
)

from conftest import game_records, make_dataset, make_game


def test_mov():
    assert mov(make_game(home_score=14, away_score=38)) == 24
    assert mov(make_game(home_score=21, away_score=21, line_close=3.0)) == 0
    assert mov(make_game(home_score=17, away_score=20)) == 3


def test_line_difference_worked_example():
    # visiting favorite by 7 wins 38-14: LD = 24 - 7 = 17
    g = make_game(home="NYJ", away="NE", home_score=14, away_score=38, line_close=-7.0)
    assert line_difference(g) == 17.0


def test_line_difference_push_and_loss():
    assert line_difference(make_game(home_score=20, away_score=17, line_close=3.0)) == 0.0
    # home favorite by 6 loses 17-20: LD = -3 - 6 = -9
    assert line_difference(make_game(home_score=17, away_score=20, line_close=6.0)) == -9.0


def test_line_difference_pick_em_is_home_margin():
    assert line_difference(make_game(home_score=13, away_score=20, line_close=0.0)) == -7.0


def test_ats_outcome_examples():
    g = make_game(home="NYJ", away="NE", home_score=14, away_score=38, line_close=-7.0)
    assert ats_outcome(g, GameSide.FAVORITE) is AtsOutcome.COVER
    assert ats_outcome(g, GameSide.UNDERDOG) is AtsOutcome.NO_COVER
    assert ats_outcome(g, GameSide.AWAY) is AtsOutcome.COVER
    assert ats_outcome(g, GameSide.HOME) is AtsOutcome.NO_COVER

    push = make_game(home_score=20, away_score=17, line_close=3.0)
    assert ats_outcome(push, GameSide.UNDERDOG) is AtsOutcome.PUSH

    ld_minus_nine = make_game(home_score=17, away_score=20, line_close=6.0)
    assert ats_outcome(ld_minus_nine, GameSide.UNDERDOG) is AtsOutcome.COVER


def test_ats_outcome_pick_em():
    win = make_game(home_score=24, away_score=10, line_close=0.0, line_open=0.0)
    lose = make_game(home_score=10, away_score=24, line_close=0.0, line_open=0.0)
    tie = make_game(home_score=17, away_score=17, line_close=0.0, line_open=0.0)
    assert ats_outcome(win, GameSide.HOME) is AtsOutcome.COVER
    assert ats_outcome(lose, GameSide.HOME) is AtsOutcome.NO_COVER
    assert ats_outcome(tie, GameSide.HOME) is AtsOutcome.PUSH
    with pytest.raises(UnresolvableSideError):
        ats_outcome(win, GameSide.FAVORITE)


@given(game_records())
@settings(max_examples=150)
def test_favorite_underdog_mirror(g):
    if g.line_close == 0:
        return
    fav = ats_outcome(g, GameSide.FAVORITE)
    dog = ats_outcome(g, GameSide.UNDERDOG)
    assert (fav is AtsOutcome.COVER) == (dog is AtsOutcome.NO_COVER)
    assert (fav is AtsOutcome.PUSH) == (dog is AtsOutcome.PUSH)


@given(game_records())
@settings(max_examples=150)
def test_push_iff_ld_zero_and_integer_spread(g):
    ld = line_difference(g)
    if g.line_close != 0:
        push = ats_outcome(g, GameSide.FAVORITE) is AtsOutcome.PUSH
        assert push == (ld == 0)
        if push:
            assert float(g.line_close).is_integer()


def test_line_movement():
    assert line_movement(make_game(line_open=-6.0, line_close=-7.0)) == -1.0
    assert line_movement(make_game(line_open=3.0, line_close=3.0)) == 0.0
    assert line_movement(make_game(line_open=2.5, line_close=3.5)) == 1.0


def test_movement_magnitude_swing_through_zero():
    # favorite flip from home +6 to home -7 is a 13-point swing
    assert movement_magnitude(make_game(line_open=6.0, line_close=-7.0)) == 13.0


def test_favorite_ats_summary_hand_fixture(divisions):
    games = [
        make_game(week=1, home="NE", away="NYJ", home_score=30, away_score=10, line_close=7.0),
        make_game(week=2, home="NE", away="MIA", home_score=20, away_score=17, line_close=3.0),
        make_game(week=3, home="NE", away="BUF", home_score=10, away_score=20, line_close=4.0),
    ]
    ds = make_dataset(games, divisions)
    assert favorite_ats_summary(ds) == (1, 0, 1, 1)


def test_favorite_ats_summary_empty(divisions):
    assert favorite_ats_summary(make_dataset([], divisions)) == (0, 0, 0, 0)


def test_favorite_ats_partition(regular_dataset):
    part = favorite_ats_summary(regular_dataset)
    assert sum(part) + pick_em_count(regular_dataset) == len(regular_dataset)


def test_favorite_ats_wins_no_cover_means_straight_up_win(regular_dataset):
    # recount by hand classification
    covers = wins_no_cover = losses = pushes = 0
    for g in regular_dataset:
        fav = favorite_of(g)
        if fav is None:
            continue
        margin = g.home_margin if fav.favorite == g.home else -g.home_margin
        if margin > fav.spread:
            covers += 1
        elif margin == fav.spread:
            pushes += 1
        elif margin > 0:
            wins_no_cover += 1
        else:
            losses += 1
    assert favorite_ats_summary(regular_dataset) == (covers, wins_no_cover, losses, pushes)


def test_home_record_table_single_game(divisions):
    ds = make_dataset([make_game(home_score=30, away_score=10, line_close=7.0)], divisions)
    table = home_record_table(ds)
    cell = table.total.favorites
    assert (cell.wins, cell.losses, cell.win_ratio) == (1, 0, 1.0)


def test_home_record_table_row_structure(regular_dataset):
    table = home_record_table(regular_dataset)
    for row in list(table.by_season.values()) + [table.total]:
        assert row.all_home.wins == row.favorites.wins + row.underdogs.wins + row.pick_ems.wins
        assert row.all_home.losses == row.favorites.losses + row.underdogs.losses + row.pick_ems.losses
    total_wins = sum(r.all_home.wins for r in table.by_season.values())
    assert total_wins == table.total.all_home.wins


def test_home_record_zero_cell_ratio():
    from nfl_lines.metrics import RecordCell

    assert RecordCell(0, 0).win_ratio == 0.0


def test_histogram_examples():
    h = histogram([0.0, 0.0, 0.0], 1.0, origin=0.0)
    assert h.bins == {0: 3}
    assert h.total == 3

    h = histogram([-0.5, 0.4, 0.5], 1.0, origin=-0.5)
    assert h.bins == {0: 2, 1: 1}


def test_histogram_empty():
    h = histogram([], 0.5)
    assert h.bins == {} and h.total == 0


def test_histogram_counts_sum(regular_dataset):
    values = [g.line_close for g in regular_dataset]
    h = histogram(values, 0.5, origin=-0.25)
    assert sum(h.bins.values()) == h.total == len(values)


@given(st.lists(st.integers(-60, 60).map(lambda k: k / 2.0), min_size=1, max_size=60), st.integers(-20, 20))
@settings(max_examples=80)
def test_histogram_translation_consistent(values, shift):
    base = histogram(values, 0.5, origin=-0.25)
    moved = histogram([v + shift for v in values], 0.5, origin=-0.25 + shift)
    assert base.bins == moved.bins


def _histogram_oracle(values, bin_width, origin):
    """The dict loop that binned values before the histogram ran on arrays."""
    counts = defaultdict(int)
    for v in values:
        counts[math.floor((v - origin) / bin_width + 1e-9)] += 1
    return dict(counts)


_VALUES = st.one_of(st.integers(-60, 60).map(lambda k: k / 2.0), st.floats(-1e6, 1e6))


@given(st.lists(_VALUES, max_size=60), st.floats(1e-3, 100.0), st.floats(-50.0, 50.0))
@settings(max_examples=200)
def test_histogram_matches_the_dict_loop(values, width, origin):
    h = histogram(values, width, origin=origin)
    assert h.bins == _histogram_oracle(values, width, origin)
    assert all(type(k) is int and type(c) is int for k, c in h.bins.items())
    assert h.total == len(values)


@pytest.mark.parametrize("values, width", [([1.0, math.nan], 0.5), ([math.inf], 0.5), ([-math.inf], 0.5), ([1e308], 1e-10)])
def test_histogram_rejects_non_finite_bins(values, width):
    with pytest.raises(ValueError, match="no finite bin"):
        histogram(values, width)


def test_histogram_bad_width():
    with pytest.raises(ValueError):
        histogram([1.0], 0.0)


def test_movement_fraction_by_week_hand_fixture(divisions):
    games = [
        make_game(week=1, home="NE", away="NYJ", line_open=3.0, line_close=4.5),
        make_game(week=1, home="MIA", away="BUF", line_open=-2.0, line_close=-3.5),
        make_game(week=1, home="DAL", away="WAS", line_open=6.0, line_close=6.0),
        make_game(week=1, home="GB", away="CHI", line_open=1.0, line_close=1.5),
    ]
    weekly = movement_fraction_by_week(make_dataset(games, divisions), 1.5)
    assert weekly.by_week == {1: 0.5}
    assert weekly.overall == 0.5


def test_movement_fraction_above_all_thresholds(regular_dataset):
    weekly = movement_fraction_by_week(regular_dataset, 99.0)
    assert all(v == 0.0 for v in weekly.by_week.values())
    assert weekly.overall == 0.0


def test_movement_cumulative_counts(regular_dataset):
    counts = movement_cumulative_counts(regular_dataset, thresholds=(0.5, 1.0, 2.0, math.inf))
    assert counts[0.5] <= counts[1.0] <= counts[2.0] <= counts[math.inf]
    assert counts[math.inf] == len(regular_dataset)


def test_movement_cumulative_default_grid(regular_dataset):
    counts = movement_cumulative_counts(regular_dataset)
    assert max(counts.values()) == len(regular_dataset)
    ordered = [counts[t] for t in sorted(counts)]
    assert ordered == sorted(ordered)


def test_weekly_movement_csv(regular_dataset):
    weekly = movement_fraction_by_week(regular_dataset, 1.0)
    lines = weekly.to_csv().strip().splitlines()
    assert lines[0] == "week,fraction"
    assert len(lines) == 1 + len(weekly.by_week)


def test_home_record_table_csv(regular_dataset):
    table = home_record_table(regular_dataset)
    lines = table.to_csv().strip().splitlines()
    assert lines[0].startswith("season,favorites_wins")
    assert lines[-1].startswith("total,")
    assert len(lines) == 2 + len(table.by_season)


@pytest.mark.parametrize("width", [math.nan, math.inf, -math.inf])
def test_histogram_rejects_non_finite_width(width):
    with pytest.raises(ValueError, match="bin_width must be"):
        histogram([1.0], width)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
def test_movement_fraction_rejects_non_finite_threshold(regular_dataset, threshold):
    with pytest.raises(ValueError, match="threshold must be"):
        movement_fraction_by_week(regular_dataset, threshold)
