import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfl_lines.backtest import (
    ALL_FAVORITES,
    ALL_HOME,
    ALL_UNDERDOGS,
    BUILTIN_STRATEGIES,
    HOME_FAVORITE,
    HOME_UNDERDOG,
    NoDecidedBetsError,
    NonPositiveStakeError,
    break_even_ratio,
    compare_to_breakeven,
    run_strategy,
    when,
    yearly_cover_series,
)
from nfl_lines.dataset import GameSide
from nfl_lines.metrics import AtsOutcome

from conftest import game_records, make_dataset, make_game


def test_break_even_examples():
    assert abs(break_even_ratio(100.0, 110.0) - 0.523810) < 1e-6
    assert break_even_ratio(100.0, 100.0) == 0.5
    assert break_even_ratio(200.0, 110.0) == pytest.approx(110.0 / 310.0)


def test_break_even_validation():
    with pytest.raises(NonPositiveStakeError):
        break_even_ratio(0.0, 110.0)
    with pytest.raises(NonPositiveStakeError):
        break_even_ratio(100.0, -1.0)


def _four_game_dataset(divisions):
    # home results at the closing line: cover, cover, loss, push
    games = [
        make_game(week=1, home="NE", away="NYJ", home_score=30, away_score=10, line_close=7.0),
        make_game(week=2, home="NE", away="MIA", home_score=20, away_score=17, line_close=-3.0),
        make_game(week=3, home="NE", away="BUF", home_score=10, away_score=24, line_close=6.0),
        make_game(week=4, home="NE", away="PIT", home_score=23, away_score=20, line_close=3.0),
    ]
    return make_dataset(games, divisions)


def test_run_strategy_hand_accounting(divisions):
    ledger = run_strategy(_four_game_dataset(divisions), ALL_HOME, stake=110.0, win_payout=100.0)
    assert (ledger.wins, ledger.losses, ledger.pushes) == (2, 1, 1)
    assert ledger.profit == 2 * 100.0 - 1 * 110.0 == 90.0
    assert ledger.win_ratio == pytest.approx(2 / 3)
    assert len(ledger.bets) == 4


def test_run_strategy_empty_selection(divisions):
    never = when("never", lambda g: False, GameSide.HOME)
    ledger = run_strategy(make_dataset([make_game()], divisions), never)
    assert (ledger.wins, ledger.losses, ledger.pushes) == (0, 0, 0)
    assert ledger.profit == 0.0
    assert ledger.win_ratio == 0.0


def test_home_underdog_selects_only_home_dogs(divisions):
    ds = _four_game_dataset(divisions)
    ledger = run_strategy(ds, HOME_UNDERDOG)
    assert len(ledger.bets) == 1
    assert ledger.bets.line_close.tolist() == [-3.0]
    assert ledger.sides == (GameSide.HOME,)


def test_pick_em_handling(divisions):
    pick = make_game(week=9, home="NE", away="NYJ", home_score=21, away_score=14, line_close=0.0)
    ds = make_dataset([pick], divisions)
    assert len(run_strategy(ds, HOME_UNDERDOG).bets) == 0
    assert len(run_strategy(ds, HOME_FAVORITE).bets) == 0
    assert len(run_strategy(ds, ALL_FAVORITES).bets) == 0
    home = run_strategy(ds, ALL_HOME)
    assert home.wins == 1  # settles straight up at spread 0


def test_ledger_partition(regular_dataset):
    for strategy in BUILTIN_STRATEGIES.values():
        ledger = run_strategy(regular_dataset, strategy)
        assert ledger.wins + ledger.losses + ledger.pushes == len(ledger.bets)


def test_mirror_law(regular_dataset):
    fav = run_strategy(regular_dataset, ALL_FAVORITES)
    dog = run_strategy(regular_dataset, ALL_UNDERDOGS)
    assert fav.wins == dog.losses
    assert fav.losses == dog.wins
    assert fav.pushes == dog.pushes


def test_home_bets_partition(regular_dataset):
    dogs = run_strategy(regular_dataset, HOME_UNDERDOG)
    favs = run_strategy(regular_dataset, HOME_FAVORITE)
    all_home = run_strategy(regular_dataset, ALL_HOME)
    pick_ems = sum(1 for g in regular_dataset if g.line_close == 0)
    assert len(dogs.bets) + len(favs.bets) + pick_ems == len(all_home.bets)


def test_composable_predicate_form(regular_dataset):
    big_home_dog = when("big-home-dog", lambda g: g.line_close <= -7.0, GameSide.HOME)
    ledger = run_strategy(regular_dataset, big_home_dog)
    assert len(ledger.bets) > 0
    assert (ledger.bets.line_close <= -7.0).all()


def test_predicate_of_the_wrong_shape_is_rejected(regular_dataset):
    # a filtered column is shorter than the table: betting its mask would pick the wrong games
    filtered = when("filtered", lambda g: g.line_close[g.line_close < 0] < 0, GameSide.HOME)
    with pytest.raises(ValueError, match="strategy 'filtered': predicate gave shape"):
        run_strategy(regular_dataset, filtered)


def test_open_line_settlement(divisions):
    # home covers the opening line but not the closing line
    g = make_game(home="NE", away="NYJ", home_score=20, away_score=17, line_open=2.0, line_close=4.0)
    ds = make_dataset([g], divisions)
    close = run_strategy(ds, ALL_HOME)
    open_ = run_strategy(ds, ALL_HOME, line="open")
    assert close.outcomes == (AtsOutcome.NO_COVER,)
    assert open_.outcomes == (AtsOutcome.COVER,)
    with pytest.raises(ValueError):
        run_strategy(ds, ALL_HOME, line="midweek")


def test_yearly_cover_series(regular_dataset):
    series = yearly_cover_series(regular_dataset, HOME_UNDERDOG)
    ledger = run_strategy(regular_dataset, HOME_UNDERDOG)
    assert set(series) == set(ledger.per_season)
    for season, ratio in series.items():
        summary = ledger.per_season[season]
        assert ratio == pytest.approx(summary.wins / (summary.wins + summary.losses))


def test_yearly_series_absent_when_no_bets(divisions):
    ds = make_dataset([make_game(season=2002, line_close=3.0, home_score=20, away_score=10)], divisions)
    series = yearly_cover_series(ds, HOME_UNDERDOG)
    assert series == {}


def test_compare_to_breakeven_examples(divisions):
    ledger = run_strategy(_four_game_dataset(divisions), ALL_HOME, stake=110.0, win_payout=100.0)
    comparison = compare_to_breakeven(ledger, stake=110.0, win_payout=100.0)
    assert comparison.margin == pytest.approx(2 / 3 - 110 / 210)
    assert comparison.profitable
    assert (comparison.margin > 0) == (ledger.profit > 0)


def test_compare_to_breakeven_requires_decided_bets(divisions):
    ledger = run_strategy(make_dataset([], divisions), ALL_HOME)
    with pytest.raises(NoDecidedBetsError):
        compare_to_breakeven(ledger)


def test_exact_boundary_is_not_profitable(divisions):
    # 11 wins and 10 losses at 110/100 pricing nets exactly zero
    games = []
    for i in range(11):
        games.append(make_game(week=i + 1, home="NE", away="NYJ", home_score=20, away_score=10, line_close=3.0))
    for i in range(10):
        games.append(make_game(week=i + 1, home="MIA", away="BUF", home_score=10, away_score=20, line_close=3.0))
    ledger = run_strategy(make_dataset(games, divisions), ALL_HOME, stake=110.0, win_payout=100.0)
    assert (ledger.wins, ledger.losses) == (11, 10)
    assert ledger.profit == 0.0
    comparison = compare_to_breakeven(ledger, stake=110.0, win_payout=100.0)
    assert comparison.margin == 0.0
    assert not comparison.profitable


# stakes and payouts are quoted on a quarter-unit grid, as books price them;
# that also keeps every cashflow sum exact in binary, so the sign law can be
# asserted without a tolerance even at the exact break-even boundary
quarter_units = st.integers(4, 2000).map(lambda k: k / 4.0)


@given(st.lists(game_records(), min_size=1, max_size=40), quarter_units, quarter_units)
@settings(max_examples=100, deadline=None)
def test_sign_law(divisions, games, stake, payout):
    seen, unique = set(), []
    for g in games:
        if g.key not in seen:
            seen.add(g.key)
            unique.append(g)
    ledger = run_strategy(make_dataset(unique, divisions), ALL_HOME, stake, payout)
    if ledger.wins + ledger.losses == 0:
        return
    ber = break_even_ratio(payout, stake)
    assert (ledger.profit > 0) == (ledger.win_ratio > ber)


def test_ledger_csv(divisions):
    ledger = run_strategy(_four_game_dataset(divisions), ALL_HOME)
    lines = ledger.to_csv().strip().splitlines()
    assert lines[0] == "season,week,date,home,away,side,line_close,outcome,cashflow"
    assert len(lines) == 5


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_prices_reject_non_finite_values(regular_dataset, value):
    for payout, stake in ((value, 110.0), (100.0, value)):
        with pytest.raises(NonPositiveStakeError, match="stake and payout must be"):
            break_even_ratio(payout, stake)
        with pytest.raises(NonPositiveStakeError, match="stake and payout must be"):
            run_strategy(regular_dataset, HOME_UNDERDOG, stake=stake, win_payout=payout)


def test_ledger_csv_builds_no_records(fixture_dataset, request):
    ledger = run_strategy(fixture_dataset, HOME_UNDERDOG, line="open")
    expected = ["season,week,date,home,away,side,line_close,outcome,cashflow"] + [
        f"{g.season},{g.week},{g.date.isoformat()},{g.home},{g.away},home,{g.line_close:g},{outcome.value},{cash:g}"
        for g, outcome, cash in zip(ledger.bets.records(), ledger.outcomes, ledger.cashflows)
    ]
    request.getfixturevalue("no_records")
    assert ledger.to_csv() == "\n".join(expected) + "\n"
