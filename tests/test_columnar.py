"""Differential test: the column computations against the record loops they replaced.

The ``oracle_*`` functions below are the per-record implementations of
``Dataset.filter``, the home-record table, the favorite ATS partition,
the movement summaries, the empirical win rate, ``run_strategy``, and a
season schedule's actual wins and head-to-head tie-break as they stood
before the games moved into numpy columns; a season filter is also the
oracle for the season index and for a schedule's games. Every public
result must equal theirs: same values, same order, every float bit for
bit, and only built-in types inside. The per-game quantities must give
the same value on a GameRecord as on its row of the GameTable.
"""

import itertools
import math
import sys
import warnings
from collections import defaultdict, namedtuple
from dataclasses import fields, is_dataclass, replace
from datetime import date as Date
from enum import Enum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfl_lines.backtest import (
    BUILTIN_STRATEGIES,
    LedgerSummary,
    NonPositiveStakeError,
    run_strategy,
    when,
)
from nfl_lines.dataset import Dataset, DatasetError, GameRecord, GameSide, load_dataset
from nfl_lines.metrics import (
    AtsOutcome,
    FavoriteAtsSummary,
    HomeRecordRow,
    HomeRecordTable,
    RecordCell,
    WeeklyMovement,
    favorite_ats_summary,
    home_record_table,
    line_difference,
    line_movement,
    mov,
    movement_cumulative_counts,
    movement_fraction_by_week,
    movement_magnitude,
    pick_em_count,
)
from nfl_lines.prob_model import EmpiricalWinRate, NoGamesAtSpreadError, WinModel, empirical_win_rate, win_probability
from nfl_lines.simulator import (
    IncompleteScheduleWarning,
    ScheduleEntry,
    _actual_division_winner,
    build_schedule,
    predict_division_winners,
    simulate,
)

from conftest import DIVISIONS, FIXTURE_GAMES, REPO, TEAM_CODES, ats_outcome, favorite_of, make_dataset, make_game

# -- the record-loop oracles --------------------------------------------------


def oracle_filter(dataset, seasons=None, weeks=None, regular_season_only=False):
    def as_range(value):
        if value is None:
            return None
        if isinstance(value, int):
            return (value, value)
        lo, hi = value
        if lo > hi:
            raise DatasetError(f"empty range {lo}..{hi}")
        return (int(lo), int(hi))

    season_rng, week_rng = as_range(seasons), as_range(weeks)
    return tuple(
        g
        for g in dataset
        if (season_rng is None or season_rng[0] <= g.season <= season_rng[1])
        and (week_rng is None or week_rng[0] <= g.week <= week_rng[1])
        and (not regular_season_only or g.is_regular_season)
    )


def oracle_favorite_ats_summary(dataset):
    covers = wins_no_cover = losses = pushes = 0
    for g in dataset:
        fav = favorite_of(g)
        if fav is None:
            continue
        ld = line_difference(g)
        if ld > 0:
            covers += 1
        elif ld == 0:
            pushes += 1
        elif (g.home_margin if fav.favorite == g.home else -g.home_margin) > 0:
            wins_no_cover += 1
        else:
            losses += 1
    return FavoriteAtsSummary(covers, wins_no_cover, losses, pushes)


def oracle_pick_em_count(dataset):
    return sum(1 for g in dataset if g.line_close == 0)


def oracle_home_record_table(dataset):
    acc = defaultdict(lambda: {"favorites": RecordCell(), "underdogs": RecordCell(), "pick_ems": RecordCell()})
    for g in dataset:
        if g.line_close > 0:
            col = "favorites"
        elif g.line_close < 0:
            col = "underdogs"
        else:
            col = "pick_ems"
        outcome = ats_outcome(g, GameSide.HOME)
        if outcome is AtsOutcome.PUSH:
            continue
        won = outcome is AtsOutcome.COVER
        cell = acc[g.season][col]
        acc[g.season][col] = cell + RecordCell(int(won), int(not won))

    def make_row(cells):
        all_home = cells["favorites"] + cells["underdogs"] + cells["pick_ems"]
        return HomeRecordRow(cells["favorites"], cells["underdogs"], cells["pick_ems"], all_home)

    by_season = {season: make_row(acc[season]) for season in sorted(acc)}
    total_cells = {
        col: sum((acc[s][col] for s in acc), RecordCell()) for col in ("favorites", "underdogs", "pick_ems")
    }
    return HomeRecordTable(by_season, make_row(total_cells))


def oracle_movement_fraction_by_week(dataset, threshold):
    moved = defaultdict(int)
    totals = defaultdict(int)
    for g in dataset:
        totals[g.week] += 1
        if movement_magnitude(g) >= threshold:
            moved[g.week] += 1
    by_week = {w: moved[w] / totals[w] for w in sorted(totals)}
    fractions = list(by_week.values())
    mean = sum(fractions) / len(fractions) if fractions else 0.0
    if len(fractions) >= 2:
        std = math.sqrt(sum((f - mean) ** 2 for f in fractions) / (len(fractions) - 1))
    else:
        std = 0.0
    n_games = sum(totals.values())
    overall = sum(moved.values()) / n_games if n_games else 0.0
    return WeeklyMovement(threshold, by_week, mean, std, overall)


def oracle_movement_cumulative_counts(dataset, thresholds=None):
    magnitudes = [movement_magnitude(g) for g in dataset]
    if thresholds is None:
        top = max(magnitudes, default=0.0)
        steps = int(math.ceil(top / 0.5)) + 1
        thresholds = [0.5 * k for k in range(steps)]
    return {t: sum(1 for m in magnitudes if m <= t) for t in thresholds}


def oracle_empirical_win_rate(dataset, spread, tolerance=0.0):
    wins = ties = n = 0
    for g in dataset:
        fav = favorite_of(g)
        if fav is None or abs(fav.spread - spread) > tolerance:
            continue
        n += 1
        margin = g.home_margin if fav.favorite == g.home else -g.home_margin
        if margin > 0:
            wins += 1
        elif margin == 0:
            ties += 1
    if n == 0:
        raise NoGamesAtSpreadError(f"no games with spread within {tolerance} of {spread}")
    return EmpiricalWinRate((wins + 0.5 * ties) / n, n, ties)


OracleBet = namedtuple("OracleBet", "game side outcome cashflow")
OracleLedger = namedtuple("OracleLedger", "bets wins losses pushes win_ratio profit per_season")


def oracle_summarize(bets):
    wins = sum(1 for b in bets if b.outcome is AtsOutcome.COVER)
    losses = sum(1 for b in bets if b.outcome is AtsOutcome.NO_COVER)
    pushes = len(bets) - wins - losses
    decided = wins + losses
    ratio = wins / decided if decided else 0.0
    profit = sum(b.cashflow for b in bets)
    return LedgerSummary(wins, losses, pushes, ratio, profit)


def oracle_run_strategy(dataset, strategy, stake=110.0, win_payout=100.0, line="close"):
    if stake <= 0 or win_payout <= 0:
        raise NonPositiveStakeError(f"stake and payout must be positive, got {stake}, {win_payout}")
    if line not in ("close", "open"):
        raise ValueError(f"line must be 'close' or 'open', got {line!r}")
    bets = []
    for g in dataset:
        game = replace(g, line_close=g.line_open) if line == "open" else g
        if not strategy.predicate(game):
            continue
        side = strategy.side
        outcome = ats_outcome(game, side)
        if outcome is AtsOutcome.COVER:
            cash = win_payout
        elif outcome is AtsOutcome.NO_COVER:
            cash = -stake
        else:
            cash = 0.0
        bets.append(OracleBet(g, side, outcome, cash))
    total = oracle_summarize(bets)
    seasons = sorted({b.game.season for b in bets})
    per_season = {s: oracle_summarize([b for b in bets if b.game.season == s]) for s in seasons}
    return OracleLedger(
        tuple(bets), total.wins, total.losses, total.pushes, total.win_ratio, total.profit, per_season
    )


def oracle_ledger_csv(bets):
    lines = ["season,week,date,home,away,side,line_close,outcome,cashflow"]
    for b in bets:
        g = b.game
        lines.append(
            f"{g.season},{g.week},{g.date.isoformat()},{g.home},{g.away},"
            f"{b.side.value},{g.line_close:g},{b.outcome.value},{b.cashflow:g}"
        )
    return "\n".join(lines) + "\n"


def oracle_credit_result(tally, g):
    """Add one straight-up result to ``tally``: a win, or half each for a tie."""
    home_share = 1.0 if g.home_margin > 0 else 0.0 if g.home_margin < 0 else 0.5
    tally[g.home] += home_share
    tally[g.away] += 1.0 - home_share


def oracle_actual_wins(games):
    wins = defaultdict(float)
    for g in games:
        oracle_credit_result(wins, g)
    return {t: wins[t] for t in sorted(wins)}


def oracle_actual_division_winner(teams, actual_wins, games):
    best = max(actual_wins.get(t, 0.0) for t in teams)
    leaders = sorted(t for t in teams if actual_wins.get(t, 0.0) == best)
    if len(leaders) == 1:
        return leaders[0], False
    h2h = {t: 0.0 for t in leaders}
    group = set(leaders)
    for g in games:
        if g.home in group and g.away in group:
            oracle_credit_result(h2h, g)
    top = max(h2h.values())
    return min(t for t in leaders if h2h[t] == top), True


# -- comparison helpers ---------------------------------------------------------

_LEAF_TYPES = (bool, int, float, str, Date, type(None))


def assert_builtin_types(value, path="result"):
    """Only built-in scalars, enums, records and built-in containers, never numpy values."""
    assert not isinstance(value, (np.generic, np.ndarray)), f"{path} is {type(value).__name__}"
    if isinstance(value, Enum) or type(value) in _LEAF_TYPES:
        return
    if isinstance(value, dict):
        for key, item in value.items():
            assert_builtin_types(key, f"{path} key")
            assert_builtin_types(item, f"{path}[{key!r}]")
    elif isinstance(value, (tuple, list)):
        for i, item in enumerate(value):
            assert_builtin_types(item, f"{path}[{i}]")
    elif is_dataclass(value):
        for f in fields(value):
            if f.compare:
                assert_builtin_types(getattr(value, f.name), f"{path}.{f.name}")
    else:
        raise AssertionError(f"{path} has unexpected type {type(value).__name__}")


def assert_same(new, old):
    """Equal, of built-in types, and identical in repr, which spells every float bit."""
    assert_builtin_types(new)
    assert new == old
    assert repr(new) == repr(old)


def outcome(fn, *args, **kwargs):
    """The result, or the exception's type and message."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, DatasetError) as exc:
        return (type(exc).__name__, str(exc))


# strategies: every built-in, user predicates, one that can hit a pick-em
USER_STRATEGIES = (
    when("user-underdogs", lambda g: g.line_close != 0, GameSide.UNDERDOG),
    when("user-big-home-dogs", lambda g: g.line_close <= -3, GameSide.HOME),
    when("user-away-late", lambda g: g.week > 8, GameSide.AWAY),
    when("user-favorites-everywhere", lambda g: g.week % 2 == 0, GameSide.FAVORITE),
)
STRATEGIES = (*BUILTIN_STRATEGIES.values(), *USER_STRATEGIES)
PRICES = ((110.0, 100.0), (0.1, 0.3), (1.1, 1))


def check_backtests(dataset, strategies=STRATEGIES, prices=PRICES):
    for strategy in strategies:
        for line in ("close", "open"):
            for stake, payout in prices:
                new = outcome(run_strategy, dataset, strategy, stake, payout, line)
                old = outcome(oracle_run_strategy, dataset, strategy, stake, payout, line)
                if isinstance(old, OracleLedger):
                    assert_same_ledger(new, old)
                else:
                    assert_same(new, old)


def assert_same_ledger(new, old):
    """Every bet's game, side, outcome and cashflow, every total and
    per-season float bit for bit, and the CSV text."""
    assert new.bets.records() == tuple(b.game for b in old.bets)
    for name in ("side", "outcome", "cashflow"):
        assert_same(getattr(new, name + "s"), tuple(getattr(b, name) for b in old.bets))
    totals = ("wins", "losses", "pushes", "win_ratio", "profit", "per_season")
    assert_same([getattr(new, name) for name in totals], [getattr(old, name) for name in totals])
    assert new.to_csv() == oracle_ledger_csv(old.bets)


def check_metrics(dataset):
    assert_same(home_record_table(dataset), oracle_home_record_table(dataset))
    assert home_record_table(dataset).to_csv() == oracle_home_record_table(dataset).to_csv()
    assert_same(favorite_ats_summary(dataset), oracle_favorite_ats_summary(dataset))
    assert_same(pick_em_count(dataset), oracle_pick_em_count(dataset))
    for threshold in (0.5, 1, 1.5, 2.0, 3.25, 99.0):
        new = movement_fraction_by_week(dataset, threshold)
        assert_same(new, oracle_movement_fraction_by_week(dataset, threshold))
    for thresholds in (None, (0.5, 1.0, 1.5, 2.0), (0, 0.25, math.inf, -1.0)):
        new = movement_cumulative_counts(dataset, thresholds)
        assert_same(new, oracle_movement_cumulative_counts(dataset, thresholds))
    for spread, tolerance in ((3.0, 0), (7.0, 0), (10.0, 0), (3, 1.5), (2.5, 0.25), (0.5, 100.0), (13.0, 0)):
        new = outcome(empirical_win_rate, dataset, spread, tolerance)
        assert_same(new, outcome(oracle_empirical_win_rate, dataset, spread, tolerance))


def check_filters(dataset):
    seasons = dataset.seasons()
    lo, hi = (seasons[0], seasons[-1]) if seasons else (2002, 2002)
    for kwargs in (
        {},
        {"regular_season_only": True},
        {"seasons": lo},
        {"seasons": (lo, hi), "weeks": (3, 18)},
        {"seasons": (hi, hi + 10**30), "regular_season_only": True},
        {"weeks": 1},
        {"weeks": (18, 40)},
        {"seasons": (-(10**30), lo - 1)},
    ):
        subset = dataset.filter(**kwargs)
        assert subset.games == oracle_filter(dataset, **kwargs)
        assert (subset == dataset) is (subset.games == dataset.games)
        assert subset.divisions is dataset.divisions
        # the columns still line up with the records
        assert subset.table.season.tolist() == [g.season for g in subset.games]
        assert subset.table.close2.tolist() == [int(2 * g.line_close) for g in subset.games]
    # the season index keeps each season's games in dataset order, as a season filter does
    for season in seasons:
        in_season = tuple(dataset.games[i] for i in dataset.season_rows(season))
        assert in_season == oracle_filter(dataset, seasons=season)


def check_schedules(dataset):
    """Each season's games, teams, win probabilities, entries, actual wins and
    head-to-head tie-breaks: every division, all teams at once, and every
    pair of teams level on wins."""
    for season in dataset.seasons():
        games = oracle_filter(dataset, seasons=season, regular_season_only=True)
        if not games:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IncompleteScheduleWarning)
            schedule = build_schedule(dataset, season, WinModel())
        assert schedule.games.records() == games
        assert schedule.teams == tuple(sorted({g.home for g in games} | {g.away for g in games}))
        probs = [win_probability(WinModel(), g.line_close) for g in games]
        assert_same(schedule.home_win_prob.tolist(), probs)
        assert_same(schedule.entries, tuple(ScheduleEntry(g.home, g.away, p) for g, p in zip(games, probs)))
        actual = oracle_actual_wins(games)
        assert_same(schedule.actual_wins, actual)
        groups = [[t for t in teams if t in actual] for _, _, teams in dataset.divisions.cells()]
        groups.append(list(actual))
        groups += [list(pair) for pair in itertools.combinations(actual, 2) if actual[pair[0]] == actual[pair[1]]]
        for teams in filter(None, groups):
            assert _actual_division_winner(teams, schedule) == oracle_actual_division_winner(teams, actual, games)


#: Every per-game quantity, which takes a GameRecord or a GameTable.
PER_GAME = (mov, line_difference, line_movement, movement_magnitude)


def check_per_game(dataset):
    """A record and its table row give the same value, bit for bit (the sign of a zero too)."""
    for quantity in PER_GAME:
        assert_same(quantity(dataset.table).tolist(), [quantity(g) for g in dataset.games])


# -- the fixture and the benchmark's synthetic history ---------------------------


@pytest.fixture(scope="module")
def fixture_all():
    return load_dataset(FIXTURE_GAMES, DIVISIONS)


def test_fixture_matches_record_loops(fixture_all):
    for dataset in (fixture_all, fixture_all.filter(regular_season_only=True)):
        check_filters(dataset)
        check_schedules(dataset)
        check_per_game(dataset)
        check_metrics(dataset)
        check_backtests(dataset)


def _history(seed, tmp_path_factory):
    sys.path.insert(0, str(REPO / "perfbench"))
    try:
        import inputs
    finally:
        sys.path.remove(str(REPO / "perfbench"))
    path = tmp_path_factory.mktemp("history") / f"history-{seed}.csv"
    path.write_bytes(inputs.history_csv(seed, inputs.read_teams(DIVISIONS)))
    return load_dataset(path, DIVISIONS)


@pytest.mark.parametrize("seed", [7, 2024])
def test_history_matches_record_loops(seed, tmp_path_factory):
    dataset = _history(seed, tmp_path_factory)
    assert len(dataset) == 26_200
    check_filters(dataset)
    check_schedules(dataset)
    check_per_game(dataset)
    regular = dataset.filter(regular_season_only=True)
    check_metrics(regular)
    # the benchmark's backtests: two built-ins on both lines and a user predicate
    strategies = (BUILTIN_STRATEGIES["home-underdog"], BUILTIN_STRATEGIES["all-favorites"], USER_STRATEGIES[0])
    check_backtests(regular, strategies, prices=PRICES[:2])


# -- hypothesis: pick-ems, pushes, push-only seasons, ties, postseason weeks ------

SPREADS = st.sampled_from([-7.0, -3.0, -2.5, -1.0, -0.5, -0.0, 0.0, 0.0, 0.5, 1.0, 3.0, 7.0, 10.0])
# a season whose only game is a push on both lines
PUSH_ONLY_SEASON = make_game(
    season=2005, home="NE", away="NYJ", home_score=20, away_score=17, line_open=3.0, line_close=3.0
)


@st.composite
def datasets(draw):
    games = []
    for _ in range(draw(st.integers(0, 40))):
        home, away = draw(st.lists(st.sampled_from(TEAM_CODES[:8]), min_size=2, max_size=2, unique=True))
        games.append(
            make_game(
                season=draw(st.integers(2002, 2004)),
                week=draw(st.integers(1, 20)),
                home=home,
                away=away,
                home_score=draw(st.integers(0, 10)),
                away_score=draw(st.integers(0, 10)),
                line_open=draw(SPREADS),
                line_close=draw(SPREADS),
            )
        )
    if draw(st.booleans()):
        games.append(PUSH_ONLY_SEASON)
    unique = {g.key: g for g in reversed(games)}
    return [g for g in games if unique[g.key] is g]


@given(datasets())
@settings(max_examples=80, deadline=None)
def test_random_datasets_match_record_loops(divisions, games):
    dataset = make_dataset(games, divisions)
    check_filters(dataset)
    check_schedules(dataset)
    check_per_game(dataset)
    check_metrics(dataset)
    check_backtests(dataset)


def test_push_only_season_is_absent_from_home_records_only(divisions):
    dataset = make_dataset([PUSH_ONLY_SEASON], divisions)
    assert home_record_table(dataset).by_season == {}
    ledger = run_strategy(dataset, BUILTIN_STRATEGIES["all-home"])
    assert ledger.per_season == {2005: LedgerSummary(0, 0, 1, 0.0, 0.0)}
    assert_same_ledger(ledger, oracle_run_strategy(dataset, BUILTIN_STRATEGIES["all-home"]))


def test_per_game_values_keep_the_sign_of_zero(divisions):
    games = [
        make_game(week=1, line_open=0.0, line_close=-0.0, home_score=10, away_score=10),
        make_game(week=2, line_open=-0.0, line_close=0.0, home_score=10, away_score=13),
        make_game(week=3, line_open=-0.0, line_close=-0.0, home_score=13, away_score=10),
        make_game(week=4, line_open=-3.0, line_close=-3.0, home_score=10, away_score=13),
    ]
    dataset = make_dataset(games, divisions)
    check_per_game(dataset)
    # a visiting favorite that exactly covers: the error is -0.0, as -(0.0) was
    assert repr(line_difference(games[3])) == repr(line_difference(dataset.table).tolist()[3]) == "-0.0"
    assert repr(line_difference(games[0])) == "0.0"


def test_head_to_head_tie_gives_each_side_half_a_win(divisions):
    # AFC East: NE, NYJ and MIA end level on 1.5 wins; among them, only NE-NYJ
    # was played, a tie, so NE and NYJ lead MIA by half a win each
    games = [
        make_game(week=1, home="NE", away="NYJ", home_score=17, away_score=17),
        make_game(week=2, home="NE", away="BUF", home_score=20, away_score=10),
        make_game(week=3, home="NYJ", away="BUF", home_score=20, away_score=10),
        make_game(week=4, home="MIA", away="BUF", home_score=20, away_score=10),
        make_game(week=5, home="MIA", away="BUF", home_score=10, away_score=10),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IncompleteScheduleWarning)
        schedule = build_schedule(make_dataset(games, divisions), 2002, WinModel())
    assert schedule.actual_wins == {"BUF": 0.5, "MIA": 1.5, "NE": 1.5, "NYJ": 1.5}
    (prediction,) = predict_division_winners(simulate(schedule, 1, seed=0), schedule, divisions)
    assert (prediction.actual_winner, prediction.actual_tie) == ("NE", True)
    assert oracle_actual_division_winner(["BUF", "MIA", "NE", "NYJ"], schedule.actual_wins, games) == ("NE", True)


def test_records_equal_the_validated_constructor(fixture_all):
    # records are built once without __post_init__; they must equal validated ones
    rebuilt = tuple(GameRecord(*(getattr(g, f.name) for f in fields(GameRecord))) for g in fixture_all)
    assert rebuilt == fixture_all.games
    assert Dataset(rebuilt, fixture_all.divisions).table.close2.tolist() == fixture_all.table.close2.tolist()


def test_filter_and_table_metrics_build_no_records(no_records):
    dataset = load_dataset(FIXTURE_GAMES, DIVISIONS).filter(seasons=2003, regular_season_only=True)
    home_record_table(dataset)
    favorite_ats_summary(dataset)
    movement_fraction_by_week(dataset, 1.0)
    movement_cumulative_counts(dataset)
    pick_em_count(dataset)
    empirical_win_rate(dataset, 3.0)
    for quantity in PER_GAME:
        quantity(dataset.table)
    assert len(dataset) == 256


@pytest.mark.parametrize("line", ["close", "open"])
@pytest.mark.parametrize("strategy", STRATEGIES, ids=[s.name for s in STRATEGIES])
def test_builtin_backtests_read_no_records(strategy, line, no_records):
    dataset = load_dataset(FIXTURE_GAMES, DIVISIONS)
    ledger = outcome(run_strategy, dataset, strategy, line=line)
    if isinstance(ledger, tuple):  # a favorite bet on a pick-em, named without a record
        assert ledger[0] == "UnresolvableSideError"
    else:
        assert len(ledger.bets) == ledger.wins + ledger.losses + ledger.pushes > 0
    assert "games" not in dataset.__dict__


# -- Dataset equality compares columns, as the records would ---------------------


def assert_equality_agrees(a, b, equal):
    """``==`` on the datasets gives ``equal``, as comparing their records does."""
    assert (a == b) is (b == a) is equal
    assert ((a.games, a.divisions, a.provenance) == (b.games, b.divisions, b.provenance)) is equal


def test_negative_zero_spread_equals_zero(divisions):
    a = make_dataset([make_game(line_open=-0.0, line_close=-0.0)], divisions)
    b = make_dataset([make_game(line_open=0.0, line_close=0.0)], divisions)
    assert_equality_agrees(a, b, True)


def test_int_spread_equals_float_spread(divisions):
    a = make_dataset([make_game(line_open=3, line_close=-7)], divisions)
    b = make_dataset([make_game(line_open=3.0, line_close=-7.0)], divisions)
    assert_equality_agrees(a, b, True)


@pytest.mark.parametrize(
    "change", [{"home_score": 21}, {"away": "MIA"}, {"home": "MIA"}], ids=["score", "away", "home"]
)
def test_one_game_changed_is_unequal(divisions, change):
    games = [make_game(week=1), make_game(week=2, home="NE", away="BUF")]
    changed = [games[0], replace(games[1], **change)]
    assert_equality_agrees(make_dataset(games, divisions), make_dataset(changed, divisions), False)


def test_provenance_changed_is_unequal(divisions):
    games = [make_game()]
    assert_equality_agrees(Dataset(games, divisions, "a.csv"), Dataset(games, divisions, "b.csv"), False)


def test_filtered_dataset_equals_its_records(divisions):
    # filter keeps every team of the parent table: equality must not depend on it
    games = [make_game(week=1), make_game(week=2, home="MIA", away="BUF")]
    subset = make_dataset(games, divisions).filter(weeks=1)
    assert subset.table.teams == ("BUF", "MIA", "NE", "NYJ")
    assert_equality_agrees(subset, Dataset(subset.games, subset.divisions, subset.provenance), True)


def test_fresh_loads_compare_equal_without_records(no_records):
    a, b = load_dataset(FIXTURE_GAMES, DIVISIONS), load_dataset(FIXTURE_GAMES, DIVISIONS)
    assert a == b == a.filter()
    assert a != a.filter(seasons=2002)
