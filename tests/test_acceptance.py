"""Acceptance suite: one test per release criterion.

Each test prints an ACCEPTANCE PASS line (visible with -s or -rA) after its
assertions hold. The golden tests against the real 2002-2011 history are
data-dependent: they run only when NFL_LINES_REAL_GAMES points at a local
copy of that dataset (with NFL_LINES_REAL_DIVISIONS optionally overriding
the bundled division map).
"""

import math
import os

import numpy as np
import pytest

from nfl_lines.backtest import ALL_HOME, HOME_UNDERDOG, break_even_ratio, run_strategy
from nfl_lines.cli import main
from nfl_lines.dataset import load_dataset
from nfl_lines.metrics import (
    favorite_ats_summary,
    histogram,
    home_record_table,
    line_difference,
    movement_cumulative_counts,
    pick_em_count,
)
from nfl_lines.prob_model import (
    WinModel,
    empirical_win_rate,
    expected_wins,
    parlay_probability,
    poisson_binomial,
    win_probability,
)
from nfl_lines.simulator import (
    build_schedule,
    predict_division_winners,
    score_predictions,
    simulate,
)
from nfl_lines.stats import chi_square_gof, moments, proportion_z

from conftest import DIVISIONS, FIXTURE_GAMES, REAL_GAMES, make_dataset, make_game, make_schedule
from test_prob_model import brute_force_pmf

MODEL = WinModel()


def _ok(name):
    print(f"ACCEPTANCE PASS: {name}")


def test_win_probability_table():
    for spread, expected in ((1, 0.529), (3, 0.587), (5, 0.644), (7, 0.697)):
        got = win_probability(MODEL, spread)
        assert abs(got - expected) <= 5e-4, f"spread {spread}: {got} vs {expected}"
    _ok("win-probability table at spreads 1/3/5/7 within 0.0005")


def test_parlay_example():
    assert abs(parlay_probability(MODEL, [7.0, 4.0]) - 0.429) <= 1e-3
    _ok("two-game parlay at 7 and 4 points = 0.429 within 0.001")


def test_break_even():
    assert abs(break_even_ratio(100.0, 110.0) - 0.5238095) <= 1e-6
    _ok("break-even ratio 110-to-100 = 0.5238095 within 1e-6")


def test_poisson_binomial_oracle():
    rng = np.random.default_rng(20020908)
    for _ in range(50):
        n = int(rng.integers(0, 13))
        probs = rng.random(n).tolist()
        dist = poisson_binomial(probs)
        oracle = brute_force_pmf(probs)
        assert max(abs(a - b) for a, b in zip(dist.pmf, oracle)) <= 1e-12
        assert abs(dist.mean() - expected_wins(probs)) <= 1e-9
    _ok("poisson-binomial DP matches 2^n enumeration on 50 seeded vectors")


def test_simulator_convergence_and_conservation():
    probs = [0.697, 0.529, 0.42, 0.87, 0.5, 0.61, 0.33, 0.76, 0.5, 0.55, 0.645, 0.71, 0.48, 0.52, 0.9, 0.39]
    schedule = make_schedule([("NE", f"T{i:02d}", p) for i, p in enumerate(probs)])
    result = simulate(schedule, 10_000, seed=4242, keep_samples=True)
    exact = poisson_binomial(probs).mean()
    assert abs(result.mean_wins["NE"] - exact) <= 0.15
    assert (result.win_samples.sum(axis=1) == len(probs)).all()
    _ok("10k-replication mean within 0.15 of exact mean; wins conserved per replication")


def test_cmd_simulate_determinism(capsys):
    argv = [
        "simulate",
        "--games", str(FIXTURE_GAMES),
        "--divisions", str(DIVISIONS),
        "--season", "2002",
        "--replications", "400",
        "--seed", "31337",
    ]
    outputs = []
    for extra in ([], [], ["--workers", "5"]):
        assert main(argv + extra) == 0
        outputs.append(capsys.readouterr().out.encode())
    assert outputs[0] == outputs[1] == outputs[2]
    _ok("simulate CSV byte-identical across reruns and 1 vs 5 workers")


def test_accounting_sign_law(divisions):
    rng = np.random.default_rng(1729)
    teams = divisions.teams
    checked = 0
    for _ in range(1000):
        n_games = int(rng.integers(1, 30))
        games = []
        for k in range(n_games):
            home, away = rng.choice(len(teams), size=2, replace=False)
            games.append(
                make_game(
                    season=2002,
                    week=1 + k,
                    home=teams[home],
                    away=teams[away],
                    home_score=int(rng.integers(0, 50)),
                    away_score=int(rng.integers(0, 50)),
                    line_open=float(rng.integers(-20, 21)) / 2.0,
                    line_close=float(rng.integers(-20, 21)) / 2.0,
                )
            )
        stake = float(rng.uniform(10.0, 300.0))
        payout = float(rng.uniform(10.0, 300.0))
        ledger = run_strategy(make_dataset(games, divisions), ALL_HOME, stake=stake, win_payout=payout)
        assert ledger.wins + ledger.losses + ledger.pushes == len(ledger.bets) == n_games
        if ledger.wins + ledger.losses == 0:
            continue
        assert (ledger.profit > 0) == (ledger.win_ratio > break_even_ratio(payout, stake))
        checked += 1
    assert checked > 900
    _ok("profit > 0 iff win ratio > break-even over 1000 random ledgers; partitions hold")


def test_ats_partition_property(fixture_dataset):
    for ds in (
        fixture_dataset,
        fixture_dataset.filter(regular_season_only=True),
        fixture_dataset.filter(seasons=2002),
        fixture_dataset.filter(seasons=2003, regular_season_only=True),
    ):
        part = favorite_ats_summary(ds)
        assert sum(part) + pick_em_count(ds) == len(ds)
    _ok("favorite ATS partition plus pick-ems covers every fixture dataset")


def test_gof_calibration():
    rng = np.random.default_rng(55555)
    normal_rejects = sum(
        chi_square_gof(rng.normal(0.0, 13.588, 2560), 13.588).reject_at_05 for _ in range(100)
    )
    uniform_rejects = sum(
        chi_square_gof(rng.uniform(-40.0, 40.0, 2560), 13.588).reject_at_05 for _ in range(100)
    )
    assert normal_rejects <= 10, f"{normal_rejects} rejections on matching normal samples"
    assert uniform_rejects >= 95, f"only {uniform_rejects} rejections on uniform samples"
    _ok(f"GOF calibration: {normal_rejects}/100 false rejections, {uniform_rejects}/100 true rejections")


def test_z_oracle():
    rng = np.random.default_rng(99)
    for _ in range(100):
        wins = int(rng.integers(0, 2000))
        losses = int(rng.integers(0, 2000))
        if wins + losses == 0:
            wins = 1
        p0 = float(rng.uniform(0.01, 0.99))
        expected = (wins / (wins + losses) - p0) / math.sqrt(p0 * (1 - p0) / (wins + losses))
        assert abs(proportion_z(wins, losses, p0).z - expected) <= 1e-10
    _ok("one-proportion z matches independent formula on 100 random triples")


def test_cli_contract(tmp_path, capsys):
    assert main(["summary", "--no-such-flag"]) == 2
    capsys.readouterr()

    bad = tmp_path / "games.csv"
    bad.write_text(
        "season,week,date,home,away,home_score,away_score,line_open,line_close\n"
        "2002,one,2002-09-08,NE,NYJ,21,14,3,3\n"
    )
    assert main(["summary", "--games", str(bad), "--divisions", str(DIVISIONS)]) == 1
    err = capsys.readouterr().err
    assert "row 2" in err

    data = ["--games", str(FIXTURE_GAMES), "--divisions", str(DIVISIONS)]
    for argv in (
        ["summary", *data],
        ["hist", *data, "--metric", "closing-line"],
        ["simulate", *data, "--season", "2002", "--replications", "50"],
        ["backtest", *data, "--strategy", "home-underdog"],
    ):
        assert main(argv) == 0
        capsys.readouterr()
    _ok("CLI contract: exit 2 on bad usage, exit 1 with row number, pipeline exit 0")


# -- data-dependent goldens (real 2002-2011 history) --------------------------

needs_real_data = pytest.mark.skipif(
    not (REAL_GAMES and os.path.exists(REAL_GAMES)),
    reason="set NFL_LINES_REAL_GAMES to the real 2002-2011 games CSV",
)

TABLE3_CORRECT = {2002: 7, 2003: 7, 2004: 6, 2005: 8, 2006: 6, 2007: 7, 2008: 7, 2009: 7, 2010: 6, 2011: 6}


@pytest.fixture(scope="module")
def real_dataset():
    divisions_path = os.environ.get("NFL_LINES_REAL_DIVISIONS", str(DIVISIONS))
    ds = load_dataset(REAL_GAMES, divisions_path)
    return ds.filter(seasons=(2002, 2011), regular_season_only=True)


@needs_real_data
def test_real_data_line_difference_moments(real_dataset):
    assert len(real_dataset) == 2560
    m = moments([line_difference(g) for g in real_dataset])
    assert abs(m.mean - (-0.009)) <= 0.02
    assert abs(m.std_dev - 13.588) <= 0.05
    su_home = sum(1 for g in real_dataset if g.home_margin > 0)
    su_decided = sum(1 for g in real_dataset if g.home_margin != 0)
    assert abs(su_home / su_decided - 0.57) <= 0.01
    _ok("real data: 2560 games; line-error moments and home win rate match")


@needs_real_data
def test_real_data_favorite_partition(real_dataset):
    assert favorite_ats_summary(real_dataset) == (1194, 412, 853, 101)
    _ok("real data: favorite ATS partition is exactly 1194/412/853/101")


@needs_real_data
def test_real_data_home_record_totals(real_dataset):
    table = home_record_table(real_dataset)
    total = table.total
    assert (total.favorites.wins, total.favorites.losses) == (816, 888)
    assert (total.underdogs.wins, total.underdogs.losses) == (409, 396)
    assert (total.pick_ems.wins, total.pick_ems.losses) == (15, 13)
    _ok("real data: home record totals match 816/888, 409/396, 15/13")


@needs_real_data
def test_real_data_division_predictions(real_dataset):
    for season, published in TABLE3_CORRECT.items():
        schedule = build_schedule(real_dataset, season, MODEL)
        result = simulate(schedule, 1000, seed=1)
        correct, total = score_predictions(
            predict_division_winners(result, schedule, real_dataset.divisions)
        )
        assert total == 8
        assert abs(correct - published) <= 1
    _ok("real data: division-winner accuracy within 1 of the published per-year scores")


@needs_real_data
def test_real_data_movement_counts(real_dataset):
    counts = movement_cumulative_counts(real_dataset, thresholds=(0.5, 1.0))
    assert counts[0.5] == 1548
    assert counts[1.0] > 2000
    _ok("real data: movement counts 1548 at 0.5 and over 2000 at 1.0")


@needs_real_data
def test_real_data_home_underdog_reference(real_dataset):
    ledger = run_strategy(real_dataset, HOME_UNDERDOG)
    # Table 1 totals give 409-396 (0.508); the published cumulative claim is
    # 0.535. The computed value is asserted against the table.
    assert (ledger.wins, ledger.losses) == (409, 396)
    _ok("real data: home-underdog ledger matches the published table totals")


@needs_real_data
def test_real_data_closing_line_modes(real_dataset):
    hist = histogram([g.line_close for g in real_dataset], 0.5, origin=-0.25)
    top3 = sorted(hist.bins, key=hist.bins.get, reverse=True)[:3]
    assert {hist.bin_center(i) for i in top3} == {3.0, -3.0, 7.0}
    _ok("real data: closing-line modes at 3, -3, and 7")


@needs_real_data
def test_real_data_empirical_win_rates(real_dataset):
    published = {1.0: 0.509, 3.0: 0.581, 5.0: 0.597, 7.0: 0.689}
    for spread, actual in published.items():
        rate = empirical_win_rate(real_dataset, spread).rate
        assert abs(rate - actual) <= 0.01
    _ok("real data: empirical favorite win rates match the published column")


@needs_real_data
def test_real_data_movement_over_one_point(real_dataset):
    counts = movement_cumulative_counts(real_dataset, thresholds=(1.0,))
    over_one = 1.0 - counts[1.0] / len(real_dataset)
    assert abs(over_one - 0.20) <= 0.03
    _ok("real data: about 20 percent of games moved more than one point")


@needs_real_data
def test_real_data_2011_predicted_wins(real_dataset):
    schedule = build_schedule(real_dataset, 2011, MODEL)
    result = simulate(schedule, 1000, seed=1)
    for team, published in (("NE", 11), ("GB", 12), ("IND", 5)):
        assert abs(result.predicted_wins[team] - published) <= 1
    _ok("real data: 2011 predicted win totals within 1 of the published table")
