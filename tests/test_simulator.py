import math

import numpy as np
import pytest

from nfl_lines.dataset import UnknownTeamError
from nfl_lines.prob_model import WinModel, expected_wins, poisson_binomial
from nfl_lines.simulator import (
    SIM_BLOCK,
    DivisionPrediction,
    IncompleteScheduleWarning,
    MissingSeasonError,
    SimulationResult,
    build_schedule,
    predict_division_winners,
    score_predictions,
    simulate,
    simulation_to_csv,
)

from conftest import make_dataset, make_game, make_schedule

MODEL = WinModel()


def test_build_schedule_shape(regular_dataset):
    schedule = build_schedule(regular_dataset, 2002, MODEL)
    assert len(schedule.games) == 256
    assert len(schedule.teams) == 32
    appearances = np.bincount(np.append(schedule.games.home, schedule.games.away))
    assert set(appearances.tolist()) == {16}
    # every game hands out exactly one win (ties split it)
    assert sum(schedule.actual_wins.values()) == 256


@pytest.mark.filterwarnings("ignore::nfl_lines.simulator.IncompleteScheduleWarning")
def test_build_schedule_probabilities(divisions):
    games = [
        make_game(week=1, home="NE", away="NYJ", line_close=0.0, line_open=0.0),
        make_game(week=2, home="NE", away="MIA", line_close=7.0),
    ]
    schedule = build_schedule(make_dataset(games, divisions), 2002, MODEL)
    assert schedule.home_win_prob[0] == 0.5
    assert abs(schedule.home_win_prob[1] - 0.697) < 5e-4


def test_build_schedule_missing_season(regular_dataset):
    with pytest.raises(MissingSeasonError):
        build_schedule(regular_dataset, 1999, MODEL)


def test_build_schedule_warns_on_short_schedules(regular_dataset):
    two_weeks = regular_dataset.filter(seasons=2002, weeks=(1, 2))
    with pytest.warns(IncompleteScheduleWarning):
        build_schedule(two_weeks, 2002, MODEL)


def test_short_schedule_warning_names_only_teams_that_play(regular_dataset):
    # NE plays 2003 but no 2002 game: its opponents are short, NE is not named
    dropped = [g for g in regular_dataset if g.season == 2002 and "NE" in (g.home, g.away)]
    opponents = sorted({g.away if g.home == "NE" else g.home for g in dropped})
    kept = [g for g in regular_dataset if g not in dropped]
    with pytest.warns(IncompleteScheduleWarning) as caught:
        schedule = build_schedule(make_dataset(kept, regular_dataset.divisions), 2002, MODEL)
    assert [str(w.message) for w in caught] == [
        f"season 2002: teams with a schedule other than 16 games: {opponents}"
    ]
    assert "NE" not in schedule.teams


def test_build_schedule_excludes_postseason(fixture_dataset):
    schedule = build_schedule(fixture_dataset, 2002, MODEL)
    assert len(schedule.games) == 256


def _toy_schedule(probs, team="NE", opponents=None):
    opponents = opponents or [f"T{i:02d}" for i in range(len(probs))]
    rows = [(team, opp, p) for opp, p in zip(opponents, probs)]
    return make_schedule(rows, {team: 0.0, **{o: 0.0 for o in opponents}})


def test_simulate_certain_home_wins():
    schedule = _toy_schedule([1.0] * 5)
    result = simulate(schedule, 50, seed=1, keep_samples=True)
    assert result.mean_wins["NE"] == 5.0
    ne_col = result.teams.index("NE")
    assert (result.win_samples[:, ne_col] == 5).all()


def test_simulate_deterministic_same_seed(regular_dataset):
    schedule = build_schedule(regular_dataset, 2002, MODEL)
    a = simulate(schedule, 200, seed=42, keep_samples=True)
    b = simulate(schedule, 200, seed=42, keep_samples=True)
    assert a.mean_wins == b.mean_wins
    assert np.array_equal(a.win_samples, b.win_samples)


def test_simulate_worker_count_is_invisible(regular_dataset):
    schedule = build_schedule(regular_dataset, 2002, MODEL)
    serial = simulate(schedule, 199, seed=9, workers=1, keep_samples=True)
    threaded = simulate(schedule, 199, seed=9, workers=4, keep_samples=True)
    assert serial.mean_wins == threaded.mean_wins
    assert np.array_equal(serial.win_samples, threaded.win_samples)


@pytest.mark.parametrize("seed_a, seed_b", [(2**64 - 1, 0), (2**63, 2**63 + 1)])
def test_simulate_distinct_seeds_give_distinct_streams(regular_dataset, seed_a, seed_b):
    schedule = build_schedule(regular_dataset, 2002, MODEL)
    a = simulate(schedule, 50, seed=seed_a, keep_samples=True)
    b = simulate(schedule, 50, seed=seed_b, keep_samples=True)
    assert not np.array_equal(a.win_samples, b.win_samples)


def _reference_win_samples(schedule, replications, seed):
    """Stream layout 2: one fresh Philox(key=[seed64, b]) per block of SIM_BLOCK
    replications, its draws read row by row; wins by bincount."""
    teams = schedule.teams
    probs = schedule.home_win_prob
    home_idx, away_idx = schedule.games.home, schedule.games.away
    seed64 = int(seed) & (2**64 - 1)
    samples = np.zeros((replications, len(teams)), dtype=np.int64)
    for b, start in enumerate(range(0, replications, SIM_BLOCK)):
        rows = min(SIM_BLOCK, replications - start)
        stream = np.random.Generator(np.random.Philox(key=np.array([seed64, b], dtype=np.uint64)))
        draws = stream.random(rows * len(probs)).reshape(rows, len(probs))
        for i in range(rows):
            home_win = draws[i] < probs
            samples[start + i] = np.bincount(home_idx[home_win], minlength=len(teams)) + np.bincount(
                away_idx[~home_win], minlength=len(teams)
            )
    return samples


# the test id predates stream layout 2; the oracle above now keys one Philox per block
@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1, 2**63 + 1])
@pytest.mark.parametrize("replications", [1, SIM_BLOCK - 1, SIM_BLOCK, SIM_BLOCK + 1, 2 * SIM_BLOCK + 1])
def test_simulate_matches_one_philox_per_replication(regular_dataset, seed, replications):
    schedule = build_schedule(regular_dataset, 2002, MODEL)
    kept = simulate(schedule, replications, seed=seed, keep_samples=True)
    assert np.array_equal(kept.win_samples, _reference_win_samples(schedule, replications, seed))
    mean_wins = simulate(schedule, replications, seed=seed).mean_wins
    assert [mean_wins[t] for t in kept.teams] == kept.win_samples.mean(axis=0).tolist()


def test_simulate_prefixes_longer_runs(regular_dataset):
    schedule = build_schedule(regular_dataset, 2002, MODEL)
    longest = simulate(schedule, 2 * SIM_BLOCK + 1, seed=5, keep_samples=True).win_samples
    for n in (SIM_BLOCK - 1, SIM_BLOCK, SIM_BLOCK + 1, 2 * SIM_BLOCK):
        shorter = simulate(schedule, n, seed=5, keep_samples=True).win_samples
        assert np.array_equal(shorter, longest[:n])


def test_simulate_keys_each_block_apart():
    # one game: replication r reads draw r % SIM_BLOCK of key [seed, r // SIM_BLOCK]
    result = simulate(_toy_schedule([0.5], opponents=["NYJ"]), 2 * SIM_BLOCK, seed=3, keep_samples=True)
    home_wins = result.win_samples[:, result.teams.index("NE")]
    assert not np.array_equal(home_wins[:SIM_BLOCK], home_wins[SIM_BLOCK:])
    for block in (0, 1):
        stream = np.random.Generator(np.random.Philox(key=np.array([3, block], dtype=np.uint64)))
        expected = stream.random(SIM_BLOCK) < 0.5
        assert np.array_equal(home_wins[block * SIM_BLOCK : (block + 1) * SIM_BLOCK], expected)


def _edge_probabilities():
    # k * 2**-53 is where a draw (w >> 11) * 2**-53 stops being a home win
    ks = (3, 2**52 - 1, 2**52 + 1, 6004799503160661, 2**53 - 2)
    grid = [k * 2.0**-53 for k in ks]
    near = [math.nextafter(p, toward) for p in grid for toward in (0.0, 1.0)]
    return [0.0, 5e-324, 2.0**-53, *grid, *near, 0.5, math.nextafter(1.0, 0.0), 1.0]


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("replications", [1, SIM_BLOCK - 1, SIM_BLOCK + 1])
def test_simulate_matches_float_draws_at_edge_probabilities(seed, replications):
    schedule = _toy_schedule(_edge_probabilities())
    kept = simulate(schedule, replications, seed=seed, keep_samples=True)
    assert np.array_equal(kept.win_samples, _reference_win_samples(schedule, replications, seed))


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_simulate_matches_float_draws_at_sigma_near_zero(regular_dataset, seed):
    schedule = build_schedule(regular_dataset, 2002, WinModel(sigma=1e-300))
    assert set(schedule.home_win_prob.tolist()) == {0.0, 0.5, 1.0}
    kept = simulate(schedule, SIM_BLOCK + 1, seed=seed, keep_samples=True)
    assert np.array_equal(kept.win_samples, _reference_win_samples(schedule, SIM_BLOCK + 1, seed))


def test_simulate_decides_each_word_as_its_float_draw(monkeypatch):
    # words on both sides of every game's limit, read as Generator.random() reads them
    probs = _edge_probabilities()
    mantissas = {0, 1, 2**53 - 1}
    for p in probs:
        k = math.ceil(p * 2**53)
        mantissas |= {m for m in (k - 1, k, k + 1) if 0 <= m < 2**53}
    words = np.array([w for m in sorted(mantissas) for w in (m << 11, m << 11 | 2047)], dtype=np.uint64)

    class FixedWords:
        def __init__(self, key):
            pass

        def random_raw(self, size):
            return np.repeat(words, len(probs))

    monkeypatch.setattr(np.random, "Philox", FixedWords)
    schedule = _toy_schedule(probs)
    kept = simulate(schedule, len(words), seed=0, keep_samples=True)
    expected = (words >> 11)[:, None] * 2.0**-53 < np.array(probs)
    assert np.array_equal(kept.win_samples[:, kept.teams.index("NE")], expected.sum(axis=1))
    opponents = [kept.teams.index(f"T{i:02d}") for i in range(len(probs))]
    assert np.array_equal(kept.win_samples[:, opponents], ~expected)


@pytest.mark.parametrize("prob", [math.nan, math.inf, -math.inf, -0.1, 1.5])
def test_simulate_rejects_a_probability_outside_0_1(prob):
    schedule = _toy_schedule([0.5, prob], opponents=["MIA", "NYJ"])
    message = rf"^game 1 \(NYJ at NE, season 2002\): home_win_prob must be in \[0, 1\], got {prob}$"
    with pytest.raises(ValueError, match=message):
        simulate(schedule, 1, seed=1)


def test_simulate_conservation(regular_dataset):
    schedule = build_schedule(regular_dataset, 2003, MODEL)
    result = simulate(schedule, 100, seed=3, keep_samples=True)
    assert (result.win_samples.sum(axis=1) == len(schedule.games)).all()


def test_simulate_converges_to_exact_mean():
    probs = [0.697, 0.529, 0.42, 0.87, 0.5, 0.61, 0.33, 0.76, 0.5, 0.55, 0.645, 0.71, 0.48, 0.52, 0.9, 0.39]
    schedule = _toy_schedule(probs)
    result = simulate(schedule, 10_000, seed=13)
    assert abs(result.mean_wins["NE"] - expected_wins(probs)) < 0.15
    exact = poisson_binomial(probs)
    assert abs(result.mean_wins["NE"] - exact.mean()) < 0.15


def test_simulate_linearity_bound(regular_dataset):
    # the sample mean stays within 4 standard errors of the exact mean
    schedule = build_schedule(regular_dataset, 2002, MODEL)
    result = simulate(schedule, 2000, seed=20)
    by_team = {t: [] for t in schedule.teams}
    games = schedule.games
    for home, away, p in zip(games.home.tolist(), games.away.tolist(), schedule.home_win_prob.tolist()):
        by_team[schedule.teams[home]].append(p)
        by_team[schedule.teams[away]].append(1.0 - p)
    for team, probs in by_team.items():
        se = math.sqrt(sum(p * (1 - p) for p in probs) / result.replications)
        assert abs(result.mean_wins[team] - expected_wins(probs)) <= 4.0 * se


def test_simulate_monotone_under_common_random_numbers():
    base = [0.5] * 8
    raised = list(base)
    raised[3] = 0.9
    low = simulate(_toy_schedule(base), 500, seed=11)
    high = simulate(_toy_schedule(raised), 500, seed=11)
    assert high.mean_wins["NE"] >= low.mean_wins["NE"]


def test_simulate_rounds_half_up():
    # seed 1 with two replications of one coin-flip game splits 1-1,
    # so the mean of exactly 0.5 must round up to 1
    schedule = _toy_schedule([0.5], opponents=["NYJ"])
    result = simulate(schedule, 2, seed=1)
    assert result.mean_wins["NE"] == 0.5
    assert result.predicted_wins["NE"] == 1


def test_simulate_validates_replications():
    with pytest.raises(ValueError):
        simulate(_toy_schedule([0.5]), 0, seed=1)


@pytest.mark.parametrize("seed", [-1, 2**64, -(2**64)])
def test_simulate_rejects_seeds_outside_uint64(seed):
    # masked to 64 bits, each would replay the stream of a seed inside the range
    with pytest.raises(ValueError, match=rf"^seed must be in \[0, 2\*\*64\), got {seed}$"):
        simulate(_toy_schedule([0.5]), 1, seed=seed)


def _result(teams, predicted, mean=None):
    return SimulationResult(
        replications=1,
        seed=0,
        teams=tuple(sorted(teams)),
        mean_wins=mean or {t: float(predicted[t]) for t in teams},
        predicted_wins=dict(predicted),
    )


def test_predict_division_winners_strict(divisions):
    # AFC East teams: BUF, MIA, NE, NYJ
    teams = ["BUF", "MIA", "NE", "NYJ"]
    result = _result(teams, {"BUF": 6, "MIA": 7, "NE": 11, "NYJ": 9})
    schedule = make_schedule([], {"NE": 13.0, "NYJ": 8.0, "BUF": 6.0, "MIA": 6.0})
    preds = predict_division_winners(result, schedule, divisions)
    assert len(preds) == 1
    p = preds[0]
    assert (p.predicted_winner, p.actual_winner, p.correct) == ("NE", "NE", True)
    assert p.tied_set == frozenset({"NE"})
    assert not p.actual_tie


def test_predict_division_winners_tie_decided_in_our_favor(divisions):
    teams = ["BUF", "MIA", "NE", "NYJ"]
    result = _result(teams, {"BUF": 6, "MIA": 10, "NE": 10, "NYJ": 9})
    schedule = make_schedule([], {"NE": 13.0, "NYJ": 8.0, "BUF": 6.0, "MIA": 10.0})
    p = predict_division_winners(result, schedule, divisions)[0]
    assert p.tied_set == frozenset({"MIA", "NE"})
    assert p.correct  # actual winner NE is inside the tied set
    assert p.predicted_winner == "NE"


def test_predict_division_winners_tie_miss(divisions):
    teams = ["BUF", "MIA", "NE", "NYJ"]
    result = _result(teams, {"BUF": 10, "MIA": 10, "NE": 7, "NYJ": 9})
    schedule = make_schedule([], {"NE": 13.0, "NYJ": 8.0, "BUF": 6.0, "MIA": 10.0})
    p = predict_division_winners(result, schedule, divisions)[0]
    assert not p.correct
    assert p.predicted_winner == "BUF"  # lexicographic among the tied set


def test_actual_tie_breaks_head_to_head(divisions):
    teams = ["BUF", "MIA", "NE", "NYJ"]
    result = _result(teams, {"BUF": 6, "MIA": 8, "NE": 10, "NYJ": 9})
    h2h = ("NYJ", "NE", 0.5, 24, 10)
    schedule = make_schedule([h2h], {"NE": 10.0, "NYJ": 10.0, "BUF": 6.0, "MIA": 8.0})
    p = predict_division_winners(result, schedule, divisions)[0]
    assert p.actual_winner == "NYJ"  # beat NE head to head
    assert p.actual_tie
    assert not p.correct  # predicted NE


def test_predict_division_winners_unknown_team(divisions):
    result = _result(["ZZZ"], {"ZZZ": 10})
    schedule = make_schedule([], {"ZZZ": 10.0})
    with pytest.raises(UnknownTeamError):
        predict_division_winners(result, schedule, divisions)


def test_score_predictions():
    def pred(correct):
        return DivisionPrediction("AFC", "East", "NE", "NE", frozenset({"NE"}), correct, False)

    assert score_predictions([pred(True)] * 8) == (8, 8)
    assert score_predictions([pred(True)] * 7 + [pred(False)]) == (7, 8)
    assert score_predictions([]) == (0, 0)


def test_full_fixture_prediction_runs(regular_dataset):
    schedule = build_schedule(regular_dataset, 2002, MODEL)
    result = simulate(schedule, 300, seed=77)
    preds = predict_division_winners(result, schedule, regular_dataset.divisions)
    correct, total = score_predictions(preds)
    assert total == 8
    assert 0 <= correct <= 8


def test_simulation_csv_shape(regular_dataset):
    schedule = build_schedule(regular_dataset, 2002, MODEL)
    result = simulate(schedule, 100, seed=2)
    predictions = predict_division_winners(result, schedule, regular_dataset.divisions)
    text = simulation_to_csv(result, schedule, regular_dataset.divisions, predictions)
    lines = text.strip().splitlines()
    assert lines[0] == "team,conference,division,predicted_wins,mean_wins,actual_wins,outcome"
    assert len(lines) == 33
    assert sum(1 for line in lines if line.endswith("Division Winner")) == 8
    # deterministic for the same inputs
    again = simulate(schedule, 100, seed=2)
    again_predictions = predict_division_winners(again, schedule, regular_dataset.divisions)
    assert text == simulation_to_csv(again, schedule, regular_dataset.divisions, again_predictions)
