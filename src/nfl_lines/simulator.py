"""Seeded Monte Carlo simulation of seasons from per-game win probabilities.

Stream layout 2: replication ``r`` of a season of G games reads draws
``i*G`` to ``i*G+G-1`` of the Philox stream keyed on ``(seed, block)``, where
``block, i = divmod(r, SIM_BLOCK)``. Results are bit-identical for a seed
whatever ``workers`` says, and a run's replications prefix any longer run's.
The draws are the raw 64-bit Philox words, compared with one exact integer
limit per game: a word is a home win exactly when numpy's
``Generator.random()`` would turn it into a float below the game's
probability, so layout, seeds and outputs are those of the float draws.

A season's schedule holds its games once, as GameTable rows and a column of
home win probabilities: simulation, actual wins and tie-breaks read only those.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .dataset import REGULAR_SEASON_MAX_WEEK, Dataset, DivisionMap, GameTable, UnknownTeamError
from .prob_model import WinModel, win_probability

GAMES_PER_TEAM = 16

#: Replications per Philox key, part of the stream layout; about 1 MB of draws for a season.
SIM_BLOCK = 512
#: Version of the mapping from (seed, replication, game) to a uniform draw.
STREAM_LAYOUT = 2


class MissingSeasonError(ValueError):
    def __init__(self, season: int):
        super().__init__(f"no regular-season games for season {season}")
        self.season = season


class IncompleteScheduleWarning(UserWarning):
    """A team played a number of regular-season games other than 16."""


@dataclass(frozen=True)
class ScheduleEntry:
    home: str
    away: str
    home_win_prob: float


@dataclass(frozen=True, eq=False)
class SeasonSchedule:
    """One season's games with model win probabilities and actual win tallies.

    ``games`` holds the season's regular-season GameTable rows, indexed by
    the teams that play it (``teams``), and ``home_win_prob[i]`` is row
    ``i``'s model home win probability. ``actual_wins`` credits 0.5 to each
    side of a straight-up tie; reports floor the value.
    """

    season: int
    games: GameTable
    home_win_prob: np.ndarray
    actual_wins: Mapping[str, float]

    @property
    def teams(self) -> tuple[str, ...]:
        return self.games.teams

    @cached_property
    def entries(self) -> tuple[ScheduleEntry, ...]:
        """The games as ScheduleEntry rows, read back from the columns on first use."""
        team = self.teams.__getitem__
        home, away = map(team, self.games.home.tolist()), map(team, self.games.away.tolist())
        return tuple(map(ScheduleEntry, home, away, self.home_win_prob.tolist()))


def build_schedule(dataset: Dataset, season: int, model: WinModel) -> SeasonSchedule:
    """Assemble the season's regular-season schedule under the given model.

    The home win probability comes from the signed closing line in the
    home frame (a pick-em gives 0.5). Teams with a game count other than
    16 trigger an IncompleteScheduleWarning, not a failure.
    """
    table = dataset.table
    games = table.take((table.season == season) & (table.week <= REGULAR_SEASON_MAX_WEEK))
    if not len(games):
        raise MissingSeasonError(season)
    played, sides = np.unique(np.append(games.home, games.away), return_inverse=True)
    teams = tuple(table.teams[i] for i in played.tolist())
    games = replace(games, home=sides[: len(games)], away=sides[len(games) :], teams=teams)
    probs = np.array([win_probability(model, line) for line in games.line_close.tolist()], dtype=np.float64)
    counts = np.bincount(sides)
    short = [teams[i] for i in np.flatnonzero(counts != GAMES_PER_TEAM).tolist()]
    if short:
        warnings.warn(
            f"season {season}: teams with a schedule other than {GAMES_PER_TEAM} games: {short}",
            IncompleteScheduleWarning,
            stacklevel=2,
        )
    return SeasonSchedule(season, games, probs, dict(zip(teams, _wins(games).tolist())))


def _wins(games: GameTable) -> np.ndarray:
    """Straight-up wins of each of ``games.teams``: one a win, half each a tie."""
    home_share = (np.sign(games.home_margin) + 1) * 0.5
    n = len(games.teams)
    return np.bincount(games.home, home_share, n) + np.bincount(games.away, 1.0 - home_share, n)


@dataclass(frozen=True)
class SimulationResult:
    replications: int
    seed: int
    teams: tuple[str, ...]
    mean_wins: Mapping[str, float]
    predicted_wins: Mapping[str, int]
    win_samples: np.ndarray | None = None  # (replications, teams) when retained


def simulate(
    schedule: SeasonSchedule,
    replications: int,
    seed: int,
    workers: int = 1,
    keep_samples: bool = False,
) -> SimulationResult:
    """Simulate the season ``replications`` times and average the win counts.

    Each game resolves independently as a home win with its scheduled
    probability, one uniform draw per (replication, game), laid out as the
    module docstring says (``STREAM_LAYOUT``): one Philox key per block of
    ``SIM_BLOCK`` replications, whose raw words meet exact integer limits.
    Predicted wins are the per-team means rounded half-up. ``seed`` must be
    in [0, 2**64), and every ``home_win_prob`` in [0, 1]: any other raises
    ValueError before a draw. ``workers`` is accepted for compatibility and
    has no effect.
    """
    if replications < 1:
        raise ValueError(f"replications must be at least 1, got {replications}")
    seed64 = int(seed)
    if not 0 <= seed64 < 2**64:  # a wider seed would alias one inside the range
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    probs = schedule.home_win_prob
    bad = np.flatnonzero(~((probs >= 0.0) & (probs <= 1.0)))  # nan fails both
    if bad.size:
        g = int(bad[0])
        season, _, home, away = schedule.games.key(g)
        raise ValueError(
            f"game {g} ({away} at {home}, season {season}): home_win_prob must be in [0, 1], got {probs[g].item()}"
        )
    # Generator.random() maps word w to (w >> 11) * 2**-53, so its draw is below p
    # exactly when w < ceil(p * 2**53) << 11; p = 1 would need 2**64, past a uint64,
    # so those games are made home wins apart
    limits = np.ceil(probs * 2.0**53).astype(np.uint64) << 11
    certain = np.flatnonzero(probs == 1.0)
    teams = schedule.teams
    home_idx, away_idx = schedule.games.home, schedule.games.away
    n_teams = len(teams)
    # wins = home_win @ incidence (+1 home, -1 away) + away games
    eye = np.eye(n_teams, dtype=np.int64)
    incidence = eye[home_idx] - eye[away_idx]
    away_games = np.bincount(away_idx, minlength=n_teams)
    home_counts = np.zeros(len(probs), dtype=np.int64)  # home wins per game, over all replications
    samples = np.empty((replications, n_teams), dtype=np.int64) if keep_samples else None
    for block, start in enumerate(range(0, replications, SIM_BLOCK)):
        rows = min(SIM_BLOCK, replications - start)
        # a uint64 key, as a list would pass seeds >= 2**63 through float64
        key = np.array([seed64, block], dtype=np.uint64)
        words = np.random.Philox(key=key).random_raw(rows * len(probs)).reshape(rows, len(probs))
        home_win = words < limits
        del words  # freed before the next block draws its own
        if certain.size:
            home_win[:, certain] = True
        home_counts += home_win.view(np.uint8).sum(axis=0, dtype=np.uint16)  # SIM_BLOCK < 2**16
        if samples is not None:  # float32 sums of +-1 are exact, and faster than bool @ float32
            wins = home_win.astype(np.float32) @ incidence.astype(np.float32)
            samples[start : start + rows] = wins.astype(np.int64) + away_games
    totals = home_counts @ incidence + replications * away_games
    mean = totals / replications
    mean_wins = {t: float(mean[i]) for i, t in enumerate(teams)}
    predicted = {t: int(math.floor(mean[i] + 0.5)) for i, t in enumerate(teams)}
    return SimulationResult(replications, seed64, teams, mean_wins, predicted, samples)


@dataclass(frozen=True)
class DivisionPrediction:
    conference: str
    division: str
    predicted_winner: str
    actual_winner: str
    tied_set: frozenset[str]
    correct: bool
    actual_tie: bool


def predict_division_winners(
    result: SimulationResult,
    schedule: SeasonSchedule,
    divisions: DivisionMap,
) -> list[DivisionPrediction]:
    """Pick each division's predicted winner and compare to the actual one.

    A tie in predicted wins counts as correct whenever the actual winner
    is in the tied set; the predicted winner is then reported as the
    actual winner (lexicographically first otherwise). Actual ties break
    by head-to-head record, then lexicographically, with a flag set.
    """
    for team in result.teams:
        if team not in divisions:
            raise UnknownTeamError(team)
    predictions = []
    for conf, div, cell_teams in divisions.cells():
        present = [t for t in cell_teams if t in result.predicted_wins]
        if not present:
            continue
        best = max(result.predicted_wins[t] for t in present)
        tied = frozenset(t for t in present if result.predicted_wins[t] == best)
        actual_winner, actual_tie = _actual_division_winner(present, schedule)
        if len(tied) == 1:
            predicted_winner = next(iter(tied))
            correct = predicted_winner == actual_winner
        else:
            correct = actual_winner in tied
            predicted_winner = actual_winner if correct else min(tied)
        predictions.append(
            DivisionPrediction(conf, div, predicted_winner, actual_winner, tied, correct, actual_tie)
        )
    return predictions


def _actual_division_winner(teams: Sequence[str], schedule: SeasonSchedule) -> tuple[str, bool]:
    best = max(schedule.actual_wins.get(t, 0.0) for t in teams)
    leaders = sorted(t for t in teams if schedule.actual_wins.get(t, 0.0) == best)
    if len(leaders) == 1:
        return leaders[0], False
    # head-to-head among the leaders, half a win each for a tie game
    games = schedule.games
    group = np.array([t in leaders for t in games.teams], dtype=bool)
    h2h = dict(zip(games.teams, _wins(games.take(group[games.home] & group[games.away])).tolist()))
    top = max(h2h.get(t, 0.0) for t in leaders)
    return min(t for t in leaders if h2h.get(t, 0.0) == top), True


def score_predictions(predictions: Sequence[DivisionPrediction]) -> tuple[int, int]:
    """(correct, total) over a list of division predictions."""
    return sum(1 for p in predictions if p.correct), len(predictions)


def simulation_to_csv(
    result: SimulationResult,
    schedule: SeasonSchedule,
    divisions: DivisionMap,
    predictions: Sequence[DivisionPrediction],
) -> str:
    """Serialize a simulation as one row per team, grouped by division.

    Columns: team, conference, division, predicted_wins, mean_wins,
    actual_wins (floored for reporting), outcome. The outcome column
    marks the actual division winner, as ``predictions`` (from
    ``predict_division_winners``) name it.
    """
    winners = {(p.conference, p.division): p.actual_winner for p in predictions}
    rows = []
    for team in result.teams:
        conf = divisions.conference_of(team)
        div = divisions.division_of(team)
        rows.append(
            (
                conf,
                div,
                -result.predicted_wins[team],
                -schedule.actual_wins.get(team, 0.0),
                team,
            )
        )
    rows.sort()
    lines = ["team,conference,division,predicted_wins,mean_wins,actual_wins,outcome"]
    for conf, div, neg_pred, neg_actual, team in rows:
        outcome = "Division Winner" if winners.get((conf, div)) == team else ""
        lines.append(
            f"{team},{conf},{div},{-neg_pred},{result.mean_wins[team]:.3f},"
            f"{int(math.floor(-neg_actual))},{outcome}"
        )
    return "\n".join(lines) + "\n"
