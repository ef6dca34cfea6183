"""Seeded benchmark inputs, built without any nfl_lines type.

The history file follows the recipe of the bundled fixture: a 32-team
circle-method round robin of 16 weeks, half-point closing lines around a
team-strength difference plus home edge, Gaussian line error with
sigma 13.588, small open-to-close moves, and six postseason rows per
season. Each season pins one straight-up tie and one pick-em so the
half-win and no-favorite paths always run. Only numpy and the standard
library are used, so a refactor of the library's record types cannot
change the bytes a seed produces.
"""

from __future__ import annotations

import csv
import io
from datetime import date, timedelta
from pathlib import Path

import numpy as np

COLUMNS = (
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

LINE_ERROR_STD = 13.588
HOME_EDGE = 2.5
WEEKS = 16
HISTORY_SEASONS = 100
LAST_SEASON = 2011
MOVE_VALUES = np.array([-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0])
MOVE_WEIGHTS = np.array([0.01, 0.02, 0.08, 0.21, 0.36, 0.21, 0.08, 0.02, 0.01])
TIE_GAME = 37  # index within the season's regular-season games
PICK_EM_GAME = 11
# (week, home rank, away rank) by team strength, as in the fixture
POSTSEASON = ((18, 0, 7), (18, 1, 6), (18, 2, 5), (18, 3, 4), (19, 0, 3), (19, 1, 2))


def read_teams(divisions_csv: Path) -> list[str]:
    """Sorted team codes from a team,conference,division CSV."""
    with open(divisions_csv, newline="", encoding="utf-8") as fh:
        return sorted(row["team"].strip() for row in csv.DictReader(fh))


def round_robin(n_teams: int, rounds: int) -> np.ndarray:
    """Circle-method pairings as a (rounds, n_teams // 2, 2) index array."""
    rest = list(range(1, n_teams))
    n = len(rest)
    out = []
    for r in range(rounds):
        rot = rest[r:] + rest[:r]
        pairs = [(0, rot[0])] + [(rot[i], rot[n - i]) for i in range(1, n_teams // 2)]
        out.append(pairs)
    return np.array(out)


def _half_point(x: np.ndarray) -> np.ndarray:
    return np.round(x * 2.0) / 2.0


def _spread_text(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else f"{value:.1f}"


def _scores(margin: np.ndarray, loser: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    home = np.where(margin >= 0, loser + margin, loser)
    away = np.where(margin >= 0, loser, loser - margin)
    return home, away


def _season_rows(season: int, teams: list[str], rng: np.random.Generator) -> list[tuple]:
    n_teams = len(teams)
    strength = rng.normal(0.0, 4.0, n_teams)
    pairs = round_robin(n_teams, WEEKS).reshape(-1, 2)
    n_games = len(pairs)
    swap = rng.random(n_games) < 0.5
    home = np.where(swap, pairs[:, 1], pairs[:, 0])
    away = np.where(swap, pairs[:, 0], pairs[:, 1])
    true_diff = strength[home] - strength[away] + HOME_EDGE
    close = _half_point(np.clip(true_diff + rng.normal(0.0, 1.0, n_games), -16.0, 16.0))
    move = rng.choice(MOVE_VALUES, p=MOVE_WEIGHTS, size=n_games)
    open_ = _half_point(np.clip(close - move, -16.0, 16.0))
    close[PICK_EM_GAME] = 0.0
    margin = np.round(rng.normal(close, LINE_ERROR_STD)).astype(int)
    redraw = np.round(rng.normal(close, LINE_ERROR_STD)).astype(int)
    margin = np.where(margin == 0, redraw, margin)  # ties should be rare
    margin[TIE_GAME] = 0
    home_score, away_score = _scores(margin, rng.integers(6, 28, n_games))

    opener = date(season, 9, 8)
    week = np.repeat(np.arange(1, WEEKS + 1), n_teams // 2)
    rows = [
        (season, int(w), (opener + timedelta(weeks=int(w) - 1)).isoformat(), teams[h], teams[a],
         int(hs), int(as_), _spread_text(o), _spread_text(c))
        for w, h, a, hs, as_, o, c in zip(week, home, away, home_score, away_score, open_, close)
    ]

    ranked = np.argsort(-strength, kind="stable")
    post_home = ranked[[h for _, h, _ in POSTSEASON]]
    post_away = ranked[[a for _, _, a in POSTSEASON]]
    line = _half_point(strength[post_home] - strength[post_away] + HOME_EDGE)
    post_margin = np.round(rng.normal(line, LINE_ERROR_STD)).astype(int)
    post_margin = np.where(post_margin == 0, 3, post_margin)
    post_home_score, post_away_score = _scores(post_margin, rng.integers(6, 28, len(POSTSEASON)))
    january = date(season + 1, 1, 4)
    for i, (w, _, _) in enumerate(POSTSEASON):
        when = january + timedelta(weeks=w - 18)
        text = _spread_text(line[i])
        rows.append(
            (season, w, when.isoformat(), teams[post_home[i]], teams[post_away[i]],
             int(post_home_score[i]), int(post_away_score[i]), text, text)
        )
    return rows


def history_csv(seed: int, teams: list[str]) -> bytes:
    """The games CSV of the synthetic seasons ending in 2011, as bytes."""
    rng = np.random.default_rng(seed)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    for season in range(LAST_SEASON - HISTORY_SEASONS + 1, LAST_SEASON + 1):
        writer.writerows(_season_rows(season, teams, rng))
    return buf.getvalue().encode("utf-8")
