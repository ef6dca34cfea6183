import os
from datetime import date
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import strategies as st

from nfl_lines.dataset import Dataset, GameRecord, GameSide, load_dataset, load_divisions
from nfl_lines.metrics import AtsOutcome, UnresolvableSideError, line_difference

REPO = Path(__file__).resolve().parents[1]
DATA = REPO / "data"
FIXTURE_GAMES = DATA / "fixtures" / "games.csv"
DIVISIONS = DATA / "divisions.csv"

# Golden tests against the real 2002-2011 history run only when the caller
# points at a local copy of it; the bundled fixture seasons are synthetic.
REAL_GAMES = os.environ.get("NFL_LINES_REAL_GAMES", "")


@pytest.fixture(scope="session")
def divisions():
    return load_divisions(DIVISIONS)


@pytest.fixture(scope="session")
def fixture_dataset():
    """Both synthetic seasons, postseason rows included."""
    return load_dataset(FIXTURE_GAMES, DIVISIONS)


@pytest.fixture(scope="session")
def regular_dataset(fixture_dataset):
    return fixture_dataset.filter(regular_season_only=True)


@pytest.fixture
def no_records(monkeypatch):
    """Make building any GameRecord, checked or not, raise."""
    import nfl_lines.dataset

    def no_record(*args):
        raise AssertionError("a GameRecord was built")

    monkeypatch.setattr(nfl_lines.dataset, "_checked_record", no_record)
    monkeypatch.setattr(GameRecord, "__post_init__", no_record)


def make_game(
    season=2002,
    week=1,
    home="NYJ",
    away="NE",
    home_score=14,
    away_score=38,
    line_open=-6.0,
    line_close=-7.0,
    day=None,
):
    return GameRecord(
        season,
        week,
        day or date(season, 9, 8),
        home,
        away,
        home_score,
        away_score,
        line_open,
        line_close,
    )


def make_dataset(games, divisions):
    return Dataset(tuple(games), divisions, provenance="test")


# -- record oracles: the per-game forms of the column settlement -------------


class FavoriteInfo(NamedTuple):
    favorite: str
    underdog: str
    spread: float


def favorite_of(game):
    """Resolve the closing-line favorite, or ``None`` on a pick-em."""
    if game.line_close > 0:
        return FavoriteInfo(game.home, game.away, game.line_close)
    if game.line_close < 0:
        return FavoriteInfo(game.away, game.home, -game.line_close)
    return None


MIRROR = {
    AtsOutcome.COVER: AtsOutcome.NO_COVER,
    AtsOutcome.NO_COVER: AtsOutcome.COVER,
    AtsOutcome.PUSH: AtsOutcome.PUSH,
}


def ats_outcome(game, side):
    """Settle a bet on ``side`` of one game against the closing spread.

    Home/Away resolve on any game (a pick-em home bet wins iff the home
    team wins straight up). Favorite/Underdog require a non-zero line.
    """
    if side in (GameSide.FAVORITE, GameSide.UNDERDOG):
        if game.line_close == 0:
            raise UnresolvableSideError(f"no favorite on pick-em game {game.key}")
        ld = line_difference(game)
        fav = AtsOutcome.COVER if ld > 0 else AtsOutcome.PUSH if ld == 0 else AtsOutcome.NO_COVER
        return fav if side is GameSide.FAVORITE else MIRROR[fav]
    # home covers iff it beats the spread from its own frame
    d = (game.home_score - game.away_score) - game.line_close
    home = AtsOutcome.COVER if d > 0 else AtsOutcome.PUSH if d == 0 else AtsOutcome.NO_COVER
    return home if side is GameSide.HOME else MIRROR[home]


# -- hypothesis strategies ---------------------------------------------------

TEAM_CODES = (
    "ARI ATL BAL BUF CAR CHI CIN CLE DAL DEN DET GB HOU IND JAX KC MIA MIN NE "
    "NO NYG NYJ OAK PHI PIT SD SEA SF STL TB TEN WAS"
).split()

half_points = st.integers(-40, 40).map(lambda k: k / 2.0)
scores = st.integers(0, 70)


@st.composite
def game_records(draw):
    home, away = draw(
        st.tuples(st.sampled_from(TEAM_CODES), st.sampled_from(TEAM_CODES)).filter(
            lambda pair: pair[0] != pair[1]
        )
    )
    return make_game(
        season=draw(st.integers(2002, 2011)),
        week=draw(st.integers(1, 21)),
        home=home,
        away=away,
        home_score=draw(scores),
        away_score=draw(scores),
        line_open=draw(half_points),
        line_close=draw(half_points),
    )
