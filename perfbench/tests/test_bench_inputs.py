"""The history-26k input generator: deterministic and accepted by the library."""

from pathlib import Path

import inputs
from nfl_lines.dataset import load_dataset

DIVISIONS = Path(__file__).resolve().parents[2] / "data" / "divisions.csv"


def test_same_seed_same_bytes_and_other_seed_differs():
    teams = inputs.read_teams(DIVISIONS)
    first = inputs.history_csv(7, teams)
    assert inputs.history_csv(7, teams) == first
    assert inputs.history_csv(8, teams) != first


def test_load_dataset_accepts_the_file(tmp_path):
    path = tmp_path / "history.csv"
    path.write_bytes(inputs.history_csv(3, inputs.read_teams(DIVISIONS)))
    ds = load_dataset(path, DIVISIONS)
    assert len(ds) == 26_200
    regular = ds.filter(regular_season_only=True)
    assert len(regular) == 25_600
    assert len(ds.seasons()) == 100
    assert any(g.line_close == 0 for g in regular)
    assert any(g.home_score == g.away_score for g in regular)
