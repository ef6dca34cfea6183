"""Simulate a season from its closing lines and grade division predictions.

Every game becomes a Bernoulli draw at the model's home win probability;
1000 replications of the season average into predicted win totals, and the
per-division leaders are compared against what actually happened. Ties in
predicted wins count as correct when the actual winner is among the tied
teams.
"""

from pathlib import Path

from nfl_lines.dataset import load_dataset
from nfl_lines.prob_model import WinModel
from nfl_lines.simulator import (
    build_schedule,
    predict_division_winners,
    score_predictions,
    simulate,
    simulation_to_csv,
)

REPO = Path(__file__).resolve().parents[1]
DATA = REPO / "data"
SEASON = 2002

ds = load_dataset(DATA / "fixtures" / "games.csv", DATA / "divisions.csv")
schedule = build_schedule(ds, SEASON, WinModel())
print(f"season {SEASON}: {len(schedule.games)} games, {len(schedule.teams)} teams")

result = simulate(schedule, replications=1000, seed=2002)
predictions = predict_division_winners(result, schedule, ds.divisions)
correct, total = score_predictions(predictions)
print(f"division winners predicted correctly: {correct}/{total}\n")

for p in predictions:
    mark = "ok " if p.correct else "MISS"
    tie = " (predicted tie)" if len(p.tied_set) > 1 else ""
    print(
        f"  {mark} {p.conference} {p.division:<6} predicted {p.predicted_winner:<4}"
        f" actual {p.actual_winner}{tie}"
    )

print("\nper-team table (first division shown):")
csv_text = simulation_to_csv(result, schedule, ds.divisions, predictions)
for line in csv_text.splitlines()[:5]:
    print(f"  {line}")

out = REPO / f"simulation_{SEASON}.csv"
out.write_text(csv_text)
print(f"\nwrote {out.name}; rerunning with the same seed reproduces it byte for byte")
