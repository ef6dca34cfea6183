"""Tour of the per-game and aggregate line-accuracy metrics.

Walks the bundled fixture seasons through margin of victory, line
difference, the favorite's against-the-spread partition, the home-record
table, and line-movement summaries.
"""

from pathlib import Path

from nfl_lines.dataset import load_dataset
from nfl_lines.metrics import (
    favorite_ats_summary,
    favorite_signs,
    home_record_table,
    line_difference,
    movement_cumulative_counts,
    movement_fraction_by_week,
    mov,
    pick_em_count,
)

DATA = Path(__file__).resolve().parents[1] / "data"

ds = load_dataset(DATA / "fixtures" / "games.csv", DATA / "divisions.csv")
ds = ds.filter(regular_season_only=True)
print(f"{len(ds)} regular-season games across seasons {ds.seasons()}\n")

# one game end to end: its record, and its row of the column table
g = ds.games[1]
(settled,) = favorite_signs(ds.table.take(slice(1, 2)))  # +1 cover, 0 push, -1 no cover
print(f"sample game: {g.away} at {g.home}, final {g.home_score}-{g.away_score}, close {g.line_close:+g}")
print(f"  favorite: {g.home if g.line_close > 0 else g.away} laying {abs(g.line_close):g}")
print(f"  margin of victory: {mov(g)}")
print(f"  line difference (favorite margin minus spread): {line_difference(g):+g}")
print(f"  favorite bet settles: {('push', 'cover', 'no_cover')[settled]}\n")

# how often the closing-line favorite actually delivered
part = favorite_ats_summary(ds)
print("favorite results against the spread:")
print(f"  covered:              {part.covers}")
print(f"  won but not covered:  {part.wins_no_cover}")
print(f"  lost straight up:     {part.losses}")
print(f"  pushed:               {part.pushes}")
print(f"  (pick-ems excluded:   {pick_em_count(ds)})\n")

# the home team's record, split by its role in the line
table = home_record_table(ds)
print("home team against the spread (W-L, win ratio):")
print("  season   favorites      underdogs      pick-ems       all home")
for season, row in table.by_season.items():
    cells = (row.favorites, row.underdogs, row.pick_ems, row.all_home)
    print(f"  {season}  " + "  ".join(f"{c.wins:>3}-{c.losses:<3} {c.win_ratio:.3f}" for c in cells))
row = table.total
cells = (row.favorites, row.underdogs, row.pick_ems, row.all_home)
print("  total " + "  ".join(f"{c.wins:>4}-{c.losses:<4}{c.win_ratio:.3f}" for c in cells))

# open-to-close movement is usually small
print("\nline movement:")
counts = movement_cumulative_counts(ds, thresholds=(0.5, 1.0, 2.0))
for t, c in counts.items():
    print(f"  moved at most {t:g} points: {c}/{len(ds)} games")
weekly = movement_fraction_by_week(ds, 1.0)
print(
    f"  moved 1+ points: {weekly.overall:.1%} of games overall "
    f"(weekly mean {weekly.week_mean:.3f}, std {weekly.week_std:.3f})"
)
