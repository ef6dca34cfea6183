"""Fit and exercise the Gaussian line-error model.

The closing spread is a noisy, roughly unbiased forecast of the final
margin. Treating that error as Normal(0, sigma) turns any spread into a
straight-up win probability, which multiplies across games and folds into
an exact distribution over season win totals.
"""

from pathlib import Path

from nfl_lines.dataset import load_dataset
from nfl_lines.metrics import histogram, line_difference
from nfl_lines.prob_model import (
    WinModel,
    empirical_win_rate,
    parlay_probability,
    poisson_binomial,
    win_probability,
)
from nfl_lines.render import histogram_svg
from nfl_lines.stats import chi_square_gof, moments

REPO = Path(__file__).resolve().parents[1]
DATA = REPO / "data"

ds = load_dataset(DATA / "fixtures" / "games.csv", DATA / "divisions.csv")
ds = ds.filter(regular_season_only=True)

# how wrong is the closing line, and is the error Gaussian?
ld = line_difference(ds.table)
m = moments(ld)
print(f"line error over {m.n} games: mean {m.mean:+.3f}, std {m.std_dev:.3f}")
gof = chi_square_gof(ld, sigma=13.588)
verdict = "rejected" if gof.reject_at_05 else "not rejected"
print(
    f"chi-squared vs Normal(0, 13.588): statistic {gof.statistic:.1f} on "
    f"{gof.degrees_of_freedom} dof, critical {gof.critical_value:.1f} -> normality {verdict}\n"
)

# spread -> win probability
model = WinModel()
print("favorite win probability by spread (model vs fixture data):")
for spread in (1.0, 3.0, 5.0, 7.0):
    modeled = win_probability(model, spread)
    try:
        observed = empirical_win_rate(ds, spread)
        actual = f"{observed.rate:.3f} over {observed.n} games"
    except Exception:
        actual = "no games at this spread"
    print(f"  {spread:>4g}: model {modeled:.3f}, actual {actual}")

# multi-game products and season win totals
print(f"\nwinning both a 7-point and a 4-point favorite: {parlay_probability(model, [7, 4]):.3f}")
probs = [win_probability(model, s) for s in (7, 4, -3, 2.5, 0, 6, -1, 3, 9.5, -4, 1, 5, -2.5, 3.5, 7, -6)]
dist = poisson_binomial(probs)
print(f"a 16-game slate with those spreads averages {dist.mean():.2f} wins:")
for k, p in dist.as_dict().items():
    bar = "#" * round(p * 120)
    print(f"  {k:>2} wins  {p:6.3f} {bar}")

# the line-error histogram as a standalone SVG
out = REPO / "ld_histogram.svg"
out.write_text(histogram_svg(histogram(ld, 1.0, origin=-0.5), title="line error, 1-point bins"))
print(f"\nwrote {out.name}")
