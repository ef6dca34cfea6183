"""Command-line front end: reproducible reports, CSV exports, and SVG charts.

Exit codes: 0 success, 1 runtime/data error (bad rows, missing seasons),
2 usage error (unknown flags, bad ranges). Data goes to stdout or --out;
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .backtest import (
    ALL_UNDERDOGS,
    BUILTIN_STRATEGIES,
    break_even_ratio,
    compare_to_breakeven,
    run_strategy,
)
from .dataset import Dataset, GameTable, load_dataset
from .metrics import (
    favorite_ats_summary,
    favorite_signs,
    histogram,
    line_difference,
    line_movement,
    movement_cumulative_counts,
    movement_fraction_by_week,
    pick_em_count,
)
from .prob_model import DEFAULT_SIGMA, WinModel
from .render import histogram_svg
from .simulator import (
    build_schedule,
    predict_division_winners,
    score_predictions,
    simulate,
    simulation_to_csv,
)
from .stats import chi_square_gof, moments, proportion_z

ENV_DATA_DIR = "NFL_LINES_DATA"

#: Published 2002-2011 values printed next to computed numbers where a
#: golden comparison exists.
REFERENCE_2002_2011 = {
    "games": 2560,
    "ld_mean": -0.009,
    "ld_std": 13.588,
    "home_su_rate": 0.57,
    "favorite_partition": (1194, 412, 853, 101),
    "home_underdog_ratio": 0.535,
    "break_even": 0.5238,
}


class UsageError(Exception):
    pass


def _parse_season_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
        else:
            lo = hi = int(text)
    except ValueError:
        raise UsageError(f"bad season range {text!r}; expected YYYY or YYYY..YYYY") from None
    if lo > hi:
        raise UsageError(f"empty season range {text!r}")
    return lo, hi


def _emit(data: str, args: argparse.Namespace, default_name: str) -> None:
    """Write the data stream to --out, into --output-dir, or to stdout."""
    if args.out:
        path = Path(args.out)
        if args.output_dir and not path.is_absolute():
            path = Path(args.output_dir) / path
    elif args.output_dir:
        path = Path(args.output_dir) / default_name
    else:
        sys.stdout.write(data)
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(data, encoding="utf-8", newline="")
    print(f"wrote {path}", file=sys.stderr)


def cmd_ingest_check(ds: Dataset, args: argparse.Namespace) -> int:
    lines = [f"games: {len(ds)}", f"teams: {len(ds.divisions.teams)}", "divisions: 8x4 ok"]
    for season in ds.seasons():
        lines.append(f"  season {season}: {len(ds.season_rows(season))} games")
    _emit("\n".join(lines) + "\n", args, "ingest_check.txt")
    return 0


def cmd_summary(ds: Dataset, args: argparse.Namespace) -> int:
    ref = REFERENCE_2002_2011
    lines = [f"games: {len(ds)} (reference 2002-2011: {ref['games']})"]
    for season in ds.seasons():
        lines.append(f"  season {season}: {len(ds.season_rows(season))}")
    if len(ds):
        margin = ds.table.home_margin
        su_home, su_decided = int(np.count_nonzero(margin > 0)), int(np.count_nonzero(margin))
        rate = su_home / su_decided if su_decided else 0.0
        lines.append(
            f"home straight-up win rate: {rate:.3f} (reference 2002-2011: {ref['home_su_rate']:.2f})"
        )
        part = favorite_ats_summary(ds)
        lines.append(
            "favorite ATS partition (cover/win-no-cover/loss/push): "
            f"{part.covers}/{part.wins_no_cover}/{part.losses}/{part.pushes} "
            f"+ {pick_em_count(ds)} pick-ems "
            f"(reference 2002-2011: {'/'.join(str(v) for v in ref['favorite_partition'])})"
        )
    ld = line_difference(ds.table)
    if len(ld) >= 2:
        m = moments(ld)
        lines.append(
            f"line difference: mean {m.mean:.3f}, std {m.std_dev:.3f}, n {m.n} "
            f"(reference 2002-2011: mean {ref['ld_mean']}, std {ref['ld_std']})"
        )
    else:
        lines.append("line difference: n/a (fewer than 2 games)")
    _emit("\n".join(lines) + "\n", args, "summary.txt")
    return 0


#: hist --metric name -> (value of every game, default bin width)
_HIST_METRICS: dict[str, tuple[Callable[[GameTable], np.ndarray], float]] = {
    "closing-line": (lambda table: table.line_close, 0.5),
    "ld": (line_difference, 1.0),
    "movement": (line_movement, 0.5),
}


def cmd_hist(ds: Dataset, args: argparse.Namespace) -> int:
    metric = args.metric
    value_of, default_width = _HIST_METRICS[metric]
    width = args.bin_width if args.bin_width is not None else default_width
    # origin at -width/2 puts bin centers on multiples of the width
    hist = histogram(value_of(ds.table), width, origin=-width / 2)
    if args.format == "svg":
        _emit(histogram_svg(hist, title=metric), args, f"hist_{metric}.svg")
    else:
        _emit(hist.to_csv(), args, f"hist_{metric}.csv")
    return 0


def cmd_gof(ds: Dataset, args: argparse.Namespace) -> int:
    values = line_difference(ds.table)
    result = chi_square_gof(values, sigma=args.sigma, bin_width=args.bin_width, min_expected=args.min_expected)
    verdict = "rejected" if result.reject_at_05 else "not rejected"
    lines = [
        f"chi-squared GOF of line difference vs Normal(0, {args.sigma:g})",
        f"n: {len(values)}",
        f"statistic: {result.statistic:.3f}",
        f"degrees of freedom: {result.degrees_of_freedom} ({result.bins_used} bins)",
        f"critical value (alpha=0.05): {result.critical_value:.3f}",
        f"normality {verdict} at alpha=0.05",
    ]
    _emit("\n".join(lines) + "\n", args, "gof.txt")
    return 0


def cmd_simulate(ds: Dataset, args: argparse.Namespace) -> int:
    schedule = build_schedule(ds, args.season, WinModel(sigma=args.sigma))
    result = simulate(schedule, args.replications, args.seed, workers=args.workers)
    predictions = predict_division_winners(result, schedule, ds.divisions)
    correct, total = score_predictions(predictions)
    _emit(simulation_to_csv(result, schedule, ds.divisions, predictions), args, f"simulate_{args.season}.csv")
    print(f"division winners predicted: {correct}/{total}", file=sys.stderr)
    return 0


def cmd_predict_divisions(ds: Dataset, args: argparse.Namespace) -> int:
    model = WinModel(sigma=args.sigma)
    lines = ["season,correct,total"]
    grand_correct = grand_total = 0
    for season in ds.seasons():
        schedule = build_schedule(ds, season, model)
        result = simulate(schedule, args.replications, args.seed, workers=args.workers)
        correct, total = score_predictions(predict_division_winners(result, schedule, ds.divisions))
        grand_correct += correct
        grand_total += total
        lines.append(f"{season},{correct},{total}")
    lines.append(f"all,{grand_correct},{grand_total}")
    _emit("\n".join(lines) + "\n", args, "predict_divisions.csv")
    return 0


def cmd_backtest(ds: Dataset, args: argparse.Namespace) -> int:
    strategy = BUILTIN_STRATEGIES[args.strategy]
    ledger = run_strategy(ds, strategy, stake=args.stake, win_payout=args.payout, line=args.line)
    break_even = break_even_ratio(args.payout, args.stake)
    ref = REFERENCE_2002_2011
    lines = [
        f"strategy: {strategy.name} ({args.line} line)",
        f"bets: {len(ledger.bets)} (W {ledger.wins} / L {ledger.losses} / P {ledger.pushes})",
        f"win ratio: {ledger.win_ratio:.4f}",
        f"profit: {ledger.profit:g} (stake {args.stake:g} to win {args.payout:g})",
        f"break-even ratio: {break_even:.4f} "
        f"(reference: {ref['break_even']:.4f} at 110/100)",
    ]
    if ledger.wins + ledger.losses > 0:
        comparison = compare_to_breakeven(ledger, stake=args.stake, win_payout=args.payout)
        status = "profitable" if comparison.profitable else "not profitable"
        lines.append(f"margin vs break-even: {comparison.margin:+.4f} ({status})")
        z_even = proportion_z(ledger.wins, ledger.losses, 0.5)
        z_vig = (  # e.g. at stake 110, payout 1e-15 the break-even ratio rounds to 1.0
            f"{proportion_z(ledger.wins, ledger.losses, break_even).z:+.3f}" if 0 < break_even < 1
            else f"undefined (the ratio rounds to {break_even:g})"
        )
        lines.append(f"z vs 0.5: {z_even.z:+.3f}; z vs break-even: {z_vig}")
    if strategy.name == "home-underdog":
        lines.append(f"reference 2002-2011 home-underdog ratio: {ref['home_underdog_ratio']:.3f}")
    # seasons with no decided bet are left out, as in yearly_cover_series
    for season, summary in ledger.per_season.items():
        if summary.wins + summary.losses > 0:
            lines.append(f"  {season}: {summary.wins}-{summary.losses} ({summary.win_ratio:.3f})")
    if ledger.wins + ledger.losses > 0:
        mirror = _mirror_check(ds, args)
        if mirror is not None:
            lines.append(f"favorite/underdog mirror check: {'ok' if mirror else 'FAILED'}")
    _emit("\n".join(lines) + "\n", args, f"backtest_{strategy.name}.txt")
    return 0


def _mirror_check(ds: Dataset, args: argparse.Namespace) -> bool | None:
    """Favorite wins must equal underdog losses on the same games, and vice versa.

    The underdog side is settled on its own, by the backtest, and the
    favorite side by the metrics.
    """
    favorite = favorite_signs(ds.table.on_line(args.line))
    if not favorite.size:
        return None
    underdog = run_strategy(ds, ALL_UNDERDOGS, line=args.line)
    mirrored = tuple(np.count_nonzero(favorite == s) for s in (-1, 1, 0))  # the favorite's L/W/P
    return (underdog.wins, underdog.losses, underdog.pushes) == mirrored


def cmd_movement(ds: Dataset, args: argparse.Namespace) -> int:
    lines = []
    for threshold in (1.0, 2.0):
        weekly = movement_fraction_by_week(ds, threshold)
        lines.append(
            f"movement >= {threshold:g}: overall {weekly.overall:.3f}, "
            f"weekly mean {weekly.week_mean:.3f}, weekly std {weekly.week_std:.3f}"
        )
        for week, fraction in weekly.by_week.items():
            lines.append(f"  week {week}: {fraction:.3f}")
    counts = movement_cumulative_counts(ds, thresholds=(0.5, 1.0, 1.5, 2.0))
    for t, c in counts.items():
        lines.append(f"movement <= {t:g}: {c} games")
    _emit("\n".join(lines) + "\n", args, "movement.txt")
    return 0


def _add_simulation_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--replications", type=int, default=1000)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--workers", type=int, default=1, help="accepted for compatibility; no effect")
    sub.add_argument("--sigma", type=float, default=DEFAULT_SIGMA)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfl-lines",
        description="Point-spread analytics: line metrics, win-probability model, "
        "season simulation, and betting backtests.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func: Callable, help: str) -> argparse.ArgumentParser:
        """A subcommand with the data and output flags every command shares."""
        sub = subs.add_parser(name, help=help)
        sub.add_argument("--games", help=f"games CSV (default ${ENV_DATA_DIR}/games.csv)")
        sub.add_argument("--divisions", help=f"divisions CSV (default ${ENV_DATA_DIR}/divisions.csv)")
        sub.add_argument("--seasons", help="season or range, e.g. 2007 or 2002..2011")
        sub.add_argument("--include-postseason", action="store_true", help="keep weeks above 17")
        sub.add_argument("--out", help="write output to this file instead of stdout")
        sub.add_argument("--output-dir", help="directory for derived artifacts")
        sub.set_defaults(func=func)
        return sub

    command("ingest-check", cmd_ingest_check, "parse and validate the input files")
    command("summary", cmd_summary, "dataset counts, win rates, line-error moments")

    p = command("hist", cmd_hist, "histogram of a per-game metric (CSV or SVG)")
    p.add_argument("--metric", choices=tuple(_HIST_METRICS), required=True)
    p.add_argument("--bin-width", type=float, default=None)
    p.add_argument("--format", choices=("csv", "svg"), default="csv")

    p = command("gof", cmd_gof, "chi-squared fit of line error vs a zero-mean Gaussian")
    p.add_argument("--sigma", type=float, default=DEFAULT_SIGMA)
    p.add_argument("--bin-width", type=float, default=2.0)
    p.add_argument("--min-expected", type=float, default=5.0)

    p = command("simulate", cmd_simulate, "Monte Carlo season simulation (CSV per team)")
    p.add_argument("--season", type=int, required=True)
    _add_simulation_args(p)

    p = command("predict-divisions", cmd_predict_divisions, "division-winner accuracy per season")
    _add_simulation_args(p)

    p = command("backtest", cmd_backtest, "evaluate a betting strategy against history")
    p.add_argument("--strategy", choices=sorted(BUILTIN_STRATEGIES), required=True)
    p.add_argument("--stake", type=float, default=110.0)
    p.add_argument("--payout", type=float, default=100.0)
    p.add_argument("--line", choices=("close", "open"), default="close")

    command("movement", cmd_movement, "line-movement fractions by week and cumulative counts")

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Print a warning as a diagnostic line, without the source location."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    """Parse ``argv``, load and filter the data once, and run the command on it."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors with code 2
        return int(exc.code or 0)
    try:
        data_dir = os.environ.get(ENV_DATA_DIR)
        games = args.games or (Path(data_dir) / "games.csv" if data_dir else None)
        divisions = args.divisions or (Path(data_dir) / "divisions.csv" if data_dir else None)
        if games is None or divisions is None:
            raise UsageError(
                f"--games/--divisions are required (or set ${ENV_DATA_DIR} to a directory "
                "holding games.csv and divisions.csv)"
            )
        seasons = _parse_season_range(args.seasons) if args.seasons else None
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            ds = load_dataset(games, divisions)
            ds = ds.filter(seasons=seasons, regular_season_only=not args.include_postseason)
            return args.func(ds, args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
