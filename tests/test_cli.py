import os
import subprocess
import sys
from pathlib import Path

import pytest

from nfl_lines import __version__
from nfl_lines.cli import main
from nfl_lines.prob_model import WinModel
from nfl_lines.simulator import SeasonSchedule, build_schedule, predict_division_winners, simulate, simulation_to_csv

from conftest import DIVISIONS, FIXTURE_GAMES, REPO

DATA_ARGS = ["--games", str(FIXTURE_GAMES), "--divisions", str(DIVISIONS)]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ingest_check(capsys):
    code, out, err = run(capsys, "ingest-check", *DATA_ARGS)
    assert code == 0
    assert "games: 512" in out


def test_summary(capsys):
    code, out, err = run(capsys, "summary", *DATA_ARGS)
    assert code == 0
    assert "games: 512" in out
    assert "line difference" in out
    assert "reference 2002-2011" in out


def test_summary_single_season(capsys):
    code, out, _ = run(capsys, "summary", *DATA_ARGS, "--seasons", "2003")
    assert code == 0
    assert "games: 256" in out


def test_summary_empty_file(tmp_path, capsys):
    empty = tmp_path / "games.csv"
    empty.write_text("season,week,date,home,away,home_score,away_score,line_open,line_close\n")
    code, out, _ = run(capsys, "summary", "--games", str(empty), "--divisions", str(DIVISIONS))
    assert code == 0
    assert "games: 0" in out


def test_unknown_flag_exits_2(capsys):
    code, _, err = run(capsys, "summary", "--no-such-flag")
    assert code == 2


def test_unknown_subcommand_exits_2(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_unknown_strategy_exits_2(capsys):
    code, _, _ = run(capsys, "backtest", *DATA_ARGS, "--strategy", "martingale")
    assert code == 2


def test_unknown_metric_exits_2(capsys):
    code, _, _ = run(capsys, "hist", *DATA_ARGS, "--metric", "temperature")
    assert code == 2


def test_malformed_row_exits_1_with_row_number(tmp_path, capsys):
    bad = tmp_path / "games.csv"
    bad.write_text(
        "season,week,date,home,away,home_score,away_score,line_open,line_close\n"
        "2002,1,2002-09-08,NE,NYJ,21,14,3,3\n"
        "2002,two,2002-09-08,MIA,BUF,10,20,1,1\n"
    )
    code, out, err = run(capsys, "summary", "--games", str(bad), "--divisions", str(DIVISIONS))
    assert code == 1
    assert "row 3" in err
    assert out == ""


def test_quarter_point_spread_exits_1(tmp_path, capsys):
    bad = tmp_path / "games.csv"
    bad.write_text(
        "season,week,date,home,away,home_score,away_score,line_open,line_close\n"
        "2002,1,2002-09-08,NE,NYJ,21,14,3,3.25\n"
    )
    code, _, err = run(capsys, "summary", "--games", str(bad), "--divisions", str(DIVISIONS))
    assert code == 1
    assert "row 2" in err


def test_missing_files_usage_error(capsys, monkeypatch):
    monkeypatch.delenv("NFL_LINES_DATA", raising=False)
    code, _, err = run(capsys, "summary")
    assert code == 2
    assert "--games" in err


def test_env_var_data_dir(capsys, tmp_path, monkeypatch):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    (data_dir / "games.csv").write_text(FIXTURE_GAMES.read_text())
    (data_dir / "divisions.csv").write_text(DIVISIONS.read_text())
    monkeypatch.setenv("NFL_LINES_DATA", str(data_dir))
    code, out, _ = run(capsys, "ingest-check")
    assert code == 0
    assert "games: 512" in out


def test_hist_csv_deterministic(capsys):
    code, first, _ = run(capsys, "hist", *DATA_ARGS, "--metric", "closing-line")
    code2, second, _ = run(capsys, "hist", *DATA_ARGS, "--metric", "closing-line")
    assert code == code2 == 0
    assert first == second
    assert first.startswith("bin_center,count\n")


def test_hist_svg(capsys):
    code, out, _ = run(capsys, "hist", *DATA_ARGS, "--metric", "ld", "--format", "svg")
    assert code == 0
    assert out.startswith("<svg")
    assert out.rstrip().endswith("</svg>")


def test_hist_out_file(tmp_path, capsys):
    target = tmp_path / "hist.csv"
    code, out, err = run(capsys, "hist", *DATA_ARGS, "--metric", "movement", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("bin_center,count\n")


def test_output_dir_default_names(tmp_path, capsys):
    code, out, _ = run(
        capsys, "simulate", *DATA_ARGS, "--season", "2003", "--replications", "40",
        "--output-dir", str(tmp_path),
    )
    assert code == 0
    assert out == ""
    assert (tmp_path / "simulate_2003.csv").read_text().startswith("team,conference,")


def test_gof_report(capsys):
    code, out, _ = run(capsys, "gof", *DATA_ARGS)
    assert code == 0
    assert "statistic" in out
    assert "alpha=0.05" in out


def test_simulate_deterministic_and_worker_invariant(capsys):
    base = ["simulate", *DATA_ARGS, "--season", "2002", "--replications", "150", "--seed", "99"]
    code, first, err = run(capsys, *base)
    assert code == 0
    assert "division winners predicted" in err
    _, second, _ = run(capsys, *base)
    _, threaded, _ = run(capsys, *base, "--workers", "4")
    assert first == second == threaded
    assert first.startswith("team,conference,division,")


def test_simulate_missing_season_exits_1(capsys):
    code, _, err = run(capsys, "simulate", *DATA_ARGS, "--season", "1999")
    assert code == 1
    assert "1999" in err


def test_predict_divisions(capsys):
    code, out, _ = run(
        capsys, "predict-divisions", *DATA_ARGS, "--replications", "60", "--seed", "5"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "season,correct,total"
    assert lines[-1].startswith("all,")


def test_backtest_report(capsys):
    code, out, _ = run(capsys, "backtest", *DATA_ARGS, "--strategy", "home-underdog")
    assert code == 0
    assert "win ratio" in out
    assert "break-even ratio: 0.5238" in out
    assert "mirror check: ok" in out


def test_backtest_with_no_bets(capsys):
    code, out, _ = run(capsys, "backtest", *DATA_ARGS, "--strategy", "home-underdog", "--seasons", "1990")
    assert code == 0
    assert "bets: 0 (W 0 / L 0 / P 0)" in out
    assert "margin vs break-even" not in out


def test_movement_report(capsys):
    code, out, _ = run(capsys, "movement", *DATA_ARGS)
    assert code == 0
    assert "movement >= 1" in out
    assert "movement <= 0.5" in out


def test_full_pipeline(tmp_path, capsys):
    for argv in (
        ["summary", *DATA_ARGS],
        ["hist", *DATA_ARGS, "--metric", "ld"],
        ["simulate", *DATA_ARGS, "--season", "2002", "--replications", "50"],
        ["backtest", *DATA_ARGS, "--strategy", "all-favorites"],
    ):
        assert main(argv) == 0
        capsys.readouterr()


GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_DATA_ARGS = [
    "--games", str(REPO / "data" / "fixtures" / "games.csv"),
    "--divisions", str(REPO / "data" / "fixtures" / "divisions.csv"),
]
GOLDEN_COMMANDS = {
    "ingest-check.txt": ["ingest-check"],
    "summary.txt": ["summary"],
    "hist-ld.svg": ["hist", "--metric", "ld", "--format", "svg"],
    "gof.txt": ["gof"],
    "simulate-2002.csv": ["simulate", "--season", "2002", "--replications", "1000"],
    "predict-divisions.csv": ["predict-divisions"],
    "backtest-home-underdog.txt": ["backtest", "--strategy", "home-underdog"],
    "backtest-all-favorites-open.txt": ["backtest", "--strategy", "all-favorites", "--line", "open"],
    "movement.txt": ["movement"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_output(name, capsys):
    """Stdout on the fixture is byte-identical to the committed golden file."""
    code, out, _ = run(capsys, *GOLDEN_COMMANDS[name], *GOLDEN_DATA_ARGS)
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()


def _python(*args):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)


def test_cli_import_loads_no_scipy():
    code = "import nfl_lines.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

    # the gof command runs, and prints its golden, with scipy unimportable
    code = "\n".join([
        "import sys",
        "sys.modules['scipy'] = None",
        "from nfl_lines.cli import run",
        "try:",
        "    run()",
        "finally:",
        "    print(sorted(m for m, v in sys.modules.items() if m.split('.')[0] == 'scipy' and v), file=sys.stderr)",
    ])
    proc = _python("-c", code, *GOLDEN_COMMANDS["gof.txt"], *GOLDEN_DATA_ARGS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "gof.txt").read_text()
    assert proc.stderr.splitlines()[-1] == "[]"


def test_python_m_version():
    proc = _python("-m", "nfl_lines", "--version")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"nfl-lines {__version__}"


def test_python_m_cli_version():
    proc = _python("-m", "nfl_lines.cli", "--version")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"nfl-lines {__version__}"


def test_short_season_warning_is_a_diagnostic(tmp_path, capsys):
    # two weeks of 2002: every team has a 2-game schedule
    lines = FIXTURE_GAMES.read_text().splitlines()
    short = [lines[0]] + [row for row in lines[1:] if row.startswith(("2002,1,", "2002,2,"))]
    games = tmp_path / "games.csv"
    games.write_text("\n".join(short) + "\n")
    data = ["--games", str(games), "--divisions", str(DIVISIONS)]
    code, out, err = run(capsys, "simulate", *data, "--season", "2002", "--replications", "20")
    assert code == 0
    assert out.startswith("team,conference,division,")
    diagnostics = [line for line in err.splitlines() if line.startswith("warning: ")]
    assert diagnostics == [diagnostics[0]]
    assert diagnostics[0].startswith("warning: season 2002: teams with a schedule other than 16 games: [")
    assert "IncompleteScheduleWarning" not in err
    assert ".py:" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["gof", "--sigma", "nan"],
        ["gof", "--sigma", "inf"],
        ["gof", "--min-expected", "nan"],
        ["gof", "--bin-width", "nan"],
        ["hist", "--metric", "ld", "--bin-width", "nan"],
        ["simulate", "--season", "2002", "--sigma", "nan"],
        ["backtest", "--strategy", "home-underdog", "--stake", "nan"],
        ["backtest", "--strategy", "home-underdog", "--payout", "inf"],
    ],
)
def test_non_finite_parameter_exits_1(capsys, argv):
    code, out, err = run(capsys, *argv, *DATA_ARGS)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "must be finite" in err


def test_gof_min_expected_of_zero_exits_1(capsys):
    # a bin past about 8.3 sigma expects exactly 0.0: it must be folded, not divided by
    code, out, err = run(capsys, "gof", "--min-expected", "0", "--sigma", "1", *DATA_ARGS)
    assert (code, out, err) == (1, "", "error: min_expected must be positive, got 0.0\n")


@pytest.mark.parametrize(
    "prices",
    [
        ["--stake", "1e-320"],
        ["--stake", "1e308", "--payout", "1e308"],
        ["--stake", "5e-324"],
        ["--stake", "110", "--payout", "1e-15"],
    ],
    ids=["break-even-underflows", "stake-plus-payout-overflows", "break-even-rounds-to-0", "break-even-rounds-to-1"],
)
def test_backtest_at_extreme_prices(capsys, prices):
    code, out, err = run(capsys, "backtest", "--strategy", "home-underdog", *prices, *DATA_ARGS)
    assert (code, err) == (0, "")
    line = next(line for line in out.splitlines() if line.startswith("z vs 0.5: "))
    z_even, z_vig = (field.split(": ", 1)[1] for field in line.split("; z vs break-even"))
    assert len(z_even) <= len("+999999.999")
    assert len(z_vig) <= len("+999999.999") or z_vig.startswith("undefined (")  # +5.752e+161 at 1e-320


@pytest.mark.parametrize(
    "argv, width, bins",
    [
        (["gof", "--bin-width", "0.0163"], "0.0163", "10009"),
        (["hist", "--metric", "ld", "--format", "svg", "--bin-width", "0.00855"], "0.00855", "10001"),
        (["gof", "--sigma", "1e300"], "2", "6e+300"),
    ],
    ids=["argv0-10009", "argv1-10001", "gof-sigma-1e300"],
)
def test_bin_width_past_the_bin_bound_exits_1(capsys, argv, width, bins):
    code, out, err = run(capsys, *argv, *DATA_ARGS)
    assert code == 1
    assert out == ""
    assert err == f"error: bin width {width} gives {bins} bins, more than 10000\n"


def test_hist_width_that_overflows_exits_1(capsys):
    code, out, err = run(capsys, "hist", "--metric", "ld", "--bin-width", "1e-310", *DATA_ARGS)
    assert code == 1
    assert out == ""
    assert err == "error: a value falls in no finite bin at bin_width 1e-310\n"


@pytest.mark.parametrize("command", [["simulate", "--season", "2002"], ["predict-divisions"]])
@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_uint64_exits_1(capsys, command, seed):
    code, out, err = run(capsys, *command, *DATA_ARGS, "--replications", "10", "--seed", str(seed))
    assert code == 1
    assert out == ""
    assert err == f"error: seed must be in [0, 2**64), got {seed}\n"


def test_backtest_mirror_check_can_fail(capsys, monkeypatch):
    import nfl_lines.cli

    # the favorite's side settled wrongly: every result turned over
    settle = nfl_lines.cli.favorite_signs
    monkeypatch.setattr(nfl_lines.cli, "favorite_signs", lambda table: -settle(table))
    code, out, _ = run(capsys, "backtest", *DATA_ARGS, "--strategy", "home-underdog")
    assert code == 0
    assert "favorite/underdog mirror check: FAILED" in out


HIST_CSV = [["hist", "--metric", metric, "--format", "csv"] for metric in ("closing-line", "ld", "movement")]


@pytest.mark.parametrize("argv", [*GOLDEN_COMMANDS.values(), *HIST_CSV], ids=" ".join)
def test_commands_build_no_records(argv, capsys, no_records):
    """Every command computes on the column table: no GameRecord is built."""
    code, out, _ = run(capsys, *argv, *GOLDEN_DATA_ARGS)
    assert code == 0
    assert out


def test_simulation_reads_no_schedule_entries(regular_dataset, capsys, monkeypatch):
    """The schedule's columns are all a simulation reads: ``entries`` is only a view."""

    def no_entries(schedule):
        raise AssertionError("SeasonSchedule.entries was read")

    monkeypatch.setattr(SeasonSchedule, "entries", property(no_entries))
    schedule = build_schedule(regular_dataset, 2002, WinModel())
    result = simulate(schedule, 100, seed=2)
    predictions = predict_division_winners(result, schedule, regular_dataset.divisions)
    assert simulation_to_csv(result, schedule, regular_dataset.divisions, predictions)
    for name in ("simulate-2002.csv", "predict-divisions.csv"):
        code, out, _ = run(capsys, *GOLDEN_COMMANDS[name], *GOLDEN_DATA_ARGS)
        assert code == 0
        assert out.encode("utf-8") == (GOLDEN / name).read_bytes()
