"""The benchmark's workloads: set-up, one job, and the check of its output.

Every workload is a closed loop with one client: the next job starts when
the previous one has finished. ``job`` is what the end-to-end metrics
time; ``trace_job`` is what the traced run times, with spans on when a
tracer is given.

Nothing here imports numpy or nfl_lines at module level, so a workload's
``setup`` pays for those imports and ``setup_s`` shows them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import subprocess
import sys
from math import sqrt
from pathlib import Path

from checks import check_command, check_history, check_simulation
from spans import Tracer

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
FIXTURE_GAMES = "data/fixtures/games.csv"
FIXTURE_DIVISIONS = "data/fixtures/divisions.csv"
DIVISIONS = "data/divisions.csv"


def derive_seed(*parts: int) -> int:
    """A 32-bit seed from the workload seed and a job's coordinates."""
    digest = hashlib.blake2b(repr(parts).encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big")


def run_python(code: str, *args: str) -> tuple[int, bytes, bytes, int]:
    """Run ``python -c code args`` on the checkout's ``src``, as the installed
    ``nfl-lines`` script would; return exit code, stdout, stderr and peak RSS in KiB."""
    proc = subprocess.Popen(
        [sys.executable, "-c", code, *args],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    # stderr is a line or a traceback, far below the pipe buffer
    stdout = proc.stdout.read()
    stderr = proc.stderr.read()
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stdout, stderr, usage.ru_maxrss


class Workload:
    """A job's result carries ``games`` (regular-season rows analysed) and
    ``reps`` (season replications simulated) besides what its check reads."""

    name = ""
    jobs_per_pass = 1

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        """Make the inputs, import the package and run one discarded job."""
        self.prepare()
        problems = self.check(-1, self.job(-1))
        if problems:
            raise RuntimeError(f"warm-up job failed its check: {problems}")

    def prepare(self) -> None:
        raise NotImplementedError

    def job(self, index: int) -> dict:
        raise NotImplementedError

    def check(self, index: int, result: dict) -> list[str]:
        raise NotImplementedError

    def trace_job(self, index: int, tracer: Tracer | None) -> dict:
        return tracer.span("job", self.job)(index) if tracer else self.job(index)


# the 10 history seasons simulated per job: every tenth of the 100
SIM_SEASON_STEP = 10
SIM_REPLICATIONS = 1000
SPREADS = (3.0, 7.0, 10.0)


class History(Workload):
    """The per-row dataset, metrics and backtest path over 100 synthetic seasons."""

    name = "history-26k"

    def prepare(self) -> None:
        import inputs
        from nfl_lines import backtest, dataset, metrics, prob_model, simulator, stats

        self.lib = (backtest, dataset, metrics, prob_model, simulator, stats)
        OUT.mkdir(parents=True, exist_ok=True)
        self.games_path = OUT / f"history-{self.seed}.csv"
        self.games_path.write_bytes(inputs.history_csv(self.seed, inputs.read_teams(ROOT / DIVISIONS)))
        self.user_underdogs = backtest.when(
            "user-underdogs", lambda g: g.line_close != 0, dataset.GameSide.UNDERDOG
        )
        self.model = prob_model.WinModel()

    def job(self, index: int) -> dict:
        backtest, dataset, metrics, prob_model, simulator, stats = self.lib
        ds = dataset.load_dataset(self.games_path, ROOT / DIVISIONS).filter(regular_season_only=True)
        home = metrics.home_record_table(ds)
        partition = metrics.favorite_ats_summary(ds)
        for threshold in (1.0, 2.0):
            metrics.movement_fraction_by_week(ds, threshold)
        metrics.movement_cumulative_counts(ds)
        ld = [metrics.line_difference(g) for g in ds]
        metrics.histogram(ld, metrics.LD_BIN_WIDTH, origin=-metrics.LD_BIN_WIDTH / 2)
        stats.moments(ld)
        stats.chi_square_gof(ld, sigma=self.model.sigma)
        ledgers = {
            f"{name}/{line}": backtest.run_strategy(ds, backtest.BUILTIN_STRATEGIES[name], line=line)
            for name in ("home-underdog", "all-favorites")
            for line in ("close", "open")
        }
        ledgers["user-underdogs/close"] = backtest.run_strategy(ds, self.user_underdogs)
        for spread in SPREADS:
            prob_model.empirical_win_rate(ds, spread)
        scores = []
        for season in ds.seasons()[::SIM_SEASON_STEP]:
            schedule = simulator.build_schedule(ds, season, self.model)
            result = simulator.simulate(schedule, SIM_REPLICATIONS, derive_seed(self.seed, index, season))
            predictions = simulator.predict_division_winners(result, schedule, ds.divisions)
            scores.append(simulator.score_predictions(predictions))
        def cells(row) -> list[int]:
            return [n for c in (row.favorites, row.underdogs, row.pick_ems, row.all_home) for n in (c.wins, c.losses)]

        return {
            "rows": len(ds),
            "partition": list(partition),
            "pick_ems": metrics.pick_em_count(ds),
            "home_by_season": [cells(row) for row in home.by_season.values()],
            "home_total": cells(home.total),
            "ledgers": {k: [v.wins, v.losses, v.pushes, v.win_ratio, v.profit] for k, v in ledgers.items()},
            "division_scores": scores,
            "games": len(ds),
            "reps": len(scores) * SIM_REPLICATIONS,
        }

    def check(self, index: int, result: dict) -> list[str]:
        return check_history(result)


class SimDeep(Workload):
    """One fixture season at 100,000 replications: the Monte Carlo kernel."""

    name = "sim-deep"
    SEASON = 2002
    REPLICATIONS = 100_000

    def prepare(self) -> None:
        from nfl_lines import dataset, prob_model, simulator

        self.lib = (prob_model, simulator)
        ds = dataset.load_dataset(ROOT / FIXTURE_GAMES, ROOT / FIXTURE_DIVISIONS)
        self.schedule = simulator.build_schedule(ds, self.SEASON, prob_model.WinModel())
        entries = self.schedule.entries
        self.team_probs = [
            [e.home_win_prob if e.home == t else 1.0 - e.home_win_prob for e in entries if t in (e.home, e.away)]
            for t in self.schedule.teams
        ]

    def job(self, index: int, workers: int = 1) -> dict:
        prob_model, simulator = self.lib
        seed = derive_seed(self.seed, index)
        result = simulator.simulate(self.schedule, self.REPLICATIONS, seed, workers=workers)
        exact = [prob_model.poisson_binomial(p) for p in self.team_probs]
        return {
            "teams": list(result.teams),
            "mean_wins": [result.mean_wins[t] for t in result.teams],
            "exact_mean": [d.mean() for d in exact],
            "exact_sd": [sqrt(d.variance()) for d in exact],
            "replications": result.replications,
            "games": len(self.schedule.entries),
            "reps": result.replications,
        }

    def check(self, index: int, result: dict) -> list[str]:
        return check_simulation(result)


CLI_REPLICATIONS = 1000  # simulate's --replications and predict-divisions' default
# (arguments, a line the output must start) per command, in run order
COMMANDS = (
    (("ingest-check",), "games: "),
    (("summary",), "home straight-up win rate: "),
    (("hist", "--metric", "ld", "--format", "svg"), "<svg "),
    (("gof",), "chi-squared GOF of line difference"),
    (("simulate", "--season", "2002", "--replications", str(CLI_REPLICATIONS)), "team,conference,division,predicted_wins"),
    (("predict-divisions",), "season,correct,total"),
    (("backtest", "--strategy", "home-underdog"), "strategy: home-underdog (close line)"),
    (("backtest", "--strategy", "all-favorites", "--line", "open"), "strategy: all-favorites (open line)"),
    (("movement",), "movement >= 1: "),
)
SEEDED = ("simulate", "predict-divisions")
CLI_MAIN = "from nfl_lines.cli import run; run()"
CLI_IMPORT = "import nfl_lines.cli"


class CliFixture(Workload):
    """One ``nfl-lines`` command per job, each its own interpreter, on the fixture."""

    name = "cli-fixture"
    jobs_per_pass = len(COMMANDS)

    def setup(self) -> None:
        # no warm-up job: users pay start-up on every command
        self.prepare()

    def prepare(self) -> None:
        data = ["--games", FIXTURE_GAMES, "--divisions", FIXTURE_DIVISIONS]
        seed = ["--seed", str(derive_seed(self.seed))]
        self.argvs = [[*args, *data, *(seed if args[0] in SEEDED else [])] for args, _ in COMMANDS]
        with open(ROOT / FIXTURE_GAMES, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        self.games = sum(1 for row in rows if int(row["week"]) <= 17)
        seasons = len({row["season"] for row in rows})
        reps = {"simulate": CLI_REPLICATIONS, "predict-divisions": CLI_REPLICATIONS * seasons}
        self.reps = [reps.get(args[0], 0) for args in self.argvs]
        self.references: dict[int, bytes] = {}
        code, _, stderr, _ = run_python(CLI_IMPORT)  # fills the page cache and bytecode cache
        if code != 0:
            raise RuntimeError(f"cannot import nfl_lines.cli:\n{stderr.decode()}")

    def job(self, index: int) -> dict:
        code, stdout, stderr, rss_kib = run_python(CLI_MAIN, *self.argvs[index % len(COMMANDS)])
        return self._result(index, code, stdout, stderr, rss_kib)

    def _result(self, index: int, code: int, stdout: bytes, stderr: bytes, rss_kib: int) -> dict:
        return {"code": code, "stdout": stdout, "stderr": stderr, "rss_kib": rss_kib,
                "games": self.games, "reps": self.reps[index % len(COMMANDS)]}

    def trace_job(self, index: int, tracer: Tracer | None) -> dict:
        import nfl_lines.cli

        argv = self.argvs[index % len(COMMANDS)]
        main = tracer.span(f"cli.{argv[0]}", nfl_lines.cli.main) if tracer else nfl_lines.cli.main
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return self._result(index, code, out.getvalue().encode(), err.getvalue().encode(), 0)

    def check(self, index: int, result: dict) -> list[str]:
        command = index % len(COMMANDS)
        header = COMMANDS[command][1]
        problems = check_command(result["code"], result["stdout"], header, self.references.get(command))
        self.references.setdefault(command, result["stdout"])
        if problems and result["stderr"]:
            problems.append("stderr: " + result["stderr"].decode("utf-8", "replace").strip()[-500:])
        return problems
