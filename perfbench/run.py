"""nfl-lines benchmark: one command, three workloads, correctness-checked.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Without ``--workload`` every workload
runs in its own fresh process, one after the other. With ``--trace 0`` a
run prints the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` it prints the per-layer metrics, taken from spans recorded
around the calls into each library module, and writes the spans to
``perfbench/out/``. The last line of standard output is always one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Workloads (why each exists is in ``BENCHMARK.json``):

- ``cli-fixture``: each job runs one ``nfl-lines`` command as a fresh
  ``python`` process on the bundled fixture, cycling through nine
  commands; a run measures whole passes of the cycle.
- ``history-26k``: each job runs the dataset, metrics, stats, backtest,
  win-rate and short-simulation calls over a 26,200-row file generated
  from the seed.
- ``sim-deep``: each job simulates one fixture season at 100,000
  replications with ``workers=1`` and checks the means against the exact
  Poisson-binomial means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from importlib.metadata import version
from time import perf_counter

from spans import Tracer, layer_totals
from workloads import CLI_IMPORT, OUT, ROOT, CliFixture, History, SimDeep, Workload, run_python

WORKLOADS = {w.name: w for w in (CliFixture, History, SimDeep)}
SETUP_RUNS = 3  # set-ups per run; setup_s is their median
PROBE_RUNS = 5  # interpreter and import probes per traced cli-fixture run
W2_RUNS = 2  # workers=2 simulations per traced sim-deep run
LAYERS = ("dataset", "metrics", "backtest", "stats", "prob_model", "simulator", "render", "cli")


@dataclass
class Job:
    index: int
    seconds: float
    result: dict | None
    problems: list[str]


def run_jobs(workload: Workload, call, seconds: float = 0, first: int = 0, at_least: int = 1) -> list[Job]:
    """Closed loop: run jobs one at a time, in whole passes of the workload's
    cycle, until ``at_least`` jobs ran and the run is as close to ``seconds``
    long as whole passes allow."""
    jobs: list[Job] = []
    index = first
    began = perf_counter()

    def more() -> bool:
        if len(jobs) < at_least or len(jobs) % workload.jobs_per_pass:
            return True
        elapsed = perf_counter() - began
        mean_pass = elapsed * workload.jobs_per_pass / len(jobs)
        return elapsed + mean_pass / 2 < seconds

    while more():
        gc.collect()
        start = perf_counter()
        try:
            result = call(index)
        except Exception:
            result, problems = None, [traceback.format_exc()]
        elapsed = perf_counter() - start
        if result is not None:
            problems = workload.check(index, result)
        for problem in problems:
            print(f"job {index} failed: {problem}", file=sys.stderr)
        jobs.append(Job(index, elapsed, result, problems))
        index += 1
    return jobs


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, never below the median.

    Returns (value, percentile).
    """
    ordered = sorted(times)
    i = len(ordered) - 11
    if i < (len(ordered) - 1) / 2:
        return statistics.median(ordered), 50.0
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def setup_seconds(workload: Workload, args: argparse.Namespace, runs: int) -> float:
    """Median of ``runs`` set-ups: fresh probe processes, then this one."""
    samples = []
    for _ in range(runs - 1):
        probe = subprocess.run(
            [sys.executable, __file__, "--workload", workload.name, "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            check=True,
        )
        samples.append(json.loads(probe.stdout.splitlines()[-1])["setup_s"])
    start = perf_counter()
    workload.setup()
    samples.append(perf_counter() - start)
    return statistics.median(samples)


def end_to_end(workload: Workload, jobs: list[Job], setup_s: float) -> tuple[dict, list[str]]:
    times = [j.seconds for j in jobs]
    busy = sum(times)
    done = [j.result for j in jobs if j.result is not None]
    p_tail, pct = tail(times)
    if isinstance(workload, CliFixture):
        rss_kib = max(r["rss_kib"] for r in done) if done else 0
        rss_note = "largest child process"
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rss_note = "this process"
    failed = sum(1 for j in jobs if j.problems)
    metrics = {
        "setup_s": setup_s,
        "job_p50_s": statistics.median(times),
        "job_tail_s": p_tail,
        "games_per_s": sum(r["games"] for r in done) / busy,
        "reps_per_s": sum(r["reps"] for r in done) / busy,
        "peak_rss_mb": rss_kib / 1024,
    }
    notes = [
        f"setup_s: median of {SETUP_RUNS} set-ups",
        f"job_tail_s: p{pct:.0f} of {len(times)} jobs",
        f"peak_rss_mb: {rss_note}",
        f"error_rate: {failed / len(jobs)} fraction ({failed} of {len(jobs)} jobs failed)",
    ]
    return metrics, notes


def traced_run(workload: Workload, args: argparse.Namespace) -> tuple[dict, list[str], list[Job]]:
    """Alternate untraced and traced jobs; per-layer metrics come from the traced ones."""
    tracer = Tracer()
    metrics = dict.fromkeys(("cli.interp_s", "cli.import_s", "cli.startup_share"), 0.0)
    notes: list[str] = []
    jobs: list[Job] = []
    if isinstance(workload, CliFixture):
        metrics["cli.interp_s"] = statistics.median(_timed_probe("pass") for _ in range(PROBE_RUNS))
        metrics["cli.import_s"] = statistics.median(_timed_probe(CLI_IMPORT) for _ in range(PROBE_RUNS))
        # one untraced pass of whole processes: the base of cli.startup_share
        jobs += run_jobs(workload, workload.job)
        base = statistics.median(j.seconds for j in jobs)
        metrics["cli.startup_share"] = metrics["cli.import_s"] / base
        notes.append(f"cli.startup_share: cli.import_s / job_p50_s of {len(jobs)} whole-process jobs ({base:.4f} s)")
        # warm the in-process path once before timing it
        jobs += run_jobs(workload, lambda i: workload.trace_job(i, None), first=len(jobs))

    def alternate(index: int) -> dict:  # odd jobs traced, even ones not
        traced = index % 2 == 1
        if traced:
            tracer.job = index
            tracer.install()
        try:
            return workload.trace_job(index, tracer if traced else None)
        finally:
            tracer.uninstall()

    first = len(jobs)
    loop = run_jobs(workload, alternate, args.seconds, first=first, at_least=2)
    jobs += loop
    traced_jobs = {j.index for j in loop if j.index % 2}
    traced = statistics.median(j.seconds for j in loop if j.index in traced_jobs)
    untraced = statistics.median(j.seconds for j in loop if j.index not in traced_jobs)
    metrics["trace.overhead"] = traced / untraced - 1
    notes.append(f"trace.overhead: job_p50_s {traced:.6f} s traced vs {untraced:.6f} s untraced, alternating jobs")

    if isinstance(workload, SimDeep):
        tracer.job = -2
        tracer.install()
        try:
            jobs += run_jobs(workload, lambda i: workload.job(i, workers=2), first=-W2_RUNS - 1, at_least=W2_RUNS)
        finally:
            tracer.uninstall()

    metrics.update(layer_metrics(tracer, traced_jobs))
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-{args.seed}.jsonl"
    tracer.write(spans_path)
    notes.append(f"spans: {spans_path.relative_to(ROOT)}")
    notes += self_time_table(tracer, traced_jobs)
    return metrics, notes, jobs


def _timed_probe(code: str) -> float:
    start = perf_counter()
    status, _, stderr, _ = run_python(code)
    elapsed = perf_counter() - start
    if status != 0:
        raise RuntimeError(f"python -c {code!r} failed:\n{stderr.decode()}")
    return elapsed


def layer_metrics(tracer: Tracer, jobs: set[int]) -> dict[str, float]:
    """Per-job self time and counts of each layer over the traced ``jobs``."""
    seconds, counts, errors = layer_totals(tracer, jobs)
    n = len(jobs)
    per_job = lambda *names: sum(seconds.get(name, 0.0) for name in names) / n
    ratio = lambda a, b: a / b if b else 0.0
    w2 = [s.end - s.start for s in tracer.spans if s.name == "simulator.simulate_w2"]
    backtest_jobs = {s.job for s in tracer.spans if s.job in jobs and s.name == "cli.backtest"}
    strategy_runs = ("backtest.close", "backtest.open", "backtest.predicate")
    metrics = {
        "dataset.load_s": per_job("dataset.load"),
        "dataset.load_us_per_row": 1e6 * ratio(seconds.get("dataset.load", 0.0), counts["rows"]),
        "dataset.rows": counts["rows"] / n,
        "dataset.filter_s": per_job("dataset.filter"),
        "dataset.filter_calls": counts["dataset.filter"] / n,
        "metrics.home_record_s": per_job("metrics.home_record"),
        "metrics.favorite_ats_s": per_job("metrics.favorite_ats"),
        "metrics.movement_s": per_job("metrics.movement"),
        "metrics.histogram_s": per_job("metrics.histogram"),
        "backtest.close_s": per_job("backtest.close"),
        "backtest.open_s": per_job("backtest.open"),
        "backtest.predicate_s": per_job("backtest.predicate"),
        "backtest.bets": counts["bets"] / n,
        "backtest.bets_per_game": ratio(counts["bets"], counts["games"]),
        "stats.moments_s": per_job("stats.moments"),
        "stats.gof_s": per_job("stats.gof"),
        "stats.gof_bins": ratio(counts["gof_bins"], counts["stats.gof"]),
        "prob_model.empirical_win_rate_s": per_job("prob_model.empirical_win_rate"),
        "prob_model.poisson_binomial_s": per_job("prob_model.poisson_binomial"),
        "simulator.simulate_s": per_job("simulator.simulate"),
        "simulator.draws": counts["draws"] / n,
        "simulator.draws_per_s": ratio(counts["draws"], seconds.get("simulator.simulate", 0.0)),
        "simulator.simulate_w2_s": statistics.median(w2) if w2 else 0.0,
        "simulator.build_schedule_s": per_job("simulator.build_schedule"),
        "simulator.predict_divisions_s": per_job("simulator.predict_divisions"),
        "render.svg_s": per_job("render.svg"),
        "render.csv_s": per_job("render.csv"),
        "cli.run_strategy_calls": ratio(
            sum(1 for s in tracer.spans if s.job in backtest_jobs and s.name in strategy_runs), len(backtest_jobs)
        ),
    }
    metrics.update({f"{layer}.errors": errors.get(layer, 0) for layer in LAYERS})
    return metrics


def self_time_table(tracer: Tracer, jobs: set[int]) -> list[str]:
    """Self time per job of every span name, largest first."""
    seconds, counts, _ = layer_totals(tracer, jobs)
    rows = sorted(seconds.items(), key=lambda kv: -kv[1])
    return [f"self {name:<32} {total / len(jobs):.6f} s/job  calls {counts[name]}" for name, total in rows]


def print_result(kind: str, metrics: dict, notes: list[str], jobs: list[Job]) -> None:
    """Print every ``kind`` metric of BENCHMARK.json with its unit, then the result line."""
    unit = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}
    metrics = {name: metrics[name] for name in unit}
    for name, value in metrics.items():
        print(f"{name:<34} {value:.6g} {unit[name]}")
    for note in notes:
        print(f"# {note}")
    failed = sum(1 for j in jobs if j.problems)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit[name]} for name, value in metrics.items()},
    }))


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own fresh process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        print("\n".join(f"[{name}] {line}" for line in lines[:-1]))
        if child.returncode != 0 or not lines:
            print(f"{name}: benchmark process exited with {child.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=sorted(WORKLOADS), help="one workload (default: all, each in its own process)"
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=int, default=None, help="measuring time per run (default: run_seconds of BENCHMARK.json)"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    needed = ("BENCHMARK.json", "src/nfl_lines/__init__.py", "data/fixtures/games.csv")
    missing = [p for p in needed if not (ROOT / p).is_file()]
    if missing:
        print(f"not a complete nfl-lines checkout; missing {missing}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload is None:
        return run_all(args)

    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        start = perf_counter()
        workload.setup()
        print(json.dumps({"setup_s": perf_counter() - start}))
        return 0

    print(
        f"# nfl-lines benchmark: workload {workload.name}, seed {args.seed}, {args.seconds} s, trace {args.trace}; "
        f"python {sys.version.split()[0]}, numpy {version('numpy')}, scipy {version('scipy')}, "
        f"nproc {len(os.sched_getaffinity(0))}; closed loop, 1 client"
    )
    if args.trace:
        setup_s = setup_seconds(workload, args, runs=1)
        metrics, notes, jobs = traced_run(workload, args)
        notes.insert(0, f"setup_s {setup_s:.6g} s, one set-up (end-to-end metrics come from --trace 0)")
        print_result("per_layer", metrics, notes, jobs)
    else:
        setup_s = setup_seconds(workload, args, runs=SETUP_RUNS)
        jobs = run_jobs(workload, workload.job, args.seconds)
        metrics, notes = end_to_end(workload, jobs, setup_s)
        print_result("end_to_end", metrics, notes, jobs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
