"""Each output check accepts a consistent result and rejects a tampered one."""

import copy

import pytest

from checks import check_command, check_history, check_simulation
from run import tail
from spans import Tracer, layer_totals


def history_summary():
    return {
        "rows": 20,
        "partition": [8, 3, 5, 2],
        "pick_ems": 2,
        "home_by_season": [[3, 2, 1, 2, 1, 0, 5, 4], [2, 1, 2, 1, 0, 1, 4, 3]],
        "home_total": [5, 3, 3, 3, 1, 1, 9, 7],
        "ledgers": {
            "home-underdog/close": [6, 4, 1, 0.6, 160.0],
            "all-favorites/close": [9, 8, 1, 9 / 17, 20.0],
            "user-underdogs/close": [8, 9, 1, 8 / 17, -190.0],
        },
        "division_scores": [[5, 8], [8, 8]],
    }


def tamper(summary, path, value):
    out = copy.deepcopy(summary)
    *parents, last = path
    target = out
    for key in parents:
        target = target[key]
    target[last] = value
    return out


def test_history_check_accepts_consistent_result():
    assert check_history(history_summary()) == []


@pytest.mark.parametrize(
    "path, value, expected",
    [
        (("pick_ems",), 3, "favorite partition"),
        (("home_total", 6), 10, "per-season home records"),
        (("ledgers", "home-underdog/close", 4), -10.0, "profit"),
        (("ledgers", "user-underdogs/close", 1), 10, "mirror"),
        (("division_scores", 1, 0), 9, "division score"),
    ],
)
def test_history_check_rejects_tampered_result(path, value, expected):
    problems = check_history(tamper(history_summary(), path, value))
    assert len(problems) == 1 and expected in problems[0]


def simulation_summary():
    return {
        "teams": ["AAA", "BBB"],
        "mean_wins": [8.01, 7.99],
        "exact_mean": [8.0, 8.0],
        "exact_sd": [1.9, 1.9],
        "replications": 100_000,
        "games": 16,
    }


def test_simulation_check():
    assert check_simulation(simulation_summary()) == []
    off = check_simulation(tamper(simulation_summary(), ("mean_wins",), [8.1, 7.9]))
    assert len(off) == 2 and all("SE" in p for p in off)
    lost = check_simulation(tamper(simulation_summary(), ("mean_wins", 1), 8.0))
    assert len(lost) == 1 and "sum to" in lost[0]


def test_command_check():
    out = b"games: 512\nteams: 32\n"
    assert check_command(0, out, "games: ", out) == []
    assert "exit status 1" in check_command(1, out, "games: ", None)
    assert "no line starting" in check_command(0, out, "season,", None)[0]
    assert check_command(0, out, "games: ", b"games: 511\n") == ["stdout differs from the first pass"]


def test_tail_needs_ten_samples_beyond():
    assert tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert tail([1.0, 2.0, 3.0]) == (2.0, 50.0)


def test_self_time_and_errors():
    tracer = Tracer()
    tracer.job = 0

    def inner():
        raise ValueError("bad row")

    outer = tracer.span("cli.outer", tracer.span("dataset.inner", inner))
    with pytest.raises(ValueError):
        outer()
    seconds, counts, errors = layer_totals(tracer, {0})
    outer_span, inner_span = tracer.spans
    assert inner_span.parent == 0
    total = outer_span.end - outer_span.start
    assert seconds["cli.outer"] + seconds["dataset.inner"] == pytest.approx(total)
    assert counts["cli.outer"] == counts["dataset.inner"] == 1
    assert errors == {"dataset": 1, "cli": 0}
