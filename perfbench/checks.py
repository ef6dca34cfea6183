"""Output checks. Each returns the list of problems found; empty means correct.

They read plain summaries (numbers and bytes), not library objects, so a
test can hand them a tampered result.
"""

from __future__ import annotations

BREAK_EVEN = 110 / 210  # win ratio at which risking 110 to win 100 breaks even
MAX_SE = 5.0  # Monte Carlo means must sit within this many standard errors


def check_history(s: dict) -> list[str]:
    problems = []
    if sum(s["partition"]) + s["pick_ems"] != s["rows"]:
        problems.append(f"favorite partition {s['partition']} + {s['pick_ems']} pick-ems != {s['rows']} rows")
    season_sums = [sum(column) for column in zip(*s["home_by_season"])]
    if season_sums != list(s["home_total"]):
        problems.append(f"per-season home records sum to {season_sums}, total is {s['home_total']}")
    for key, (wins, losses, pushes, ratio, profit) in s["ledgers"].items():
        if (profit > 0) != (ratio > BREAK_EVEN):
            problems.append(f"{key}: profit {profit} disagrees with win ratio {ratio}")
    fav = s["ledgers"]["all-favorites/close"]
    dog = s["ledgers"]["user-underdogs/close"]
    if (fav[0], fav[1], fav[2]) != (dog[1], dog[0], dog[2]):
        problems.append(f"favorite W/L/P {fav[:3]} does not mirror underdog W/L/P {dog[:3]}")
    for correct, total in s["division_scores"]:
        if not 0 <= correct <= total <= 8:
            problems.append(f"division score {correct}/{total} outside [0, 8]")
    return problems


def check_simulation(s: dict) -> list[str]:
    problems = []
    for team, mean, exact, sd in zip(s["teams"], s["mean_wins"], s["exact_mean"], s["exact_sd"]):
        se = sd / s["replications"] ** 0.5
        if abs(mean - exact) > MAX_SE * se:
            problems.append(f"{team}: MC mean {mean:.4f} vs exact {exact:.4f} is over {MAX_SE:g} SE ({se:.5f})")
    total = sum(s["mean_wins"])
    if abs(total - s["games"]) > 1e-6:
        problems.append(f"mean wins sum to {total}, not the {s['games']} games played")
    return problems


def check_command(returncode: int, stdout: bytes, header: str, reference: bytes | None) -> list[str]:
    """``reference`` is this command's stdout from the run's first pass, if any."""
    problems = []
    if returncode != 0:
        problems.append(f"exit status {returncode}")
    if not any(line.startswith(header) for line in stdout.decode("utf-8", "replace").splitlines()):
        problems.append(f"no line starting {header!r}")
    if reference is not None and stdout != reference:
        problems.append("stdout differs from the first pass")
    return problems
