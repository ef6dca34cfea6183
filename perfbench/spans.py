"""Spans recorded from outside the program, around calls into each layer.

``Tracer.install`` replaces the layer functions listed in ``LAYER_CALLS``
with timing wrappers, in every loaded ``nfl_lines`` module that holds
them, so calls the library makes to itself (``yearly_cover_series`` into
``run_strategy``, ``build_schedule`` into ``Dataset.filter``) are seen
too. ``uninstall`` puts the originals back. Spans stay in memory until
the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: int
    error: bool = False
    counts: dict[str, int] = field(default_factory=dict)


def _run_strategy_name(args: tuple, kwargs: dict) -> str:
    from nfl_lines.backtest import BUILTIN_STRATEGIES

    strategy = args[1] if len(args) > 1 else kwargs["strategy"]
    if not any(strategy is s for s in BUILTIN_STRATEGIES.values()):
        return "backtest.predicate"
    line = args[4] if len(args) > 4 else kwargs.get("line", "close")
    return f"backtest.{line}"


def _simulate_name(args: tuple, kwargs: dict) -> str:
    workers = args[3] if len(args) > 3 else kwargs.get("workers", 1)
    return "simulator.simulate_w2" if workers >= 2 else "simulator.simulate"


def _draws(args: tuple, kwargs: dict, result: Any) -> dict[str, int]:
    return {"draws": result.replications * len(args[0].entries)}


def _bets(args: tuple, kwargs: dict, result: Any) -> dict[str, int]:
    return {"bets": len(result.bets), "games": len(args[0])}


# (module, attribute, span name or namer, counter); a dotted attribute is a method
LAYER_CALLS: tuple[tuple[str, str, str | Callable, Callable | None], ...] = (
    ("dataset", "load_dataset", "dataset.load", lambda a, k, r: {"rows": len(r)}),
    ("dataset", "Dataset.filter", "dataset.filter", None),
    ("metrics", "home_record_table", "metrics.home_record", None),
    ("metrics", "favorite_ats_summary", "metrics.favorite_ats", None),
    ("metrics", "movement_fraction_by_week", "metrics.movement", None),
    ("metrics", "movement_cumulative_counts", "metrics.movement", None),
    ("metrics", "histogram", "metrics.histogram", None),
    ("backtest", "run_strategy", _run_strategy_name, _bets),
    ("backtest", "yearly_cover_series", "backtest.yearly", None),
    ("stats", "moments", "stats.moments", None),
    ("stats", "chi_square_gof", "stats.gof", lambda a, k, r: {"gof_bins": r.bins_used}),
    ("prob_model", "empirical_win_rate", "prob_model.empirical_win_rate", None),
    ("prob_model", "poisson_binomial", "prob_model.poisson_binomial", None),
    ("simulator", "simulate", _simulate_name, _draws),
    ("simulator", "build_schedule", "simulator.build_schedule", None),
    ("simulator", "predict_division_winners", "simulator.predict_divisions", None),
    # CSV and SVG serialisers are the render layer, wherever they live
    ("simulator", "simulation_to_csv", "render.csv", None),
    ("render", "histogram_svg", "render.svg", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job = -1
        self._stack: list[int] = []
        self._raising: BaseException | None = None
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str | Callable, fn: Callable, counter: Callable | None = None) -> Callable:
        """Wrap ``fn`` so each call records one span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            index = len(self.spans)
            record = Span(label, perf_counter(), 0.0, self._stack[-1] if self._stack else None, self.job)
            self.spans.append(record)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # count an exception once, in the innermost span it left
                record.error = exc is not self._raising
                self._raising = exc
                raise
            finally:
                record.end = perf_counter()
                self._stack.pop()
            if counter is not None:
                record.counts = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = {n: m for n, m in sys.modules.items() if n == "nfl_lines" or n.startswith("nfl_lines.")}
        for module_name, attr, name, counter in LAYER_CALLS:
            home = modules.get(f"nfl_lines.{module_name}")
            if home is None:  # a layer this workload never imports
                continue
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(home, cls_name)
                self._patch(owner, method, self.span(name, getattr(owner, method), counter))
                continue
            original = getattr(home, attr)
            wrapped = self.span(name, original, counter)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def _patch(self, owner: object, key: str, value: object) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, key, value = self._patched.pop()
            setattr(owner, key, value)

    def self_times(self) -> dict[int, float]:
        """Span index to its duration minus the time its children cover."""
        own = {i: s.end - s.start for i, s in enumerate(self.spans)}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(s)}) + "\n")


def layer_totals(tracer: Tracer, jobs: set[int]) -> tuple[dict[str, float], dict[str, int], dict[str, int]]:
    """Self time and counts summed per span name, and errors per layer, over ``jobs``."""
    own = tracer.self_times()
    seconds: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    errors: dict[str, int] = defaultdict(int)
    for i, s in enumerate(tracer.spans):
        if s.job not in jobs:
            continue
        seconds[s.name] += own[i]
        counts[s.name] += 1
        for key, value in s.counts.items():
            counts[key] += value
        errors[s.name.split(".")[0]] += s.error
    return seconds, counts, errors
