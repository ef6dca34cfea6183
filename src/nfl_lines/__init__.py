"""NFL point-spread analytics.

Ingests historical game and betting-line records, computes line-accuracy
metrics, fits a Gaussian model of line error, converts spreads to win
probabilities, simulates seasons, and backtests spread-betting strategies
with exact sportsbook payout accounting.
"""

from .dataset import (
    Dataset,
    DivisionMap,
    GameRecord,
    GameSide,
    load_dataset,
    parse_divisions,
    parse_games,
)
from .metrics import AtsOutcome, line_difference, line_movement, mov
from .prob_model import WinDistribution, WinModel, poisson_binomial, win_probability
from .simulator import SeasonSchedule, SimulationResult, build_schedule, simulate
from .backtest import BUILTIN_STRATEGIES, Strategy, StrategyLedger, break_even_ratio, run_strategy

__all__ = [
    "AtsOutcome",
    "BUILTIN_STRATEGIES",
    "Dataset",
    "DivisionMap",
    "GameRecord",
    "GameSide",
    "SeasonSchedule",
    "SimulationResult",
    "Strategy",
    "StrategyLedger",
    "WinDistribution",
    "WinModel",
    "break_even_ratio",
    "build_schedule",
    "line_difference",
    "line_movement",
    "load_dataset",
    "mov",
    "parse_divisions",
    "parse_games",
    "poisson_binomial",
    "run_strategy",
    "simulate",
    "win_probability",
]

__version__ = "0.1.0"
