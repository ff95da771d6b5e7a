"""Gambling-theoretic market machinery: bet sizing, constrained growth,
trading-system statistics, guessing-game exploitation, auction clearing,
and strategy-lifecycle classification.

Each name below loads its submodule on first use (PEP 562), so
``import betlab`` alone imports no submodule and no numpy.
"""

import importlib

# The exported names, by the submodule that owns them.
_EXPORTS = {
    "betmath": (
        "BetSpec", "GrowthCurve", "asymptotic_growth", "critical_fraction", "fractional_kelly",
        "growth_curve", "growth_derivative", "kelly_fraction", "mixed_sequence_fractions",
        "stochastic_p_fraction",
    ),
    "errors": (
        "BudgetError", "DomainError", "EmptySelection", "InfeasibleThreshold", "NoClear",
        "NoPositiveRoot",
    ),
    "grational": (
        "GrationalProblem", "GrationalSolution", "LossKind", "McBudget", "solve",
        "violation_probability",
    ),
    "seeding": ("DEFAULT_SEED", "stream"),
    "wealthsim": (
        "PathStats", "SimConfig", "WealthPath", "adaptive_policy_growth", "drawdown",
        "path_stats", "ruin_probability_all_in", "simulate_paths", "worst_loss",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)
__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    # Any other name raises, so ``from betlab import cli`` imports the submodule.
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
