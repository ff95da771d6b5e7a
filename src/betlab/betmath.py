"""Closed-form Kelly mathematics for repeated biased-coin wagers.

A wager is a coin that pays ``d`` per unit staked on a win (probability
``p``) and loses the stake on a loss (probability ``q = 1 - p``).  Betting
a fixed fraction ``f`` of wealth each turn, the asymptotic growth rate of
log wealth is

    G(f) = p * log(1 + d*f) + (1 - p) * log(1 - f)      [nats per bet]

Note the plus sign on the loss term: ``log(1 - f)`` is itself negative.
This is the convention under which the growth-maximizing fraction is the
Kelly fraction ``f* = p - q/d``; writing the loss term with a minus sign
instead would contradict that maximizer.  All logarithms here are natural
logs, so growth rates are in nats per bet.

Conventions used throughout:

* ``f = 0`` means no bet, ``f -> 1`` risks the whole stake per turn
  (``G -> -inf`` as ``f -> 1`` whenever ``p < 1``).
* Negative-edge inputs clamp to ``f = 0`` rather than raising: the sizing
  rule is "bet p - q/d when positive, nothing otherwise".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .errors import (DomainError, NoPositiveRoot, column, fraction, instance, probability,
                     within)

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class BetSpec:
    """A biased-coin wager: win probability ``p`` at odds ``d``.

    ``d`` is the payout per unit staked on a win; the stake is lost on a
    loss.  The loss probability ``q = 1 - p`` is derived, never stored.
    """

    p: float
    d: float

    def __post_init__(self) -> None:
        probability(self.p, "win probability")
        within(self.d, "odds", 0, math.inf, "()")

    @property
    def q(self) -> float:
        return 1.0 - self.p


@dataclass(frozen=True, eq=False)
class GrowthCurve:
    """Finite asymptotic growth rates on an increasing grid of fractions, both read-only."""

    fractions: np.ndarray
    rates: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np  # here and in growth_curve, so the scalar rules load no numpy

        fractions = column(self.fractions, "fractions", float)
        if not np.all((fractions >= 0) & (fractions < 1)):
            raise DomainError("fractions must lie in [0, 1)")
        if np.any(np.diff(fractions) <= 0):
            raise DomainError("fractions must be strictly increasing")
        object.__setattr__(self, "fractions", fractions)
        object.__setattr__(self, "rates", column(self.rates, "rates", float, fractions.size))

    def argmax_fraction(self) -> float:
        """Grid fraction with the largest growth rate."""
        return float(self.fractions[int(self.rates.argmax())])


def kelly_fraction(bet: BetSpec) -> float:
    """Growth-optimal betting fraction ``max(p - q/d, 0)``."""
    instance(bet, "bet", BetSpec)
    return max(bet.p - bet.q / bet.d, 0.0)


def asymptotic_growth(bet: BetSpec, f: float) -> float:
    """Asymptotic growth rate ``p*log(1 + d*f) + (1-p)*log(1-f)`` in nats per bet.

    Raises :class:`DomainError` for ``f`` outside ``[0, 1)`` (the ``f = 1``
    boundary is a log singularity whenever ``p < 1``).
    """
    instance(bet, "bet", BetSpec)
    fraction(f)
    return bet.p * math.log1p(bet.d * f) + bet.q * math.log1p(-f)


def growth_derivative(bet: BetSpec, f: float) -> float:
    """First derivative of the growth rate: ``d*p/(1 + d*f) - (1-p)/(1-f)``."""
    instance(bet, "bet", BetSpec)
    fraction(f)
    return bet.d * bet.p / (1.0 + bet.d * f) - bet.q / (1.0 - f)


def growth_curve(bet: BetSpec, fractions: Sequence[float] | np.ndarray) -> GrowthCurve:
    """Evaluate the growth rate on an increasing grid of fractions.  A fraction
    outside [0, 1) makes a NaN rate here, but the curve refuses the grid first."""
    import numpy as np

    instance(bet, "bet", BetSpec)
    fractions = column(fractions, "fractions", float)
    with np.errstate(all="ignore"):
        rates = bet.p * np.log1p(bet.d * fractions) + bet.q * np.log1p(-fractions)
    return GrowthCurve(fractions=fractions, rates=rates)


def critical_fraction(bet: BetSpec) -> float:
    """The fraction ``f_c > f*`` at which asymptotic growth crosses zero.

    Betting any more than ``f_c`` makes long-run growth negative (and ruin
    asymptotically certain); any less keeps it positive.  Located by
    bisection in ``y = -log(1 - f)``, which moves the ``f -> 1`` log
    singularity to ``y -> inf``: there growth is ``p*log(1 + d*f) - q*y``,
    positive at the Kelly point and negative beyond ``y = p*log(1 + d)/q``.
    Bisection runs until the bracket holds no double between its ends, so
    a root as close to 1 as ``1 - 1e-10`` is found; one closer to 1 than
    the spacing of doubles there rounds to 1.0.  Requires a positive edge
    and ``p < 1``, otherwise no positive root exists and
    :class:`NoPositiveRoot` is raised.
    """
    f_star = kelly_fraction(bet)
    if f_star <= 0.0:
        raise NoPositiveRoot(f"bet (p={bet.p}, d={bet.d}) has no positive edge")
    if bet.p >= 1.0:
        raise NoPositiveRoot(
            f"bet (p={bet.p}, d={bet.d}) never loses, so growth never crosses zero"
        )
    lo = -math.log1p(-f_star)
    # twice the bound above, so growth is negative there even where f rounds to 1
    hi = 2.0 * bet.p * math.log1p(bet.d) / bet.q
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if bet.p * math.log1p(-bet.d * math.expm1(-mid)) > bet.q * mid:
            lo = mid
        else:
            hi = mid
    return -math.expm1(-hi)


def stochastic_p_fraction(p_mean: float, d: float) -> float:
    """Optimal fraction when the per-turn win probability is random.

    Only the mean of the win-probability distribution matters: the optimal
    fraction is ``max(E[P] - (1 - E[P])/d, 0)``, i.e. the Kelly fraction of
    the mean.
    """
    return kelly_fraction(BetSpec(p=p_mean, d=d))


def mixed_sequence_fractions(
    bets: Sequence[BetSpec | tuple[float, float]],
) -> list[float]:
    """Per-bet Kelly fractions for a heterogeneous sequence of wagers.

    Element-wise ``max(p_i - q_i/d_i, 0)``: bet the edge where there is
    one, nothing otherwise.  Accepts ``BetSpec`` instances or raw
    ``(p, d)`` pairs; the first domain violation is re-raised with the
    offending index.
    """
    fractions = []
    for i, bet in enumerate(bets):
        try:
            if not isinstance(bet, BetSpec):
                bet = BetSpec(*bet)
            fractions.append(kelly_fraction(bet))
        except DomainError as exc:
            raise DomainError(f"bet {i}: {exc}") from exc
        except TypeError:  # not an iterable of two arguments
            raise DomainError(f"bet {i}: must be a BetSpec or (p, d) pair, got {bet!r}") from None
    return fractions


def fractional_kelly(bet: BetSpec, alpha: float) -> float:
    """Scaled Kelly fraction ``alpha * f*`` for ``alpha`` in (0, 1].

    Trades some growth for smaller volatility and drawdowns; positive
    growth is retained for every ``alpha`` in (0, 1] because the growth
    curve is concave with its maximum at ``f*``.
    """
    within(alpha, "alpha", 0, 1, "(]")
    return alpha * kelly_fraction(bet)
