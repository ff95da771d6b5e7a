"""Auction clearing under divergence of opinion (winner's curse mechanics).

M potential buyers each hold a private price estimate and demand one
share at any price up to it.  With N shares on offer (plus s extra from
short sellers), the market clears where demand meets supply: the
(N + s)-th highest estimate.  When supply is scarce relative to buyers
((N + s)/M < 1/2), the clearing price sits in the upper tail of the
opinion distribution, above the average estimate, and the gap widens
with dispersion.  Short selling adds supply and pulls the price down
the demand curve.

Two distribution modes:

* Normal: the clearing price is the idealized quantile
  mean + sd * ppf(1 - (N+s)/M), the large-M limit of the order
  statistic.
* Empirical: the exact order statistic of a concrete estimate sample.

Normal distributions put mass on negative prices at large dispersion;
the optional truncate flag clamps at zero (off by default).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (MAX_LENGTH, DomainError, NoClear, column, count, instance, integer, shown,
                     within)
from .seeding import stream


@dataclass(frozen=True)
class NormalOpinions:
    """Gaussian divergence of opinion around a consensus mean."""

    mean: float
    sd: float
    truncate: bool = False

    def __post_init__(self) -> None:
        within(self.mean, "mean", -math.inf, math.inf, "()")
        within(self.sd, "sd", 0, math.inf, "[)")


@dataclass(frozen=True, eq=False)
class EmpiricalOpinions:
    """A concrete sample of buyer estimates, one per potential buyer, read-only."""

    samples: np.ndarray
    truncate: bool = False

    def __post_init__(self) -> None:
        samples = column(self.samples, "samples", float)
        if self.truncate:
            samples = column(np.maximum(samples, 0.0), "samples", float)
        object.__setattr__(self, "samples", samples)


OpinionDistribution = NormalOpinions | EmpiricalOpinions


@dataclass(frozen=True)
class AuctionSpec:
    """N shares offered to M potential buyers, plus short-sold supply."""

    n_shares: int
    m_buyers: int
    short_supply: int = 0

    def __post_init__(self) -> None:
        count(self.m_buyers, "m_buyers")
        integer(self.n_shares, "n_shares", 0)
        integer(self.short_supply, "short_supply", 0)
        if self.n_shares + self.short_supply < 1:
            raise DomainError("total supply must be at least one share")

    @property
    def supply(self) -> int:
        return self.n_shares + self.short_supply

    def quantile_level(self) -> float:
        """Demand-curve level of the marginal buyer: 1 - supply/M."""
        if self.supply > self.m_buyers:
            raise NoClear(
                f"supply {shown(self.supply)} exceeds the {shown(self.m_buyers)} potential buyers"
            )
        return 1.0 - self.supply / self.m_buyers


def _kth_highest(dist: EmpiricalOpinions, auction: AuctionSpec, k: int) -> float:
    """The k-th highest estimate of a sample that holds one per buyer."""
    samples = dist.samples
    if samples.size != auction.m_buyers:
        raise DomainError(
            f"empirical mode needs one estimate per buyer: "
            f"{samples.size} samples vs M={shown(auction.m_buyers)}"
        )
    # k-th highest = element at ascending index size - k.
    return float(np.partition(samples, samples.size - k)[samples.size - k])


def clearing_price(dist: OpinionDistribution, auction: AuctionSpec) -> float:
    """Price set by the marginal optimist: the supply-th highest estimate.

    Normal mode uses the exact quantile; with supply = M the level is 0
    and the idealized price diverges to -inf (truncate clamps it to 0),
    unless sd is 0 and every estimate is the mean.
    Empirical mode requires exactly M samples and takes the order
    statistic directly.
    """
    level = auction.quantile_level()
    if isinstance(dist, NormalOpinions):
        from scipy.special import ndtri  # the kernel of scipy.stats.norm.ppf

        if dist.sd == 0.0 and level == 0.0:
            price = dist.mean  # not mean + 0 * -inf
        else:
            price = dist.mean + dist.sd * float(ndtri(level))
        return max(price, 0.0) if dist.truncate else price
    instance(dist, "dist", NormalOpinions, EmpiricalOpinions)
    return _kth_highest(dist, auction, auction.supply)


def dispersion_sweep(
    mean: float, sds: Sequence[float], auction: AuctionSpec
) -> np.ndarray:
    """Clearing prices across dispersion levels, Normal mode.

    Strictly increasing in sd when the quantile level is above 1/2,
    pinned at the mean at 1/2, decreasing below.
    """
    sds = column(sds, "sds", float)
    if np.any(np.diff(sds) < 0):
        raise DomainError("sds must be nondecreasing")
    return np.asarray([clearing_price(NormalOpinions(mean, sd), auction) for sd in sds])


def short_selling_effect(
    dist: OpinionDistribution, auction: AuctionSpec, short_supplies: Sequence[int]
) -> np.ndarray:
    """Clearing prices as short-sold supply is varied; nonincreasing in s.
    ``AuctionSpec`` checks each short supply."""
    return np.asarray([
        clearing_price(dist, dataclasses.replace(auction, short_supply=s)) for s in short_supplies
    ])


def reauction_price(dist: EmpiricalOpinions, auction: AuctionSpec) -> float:
    """Price of an immediate second auction of the same quantity.

    The first auction's winners (the supply-many most optimistic buyers)
    leave the market; selling the same quantity to the remaining buyers
    clears at the next tranche of the demand curve, i.e. the
    (2*supply)-th highest of the original estimates.  This is the
    winner's-curse observation: repeating the sale immediately fetches
    a lower price.
    """
    instance(dist, "dist", EmpiricalOpinions)
    if 2 * auction.supply > auction.m_buyers:
        raise NoClear(
            f"re-auction needs {shown(2 * auction.supply)} willing buyers, "
            f"only {shown(auction.m_buyers)} exist"
        )
    return _kth_highest(dist, auction, 2 * auction.supply)


def sample_normal_opinions(
    mean: float, sd: float, m_buyers: int, root_seed: int, truncate: bool = False
) -> EmpiricalOpinions:
    """Draw one estimate per buyer from Normal(mean, sd), seeded stream."""
    integer(m_buyers, "m_buyers", 1, MAX_LENGTH)
    NormalOpinions(mean, sd)
    with np.errstate(over="ignore"):
        draws = mean + sd * stream(root_seed).standard_normal(m_buyers)
    if not np.all(np.isfinite(draws)):
        raise DomainError(f"draws from Normal({mean}, {sd}) overflow double precision")
    return EmpiricalOpinions(samples=draws, truncate=truncate)
