"""Analytic layer: QBER inference, secret fraction, key-rate bounds.

The QBER posterior is the truncated Beta of the pooled sifted counts,
Beta(errors + 1, sifted - errors + 1) on [0, 1/2]. Each rate ratio has
one definition, in `build_report`: the secure rate over the bound, with
the measured sifted rate when a session is given and the analytic one
otherwise; its confidence levels integrate that same ratio over the
posterior.

Rate conventions. A full channel use is one photon from each party (two
qubit slots); a channel occupancy is a single half-link slot, so rates
per occupancy are half the rates per use. The direct-transmission and
repeaterless bounds are quoted per channel use and kept fixed when
memory-node rates are expressed in either normalization, which is how
the headline enhancement ratios are defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .session import SessionReport

# Error-rate thresholds of the sifted key: security against individual
# attacks is lost at the secret-fraction zero crossing (1 - 1/sqrt(2))/2,
# unconditional security at 0.110.
QBER_INDIVIDUAL_LIMIT = (1.0 - 1.0 / math.sqrt(2.0)) / 2.0
QBER_UNCONDITIONAL_LIMIT = 0.110

_GRID_STEP = 1e-4


def binary_entropy(x):
    """Shannon entropy h(x) of a binary variable, in bits."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0) or np.any(arr > 1):
        raise ValueError("binary_entropy requires arguments in [0, 1]")
    # 0 at the end points, nan (unknown) for a nan argument.
    out = np.where(np.isnan(arr), np.nan, 0.0)
    interior = (arr > 0) & (arr < 1)
    xi = arr[interior]
    out[interior] = -xi * np.log2(xi) - (1.0 - xi) * np.log2(1.0 - xi)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def secret_fraction(qber):
    """Distillable fraction of the sifted key under individual attacks.

    r_s = max(0, h(1/2 + sqrt(E(1-E))) - h(E)). The eavesdropper term is
    the standard individual-attack information bound; the expression
    crosses zero at E = (1 - 1/sqrt(2))/2 ~= 0.1464. A nan QBER (unknown)
    gives nan, not 0.
    """
    arr = np.asarray(qber, dtype=float)
    if np.any(arr < 0) or np.any(arr > 0.5):
        raise ValueError("secret_fraction requires QBER in [0, 1/2]")
    eve = binary_entropy(0.5 + np.sqrt(arr * (1.0 - arr)))
    r = np.maximum(0.0, eve - binary_entropy(arr))
    return float(r) if np.isscalar(qber) or arr.ndim == 0 else r


@dataclass(frozen=True)
class QberPosterior:
    """Posterior density of the average QBER on a uniform prior over [0, 1/2]."""

    grid: np.ndarray
    density: np.ndarray  # normalized so sum(density) * step = 1
    ml: float
    interval_low: float
    interval_high: float

    @property
    def step(self) -> float:
        return float(self.grid[1] - self.grid[0])

    def integrated_below(self, threshold: float) -> float:
        """Posterior probability that the QBER lies below `threshold`."""
        mass = float(self.density[self.grid <= threshold].sum() * self.step)
        return min(1.0, mass)

    def std(self) -> float:
        mean = float((self.grid * self.density).sum() * self.step)
        var = float(((self.grid - mean) ** 2 * self.density).sum() * self.step)
        return math.sqrt(max(var, 0.0))


def qber_posterior(errors: int, sifted: int) -> QberPosterior:
    """Posterior of the average QBER from pooled error counts.

    A product of per-cell binomial likelihoods in one error rate E is the
    binomial likelihood of the pooled counts, so on a uniform prior the
    posterior is Beta(errors + 1, sifted - errors + 1) truncated to
    [0, 1/2]. It is evaluated on a uniform grid over that range. The
    credible interval integrates 34.1% of posterior mass on each side of
    the maximum-likelihood point, spilling to the other side at a domain
    edge.
    """
    if not 0 <= errors <= sifted:
        raise ValueError(f"invalid counts: {errors} errors of {sifted}")
    if sifted == 0:
        raise ValueError("qber_posterior requires at least one sifted coincidence")

    grid = np.arange(0.0, 0.5 + _GRID_STEP / 2.0, _GRID_STEP)
    loglik = np.zeros_like(grid)
    with np.errstate(divide="ignore"):
        if errors > 0:
            loglik += errors * np.log(grid)
        if sifted > errors:
            loglik += (sifted - errors) * np.log1p(-grid)
    loglik -= loglik.max()
    density = np.exp(loglik)
    density /= density.sum() * _GRID_STEP

    ml_idx = int(np.argmax(density))
    low_idx, high_idx = _central_interval(density, ml_idx, _GRID_STEP, 0.341)
    return QberPosterior(
        grid=grid,
        density=density,
        ml=float(grid[ml_idx]),
        interval_low=float(grid[low_idx]),
        interval_high=float(grid[high_idx]),
    )


def _central_interval(
    density: np.ndarray, ml_idx: int, step: float, side_mass: float
) -> tuple[int, int]:
    cdf = np.cumsum(density) * step
    total = cdf[-1]
    at_ml = cdf[ml_idx]
    below = min(side_mass, at_ml)
    above = min(side_mass, total - at_ml)
    # Spill unreachable mass to the other side so the interval always
    # holds 2 * side_mass when possible.
    below += side_mass - above if above < side_mass else 0.0
    above += side_mass - min(side_mass, at_ml) if at_ml < side_mass else 0.0
    low_idx = int(np.searchsorted(cdf, max(at_ml - below, 0.0)))
    high_idx = int(np.searchsorted(cdf, min(at_ml + above, total - step * 1e-9)))
    return min(low_idx, ml_idx), max(min(high_idx, len(density) - 1), ml_idx)


def rate_direct_bound(p_ab: float, bias: float = 0.5) -> float:
    """Secret-key bound for direct-transmission MDI-QKD, per channel use.

    Unbiased bases give p/2; a basis bias q raises the sifting yield to
    (q^2 + (1-q)^2) p, e.g. 0.98 p at a 99:1 bias.
    """
    if not 0 <= p_ab <= 1:
        raise ValueError(f"p_ab must lie in [0, 1], got {p_ab}")
    if not 0 <= bias <= 1:
        raise ValueError(f"bias must lie in [0, 1], got {bias}")
    return (bias**2 + (1.0 - bias) ** 2) * p_ab


@dataclass(frozen=True)
class PlobBound:
    """Repeaterless secret-key capacity per channel use."""

    linear: float  # 1.44 * p, the small-p linearization
    exact: float   # -log2(1 - p)


def plob_bound(p_ab: float) -> PlobBound:
    if not 0 <= p_ab < 1:
        raise ValueError(f"p_ab must lie in [0, 1), got {p_ab}")
    return PlobBound(linear=1.44 * p_ab, exact=-math.log2(1.0 - p_ab))


def sifted_enhancement(eta: float, n_pi: int, n_sub: int) -> float:
    """Sifted-rate gain of the memory node over direct transmission.

    Per channel occupancy, relative to the p/2 direct bound:

        eta^2 (n_pi - 1)(n_pi - 2) n_sub / (2 n_pi)

    Independent of the photon load n_m for a fixed pulse layout.
    """
    if not 0 <= eta <= 1:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    if n_pi < 3:
        raise ValueError(f"n_pi must be at least 3, got {n_pi}")
    if n_sub < 1:
        raise ValueError(f"n_sub must be at least 1, got {n_sub}")
    try:
        return eta**2 * (n_pi - 1) * (n_pi - 2) * n_sub / (2.0 * n_pi)
    except OverflowError:
        raise ValueError(
            "n_pi and n_sub must be representable as floats (below about 1.8e308)"
        ) from None


@dataclass(frozen=True)
class BoundsConfig:
    """Inputs of the analytic rate pipeline."""

    eta: float
    n_pi: int
    n_sub: int
    p_ab: float
    basis_bias: float = 0.5

    def __post_init__(self) -> None:
        if not 0 <= self.p_ab < 1:
            raise ValueError(f"p_ab must lie in [0, 1), got {self.p_ab}")
        if not 0 <= self.basis_bias <= 1:
            raise ValueError(f"basis_bias must lie in [0, 1], got {self.basis_bias}")


@dataclass(frozen=True)
class KeyRateReport:
    """Secret-key rates, bound ratios and confidence levels.

    Rates and ratios are stored per channel use; each per-occupancy value
    is half of it, against the same per-use bounds.
    """

    p_ab: float
    basis_bias: float
    qber_ml: float
    qber_low: float
    qber_high: float
    r_s: float
    sifted_per_use: float
    ratio_rmax_per_use: float
    ratio_plob_per_use: float
    confidence_vs_rmax: Optional[float]
    confidence_vs_plob: Optional[float]

    @property
    def secure_per_use(self) -> float:
        return self.r_s * self.sifted_per_use

    @property
    def sifted_per_occupancy(self) -> float:
        return self.sifted_per_use / 2.0

    @property
    def secure_per_occupancy(self) -> float:
        return self.secure_per_use / 2.0

    @property
    def ratio_rmax_per_occupancy(self) -> float:
        return self.ratio_rmax_per_use / 2.0

    @property
    def ratio_plob_per_occupancy(self) -> float:
        return self.ratio_plob_per_use / 2.0


def build_report(
    qber: Union[float, QberPosterior],
    bounds: BoundsConfig,
    session: Optional[SessionReport] = None,
) -> KeyRateReport:
    """Assemble the rate report; the only definition of each rate ratio.

    The sifted rate per use is the session's measured rate when a session
    report is given, and otherwise the analytic rate: per occupancy,
    sifted_enhancement times the direct bound. The secure rate is r_s
    times the sifted rate, and R/Rmax and R/PLOB divide it by
    `rate_direct_bound` and by the linear PLOB bound, both per use (nan
    against a zero bound). In the analytic case this is the identity
    ratio_rmax_per_use = 2 * sifted_enhancement * r_s. The confidence
    against each bound is the posterior mass of error rates at which that
    same ratio exceeds one. A nan `qber` (no sifted key) makes every
    secure rate and ratio nan.
    """
    if isinstance(qber, QberPosterior):
        e_ml, e_low, e_high = qber.ml, qber.interval_low, qber.interval_high
        posterior: Optional[QberPosterior] = qber
    else:
        e_ml = e_low = e_high = float(qber)
        posterior = None

    r_s = secret_fraction(e_ml)
    r_max = rate_direct_bound(bounds.p_ab, bounds.basis_bias)
    plob = plob_bound(bounds.p_ab).linear
    if session is not None:
        sifted_use = session.sifted_rate_per_use()
    else:
        enhancement = sifted_enhancement(bounds.eta, bounds.n_pi, bounds.n_sub)
        sifted_use = 2.0 * enhancement * r_max

    def ratio(rs, bound: float):
        # `rs * nan` keeps the shape of a grid of secret fractions.
        return rs * sifted_use / bound if bound > 0 else rs * math.nan

    conf_rmax = conf_plob = None
    if posterior is not None:
        rs_grid = secret_fraction(posterior.grid)
        weight = posterior.density * posterior.step
        conf_rmax = float(weight[ratio(rs_grid, r_max) > 1.0].sum())
        conf_plob = float(weight[ratio(rs_grid, plob) > 1.0].sum())

    return KeyRateReport(
        p_ab=bounds.p_ab,
        basis_bias=bounds.basis_bias,
        qber_ml=e_ml,
        qber_low=e_low,
        qber_high=e_high,
        r_s=r_s,
        sifted_per_use=sifted_use,
        ratio_rmax_per_use=ratio(r_s, r_max),
        ratio_plob_per_use=ratio(r_s, plob),
        confidence_vs_rmax=conf_rmax,
        confidence_vs_plob=conf_plob,
    )
