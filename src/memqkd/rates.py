"""Analytic layer: QBER inference, secret fraction, key-rate bounds.

The QBER posterior is the truncated Beta of the pooled sifted counts,
Beta(errors + 1, sifted - errors + 1) on [0, 1/2], with an exact CDF.
Each rate ratio has one definition, in `build_report`: the secure rate
over the bound, with the measured sifted rate when a session is given and
the analytic one otherwise; its confidence level is the posterior
probability that this same ratio exceeds one.

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
from typing import Callable, Optional, Union

from .session import SessionReport

# Error rate at which the secret fraction under individual attacks
# reaches zero: (1 - 1/sqrt(2))/2.
QBER_INDIVIDUAL_LIMIT = (1.0 - 1.0 / math.sqrt(2.0)) / 2.0


def binary_entropy(x: float) -> float:
    """Shannon entropy h(x) of a binary variable, in bits (nan for nan)."""
    if x < 0 or x > 1:
        raise ValueError("binary_entropy requires arguments in [0, 1]")
    if x == 0 or x == 1:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def secret_fraction(qber: float) -> float:
    """Distillable fraction of the sifted key under individual attacks.

    r_s = max(0, h(1/2 + sqrt(E(1-E))) - h(E)). The eavesdropper term is
    the standard individual-attack information bound; the expression
    decreases strictly to its zero crossing at E = (1 - 1/sqrt(2))/2
    ~= 0.1464. A nan QBER (unknown) gives nan, not 0.
    """
    if qber < 0 or qber > 0.5:
        raise ValueError("secret_fraction requires QBER in [0, 1/2]")
    r = binary_entropy(0.5 + math.sqrt(qber * (1.0 - qber))) - binary_entropy(qber)
    return 0.0 if r < 0 else r


def _secret_fraction_slope(qber: float) -> float:
    """d r_s / dE below QBER_INDIVIDUAL_LIMIT, from h'(x) = log2((1 - x) / x)."""
    root = math.sqrt(qber * (1.0 - qber))
    return (math.log2((0.5 - root) / (0.5 + root)) * (0.5 - qber) / root
            - math.log2((1.0 - qber) / qber))


def _solve(fn: Callable, target: float, x: float, lo: float, hi: float, tol: float) -> float:
    """The x in [lo, hi] where the increasing fn(x) equals target.

    fn(x) returns (value, slope, bend), bend being the slope's logarithmic
    derivative. Steps are Halley's (Newton's for bend 0); one that would
    leave the shrinking bracket bisects it. The first x whose value lies
    within `tol` of the target returns after one more step.
    """
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    while True:
        value, slope, bend = fn(x)
        lo, hi = (x, hi) if value < target else (lo, x)
        step = (target - value) / slope if slope > 0 else math.nan
        new = x + step / (1.0 + 0.5 * step * bend)
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        elif abs(target - value) <= tol:
            return new
        if new == x:
            return x
        x = new


def _log_front(x: float, a: int, b: int) -> float:
    """log(x^a (1 - x)^b / B(a, b)) for integers a, b >= 1.

    1 / B(a, b) = (a + b - 1) C(a + b - 2, a - 1) exactly when a or b is
    small. Otherwise Stirling's series pairs each power with its lgamma
    terms, so that the O(a + b) parts cancel before rounding.
    """
    if min(a, b) <= 20:
        return (a * math.log(x) + b * math.log1p(-x)
                + math.log((a + b - 1) * math.comb(a + b - 2, a - 1)))

    def tail(z: float) -> float:  # lgamma(z) - (z - 1/2) log z + z - log(2 pi) / 2
        w = 1.0 / (z * z)
        return (1 / 12 - w * (1 / 360 - w * (1 / 1260 - w * (1 / 1680 - w / 1188)))) / z

    t = x * (a + b) - a  # t / a rounds to -1 for x below about eps a / (a + b)
    head = a * math.log1p(t / a) if 2.0 * t > -a else a * (math.log(x) + math.log1p(b / a))
    return (head + b * math.log1p(-t / b) + tail(a + b) - tail(a) - tail(b)
            + 0.5 * math.log(a * b / (2.0 * math.pi * (a + b))))


def _log_ibeta(x: float, a: int, b: int) -> float:
    """log I_x(a, b), the regularized incomplete beta, for 0 < x < 1.

    I_x(a, b) = front * cf / a, with the continued fraction cf summed by
    the modified Lentz method; it converges in O(sqrt(a + b)) steps at
    worst for x < (a + 1) / (a + b + 2), so above that point the upper
    tail 1 - I_x(a, b) = I_(1-x)(b, a) is summed instead.
    """
    upper = x >= (a + 1.0) / (a + b + 2.0)
    front = _log_front(x, a, b)
    # Float (not integer) arithmetic makes the loop about 40% faster.
    x, a, b = (1.0 - x, float(b), float(a)) if upper else (x, float(a), float(b))
    tiny = 1e-300  # stands in for an exactly zero denominator
    c, d = 1.0, 1.0 / ((1.0 - (a + b) * x / (a + 1.0)) or tiny)
    cf, m = d, 0.0
    while abs(d * c - 1.0) >= 1e-15:
        m += 1.0
        k = a + 2.0 * m
        num = m * (b - m) * x / ((k - 1) * k)
        d = 1.0 / ((1.0 + num * d) or tiny)
        c = (1.0 + num / c) or tiny
        cf *= d * c
        num = -(a + m) * (a + b + m) * x / (k * (k + 1))
        d = 1.0 / ((1.0 + num * d) or tiny)
        c = (1.0 + num / c) or tiny
        cf *= d * c
    log_tail = front + math.log(cf / a)
    return math.log1p(-math.exp(log_tail)) if upper else log_tail


class TruncatedBeta:
    """Posterior of the average QBER on a uniform prior over [0, 1/2].

    A product of per-cell binomial likelihoods in one error rate E is the
    binomial likelihood of the pooled counts, so the posterior is
    Beta(errors + 1, sifted - errors + 1) truncated to [0, 1/2], with ML
    point min(errors / sifted, 1/2). The CDF I_x(a, b) / I_1/2(a, b) is
    formed in log space, so it also holds where I_1/2 underflows.
    """

    def __init__(self, errors: int, sifted: int) -> None:
        if not 0 <= errors <= sifted or sifted == 0:
            raise ValueError(f"the QBER posterior needs 0 <= errors <= sifted and "
                             f"sifted > 0, got {errors} errors of {sifted}")
        self.a, self.b = errors + 1, sifted - errors + 1
        self.ml = min(errors / sifted, 0.5)
        self._log_mass = _log_ibeta(0.5, self.a, self.b)

    def cdf(self, x: float) -> float:
        """Posterior probability that the QBER lies below x."""
        if not 0 < x < 0.5:
            return 0.0 if x <= 0 else 1.0
        return min(math.exp(_log_ibeta(x, self.a, self.b) - self._log_mass), 1.0)

    def quantile(self, p: float, guess: float = 0.25) -> float:
        """The QBER below which the posterior holds probability p; the
        search for it starts at `guess`."""
        if not 0 < p < 1:
            return 0.0 if p <= 0 else 0.5
        a, b, log_mass = self.a, self.b, self._log_mass

        def cdf_density_bend(x: float) -> tuple[float, float, float]:
            log_density = _log_front(x, a, b) - math.log(x) - math.log1p(-x) - log_mass
            return self.cdf(x), math.exp(log_density), (a - 1) / x - (b - 1) / (1.0 - x)

        return _solve(cdf_density_bend, p, guess, 0.0, 0.5, 1e-4 * min(p, 1.0 - p))

    def interval(self) -> tuple[float, float]:
        """68.2% credible interval: 34.1% each side of the ML point, any
        mass a domain edge cuts off one side spilling to the other."""
        low = min(max(self.cdf(self.ml) - 0.341, 0.0), 1.0 - 0.682)
        sigma = math.sqrt(self.a * self.b / (self.a + self.b + 1.0)) / (self.a + self.b)
        return self.quantile(low, self.ml - sigma), self.quantile(low + 0.682, self.ml + sigma)


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


def plob_bound(p_ab: float) -> float:
    """Repeaterless secret-key capacity per channel use, linearized: 1.44 p."""
    if not 0 <= p_ab <= 1:
        raise ValueError(f"p_ab must lie in [0, 1], got {p_ab}")
    return 1.44 * p_ab


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


@dataclass(frozen=True)
class KeyRateReport:
    """Secret-key rates, bound ratios and confidence levels, stored per
    channel use; each per-occupancy value is half of it, against the same
    per-use bounds."""

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


def _confidence(posterior: TruncatedBeta, rs_needed: float) -> float:
    """Posterior probability that the secret fraction exceeds rs_needed.

    r_s falls strictly from 1 at E = 0 to 0 at QBER_INDIVIDUAL_LIMIT, so
    r_s(E) > rs_needed exactly below the E* where r_s(E*) = rs_needed.
    """
    if not 0 < rs_needed < 1:
        return 0.0

    def rising(e: float) -> tuple[float, float, float]:
        return -secret_fraction(e), -_secret_fraction_slope(e), 0.0

    return posterior.cdf(
        _solve(rising, -rs_needed, posterior.ml, 0.0, QBER_INDIVIDUAL_LIMIT, 1e-13))


def build_report(source: Union[float, SessionReport], bounds: BoundsConfig) -> KeyRateReport:
    """Assemble the rate report; the only definition of each rate ratio.

    `source` is an error rate (the analytic report) or a session report,
    whose sifted counts give the QBER posterior: its ML point, 68.2%
    interval and confidence levels. The sifted rate per use is the
    session's, or else the analytic one, sifted_enhancement times the
    direct bound per occupancy. The secure rate is r_s times the sifted
    rate; R/Rmax and R/PLOB divide it by `rate_direct_bound` and by the
    linear PLOB bound, both per use (nan against a zero bound), so the
    analytic ratio_rmax_per_use is 2 * sifted_enhancement * r_s. The
    confidence against a bound is the posterior probability that this
    same ratio exceeds one. Without sifted key the error rate, and every
    secure rate built on it, is unknown (nan) rather than perfect.
    """
    r_max = rate_direct_bound(bounds.p_ab, bounds.basis_bias)
    plob = plob_bound(bounds.p_ab)
    conf_rmax = conf_plob = None
    if isinstance(source, SessionReport):
        sifted_use = source.sifted_rate_per_use()
        e_ml = e_low = e_high = math.nan
        if source.sifted:
            posterior = TruncatedBeta(source.errors, source.sifted)
            e_ml, (e_low, e_high) = posterior.ml, posterior.interval()
            conf_rmax = _confidence(posterior, r_max / sifted_use)
            conf_plob = _confidence(posterior, plob / sifted_use)
    else:
        sifted_use = 2.0 * sifted_enhancement(bounds.eta, bounds.n_pi, bounds.n_sub) * r_max
        e_ml = e_low = e_high = float(source)
    r_s = secret_fraction(e_ml)

    def ratio(bound: float) -> float:
        return r_s * sifted_use / bound if bound > 0 else math.nan

    return KeyRateReport(
        qber_ml=e_ml, qber_low=e_low, qber_high=e_high, r_s=r_s, sifted_per_use=sifted_use,
        ratio_rmax_per_use=ratio(r_max), ratio_plob_per_use=ratio(plob),
        confidence_vs_rmax=conf_rmax, confidence_vs_plob=conf_plob,
    )
