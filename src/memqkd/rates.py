"""Analytic layer: QBER inference, secret fraction, key-rate bounds.

The QBER posterior is the truncated Beta of the pooled sifted counts,
Beta(errors + 1, sifted - errors + 1) on [0, 1/2], with an exact CDF.
Each round of its solves runs on numpy arrays over lanes (posteriors, or
points of one): `build_reports` solves a sweep's intervals together, and
`TruncatedBeta.cdf` and `.interval` run the same code on one posterior.
Every +, -, *, / and comparison is a numpy operation, which IEEE rounds
alike at every CPU dispatch level; every log, log1p, exp and sqrt is a
`math` (libm) call on each lane, as numpy's own round differently on
different CPUs. So each float is the one that scalar code in the same
order gives, whatever the round's size.
Each rate ratio has one definition, on `KeyRateReport`: the secure rate
over the bound, with a session's measured sifted rate (`build_report`) or
the analytic one (`analytic_report`); its confidence level is the
posterior probability that this same ratio exceeds one.

Rate conventions. A full channel use is one photon from each party (two
qubit slots); a channel occupancy is a single half-link slot, so rates
per occupancy are half the rates per use. The direct-transmission and
repeaterless bounds are quoted per channel use and kept fixed when
memory-node rates are expressed in either normalization, which is how
the headline enhancement ratios are defined.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .config import ScenarioConfig
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


def _stirling_tail(z: float) -> float:
    """lgamma(z) - (z - 1/2) log z + z - log(2 pi) / 2, for z > 20."""
    w = 1.0 / (z * z)
    return (1 / 12 - w * (1 / 360 - w * (1 / 1260 - w * (1 / 1680 - w / 1188)))) / z


def _front_terms(a: int, b: int) -> tuple[float, float, float, float]:
    """The terms of `_log_front` that do not depend on x: log((a + b - 1)
    C(a + b - 2, a - 1)) and three zeros when a or b is small, else the
    three Stirling tails and the half log."""
    if min(a, b) <= 20:
        return math.log((a + b - 1) * math.comb(a + b - 2, a - 1)), 0.0, 0.0, 0.0
    return (_stirling_tail(a + b), _stirling_tail(a), _stirling_tail(b),
            0.5 * math.log(a * b / (2.0 * math.pi * (a + b))))


def _each(f, *lanes: np.ndarray) -> np.ndarray:
    """f of each lane's Python floats. A `math` (libm) call gives the same
    float on every CPU, where numpy's own exp and log depend on its dispatch."""
    return np.fromiter(map(f, *(v.tolist() for v in lanes)), float, len(lanes[0]))


def _log_front(x: np.ndarray, a: np.ndarray, b: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """log(x^a (1 - x)^b / B(a, b)) on each lane, for integers a, b >= 1,
    with the row `_front_terms(a, b)` of `terms` added in the order written
    here.

    1 / B(a, b) = (a + b - 1) C(a + b - 2, a - 1) exactly when a or b is
    small. Otherwise Stirling's series pairs each power with its lgamma
    terms, so that the O(a + b) parts cancel before rounding.
    """
    front = np.empty_like(x)
    small = np.minimum(a, b) <= 20
    if small.any():
        xs = x[small]
        front[small] = (a[small] * _each(math.log, xs) + b[small] * _each(math.log1p, -xs)
                        + terms[small, 0])
    big = ~small
    if big.any():
        x, a, b, (tail_ab, tail_a, tail_b, half_log) = x[big], a[big], b[big], terms[big].T
        t = x * (a + b) - a  # t / a rounds to -1 for x below about eps a / (a + b)
        near = 2.0 * t > -a
        far = ~near
        head = np.empty_like(x)
        head[near] = a[near] * _each(math.log1p, t[near] / a[near])
        head[far] = a[far] * (_each(math.log, x[far]) + _each(math.log1p, b[far] / a[far]))
        front[big] = head + b * _each(math.log1p, -t / b) + tail_ab - tail_a - tail_b + half_log
    return front


# A round of `_log_ibetas` with at least this many lanes sums their
# continued fractions as one numpy loop; a smaller one sums them one by one.
_BATCH_MIN = 64
_TINY = 1e-300  # stands in for an exactly zero Lentz denominator


def _lentz(x: float, a: float, b: float, state: Optional[tuple] = None) -> float:
    """The continued fraction of I_x(a, b), summed by the modified Lentz
    method until a step moves it by less than 1e-15 relative; from the
    start, or on from `state` = (m, c, d, cf), a sum that stopped after
    step m."""
    if state is None:
        d = 1.0 / ((1.0 - (a + b) * x / (a + 1.0)) or _TINY)
        state = 0.0, 1.0, d, d
    m, c, d, cf = state
    while abs(d * c - 1.0) >= 1e-15:
        m += 1.0
        k = a + 2.0 * m
        num = m * (b - m) * x / ((k - 1) * k)
        d = 1.0 / ((1.0 + num * d) or _TINY)
        c = (1.0 + num / c) or _TINY
        cf *= d * c
        num = -(a + m) * (a + b + m) * x / (k * (k + 1))
        d = 1.0 / ((1.0 + num * d) or _TINY)
        c = (1.0 + num / c) or _TINY
        cf *= d * c
    return cf


def _lentz_lanes(x: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`_lentz` on each lane: the same correctly rounded operations in the
    same order, each lane leaving the loop at its own stopping step, so each
    lane's float is the scalar one whatever numpy's CPU dispatch. Once fewer
    than `_BATCH_MIN` lanes are left, `_lentz` sums each on from its state.
    a + b and -a are formed once: -a - m is -(a + m) under round to nearest."""
    def nonzero(v: np.ndarray) -> np.ndarray:  # `v or _TINY` on each lane
        return v if v.all() else np.where(v == 0.0, _TINY, v)

    out = np.empty_like(x)
    lanes = np.arange(len(x))
    apb, neg_a = a + b, -a
    c, d = np.ones_like(x), 1.0 / nonzero(1.0 - apb * x / (a + 1.0))
    cf, m = d, 0.0
    while True:
        going = abs(d * c - 1.0) >= 1e-15
        if not going.all():
            out[lanes[~going]] = cf[~going]
            lanes, x, a, b, apb, neg_a, c, d, cf = (
                v[going] for v in (lanes, x, a, b, apb, neg_a, c, d, cf))
            if len(lanes) < _BATCH_MIN:
                break
        m += 1.0
        k = a + 2.0 * m
        num = m * (b - m) * x / ((k - 1) * k)
        d = 1.0 / nonzero(1.0 + num * d)
        c = nonzero(1.0 + num / c)
        cf = cf * (d * c)
        num = (neg_a - m) * (apb + m) * x / (k * (k + 1))
        d = 1.0 / nonzero(1.0 + num * d)
        c = nonzero(1.0 + num / c)
        cf = cf * (d * c)
    left = zip(*(v.tolist() for v in (lanes, x, a, b, c, d, cf)))
    for lane, lane_x, lane_a, lane_b, *lane_cdcf in left:
        out[lane] = _lentz(lane_x, lane_a, lane_b, (m, *lane_cdcf))
    return out


def _log_ibetas(x: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log I_x(a, b), the regularized incomplete beta, and the log front
    `_log_front` on each lane: a point 0 < x < 1 and a posterior's row
    (a, b, *front terms) of `TruncatedBeta._row`.

    I_x(a, b) = front * cf / a, with the continued fraction cf of `_lentz`;
    it converges in O(sqrt(a + b)) steps at worst for x < (a + 1) / (a + b
    + 2), so above that point the upper tail 1 - I_x(a, b) = I_(1-x)(b, a)
    is summed instead. At `_BATCH_MIN` lanes or more the continued
    fractions run together (`_lentz_lanes`), with the same floats.
    """
    a, b = rows[:, 0], rows[:, 1]
    front = _log_front(x, a, b, rows[:, 2:])
    upper = x >= (a + 1.0) / (a + b + 2.0)
    x, a, b = np.where(upper, 1.0 - x, x), np.where(upper, b, a), np.where(upper, a, b)
    cf = _lentz_lanes(x, a, b) if len(x) >= _BATCH_MIN else _each(_lentz, x, a, b)
    log_ibeta = front + _each(math.log, cf / a)
    log_ibeta[upper] = _each(math.log1p, -_each(math.exp, log_ibeta[upper]))
    return log_ibeta, front


def _cdfs(log_ibeta: np.ndarray, log_mass: np.ndarray) -> np.ndarray:
    """The truncated CDF I_x(a, b) / I_1/2(a, b) of each lane, from the logs."""
    return np.minimum(_each(math.exp, log_ibeta - log_mass), 1.0)


class TruncatedBeta:
    """Posterior of the pooled average of the X and Y error rates, on a
    uniform prior over [0, 1/2].

    The counts of both bases are pooled, as if every sifted key had one
    error rate E: a product of per-cell binomial likelihoods in one E is
    the binomial likelihood of the pooled counts, so the posterior is
    Beta(errors + 1, sifted - errors + 1) truncated to [0, 1/2], with ML
    point min(errors / sifted, 1/2). Where the bases' rates differ it
    describes their average, weighted by the sifted counts, and not
    either basis. The CDF I_x(a, b) / I_1/2(a, b) is formed in log space,
    so it also holds where I_1/2 underflows. `cdf` and `interval` run the
    array code that `build_reports` runs on many posteriors on this one.
    """

    def __init__(self, errors: int, sifted: int) -> None:
        if not 0 <= errors <= sifted or sifted == 0:
            raise ValueError(f"the QBER posterior needs 0 <= errors <= sifted and "
                             f"sifted > 0, got {errors} errors of {sifted}")
        self.a, self.b = errors + 1, sifted - errors + 1
        self.ml = min(errors / sifted, 0.5)
        self._row = (self.a, self.b, *_front_terms(self.a, self.b))

    def cdf(self, x: float) -> float:
        """Posterior probability that the QBER lies below x."""
        if not 0 < x < 0.5:
            return 0.0 if x <= 0 else 1.0
        log_ibeta, _ = _log_ibetas(np.array([x, 0.5]), np.array([self._row] * 2, dtype=float))
        return _cdfs(log_ibeta[:1], log_ibeta[1:]).item()

    def interval(self) -> tuple[float, float]:
        """68.2% credible interval: 34.1% each side of the ML point, any
        mass a domain edge cuts off one side spilling to the other."""
        return _intervals([self])[0]


def _quantiles(rows: np.ndarray, log_mass: np.ndarray, p: np.ndarray,
               guess: np.ndarray) -> np.ndarray:
    """The QBER below which each lane's posterior (row `rows[i]`, log mass
    log I_1/2(a, b) `log_mass[i]`) holds probability `p[i]`: 0 or 1/2 for
    p outside (0, 1), else Halley steps on the CDF from `guess[i]`, which
    must lie inside the bracket (0, 1/2). Each evaluated point shrinks the
    bracket, and a step that would leave it bisects it; the step from the
    first point whose CDF lies within 1e-4 min(p, 1 - p) of p is returned,
    or the first point that a step no longer moves. The searches run in
    lockstep, every unfinished one's next point in one `_log_ibetas` call."""
    found = np.where(p <= 0, 0.0, 0.5)
    going = (0 < p) & (p < 1)
    lanes = np.flatnonzero(going)
    rows, log_mass, p, x = rows[going], log_mass[going], p[going], guess[going]
    lo, hi = np.zeros_like(x), np.full_like(x, 0.5)
    # An overflow, a zero divisor or an invalid operation gives inf or nan
    # silently, and a step to inf or nan bisects the bracket.
    with np.errstate(all="ignore"):
        while len(lanes):
            log_ibeta, front = _log_ibetas(x, rows)
            a, b = rows[:, 0], rows[:, 1]
            cdf = _cdfs(log_ibeta, log_mass)
            density = _each(math.exp, front - _each(math.log, x) - _each(math.log1p, -x) - log_mass)
            bend = (a - 1.0) / x - (b - 1.0) / (1.0 - x)  # the density's log-derivative
            below = cdf < p
            lo, hi = np.where(below, x, lo), np.where(below, hi, x)
            step = np.where(density > 0, (p - cdf) / density, np.nan)
            new = x + step / (1.0 + 0.5 * step * bend)
            inside = (lo < new) & (new < hi)
            # A step that rounds onto its own point, which is now a bracket
            # end and so not inside, ends the search there.
            stuck = new == x
            done = stuck | (inside & (np.abs(p - cdf) <= 1e-4 * np.minimum(p, 1.0 - p)))
            new = np.where(inside | stuck, new, 0.5 * (lo + hi))
            done |= new == x
            found[lanes[done]] = new[done]
            going = ~done
            lanes, rows, log_mass, p, lo, hi, x = (
                v[going] for v in (lanes, rows, log_mass, p, lo, hi, new))
    return found


def _intervals(posteriors: Sequence[TruncatedBeta]) -> list[tuple[float, float]]:
    """`TruncatedBeta.interval` of each posterior: one round evaluates every
    mass and every CDF at an ML point inside (0, 1/2), then `_quantiles`
    finds both ends of every interval in lockstep, from ml + sigma of the
    untruncated Beta and from ml - sigma or nearer, each at most halfway
    from ml to its domain edge and so inside (0, 1/2)."""
    if not posteriors:
        return []
    n = len(posteriors)
    rows = np.array([post._row for post in posteriors], dtype=float)
    ml = np.array([post.ml for post in posteriors])
    inner = (0 < ml) & (ml < 0.5)
    log_ibeta, _ = _log_ibetas(np.concatenate([np.full(n, 0.5), ml[inner]]),
                               np.concatenate([rows, rows[inner]]))
    log_mass = log_ibeta[:n]
    cdf_ml = np.where(ml <= 0, 0.0, 1.0)  # the CDF at the ML point, as `cdf` gives it
    cdf_ml[inner] = _cdfs(log_ibeta[n:], log_mass[inner])
    low = np.minimum(np.maximum(cdf_ml - 0.341, 0.0), 1.0 - 0.682)
    a, b = rows[:, 0], rows[:, 1]
    sigma = _each(math.sqrt, a * b / (a + b + 1.0)) / (a + b)
    # With more errors than half the sifted count (a > b) the ML point is
    # 1/2, from which the truncated posterior falls off on the scale
    # 1 / (2 (a - b)); the lower search starts there if that is nearer. For
    # a <= b the scale term is 1/2, above every sigma.
    down = np.minimum(sigma, 0.5 / np.maximum(a - b, 1.0))
    start = np.column_stack([np.maximum(ml - down, 0.5 * ml),
                             np.minimum(ml + sigma, 0.5 * (ml + 0.5))])
    ends = _quantiles(np.repeat(rows, 2, axis=0), np.repeat(log_mass, 2),
                      np.column_stack([low, low + 0.682]).ravel(), start.ravel()).tolist()
    return list(zip(ends[::2], ends[1::2]))


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
    return eta**2 * (n_pi - 1) * (n_pi - 2) * n_sub / (2.0 * n_pi)


@dataclass(frozen=True)
class KeyRateReport:
    """Secret-key rates and the bounds they are held to, stored per channel
    use; each per-occupancy value is half of it, against the same per-use
    bounds. The ratios are derived, not stored: R/Rmax and R/PLOB are the
    secure rate over `r_max` and over `plob` (nan against a zero bound). A
    confidence level is computed on its first read, from the posterior and
    the per-use bound, and is None without a posterior."""

    qber_ml: float
    qber_low: float
    qber_high: float
    r_s: float
    sifted_per_use: float
    r_max: float
    plob: float
    posterior: Optional[TruncatedBeta] = field(repr=False, compare=False)

    def _confidence_vs(self, bound: float) -> Optional[float]:
        posterior = self.posterior
        return None if posterior is None else _confidence(posterior, bound / self.sifted_per_use)

    @functools.cached_property
    def confidence_vs_rmax(self) -> Optional[float]:
        return self._confidence_vs(self.r_max)

    @functools.cached_property
    def confidence_vs_plob(self) -> Optional[float]:
        return self._confidence_vs(self.plob)

    @property
    def secure_per_use(self) -> float:
        return self.r_s * self.sifted_per_use

    @property
    def ratio_rmax_per_use(self) -> float:
        return self.secure_per_use / self.r_max if self.r_max > 0 else math.nan

    @property
    def ratio_plob_per_use(self) -> float:
        return self.secure_per_use / self.plob if self.plob > 0 else math.nan

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
    r_s(E) > rs_needed exactly below the E* where r_s(E*) = rs_needed. E*
    is bisected on [0, QBER_INDIVIDUAL_LIMIT] until the midpoint stops
    moving, and the posterior CDF is read there.
    """
    if not 0 < rs_needed < 1:
        return 0.0
    lo, hi = 0.0, QBER_INDIVIDUAL_LIMIT
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return posterior.cdf(mid)
        lo, hi = (mid, hi) if secret_fraction(mid) > rs_needed else (lo, mid)


def _bounds(cfg: ScenarioConfig) -> tuple[float, float]:
    """`rate_direct_bound` at the p_AB and basis bias of scenario `cfg`, and
    `plob_bound`, both per use."""
    p_ab = cfg.channel().p_ab
    return rate_direct_bound(p_ab, cfg.parties.basis_bias), plob_bound(p_ab)


def analytic_report(qber: float, cfg: ScenarioConfig) -> KeyRateReport:
    """The rate report of error rate `qber` in scenario `cfg`, with no
    posterior: its sifted rate per use is sifted_enhancement of the
    scenario's eta_detect and pulse layout times the direct bound per
    occupancy, so ratio_rmax_per_use is 2 * sifted_enhancement * r_s."""
    r_max, plob = _bounds(cfg)
    seq = cfg.sequence
    enhancement = sifted_enhancement(cfg.noise.eta_detect, seq.n_pi, seq.n_sub)
    return KeyRateReport(
        qber_ml=qber, qber_low=qber, qber_high=qber, r_s=secret_fraction(qber),
        sifted_per_use=2.0 * enhancement * r_max, r_max=r_max, plob=plob, posterior=None,
    )


def build_report(session: SessionReport, cfg: ScenarioConfig) -> KeyRateReport:
    """The rate report of a session run in scenario `cfg`: its sifted rate
    per use, the `_bounds` of `cfg`, and the QBER posterior of its sifted
    counts with that posterior's ML point and 68.2% interval. Without sifted
    key the error rate, and every secure rate built on it, is nan."""
    return build_reports([(session, cfg)])[0]


def build_reports(runs: Iterable[tuple[SessionReport, ScenarioConfig]]) -> list[KeyRateReport]:
    """`build_report` of each (session, cfg) pair, every posterior's interval
    found in one lockstep pass (`_intervals`)."""
    runs = list(runs)
    posteriors = [TruncatedBeta(session.errors, session.sifted) if session.sifted else None
                  for session, _ in runs]
    intervals = iter(_intervals([post for post in posteriors if post is not None]))
    reports = []
    for (session, cfg), posterior in zip(runs, posteriors):
        r_max, plob = _bounds(cfg)
        e_ml = e_low = e_high = math.nan
        if posterior is not None:
            e_ml, (e_low, e_high) = posterior.ml, next(intervals)
        reports.append(KeyRateReport(
            qber_ml=e_ml, qber_low=e_low, qber_high=e_high, r_s=secret_fraction(e_ml),
            sifted_per_use=session.sifted_rate_per_use(), r_max=r_max, plob=plob,
            posterior=posterior,
        ))
    return reports
