import collections
import dataclasses
import math
import random

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import betainc

from memqkd import rates
from memqkd.config import default_config, load_preset
from memqkd.rates import (
    QBER_INDIVIDUAL_LIMIT,
    TruncatedBeta,
    analytic_report,
    binary_entropy,
    build_report,
    build_reports,
    plob_bound,
    rate_direct_bound,
    secret_fraction,
    sifted_enhancement,
)
from memqkd.session import (
    PartyConfig,
    SessionReport,
    expected_sessions,
    simulate_session,
    simulate_sessions,
)
from oracles import TruncatedBetaOracle

# The benchmark operating point: N = 124 slots as 62 x 2 at n_m = 0.02, so
# p_AB = (0.02 / 124) ** 2, with eta_detect = 0.423 and unbiased bases.
BENCHMARK = default_config()


def session_with(errors: int, sifted: int, sifted_per_use: float) -> SessionReport:
    """A session report carrying only the counts and rate that rates reads."""
    return SessionReport(
        cycles=1, heralds=0, coincidences=sifted, discarded_multi=0,
        same_party=0, sifted_xx=sifted, errors_xx=errors, sifted_yy=0, errors_yy=0,
        channel_uses=sifted / sifted_per_use, wall_clock_s=0.0, clock_rate_hz=0.0,
    )


def mp_entropy(x):
    """Arbitrary-precision binary entropy oracle."""
    with mpmath.workdps(60):
        x = mpmath.mpf(x)
        if x in (0, 1):
            return 0.0
        return float(-(x * mpmath.log(x, 2) + (1 - x) * mpmath.log(1 - x, 2)))


class TestBinaryEntropy:
    @pytest.mark.parametrize("x,expected", [(0.0, 0.0), (1.0, 0.0), (0.5, 1.0)])
    def test_exact_points(self, x, expected):
        assert binary_entropy(x) == expected

    @pytest.mark.parametrize("x", [0.11, 0.01, 0.3, 0.499, 0.9])
    def test_against_arbitrary_precision(self, x):
        assert binary_entropy(x) == pytest.approx(mp_entropy(x), abs=1e-12)

    def test_known_value(self):
        assert binary_entropy(0.11) == pytest.approx(0.4999, abs=1e-4)

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(1.2)

    def test_nan_is_unknown(self):
        assert math.isnan(binary_entropy(math.nan))


class TestSecretFraction:
    def test_perfect_key(self):
        assert secret_fraction(0.0) == 1.0

    def test_value_at_benchmark_qber(self):
        # Oracle: arbitrary-precision evaluation of the same bound.
        with mpmath.workdps(60):
            e = mpmath.mpf("0.110")
            oracle = mp_entropy(0.5 + float(mpmath.sqrt(e * (1 - e)))) - mp_entropy(0.110)
        assert secret_fraction(0.110) == pytest.approx(oracle, abs=1e-9)
        assert secret_fraction(0.110) == pytest.approx(0.195, abs=0.005)

    def test_zero_crossing_location(self):
        lo, hi = 0.10, 0.25
        for _ in range(60):
            mid = (lo + hi) / 2
            if secret_fraction(mid) > 0:
                lo = mid
            else:
                hi = mid
        crossing = (lo + hi) / 2
        assert crossing == pytest.approx(0.1464, abs=1e-3)
        assert crossing == pytest.approx(QBER_INDIVIDUAL_LIMIT, abs=1e-9)

    def test_vanishes_at_and_beyond_threshold(self):
        assert secret_fraction(0.1464) < 1e-3
        for e in np.arange(0.1465, 0.5, 0.01):
            assert secret_fraction(e) == 0.0

    def test_continuity(self):
        for e in np.arange(0.0, 0.2, 1e-3):
            assert abs(secret_fraction(e + 1e-6) - secret_fraction(e)) < 1e-4

    def test_domain(self):
        with pytest.raises(ValueError):
            secret_fraction(0.6)

    def test_nan_is_unknown(self):
        assert math.isnan(secret_fraction(math.nan))

    def test_strictly_decreasing_to_the_limit(self):
        # The confidence levels rest on this: r_s(E) > c exactly below one E*.
        grid = np.linspace(0.0, QBER_INDIVIDUAL_LIMIT, 2001)[:-1]
        values = [secret_fraction(e) for e in grid]
        assert all(b < a for a, b in zip(values, values[1:]))


# The acceptance grid: sifted counts from one cell up to the 1e9 that
# 1e12 cycles approach, at error fractions from 0 to 1.
GRID_N = [1, 2, 5, 30, 150, 17746, 10**6, 17_600_000, 10**9]
GRID_FRACTIONS = [0.0, 0.001, 0.05, 0.117, 0.3, 0.5, 0.7, 1.0]


def cdf_tolerance(n: int) -> float:
    # The O(n) lgamma-sized terms cancel in the Stirling form of the
    # prefactor, but x itself carries an O(n eps) relative conditioning.
    return 1e-12 if n <= 200 else 1e-9 if n <= 10**6 else 1e-5


class TestTruncatedBeta:
    @pytest.mark.parametrize("n", GRID_N)
    def test_interval_matches_oracle(self, n):
        for f in GRID_FRACTIONS:
            k = round(f * n)
            post, oracle = TruncatedBeta(k, n), TruncatedBetaOracle(k, n)
            low, high = rates._intervals([post])[0]
            want_low, want_high = oracle.interval()
            assert post.ml == min(k / n, 0.5)
            assert 0.0 <= low <= post.ml <= high <= 0.5, (k, n)
            assert low == pytest.approx(want_low, abs=1e-10), (k, n)
            assert high == pytest.approx(want_high, abs=1e-10), (k, n)

    @pytest.mark.parametrize("n", GRID_N)
    def test_cdf_matches_oracle(self, n):
        for f in GRID_FRACTIONS:
            k = round(f * n)
            post, oracle = TruncatedBeta(k, n), TruncatedBetaOracle(k, n)
            sigma = math.sqrt(post.a * post.b / (post.a + post.b + 1)) / (post.a + post.b)
            points = [post.ml + z * sigma for z in (-2, -1, 0, 1, 2)] + [1e-300, 1e-20, 0.01, 0.11, 0.25, 0.45]
            for x in (x for x in points if 0 < x < 0.5):
                assert post.cdf(x) == pytest.approx(oracle.cdf(x), abs=cdf_tolerance(n)), (k, n, x)
            assert post.cdf(0.0) == 0.0 and post.cdf(0.5) == 1.0

    def test_quantile_inverts_cdf(self):
        post = TruncatedBeta(11, 100)
        ps = (1e-9, 0.01, 0.3, 0.682, 0.99, 1 - 1e-9)
        for p, x in zip(ps, quantiles([(post, p, 0.25) for p in ps])):
            assert post.cdf(x) == pytest.approx(p, rel=1e-12)

    def test_single_cell_interval_width(self):
        post = TruncatedBeta(11, 100)
        assert post.ml == 0.11
        low, high = rates._intervals([post])[0]
        assert (high - low) / 2 == pytest.approx(0.031, abs=4e-3)

    def test_confidence_below_threshold(self):
        # ML 0.097 with posterior width about 0.006.
        n = 2433
        k = round(0.097 * n)
        post = TruncatedBeta(k, n)
        low, high = rates._intervals([post])[0]
        assert post.ml == pytest.approx(0.097, abs=5e-4)
        assert (high - low) / 2 == pytest.approx(0.006, abs=5e-4)
        conf = post.cdf(0.110)
        assert conf == pytest.approx(betainc(k + 1, n - k + 1, 0.110)
                                     / betainc(k + 1, n - k + 1, 0.5), abs=1e-12)
        assert conf == pytest.approx(0.985, abs=0.01)

    def test_consistency_as_counts_grow(self):
        f = 0.11
        widths = []
        for n in (100, 10_000, 1_000_000):
            post = TruncatedBeta(round(f * n), n)
            assert post.ml == round(f * n) / n
            low, high = rates._intervals([post])[0]
            widths.append(high - low)
        assert widths[0] > widths[1] > widths[2]
        assert widths[2] < 2e-3

    def test_interval_covers_the_model_qber_at_its_level(self):
        # Over 2000 seeds of the fig4 point at 1e9 cycles (about 2000 errors
        # in 17,500 sifted each), the share of 68.2% intervals that hold the
        # model's QBER lies within 3.2 standard errors, 0.033, of 0.682, and
        # the share that misses it on each side within 3.2 of theirs, 0.026,
        # of 0.159: each end holds 34.1% of the posterior.
        cfg = load_preset("fig4-point-N124")
        point = (cfg.sequence, cfg.channel(), cfg.parties, cfg.noise, 10**9)
        (expected,) = expected_sessions([(*point, 0)])
        qber = (expected[5] + expected[7]) / (expected[4] + expected[6])
        assert qber == pytest.approx(0.1152662, abs=5e-8)
        runs = simulate_sessions([(*point, seed) for seed in range(1, 2001)])
        reports = build_reports((report, cfg) for _, report in runs)
        covered = sum(report.qber_low <= qber <= report.qber_high for report in reports)
        below = sum(qber < report.qber_low for report in reports)
        assert 0.65 <= covered / len(reports) <= 0.715
        assert 0.133 <= below / len(reports) <= 0.185
        assert 0.133 <= (len(reports) - covered - below) / len(reports) <= 0.185

    def test_ml_invariant_under_count_scaling(self):
        k, n = 36, 330  # (7, 80), (9, 75), (12, 90) and (8, 85) pooled
        assert TruncatedBeta(k, n).ml == TruncatedBeta(10 * k, 10 * n).ml

    def test_all_errors_peaks_at_domain_edge(self):
        post = TruncatedBeta(50, 50)
        low, high = rates._intervals([post])[0]
        assert post.ml == high == 0.5
        assert low < 0.5
        assert post.cdf(low) == pytest.approx(1.0 - 0.682, rel=1e-12)

    def test_underflowing_normalization(self):
        # f_readout = 0 flips every readout: K/N near 0.88, where I_1/2
        # underflows a double by some 10^5 decades.
        k, n = 1_548_800, 1_760_000
        assert betainc(k + 1, n - k + 1, 0.5) == 0.0
        post = TruncatedBeta(k, n)
        low, high = rates._intervals([post])[0]
        assert post.ml == high == 0.5
        assert 0.5 - 1e-5 < low < 0.5
        assert post.cdf(low) == pytest.approx(1.0 - 0.682, rel=1e-9)

    @pytest.mark.parametrize("errors,sifted", [
        (71_596_849, 73_946_503), (353_335_329, 353_335_329), (27_577, 44_473),
        (1677, 3407), (1860, 3777),
    ])
    def test_interval_near_half_errors_takes_few_rounds(self, errors, sifted, monkeypatch):
        # Above half the sifted count these posteriors fall off from 1/2 on
        # the scale 1 / (2 (a - b)), far below the untruncated sigma: a lower
        # search from 1/2 - sigma took 363 rounds on the first. From 1/2 - 1 /
        # (2 (a - b)) the second took 363 and the third 33, each bisecting
        # from a point onto which its own Halley step rounded. Just below
        # half, ml + sigma lies past 1/2: an upper search from 1/4 instead
        # took 238 and 263 rounds on the last two.
        rounds, solve = [], rates._log_ibetas
        monkeypatch.setattr(rates, "_log_ibetas", lambda *args: rounds.append(args) or solve(*args))
        post = TruncatedBeta(errors, sifted)
        low, high = rates._intervals([post])[0]
        assert len(rounds) <= 6
        want_low, want_high = TruncatedBetaOracle(errors, sifted).interval()
        if 2 * errors > sifted:
            assert 0.4999 < low < post.ml == high == 0.5
        else:
            assert 0.48 < low < post.ml < high < 0.5
        assert low == pytest.approx(want_low, abs=1e-10)
        assert high == pytest.approx(want_high, abs=1e-10)

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            TruncatedBeta(0, 0)
        with pytest.raises(ValueError):
            TruncatedBeta(5, 3)


def random_posteriors(count: int, seed: int) -> list[TruncatedBeta]:
    """Posteriors with sifted log-uniform on [1, 1e9] and errors from every
    regime: none, all, uniform, QBER-like and near one half."""
    rng = random.Random(seed)
    posteriors = []
    for _ in range(count):
        n = int(10 ** rng.uniform(0, 9))
        k = rng.choice([0, n, rng.randint(0, n), int(n * rng.uniform(0.0, 0.2)),
                        int(n * rng.uniform(0.45, 0.55))])
        posteriors.append(TruncatedBeta(k, n))
    return posteriors


def rows_of(posteriors) -> np.ndarray:
    """The `rates._log_ibetas` rows of the posteriors."""
    return np.array([post._row for post in posteriors], dtype=float)


def quantiles(searches: list) -> list[float]:
    """`rates._quantiles` of (posterior, p, guess) searches, solved together."""
    posteriors, p, guess = zip(*searches)
    rows = rows_of(posteriors)
    log_mass, _ = rates._log_ibetas(np.full(len(searches), 0.5), rows)
    return rates._quantiles(rows, log_mass, np.array(p), np.array(guess)).tolist()


def unsplit_log_front(x: float, a: int, b: int) -> float:
    """`rates._log_front` of one lane in Python floats, with its
    x-independent terms computed in place."""
    if min(a, b) <= 20:
        return (a * math.log(x) + b * math.log1p(-x)
                + math.log((a + b - 1) * math.comb(a + b - 2, a - 1)))

    def tail(z):
        w = 1.0 / (z * z)
        return (1 / 12 - w * (1 / 360 - w * (1 / 1260 - w * (1 / 1680 - w / 1188)))) / z

    t = x * (a + b) - a
    head = a * math.log1p(t / a) if 2.0 * t > -a else a * (math.log(x) + math.log1p(b / a))
    return (head + b * math.log1p(-t / b) + tail(a + b) - tail(a) - tail(b)
            + 0.5 * math.log(a * b / (2.0 * math.pi * (a + b))))


# The scalar form of a posterior round, one lane at a time in Python floats
# and `math` calls: the reference that the array rounds of `rates` match
# bit for bit.

def scalar_log_ibeta(x: float, post: TruncatedBeta) -> tuple[float, float]:
    """log I_x(a, b) and the log front of one lane."""
    a, b = post.a, post.b
    front = unsplit_log_front(x, a, b)
    upper = x >= (a + 1.0) / (a + b + 2.0)
    tx, ta, tb = (1.0 - x, float(b), float(a)) if upper else (x, float(a), float(b))
    log_tail = front + math.log(rates._lentz(tx, ta, tb) / ta)
    return (math.log1p(-math.exp(log_tail)) if upper else log_tail), front


def scalar_cdf(x: float, post: TruncatedBeta) -> float:
    return min(math.exp(scalar_log_ibeta(x, post)[0] - scalar_log_ibeta(0.5, post)[0]), 1.0)


def scalar_quantile(post: TruncatedBeta, p: float, guess: float, events: list) -> float:
    """`rates._quantiles` of one search, from a guess inside (0, 1/2);
    `events` gets "zero density" for each step that bisects because the
    density underflows, and "stuck" for each search that ends where its
    step rounds onto its own point."""
    if not 0 < p < 1:
        return 0.0 if p <= 0 else 0.5
    assert 0.0 < guess < 0.5, guess
    log_mass = scalar_log_ibeta(0.5, post)[0]
    lo, hi, x = 0.0, 0.5, guess
    while True:
        log_ibeta, front = scalar_log_ibeta(x, post)
        cdf = min(math.exp(log_ibeta - log_mass), 1.0)
        density = math.exp(front - math.log(x) - math.log1p(-x) - log_mass)
        bend = (post.a - 1) / x - (post.b - 1) / (1.0 - x)
        lo, hi = (x, hi) if cdf < p else (lo, x)
        step = (p - cdf) / density if density > 0 else math.nan
        if density == 0:
            events.append("zero density")
        new = x + step / (1.0 + 0.5 * step * bend)
        converged = lo < new < hi and abs(p - cdf) <= 1e-4 * min(p, 1.0 - p)
        if new == x:
            events.append("stuck")
            return x
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        if converged or new == x:
            return new
        x = new


def scalar_interval(post: TruncatedBeta) -> tuple[float, float]:
    """`rates._intervals` of one posterior: searches from ml -+ sigma, the
    lower one from 1/2 - 1 / (2 (a - b)) if that is nearer, as with more
    errors than half the sifted count, and each from at most halfway to its
    edge."""
    if 0 < post.ml < 0.5:
        cdf_ml = scalar_cdf(post.ml, post)
    else:
        cdf_ml = 0.0 if post.ml <= 0 else 1.0
    low = min(max(cdf_ml - 0.341, 0.0), 1.0 - 0.682)
    a, b = post.a, post.b
    sigma = math.sqrt(a * b / (a + b + 1.0)) / (a + b)
    down = min(sigma, 1 / (2 * (a - b))) if a > b else sigma
    return (scalar_quantile(post, low, max(post.ml - down, 0.5 * post.ml), []),
            scalar_quantile(post, low + 0.682, min(post.ml + sigma, 0.5 * (post.ml + 0.5)), []))


def clipped(post: TruncatedBeta, offset: float) -> float:
    """ml + offset, at most halfway from ml to the domain edge it heads for,
    as `rates._intervals` clips its starts; from an ML point on an edge the
    offset heads inward."""
    if post.ml == 0.5 or (offset < 0 and post.ml > 0):
        return max(post.ml - abs(offset), 0.5 * post.ml)
    return min(post.ml + abs(offset), 0.5 * (post.ml + 0.5))


class TestLockstepPosteriors:
    # Each round runs on numpy arrays over its lanes, with `math` logs and
    # exps, and gives the scalar code's floats bit for bit at every round
    # size: from `_BATCH_MIN` lanes up the continued fractions run as one
    # numpy loop, below it one by one, and a posterior's own methods make
    # one-lane rounds.
    SIZES = (rates._BATCH_MIN - 1, 3000)
    ONE_LANE = 100  # lanes also solved one at a time through `TruncatedBeta`

    @staticmethod
    def in_rounds(solve, lanes: list, size: int) -> list:
        return [value for start in range(0, len(lanes), size)
                for value in solve(lanes[start:start + size])]

    def test_log_ibetas_match_one_at_a_time(self):
        # x at 1/2, anywhere below it, near the ML point and in the far
        # lower tail, so that both fronts, both heads and both tails occur.
        rng = random.Random(2)
        lanes = []
        for post in random_posteriors(3000, seed=1):
            near_ml = min(post.ml * rng.uniform(0.9, 1.1), 0.5)
            x = rng.choice([0.5, rng.uniform(0.0, 0.5), near_ml, 10 ** rng.uniform(-300, -1)])
            if 0 < x < 1:
                lanes.append((x, post))
        scalar = [scalar_log_ibeta(x, post) for x, post in lanes]

        def solve(chunk):
            xs, posteriors = zip(*chunk)
            return list(zip(*(v.tolist() for v in rates._log_ibetas(np.array(xs), rows_of(posteriors)))))

        for size in self.SIZES:
            assert self.in_rounds(solve, lanes, size) == scalar, size
        assert self.in_rounds(solve, lanes[:self.ONE_LANE], 1) == scalar[:self.ONE_LANE]
        kinds = collections.Counter()
        for x, post in lanes:
            a, b = post.a, post.b
            kinds["upper" if x >= (a + 1.0) / (a + b + 2.0) else "lower"] += 1
            kinds["small" if min(a, b) <= 20 else "near" if 2.0 * (x * (a + b) - a) > -a else "far"] += 1
        assert min(kinds[kind] for kind in ("upper", "lower", "small", "near", "far")) >= 100, kinds

    def test_cdf_matches_one_at_a_time(self):
        rng = random.Random(3)
        posteriors = random_posteriors(3000, seed=3)
        xs = [rng.uniform(0.0, 0.5) for _ in posteriors]
        scalar = [scalar_cdf(x, post) for x, post in zip(xs, posteriors)]
        rows = rows_of(posteriors)
        log_ibeta, _ = rates._log_ibetas(np.array(xs), rows)
        log_mass, _ = rates._log_ibetas(np.full(len(xs), 0.5), rows)
        assert rates._cdfs(log_ibeta, log_mass).tolist() == scalar
        one_lane = zip(posteriors[:self.ONE_LANE], xs)
        assert [post.cdf(x) for post, x in one_lane] == scalar[:self.ONE_LANE]

    def test_quantiles_match_one_at_a_time(self):
        # Guesses near the answer, as `_intervals` makes them, anywhere in
        # (0, 1/2), and 40 to 1000 sigma out, where the density underflows
        # to 0. Each near or far guess is clipped as `_intervals` clips its
        # starts, to at most halfway from ml to the edge it heads for.
        rng = random.Random(4)
        searches = []
        for post in random_posteriors(3000, seed=4):
            sigma = math.sqrt(post.a * post.b) / (post.a + post.b) ** 1.5
            near = clipped(post, rng.uniform(-3.0, 3.0) * sigma)
            far = clipped(post, rng.choice([-1.0, 1.0]) * rng.uniform(40.0, 1000.0) * sigma)
            guess = rng.choice([near, near, far, rng.uniform(0.0, 0.5)])
            searches.append((post, rng.choice([rng.random(), 0.159, 0.841, 0.0, 1.0]), guess))
        assert all(0.0 < guess < 0.5 for _, _, guess in searches)
        events = []
        scalar = [scalar_quantile(*search, events) for search in searches]
        for size in self.SIZES:
            assert self.in_rounds(quantiles, searches, size) == scalar, size
        assert self.in_rounds(quantiles, searches[:self.ONE_LANE], 1) == scalar[:self.ONE_LANE]
        assert events.count("zero density") >= 100 and events.count("stuck") >= 50

    def test_intervals_match_one_at_a_time(self):
        posteriors = random_posteriors(3000, seed=5)
        scalar = [scalar_interval(post) for post in posteriors]
        for size in self.SIZES:
            assert self.in_rounds(rates._intervals, posteriors, size) == scalar, size
        one_lane = [rates._intervals([post])[0] for post in posteriors[:self.ONE_LANE]]
        assert one_lane == scalar[:self.ONE_LANE]
        mls = [post.ml for post in posteriors]
        assert mls.count(0.0) >= 300 and mls.count(0.5) >= 300
        assert sum(post.a > post.b and post.a + post.b > 10**6 for post in posteriors) >= 100


def test_front_terms_computed_once_keep_every_float():
    # Both branches, x from the far lower tail (where log1p(t / a) is
    # replaced) to near 1, and a, b up to 1e9, in one round.
    rng = random.Random(5)
    lanes = []
    for _ in range(20_000):
        a, b = (rng.choice([rng.randint(1, 20), rng.randint(21, 400), int(10 ** rng.uniform(1, 9))])
                for _ in range(2))
        x = rng.choice([rng.random(), 10 ** rng.uniform(-300, 0), 1.0 - 10 ** rng.uniform(-15, 0)])
        if 0 < x < 1:
            lanes.append((x, a, b))
    x, a, b = (np.array(v, dtype=float) for v in zip(*lanes))
    terms = np.array([rates._front_terms(lane_a, lane_b) for _, lane_a, lane_b in lanes])
    split = rates._log_front(x, a, b, terms).tolist()
    assert split == [unsplit_log_front(*lane) for lane in lanes]


class TestBounds:
    def test_direct_bound_unbiased(self):
        assert rate_direct_bound(1e-6) == pytest.approx(5e-7)

    def test_direct_bound_biased(self):
        assert rate_direct_bound(1e-6, 0.99) == pytest.approx(0.9802e-6)
        assert rate_direct_bound(1e-6, 0.99) == pytest.approx(0.98e-6, rel=3e-3)

    def test_direct_bound_bias_half_reduces(self):
        assert rate_direct_bound(0.37, 0.5) == pytest.approx(0.37 / 2, rel=1e-15)

    def test_direct_bound_monotone_in_bias_distance(self):
        p = 1e-6
        values = [rate_direct_bound(p, q) for q in np.arange(0.5, 0.995, 0.005)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert rate_direct_bound(p, 0.99) == pytest.approx(0.98 * p, rel=1e-3)

    def test_plob_values(self):
        assert plob_bound(0.01) == pytest.approx(1.44e-2)
        assert plob_bound(1e-7) == pytest.approx(1.44e-7)

    def test_plob_small_p_limit(self):
        # 1.44 p is the small-p linearization of the capacity -log2(1 - p).
        for p in (1e-4, 1e-6, 1e-8):
            assert -math.log2(1.0 - p) / plob_bound(p) == pytest.approx(1.0, abs=2e-3)

    def test_direct_bound_domain(self):
        for args in ((1.5,), (0.5, 1.5)):
            with pytest.raises(ValueError):
                rate_direct_bound(*args)

    def test_plob_domain(self):
        for p in (1.0 + 1e-12, -1e-12, math.nan):
            with pytest.raises(ValueError):
                plob_bound(p)
        assert plob_bound(1.0) == 1.44


class TestSiftedEnhancement:
    def test_benchmark_value(self):
        assert sifted_enhancement(0.423, 62, 2) == pytest.approx(10.56, abs=0.01)

    def test_small_sequence(self):
        assert sifted_enhancement(1.0, 3, 1) == pytest.approx(1.0 / 3.0)

    def test_dark_detector(self):
        assert sifted_enhancement(0.0, 62, 2) == 0.0

    def test_rejects_too_few_pulses(self):
        with pytest.raises(ValueError):
            sifted_enhancement(0.4, 2, 1)

    @pytest.mark.parametrize("eta,n_sub", [(1.5, 2), (0.4, 0)])
    def test_rejects_eta_or_n_sub_out_of_range(self, eta, n_sub):
        with pytest.raises(ValueError):
            sifted_enhancement(eta, 62, n_sub)


class TestKeyRateReport:
    def test_benchmark_ratios_unbiased(self):
        assert BENCHMARK.channel().p_ab == (0.02 / 124) ** 2
        report = analytic_report(0.110, BENCHMARK)
        assert report.ratio_rmax_per_use == pytest.approx(4.13, abs=0.3)
        assert report.ratio_rmax_per_occupancy == pytest.approx(2.06, abs=0.15)
        assert report.ratio_plob_per_use == pytest.approx(1.43, abs=0.15)
        assert report.ratio_plob_per_occupancy == pytest.approx(0.71, abs=0.1)

    def test_benchmark_ratios_biased(self):
        report = analytic_report(0.110, BENCHMARK.replace(parties=PartyConfig(basis_bias=0.99)))
        # Biasing leaves the direct-transmission comparison unchanged but
        # pushes the repeaterless ratio up by the extra sifting yield.
        assert report.ratio_rmax_per_use == pytest.approx(4.13, abs=0.3)
        assert report.ratio_plob_per_use == pytest.approx(2.80, abs=0.3)
        assert report.ratio_plob_per_occupancy == pytest.approx(1.40, abs=0.2)

    def test_report_identity(self):
        report = analytic_report(0.09, BENCHMARK)
        enh = sifted_enhancement(0.423, 62, 2)
        rs = secret_fraction(0.09)
        assert report.ratio_rmax_per_occupancy == pytest.approx(enh * rs, rel=1e-12)
        assert report.ratio_rmax_per_use == pytest.approx(2 * enh * rs, rel=1e-12)
        assert report.secure_per_use == pytest.approx(rs * report.sifted_per_use, rel=1e-12)

    def test_confidence_levels_from_posterior(self):
        analytic = analytic_report(0.11, BENCHMARK).sifted_per_use
        report = build_report(session_with(440, 4000, analytic), BENCHMARK)
        assert report.confidence_vs_rmax > 0.99
        assert 0.5 < report.confidence_vs_plob < 1.0

    def test_confidence_levels_are_computed_once_on_read(self, monkeypatch):
        analytic = analytic_report(0.11, BENCHMARK).sifted_per_use
        report = build_report(session_with(440, 4000, analytic), BENCHMARK)
        expected = [rates._confidence(report.posterior, bound / report.sifted_per_use)
                    for bound in (report.r_max, report.plob)]
        calls, solve = [], rates._confidence
        monkeypatch.setattr(rates, "_confidence", lambda *args: calls.append(args) or solve(*args))
        for _ in range(2):
            assert [report.confidence_vs_rmax, report.confidence_vs_plob] == expected
        assert len(calls) == 2 and 0 < expected[1] < expected[0] < 1

    def test_analytic_report_has_no_confidence(self):
        report = analytic_report(0.11, BENCHMARK)
        assert report.confidence_vs_rmax is None and report.confidence_vs_plob is None
        assert report.qber_ml == report.qber_low == report.qber_high == 0.11

    def test_session_without_sifted_key_is_unknown(self):
        report = build_report(session_with(0, 0, 1.0), BENCHMARK)
        assert math.isnan(report.qber_ml) and math.isnan(report.ratio_rmax_per_use)
        assert report.confidence_vs_rmax is None

    @pytest.mark.parametrize("cycles", [10**9, 10**12])
    def test_confidence_is_the_cdf_at_the_crossing(self, cycles):
        # The confidence against each bound is the posterior probability
        # that the measured secure rate, r_s(E) x the session's sifted rate,
        # beats it: the oracle CDF at the E* where that ratio is one.
        cfg = load_preset("fig4-point-N124")
        _, session = simulate_session(
            cfg.sequence, cfg.channel(), cfg.parties, cfg.noise, cycles, cfg.seed
        )
        p_ab = cfg.channel().p_ab
        report = build_report(session, cfg)
        assert report.sifted_per_use == session.sifted_rate_per_use()
        assert report.qber_ml == session.errors / session.sifted
        oracle = TruncatedBetaOracle(session.errors, session.sifted)
        for confidence, bound in ((report.confidence_vs_rmax, rate_direct_bound(p_ab)),
                                  (report.confidence_vs_plob, plob_bound(p_ab))):
            margin = lambda e: secret_fraction(e) * report.sifted_per_use / bound - 1.0
            e_star = brentq(margin, 0.0, QBER_INDIVIDUAL_LIMIT, xtol=1e-16, rtol=1e-15)
            assert confidence == pytest.approx(oracle.cdf(e_star), abs=1e-9)
        assert report.ratio_plob_per_use == pytest.approx(
            report.secure_per_use / plob_bound(p_ab), rel=1e-12
        )

    @pytest.mark.parametrize("errors,sifted", [(2079, 17746), (2_027_128, 17_604_014)])
    def test_confidence_in_the_posterior_bulk(self, errors, sifted):
        # A sifted rate at which R equals the PLOB bound at the ML point puts
        # E* where the posterior density peaks, so an error in E* shows most.
        plob = plob_bound(BENCHMARK.channel().p_ab)
        rate = plob / secret_fraction(errors / sifted) * (1 + 1e-4)
        report = build_report(session_with(errors, sifted, rate), BENCHMARK)
        e_star = brentq(lambda e: secret_fraction(e) * rate / plob - 1.0,
                        0.0, QBER_INDIVIDUAL_LIMIT, xtol=1e-16, rtol=1e-15)
        oracle = TruncatedBetaOracle(errors, sifted)
        assert 0.3 < report.confidence_vs_plob < 0.7
        assert report.confidence_vs_plob == pytest.approx(oracle.cdf(e_star), abs=1e-9)

    def test_confidence_is_zero_against_an_unbeatable_bound(self):
        report = build_report(session_with(0, 100, 1e-12), BENCHMARK)
        assert report.confidence_vs_rmax == report.confidence_vs_plob == 0.0

    def test_high_qber_kills_rate(self):
        report = analytic_report(0.2, BENCHMARK)
        assert report.r_s == 0.0
        assert report.secure_per_use == 0.0

    def test_ratios_are_derived_from_the_stored_bounds(self):
        report = analytic_report(0.09, BENCHMARK)
        moved = dataclasses.replace(report, r_max=2 * report.r_max, plob=0.0)
        assert moved.ratio_rmax_per_use == report.secure_per_use / (2 * report.r_max)
        assert math.isnan(moved.ratio_plob_per_use) and math.isnan(moved.ratio_plob_per_occupancy)

    def test_analytic_sifted_rate_against_the_exact_fig4_expectation(self):
        # Exact: the expected X/X + Y/Y sifted keys of a cycle, per use of
        # the N/2 uses in a cycle. The paper's pair factor leaves some herald
        # pairs out, so the analytic rate sits 3.3% low at the fig4 point.
        cfg = load_preset("fig4-point-N124")
        seq = cfg.sequence
        (expected,) = expected_sessions([(seq, cfg.channel(), cfg.parties, cfg.noise, 1, 0)])
        exact = expected[4::2].sum() / (seq.n_qubits / 2)
        analytic = analytic_report(0.11, cfg).sifted_per_use
        assert exact == pytest.approx(2.8389e-7, rel=1e-4)
        assert analytic == pytest.approx(2.7478e-7, rel=1e-4)
        assert exact / analytic == pytest.approx(1.03317, abs=1e-4)


def bisected_crossing(rs_needed: float) -> float:
    """The E where secret_fraction falls through rs_needed, bisected until
    the midpoint stops moving."""
    lo, hi = 0.0, QBER_INDIVIDUAL_LIMIT
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        lo, hi = (mid, hi) if secret_fraction(mid) > rs_needed else (lo, mid)


@pytest.mark.parametrize("errors,sifted", [
    (20, 175), (207, 1760), (2079, 17746), (20276, 176040), (202765, 1760401),
    (2_027_649, 17_604_014),
])
def test_confidence_crossing_reaches_float_resolution(errors, sifted):
    # One ulp of E moves the CDF by the posterior density times about
    # 1.4e-17, at most about 2e-15 on these points; a solve that stops at
    # a tolerance on r_s or on E misses by far more.
    post = TruncatedBeta(errors, sifted)
    for rs_needed in (0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 0.7):
        expected = post.cdf(bisected_crossing(rs_needed))
        assert rates._confidence(post, rs_needed) == pytest.approx(expected, abs=1e-14), rs_needed
