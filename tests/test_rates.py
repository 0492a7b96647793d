import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import betainc

from memqkd.config import load_preset
from memqkd.rates import (
    QBER_INDIVIDUAL_LIMIT,
    BoundsConfig,
    TruncatedBeta,
    binary_entropy,
    build_report,
    plob_bound,
    rate_direct_bound,
    secret_fraction,
    sifted_enhancement,
)
from memqkd.session import SessionReport, simulate_session
from oracles import TruncatedBetaOracle

# The benchmark operating point: N = 124 slots as 62 x 2 at n_m = 0.02.
BENCHMARK_BOUNDS = BoundsConfig(eta=0.423, n_pi=62, n_sub=2, p_ab=(0.02 / 124) ** 2)


def session_with(errors: int, sifted: int, sifted_per_use: float) -> SessionReport:
    """A session report carrying only the counts and rate that rates reads."""
    return SessionReport(
        cycles=1, n_slots=124, heralds=0, coincidences=sifted, discarded_multi=0,
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
            low, high = post.interval()
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
        for p in (1e-9, 0.01, 0.3, 0.682, 0.99, 1 - 1e-9):
            assert post.cdf(post.quantile(p)) == pytest.approx(p, rel=1e-12)

    def test_single_cell_interval_width(self):
        post = TruncatedBeta(11, 100)
        assert post.ml == 0.11
        low, high = post.interval()
        assert (high - low) / 2 == pytest.approx(0.031, abs=4e-3)

    def test_confidence_below_threshold(self):
        # ML 0.097 with posterior width about 0.006.
        n = 2433
        k = round(0.097 * n)
        post = TruncatedBeta(k, n)
        low, high = post.interval()
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
            low, high = post.interval()
            widths.append(high - low)
        assert widths[0] > widths[1] > widths[2]
        assert widths[2] < 2e-3

    def test_ml_invariant_under_count_scaling(self):
        k, n = 36, 330  # (7, 80), (9, 75), (12, 90) and (8, 85) pooled
        assert TruncatedBeta(k, n).ml == TruncatedBeta(10 * k, 10 * n).ml

    def test_all_errors_peaks_at_domain_edge(self):
        post = TruncatedBeta(50, 50)
        low, high = post.interval()
        assert post.ml == high == 0.5
        assert low < 0.5
        assert post.cdf(low) == pytest.approx(1.0 - 0.682, rel=1e-12)

    def test_underflowing_normalization(self):
        # f_readout = 0 flips every readout: K/N near 0.88, where I_1/2
        # underflows a double by some 10^5 decades.
        k, n = 1_548_800, 1_760_000
        assert betainc(k + 1, n - k + 1, 0.5) == 0.0
        post = TruncatedBeta(k, n)
        low, high = post.interval()
        assert post.ml == high == 0.5
        assert 0.5 - 1e-5 < low < 0.5
        assert post.cdf(low) == pytest.approx(1.0 - 0.682, rel=1e-9)

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            TruncatedBeta(0, 0)
        with pytest.raises(ValueError):
            TruncatedBeta(5, 3)


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


class TestKeyRateReport:
    def test_benchmark_ratios_unbiased(self):
        report = build_report(0.110, BENCHMARK_BOUNDS)
        assert report.ratio_rmax_per_use == pytest.approx(4.13, abs=0.3)
        assert report.ratio_rmax_per_occupancy == pytest.approx(2.06, abs=0.15)
        assert report.ratio_plob_per_use == pytest.approx(1.43, abs=0.15)
        assert report.ratio_plob_per_occupancy == pytest.approx(0.71, abs=0.1)

    def test_benchmark_ratios_biased(self):
        bounds = BoundsConfig(
            eta=0.423, n_pi=62, n_sub=2, p_ab=(0.02 / 124) ** 2, basis_bias=0.99
        )
        report = build_report(0.110, bounds)
        # Biasing leaves the direct-transmission comparison unchanged but
        # pushes the repeaterless ratio up by the extra sifting yield.
        assert report.ratio_rmax_per_use == pytest.approx(4.13, abs=0.3)
        assert report.ratio_plob_per_use == pytest.approx(2.80, abs=0.3)
        assert report.ratio_plob_per_occupancy == pytest.approx(1.40, abs=0.2)

    def test_report_identity(self):
        bounds = BENCHMARK_BOUNDS
        report = build_report(0.09, bounds)
        enh = sifted_enhancement(bounds.eta, bounds.n_pi, bounds.n_sub)
        rs = secret_fraction(0.09)
        assert report.ratio_rmax_per_occupancy == pytest.approx(enh * rs, rel=1e-12)
        assert report.ratio_rmax_per_use == pytest.approx(2 * enh * rs, rel=1e-12)
        assert report.secure_per_use == pytest.approx(rs * report.sifted_per_use, rel=1e-12)

    def test_confidence_levels_from_posterior(self):
        analytic = build_report(0.11, BENCHMARK_BOUNDS).sifted_per_use
        report = build_report(session_with(440, 4000, analytic), BENCHMARK_BOUNDS)
        assert report.confidence_vs_rmax > 0.99
        assert 0.5 < report.confidence_vs_plob < 1.0

    def test_analytic_report_has_no_confidence(self):
        report = build_report(0.11, BENCHMARK_BOUNDS)
        assert report.confidence_vs_rmax is None and report.confidence_vs_plob is None
        assert report.qber_ml == report.qber_low == report.qber_high == 0.11

    def test_session_without_sifted_key_is_unknown(self):
        report = build_report(session_with(0, 0, 1.0), BENCHMARK_BOUNDS)
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
        bounds = BoundsConfig(
            eta=cfg.noise.eta_detect, n_pi=cfg.sequence.n_pi, n_sub=cfg.sequence.n_sub,
            p_ab=p_ab,
        )
        report = build_report(session, bounds)
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
        plob = plob_bound(BENCHMARK_BOUNDS.p_ab)
        rate = plob / secret_fraction(errors / sifted) * (1 + 1e-4)
        report = build_report(session_with(errors, sifted, rate), BENCHMARK_BOUNDS)
        e_star = brentq(lambda e: secret_fraction(e) * rate / plob - 1.0,
                        0.0, QBER_INDIVIDUAL_LIMIT, xtol=1e-16, rtol=1e-15)
        oracle = TruncatedBetaOracle(errors, sifted)
        assert 0.3 < report.confidence_vs_plob < 0.7
        assert report.confidence_vs_plob == pytest.approx(oracle.cdf(e_star), abs=1e-9)

    def test_confidence_is_zero_against_an_unbeatable_bound(self):
        report = build_report(session_with(0, 100, 1e-12), BENCHMARK_BOUNDS)
        assert report.confidence_vs_rmax == report.confidence_vs_plob == 0.0

    def test_high_qber_kills_rate(self):
        report = build_report(0.2, BENCHMARK_BOUNDS)
        assert report.r_s == 0.0
        assert report.secure_per_use == 0.0
