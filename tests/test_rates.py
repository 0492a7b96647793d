import math

import mpmath
import numpy as np
import pytest
from scipy import stats

from memqkd.config import load_preset
from memqkd.rates import (
    QBER_INDIVIDUAL_LIMIT,
    BoundsConfig,
    binary_entropy,
    build_report,
    plob_bound,
    qber_posterior,
    rate_direct_bound,
    secret_fraction,
    sifted_enhancement,
)
from memqkd.session import simulate_session

# The benchmark operating point: N = 124 slots as 62 x 2 at n_m = 0.02.
BENCHMARK_BOUNDS = BoundsConfig(eta=0.423, n_pi=62, n_sub=2, p_ab=(0.02 / 124) ** 2)


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

    def test_array_input(self):
        arr = binary_entropy(np.array([0.0, 0.5, 1.0]))
        assert np.allclose(arr, [0.0, 1.0, 0.0])

    def test_nan_is_unknown(self):
        assert math.isnan(binary_entropy(math.nan))
        arr = binary_entropy(np.array([0.0, math.nan, 0.5, 1.0]))
        assert np.array_equal(arr, [0.0, math.nan, 1.0, 0.0], equal_nan=True)


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
        arr = secret_fraction(np.array([0.0, math.nan, 0.3]))
        assert np.array_equal(arr, [1.0, math.nan, 0.0], equal_nan=True)


class TestQberPosterior:
    def test_zero_errors_peaks_at_zero(self):
        post = qber_posterior(0, 800)
        assert post.ml == 0.0
        assert post.interval_low == 0.0

    def test_single_cell_matches_beta_oracle(self):
        post = qber_posterior(11, 100)
        assert post.ml == pytest.approx(0.110, abs=1e-3)
        # Oracle: the posterior is Beta(12, 90) restricted to [0, 1/2].
        beta = stats.beta(12, 90)
        lo = beta.ppf(beta.cdf(0.110) - 0.341)
        hi = beta.ppf(beta.cdf(0.110) + 0.341)
        assert post.interval_low == pytest.approx(lo, abs=2e-3)
        assert post.interval_high == pytest.approx(hi, abs=2e-3)
        assert (post.interval_high - post.interval_low) / 2 == pytest.approx(0.031, abs=4e-3)

    def test_confidence_below_threshold(self):
        # ML 0.097 with posterior width about 0.006.
        n = 2433
        k = round(0.097 * n)
        post = qber_posterior(k, n)
        assert post.ml == pytest.approx(0.097, abs=5e-4)
        assert post.std() == pytest.approx(0.006, abs=5e-4)
        conf = post.integrated_below(0.110)
        beta = stats.beta(k + 1, n - k + 1)
        assert conf == pytest.approx(beta.cdf(0.110), abs=2e-3)
        assert conf == pytest.approx(0.985, abs=0.01)

    def test_consistency_as_counts_grow(self):
        f = 0.11
        widths = []
        for n in (100, 10_000, 1_000_000):
            post = qber_posterior(round(f * n), n)
            assert post.ml == pytest.approx(f, abs=max(2e-4, 3 / n))
            widths.append(post.interval_high - post.interval_low)
        assert widths[0] > widths[1] > widths[2]
        assert widths[2] < 2e-3

    def test_argmax_invariant_under_count_scaling(self):
        k, n = 36, 330  # (7, 80), (9, 75), (12, 90) and (8, 85) pooled
        post1 = qber_posterior(k, n)
        post10 = qber_posterior(10 * k, 10 * n)
        assert abs(post1.ml - post10.ml) <= 2e-4  # within grid resolution

    def test_density_normalized(self):
        post = qber_posterior(8, 90)
        assert post.density.sum() * post.step == pytest.approx(1.0, abs=1e-6)
        assert post.interval_low <= post.ml <= post.interval_high

    def test_all_errors_peaks_at_domain_edge(self):
        post = qber_posterior(50, 50)
        assert post.ml == pytest.approx(0.5)
        assert post.interval_high == pytest.approx(0.5)
        assert post.interval_low < 0.5
        assert post.density.sum() * post.step == pytest.approx(1.0, abs=1e-6)

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            qber_posterior(0, 0)
        with pytest.raises(ValueError):
            qber_posterior(5, 3)


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
        bound = plob_bound(0.01)
        assert bound.linear == pytest.approx(1.44e-2)
        assert bound.exact == pytest.approx(-math.log2(0.99), rel=1e-12)
        assert bound.exact == pytest.approx(1.4500e-2, abs=1e-6)

    def test_plob_small_p_limit(self):
        for p in (1e-4, 1e-6, 1e-8):
            bound = plob_bound(p)
            assert bound.exact / bound.linear == pytest.approx(1.0, abs=2e-3)
        assert plob_bound(1e-7).linear == pytest.approx(1.44e-7)

    def test_plob_domain(self):
        with pytest.raises(ValueError):
            plob_bound(1.0)


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
        post = qber_posterior(round(0.11 * 4000), 4000)
        report = build_report(post, BENCHMARK_BOUNDS)
        assert report.confidence_vs_rmax is not None
        assert report.confidence_vs_rmax > 0.99
        assert 0.5 < report.confidence_vs_plob < 1.0

    def test_confidence_integrates_the_reported_ratio(self):
        # The confidence against each bound is the posterior mass where the
        # measured secure rate, r_s(E) x the session's sifted rate, beats it.
        cfg = load_preset("fig4-point-N124")
        _, session = simulate_session(
            cfg.sequence, cfg.channel(), cfg.parties, cfg.noise, cfg.cycles, cfg.seed
        )
        post = qber_posterior(session.errors, session.sifted)
        p_ab = cfg.channel().p_ab
        bounds = BoundsConfig(
            eta=cfg.noise.eta_detect, n_pi=cfg.sequence.n_pi, n_sub=cfg.sequence.n_sub,
            p_ab=p_ab,
        )
        report = build_report(post, bounds, session)
        assert report.sifted_per_use == session.sifted_rate_per_use()
        weight = post.density * post.step
        secure = secret_fraction(post.grid) * report.sifted_per_use
        for confidence, bound in ((report.confidence_vs_rmax, rate_direct_bound(p_ab)),
                                  (report.confidence_vs_plob, plob_bound(p_ab).linear)):
            assert confidence == pytest.approx(weight[secure / bound > 1.0].sum(), abs=1e-12)
        assert report.ratio_plob_per_use == pytest.approx(
            report.secure_per_use / plob_bound(p_ab).linear, rel=1e-12
        )

    def test_high_qber_kills_rate(self):
        report = build_report(0.2, BENCHMARK_BOUNDS)
        assert report.r_s == 0.0
        assert report.secure_per_use == 0.0
