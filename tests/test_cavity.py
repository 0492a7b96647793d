import math

import mpmath
import numpy as np
import pytest

from memqkd.cavity import (
    CavityParams,
    EfficiencyBudget,
    SpinReflectances,
    average_reflectivity,
    cooperativity,
    model_reflectances,
    reflection_coefficient,
    reflectivity,
    total_heralding_efficiency,
)


def mp_reflectivity(g, kappa, kappa_wg, gamma, delta_c):
    """Arbitrary-precision evaluation of the reflection formula."""
    with mpmath.workdps(50):
        d = mpmath.mpc(0, delta_c)
        atom = mpmath.mpf(g) ** 2 / (d + mpmath.mpf(gamma) / 2)
        r = (d + atom - kappa_wg + mpmath.mpf(kappa) / 2) / (
            d + atom + mpmath.mpf(kappa) / 2
        )
        return float(mpmath.fabs(r) ** 2)


class TestReflectionCoefficient:
    def test_bare_critically_coupled_cavity_is_dark(self):
        params = CavityParams(g=0.0, kappa=21.6, kappa_wg=10.8, gamma=0.123, delta_c=0.0)
        assert abs(reflection_coefficient(params)) < 1e-12

    def test_resonant_device_value_matches_independent_evaluation(self):
        params = CavityParams(g=8.38, kappa=21.6, kappa_wg=10.8, gamma=0.123, delta_c=0.0)
        oracle = mp_reflectivity(8.38, 21.6, 10.8, 0.123, 0.0)
        assert reflectivity(params) == pytest.approx(oracle, rel=1e-12)
        assert reflectivity(params) == pytest.approx(0.981, abs=5e-4)

    @pytest.mark.parametrize("delta", [1e6, -1e6])
    def test_far_detuned_mirror_limit(self, delta):
        params = CavityParams(g=8.38, kappa=21.6, kappa_wg=10.8, gamma=0.123, delta_c=delta)
        assert reflectivity(params) == pytest.approx(1.0, abs=1e-4)

    def test_far_detuned_approach_is_monotone(self):
        detunings = np.linspace(200.0, 5000.0, 60)
        values = [
            reflectivity(CavityParams(delta_c=d))
            for d in detunings
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_passivity_over_random_parameters(self):
        rng = np.random.default_rng(1234)
        for _ in range(2000):
            kappa = rng.uniform(0.1, 100.0)
            params = CavityParams(
                g=rng.uniform(0.0, 50.0),
                kappa=kappa,
                kappa_wg=rng.uniform(0.0, kappa),
                gamma=rng.uniform(1e-3, 10.0),
                delta_c=rng.uniform(-500.0, 500.0),
            )
            assert abs(reflection_coefficient(params)) <= 1.0 + 1e-12

    def test_rejects_singular_parameters(self):
        with pytest.raises(ValueError):
            CavityParams(kappa=0.0)
        with pytest.raises(ValueError):
            CavityParams(gamma=0.0)
        with pytest.raises(ValueError):
            CavityParams(kappa_wg=30.0)  # exceeds kappa

    @pytest.mark.parametrize(
        "params",
        [{"g": math.nan}, {"kappa": math.inf, "kappa_wg": 10.8}, {"delta_c": math.nan}],
        ids=["g-nan", "kappa-inf", "delta_c-nan"],
    )
    def test_rejects_non_finite_parameters(self, params):
        with pytest.raises(ValueError):
            CavityParams(**params)


class TestCooperativity:
    def test_device_value(self):
        c = cooperativity(CavityParams(g=8.38, kappa=21.6, gamma=0.123))
        assert c == pytest.approx(105.7, abs=0.05)
        assert 105 - 11 <= c <= 105 + 11

    def test_uncoupled_emitter(self):
        assert cooperativity(CavityParams(g=0.0)) == 0.0

    def test_unit_case(self):
        params = CavityParams(g=1.0, kappa=4.0, kappa_wg=2.0, gamma=1.0)
        assert cooperativity(params) == pytest.approx(1.0)

    def test_quadratic_scaling_in_g(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = rng.uniform(0.1, 20.0)
            s = rng.uniform(0.1, 5.0)
            base = cooperativity(CavityParams(g=g))
            scaled = cooperativity(CavityParams(g=s * g))
            assert scaled == pytest.approx(s**2 * base, rel=1e-12)


class TestEfficiencyBudget:
    def test_average_reflectivity_of_measured_device(self):
        assert average_reflectivity(SpinReflectances(0.944, 0.041)) == pytest.approx(0.4925)

    @pytest.mark.parametrize(
        "r_up,r_down,expected", [(1.0, 1.0, 1.0), (1.0, 0.0, 0.5)]
    )
    def test_average_reflectivity_edge_cases(self, r_up, r_down, expected):
        assert average_reflectivity(SpinReflectances(r_up, r_down)) == expected

    def test_reflectance_ordering_enforced(self):
        with pytest.raises(ValueError):
            SpinReflectances(r_up=0.1, r_down=0.2)

    def test_total_heralding_efficiency(self):
        budget = EfficiencyBudget(0.4925, 0.930, 0.934, 0.99)
        assert total_heralding_efficiency(budget) == pytest.approx(0.4235, abs=5e-4)
        # consistent with the calibrated 0.425 +/- 0.008
        assert abs(total_heralding_efficiency(budget) - 0.425) < 0.008

    def test_degenerate_budgets(self):
        assert total_heralding_efficiency(EfficiencyBudget(1, 1, 1, 1)) == 1.0
        assert total_heralding_efficiency(EfficiencyBudget(0, 1, 1, 1)) == 0.0


def test_model_reflectances_orders_spin_states():
    refl = model_reflectances(CavityParams())
    assert refl.r_up > 0.9
    assert refl.r_down < 1e-12  # ideal critically coupled model
    assert refl.r_up >= refl.r_down


def test_leakage_amplitude_from_measured_reflectances():
    eps = SpinReflectances(0.944, 0.041).leakage_amplitude()
    assert eps == pytest.approx(math.sqrt(0.041 / 0.944), rel=1e-12)
