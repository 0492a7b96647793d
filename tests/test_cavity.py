import math

import numpy as np
import pytest

from memqkd.cavity import (
    CavityParams,
    EfficiencyBudget,
    cooperativity,
    total_heralding_efficiency,
)
from memqkd.config import load_preset
from memqkd.qubits import NoiseParams


class TestReflectionCoefficient:
    def test_rejects_singular_parameters(self):
        with pytest.raises(ValueError):
            CavityParams(kappa=0.0)
        with pytest.raises(ValueError):
            CavityParams(gamma=0.0)

    @pytest.mark.parametrize(
        "params",
        [{"g": math.nan}, {"kappa": math.inf}],
        ids=["g-nan", "kappa-inf"],
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
        params = CavityParams(g=1.0, kappa=4.0, gamma=1.0)
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
        assert EfficiencyBudget().eta_sp == pytest.approx((0.944 + 0.041) / 2)

    def test_total_heralding_efficiency(self):
        budget = EfficiencyBudget(0.4925, 0.930, 0.934, 0.99)
        assert total_heralding_efficiency(budget) == pytest.approx(0.4235, abs=5e-4)
        # consistent with the calibrated 0.425 +/- 0.008
        assert abs(total_heralding_efficiency(budget) - 0.425) < 0.008

    def test_degenerate_budgets(self):
        assert total_heralding_efficiency(EfficiencyBudget(1, 1, 1, 1)) == 1.0
        assert total_heralding_efficiency(EfficiencyBudget(0, 1, 1, 1)) == 0.0


    def test_budget_matches_simulated_efficiency(self):
        # The simulator reads only [noise] eta_detect; the budget is the
        # device figure it stands for.
        eta = total_heralding_efficiency(EfficiencyBudget())
        assert eta == pytest.approx(0.42352, abs=5e-6)
        assert abs(eta - NoiseParams().eta_detect) < 1e-3
        assert abs(eta - load_preset("fig4-point-N124").noise.eta_detect) < 1e-3
