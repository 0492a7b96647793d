import math

import numpy as np
import pytest

from memqkd.cavity import (
    DEVICE_EFFICIENCIES,
    DEVICE_RATES_GHZ,
    cooperativity,
    total_heralding_efficiency,
)
from memqkd.config import load_preset
from memqkd.qubits import NoiseParams

KAPPA, GAMMA = DEVICE_RATES_GHZ[1:]


class TestCooperativity:
    def test_rejects_singular_parameters(self):
        with pytest.raises(ValueError):
            cooperativity(8.38, 0.0, GAMMA)
        with pytest.raises(ValueError):
            cooperativity(8.38, KAPPA, 0.0)

    @pytest.mark.parametrize(
        "params",
        [(math.nan, KAPPA, GAMMA), (8.38, math.inf, GAMMA)],
        ids=["g-nan", "kappa-inf"],
    )
    def test_rejects_non_finite_parameters(self, params):
        with pytest.raises(ValueError):
            cooperativity(*params)

    def test_device_value(self):
        c = cooperativity(8.38, 21.6, 0.123)
        assert c == pytest.approx(105.7, abs=0.05)
        assert 105 - 11 <= c <= 105 + 11
        assert cooperativity(*DEVICE_RATES_GHZ) == c

    def test_uncoupled_emitter(self):
        assert cooperativity(0.0, KAPPA, GAMMA) == 0.0

    def test_unit_case(self):
        assert cooperativity(1.0, 4.0, 1.0) == pytest.approx(1.0)

    def test_quadratic_scaling_in_g(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = rng.uniform(0.1, 20.0)
            s = rng.uniform(0.1, 5.0)
            base = cooperativity(g, KAPPA, GAMMA)
            scaled = cooperativity(s * g, KAPPA, GAMMA)
            assert scaled == pytest.approx(s**2 * base, rel=1e-12)


class TestEfficiencyBudget:
    def test_average_reflectivity_of_measured_device(self):
        assert DEVICE_EFFICIENCIES[0] == pytest.approx((0.944 + 0.041) / 2)

    def test_total_heralding_efficiency(self):
        eta = total_heralding_efficiency(0.4925, 0.930, 0.934, 0.99)
        assert eta == pytest.approx(0.4235, abs=5e-4)
        # consistent with the calibrated 0.425 +/- 0.008
        assert abs(eta - 0.425) < 0.008

    def test_degenerate_budgets(self):
        assert total_heralding_efficiency(1, 1, 1, 1) == 1.0
        assert total_heralding_efficiency(0, 1, 1, 1) == 0.0

    @pytest.mark.parametrize("factor", [1.1, math.nan], ids=["above-one", "nan"])
    def test_rejects_factor_outside_unit_interval(self, factor):
        with pytest.raises(ValueError):
            total_heralding_efficiency(0.4925, 0.930, factor, 0.99)

    def test_budget_matches_simulated_efficiency(self):
        # The simulator reads only [noise] eta_detect; the budget is the
        # device figure it stands for.
        eta = total_heralding_efficiency(*DEVICE_EFFICIENCIES)
        assert eta == pytest.approx(0.42352, abs=5e-6)
        assert abs(eta - NoiseParams().eta_detect) < 1e-3
        assert abs(eta - load_preset("fig4-point-N124").noise.eta_detect) < 1e-3
