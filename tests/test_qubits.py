import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from memqkd.bsm import LABEL_PHASE
from memqkd.qubits import (
    NoiseParams,
    NonPhysicalStateError,
    apply_dephasing,
    apply_herald,
    apply_pi_pulse,
    herald_probability,
    measure_x,
    prepare_superposition,
    reflect_and_herald,
    spin_photon_fidelity,
)


def random_coherence(rng) -> complex:
    # A random state on the equator of the Bloch sphere: |b| <= 1/2.
    return 0.5 * rng.random() * np.exp(1j * rng.uniform(0, 2 * math.pi))


def rho_of(b) -> np.ndarray:
    """The density matrix of coherence b, with equal populations."""
    return np.array([[0.5, b], [np.conj(b), 0.5]], dtype=complex)


def coherence_of(rho: np.ndarray) -> complex:
    """rho's coherence, after checking that rho lies on the equator."""
    assert np.allclose(np.diag(rho), 0.5, rtol=0, atol=1e-14)
    return rho[0, 1]


SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def dephase(rho: np.ndarray, p: float) -> np.ndarray:
    return (1 - p) * rho + p * (SZ @ rho @ SZ)


def oracle_smallest(b) -> np.ndarray:
    """The smaller eigenvalue of each lane's density matrix, by eigvalsh."""
    return np.array([np.linalg.eigvalsh(rho_of(lane)).min() for lane in np.ravel(b)])


def rejection(b):
    """None if a herald accepts the coherence b, else the error message."""
    try:
        reflect_and_herald(b, np.zeros(np.shape(b)), NoiseParams.ideal(),
                           np.random.default_rng(0))
    except NonPhysicalStateError as exc:
        return str(exc)
    return None


def edge_coherence(phase: float, d: float) -> complex:
    """A coherence d beyond the positivity threshold |b| = 1/2 + 1e-9."""
    return (0.5 + 1e-9 + d) * np.exp(1j * phase)


# Directions on the equator: the eight label phases a herald turns b by,
# and two that no herald reaches from b = 1/2.
EDGE_PHASES = [*LABEL_PHASE, 1.0, 4.0]

NEAR_THRESHOLD = st.tuples(
    st.floats(0.5 - 3e-9, 0.5 + 3e-9) | st.floats(0.0, 0.5),
    st.floats(0.0, 2 * math.pi),
).map(lambda polar: polar[0] * np.exp(1j * polar[1]))


class TestStatePreparation:
    def test_superposition_points_along_x(self):
        b = prepare_superposition()
        assert b == 0.5 and np.shape(b) == ()
        assert np.trace(rho_of(b) @ rho_of(b)).real == pytest.approx(1.0, abs=1e-12)

    def test_imperfect_initialization_shortens_z(self):
        # Undoing the pi/2 pulse recovers the initialized mixture
        # f |down><down| + (1-f) |up><up|, so <Z> = -(2f - 1).
        c = math.sqrt(0.5)
        undo = np.array([[c, -c], [c, c]], dtype=complex)
        rho = undo @ rho_of(prepare_superposition(0.998)) @ undo.conj().T
        assert (rho[0, 0] - rho[1, 1]).real == pytest.approx(-(2 * 0.998 - 1), abs=1e-12)

    def test_imperfect_superposition_shortens_x(self):
        b = prepare_superposition(0.998)
        assert 2 * b.real == pytest.approx(2 * 0.998 - 1, abs=1e-12)

    def test_nonphysical_initialization_rejected(self):
        # f_init outside [0, 1] would start the cycle at |b| > 1/2.
        for f_init in (1.0 + 1e-12, -1e-12, math.nan):
            with pytest.raises(ValueError, match="f_init must lie in"):
                prepare_superposition(f_init)
        for f_init in (0.0, 1.0):
            assert abs(prepare_superposition(f_init)) == 0.5

    def test_state_does_not_alias_the_callers_array(self):
        # Every map returns a new array and leaves the caller's lanes as
        # they were; run_memory_cycles writes only the lanes it maps.
        rng = np.random.default_rng(17)
        block = prepare_superposition(lanes=(4,))
        block[1:] = [random_coherence(rng) for _ in range(3)]
        before = block.copy()
        assert not np.shares_memory(prepare_superposition(lanes=(4,)), block)
        _, heralded = reflect_and_herald(block, np.zeros(4), NoiseParams(), rng)
        for mapped in (
            heralded,
            apply_herald(block, 0.3, 1, 0.24114),
            apply_pi_pulse(block, 0.0011),
            apply_dephasing(block, 0.0),
        ):
            assert not np.shares_memory(mapped, block)
        measure_x(block, 0.9998, rng)
        assert np.array_equal(block, before)


class TestPhysicalityCheck:
    @settings(max_examples=300, deadline=None)
    @given(b=NEAR_THRESHOLD)
    def test_closed_form_agrees_with_eigvalsh_oracle(self, b):
        smallest = oracle_smallest(b)[0]
        assume(abs(smallest + 1e-9) > 1e-12)
        verdict = rejection(b)
        assert (verdict is not None) == (smallest < -1e-9)
        if verdict is not None:
            value = float(verdict.removeprefix("negative eigenvalue "))
            assert value == pytest.approx(smallest, rel=0, abs=1e-15)

    @pytest.mark.parametrize("phase", EDGE_PHASES)
    def test_each_threshold_just_outside_the_band(self, phase):
        # 2e-12 inside the threshold is accepted and 2e-12 beyond it is
        # rejected, by both forms.
        inside, beyond = edge_coherence(phase, -2e-12), edge_coherence(phase, 2e-12)
        assert oracle_smallest(inside)[0] >= -1e-9
        assert oracle_smallest(beyond)[0] < -1e-9
        assert rejection(inside) is None
        assert rejection(beyond).startswith("negative eigenvalue")

    @settings(max_examples=150, deadline=None)
    @given(lanes=st.lists(NEAR_THRESHOLD, min_size=1, max_size=6))
    def test_block_check_agrees_with_oracle_lane_by_lane(self, lanes):
        # A block fails with the eigenvalue of its first lane the oracle
        # rejects, up to the last bits numpy's vector and scalar loops may
        # round differently.
        block = np.array(lanes)
        smallest = oracle_smallest(block)
        assume(np.abs(smallest + 1e-9).min() > 1e-12)
        bad = np.flatnonzero(smallest < -1e-9)
        verdict = rejection(block)
        assert (verdict is not None) == bool(bad.size)
        if verdict is not None:
            value = float(verdict.removeprefix("negative eigenvalue "))
            assert value == pytest.approx(smallest[bad[0]], rel=0, abs=1e-15)

    @pytest.mark.parametrize("phase", EDGE_PHASES)
    def test_one_bad_lane_in_a_block_raises_its_own_message(self, phase):
        rng = np.random.default_rng(7)
        physical = [random_coherence(rng) for _ in range(5)]
        lone = rejection(edge_coherence(phase, 2e-12))
        assert lone is not None
        assert rejection(np.array(physical[:2] + [edge_coherence(phase, 2e-12)]
                                  + physical[2:])) == lone
        assert rejection(np.array(physical + [edge_coherence(phase, -2e-12)])) is None


class TestHeraldedGate:
    def test_identity_teleport(self):
        b = apply_herald(prepare_superposition(), phase=0.0, m=1, eps_leak=0.0)
        assert b == pytest.approx(0.5, abs=1e-12)

    def test_pi_phase_flip(self):
        b = apply_herald(prepare_superposition(), phase=math.pi, m=1, eps_leak=0.0)
        assert b == pytest.approx(-0.5, abs=1e-9)

    def test_born_probability_exactly_half_without_leakage(self):
        rng = np.random.default_rng(8)
        for phase in rng.uniform(0, 2 * math.pi, size=30):
            assert herald_probability(phase, 1, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_outcomes_equiprobable_without_leakage(self):
        rng = np.random.default_rng(3)
        noise = NoiseParams.ideal()
        for phase in (0.0, math.pi / 2, 1.234):
            m, _ = reflect_and_herald(prepare_superposition(lanes=(400,)), phase, noise, rng)
            # exact 1/2 Born probability, so a 4-sigma band around 200
            assert abs(np.count_nonzero(m == 1) - 200) < 4 * 10

    def test_herald_marginal_uniform_chisquare(self):
        # The outcome distribution must be uniform and phase independent.
        rng = np.random.default_rng(11)
        noise = NoiseParams.ideal()
        n = 10_000
        for phase in LABEL_PHASE[::2]:  # +x, +y, +a, +b
            spins = prepare_superposition(lanes=(n,))
            m, _ = reflect_and_herald(spins, phase, noise, rng)
            plus = np.count_nonzero(m == 1)
            _, p_value = stats.chisquare([plus, n - plus])
            assert p_value > 0.01

    def test_single_state_outcome_is_a_scalar(self):
        rng = np.random.default_rng(4)
        m, b = reflect_and_herald(prepare_superposition(), 0.0, NoiseParams.ideal(), rng)
        assert m in (1, -1) and np.ndim(m) == 0
        assert b == pytest.approx(m / 2, abs=1e-12)

    def test_phase_composition_law(self):
        # Two heralds compose to a single herald with the summed phase.
        rng = np.random.default_rng(5)
        for _ in range(50):
            phi1, phi2 = rng.uniform(0, 2 * math.pi, size=2)
            m1, m2 = rng.choice([1, -1], size=2)
            b = prepare_superposition()
            two_step = apply_herald(apply_herald(b, phi1, m1, 0.0), phi2, m2, 0.0)
            one_step = apply_herald(b, phi1 + phi2, m1 * m2, 0.0)
            assert two_step == pytest.approx(one_step, abs=1e-10)

    @pytest.mark.parametrize("eps", [0.0, 0.24114, 1.0])
    @pytest.mark.parametrize("m", [1, -1])
    def test_herald_equals_its_matrix_product_form(self, m, eps):
        rng = np.random.default_rng(41)
        for _ in range(50):
            b = random_coherence(rng)
            phase = rng.uniform(0, 2 * math.pi)
            e = m * np.exp(1j * phase)
            kraus = np.diag([1.0 + eps * e, e + eps])
            mapped = kraus @ rho_of(b) @ kraus.conj().T
            norm = np.trace(mapped).real
            heralded = coherence_of(mapped / norm)
            assert abs(apply_herald(b, phase, m, eps) - heralded) <= 1e-14
            assert herald_probability(phase, m, eps) == pytest.approx(
                norm / (2.0 * (1.0 + eps**2)), rel=0, abs=1e-14
            )

    def test_rejects_nonphysical_input(self):
        # |b| = 0.7 > 1/2: the smaller eigenvalue of rho is 1/2 - 0.7.
        rng = np.random.default_rng(0)
        with pytest.raises(NonPhysicalStateError, match="negative eigenvalue") as lone:
            reflect_and_herald(np.array(0.7 + 0j), 0.0, NoiseParams.ideal(), rng)
        smallest = float(str(lone.value).removeprefix("negative eigenvalue "))
        assert smallest == pytest.approx(np.linalg.eigvalsh(rho_of(0.7)).min(), abs=1e-15)
        # A block names its first bad lane.
        block = np.array([0.0, 0.7, 0.9j])
        with pytest.raises(NonPhysicalStateError) as herald:
            reflect_and_herald(block, np.zeros(3), NoiseParams.ideal(), rng)
        assert str(herald.value) == str(lone.value)

    @pytest.mark.parametrize("b", [complex(math.nan, 0.0), complex(0.0, math.nan)])
    def test_herald_rejects_a_nan_lane(self, b):
        block = np.array([0.5, b])
        with pytest.raises(NonPhysicalStateError, match="negative eigenvalue nan"):
            reflect_and_herald(block, np.zeros(2), NoiseParams.ideal(), np.random.default_rng(0))

    def test_positivity_threshold(self):
        # |b| = 1/2 is a pure state and heralds; 1e-6 beyond it is rejected.
        rng = np.random.default_rng(0)
        turn = np.exp(0.7j)
        reflect_and_herald(np.array([0.0, 0.5 * turn]), np.zeros(2), NoiseParams.ideal(), rng)
        with pytest.raises(NonPhysicalStateError, match="negative eigenvalue"):
            reflect_and_herald(np.array([0.0, (0.5 + 1e-6) * turn]), np.zeros(2),
                               NoiseParams.ideal(), rng)


class TestChannels:
    def test_pi_pulse_is_involutive(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            b = random_coherence(rng)
            assert apply_pi_pulse(apply_pi_pulse(b, 0.0), 0.0) == pytest.approx(b, abs=1e-12)

    def test_full_dephasing_kills_coherence(self):
        assert apply_dephasing(prepare_superposition(), 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_dephasing_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            apply_dephasing(prepare_superposition(), 1.5)
        with pytest.raises(ValueError):
            apply_pi_pulse(prepare_superposition(), 1.5)

    @pytest.mark.parametrize("p", [0.0, 0.0011, 0.5, 1.0])
    def test_maps_equal_their_matrix_product_forms(self, p):
        rng = np.random.default_rng(31)
        for _ in range(50):
            b = random_coherence(rng)
            pulsed = coherence_of(dephase(SX @ rho_of(b) @ SX, p))
            dephased = coherence_of(dephase(rho_of(b), p))
            assert abs(apply_pi_pulse(b, p) - pulsed) <= 1e-14
            assert abs(apply_dephasing(b, p) - dephased) <= 1e-14
        block = prepare_superposition(lanes=(3,))
        assert not np.shares_memory(apply_pi_pulse(block, p), block)
        assert not np.shares_memory(apply_dephasing(block, p), block)

    def test_block_maps_act_lane_by_lane(self):
        # One call on a block equals the single-state call on each lane, up to
        # the last bit numpy's vector and scalar loops may round differently.
        rng = np.random.default_rng(13)
        block = np.array([random_coherence(rng) for _ in range(6)])
        p = rng.random(6)
        phase = rng.uniform(0, 2 * math.pi, size=6)
        m = rng.choice([1, -1], size=6)
        maps = [
            lambda b, i: apply_pi_pulse(b, p[i]),
            lambda b, i: apply_dephasing(b, p[i]),
            lambda b, i: apply_herald(b, phase[i], m[i], 0.24114),
        ]
        for f in maps:
            mapped = f(block, slice(None))
            for i, b in enumerate(block):
                assert abs(mapped[i] - f(b, i)) <= 1e-15
        probs = herald_probability(phase, m, 0.24114)
        for i in range(len(block)):
            single = herald_probability(phase[i], m[i], 0.24114)
            assert probs[i] == pytest.approx(single, rel=0, abs=1e-15)

    def test_all_maps_preserve_positivity(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            b = random_coherence(rng)
            p = rng.random()
            phase = rng.uniform(0, 2 * math.pi)
            eps = rng.uniform(0, 0.5)
            m = int(rng.choice([1, -1]))
            for mapped in (
                apply_pi_pulse(b, 0.0),
                apply_dephasing(b, p),
                apply_herald(b, phase, m, eps),
            ):
                assert np.linalg.eigvalsh(rho_of(mapped)).min() > -1e-9


class TestReadout:
    def test_plus_x_reads_plus_one(self):
        rng = np.random.default_rng(1)
        outcomes = {measure_x(prepare_superposition(), 1.0, rng) for _ in range(100)}
        assert outcomes == {1}

    def test_readout_error_flips(self):
        rng = np.random.default_rng(2)
        flips = sum(
            measure_x(prepare_superposition(), 0.0, rng) == -1 for _ in range(100)
        )
        assert flips == 100  # f_readout = 0 always flips

    def test_born_rule_on_a_mixed_block(self):
        # Bloch (0.6, 0.3, 0), so b = (0.6 - 0.3i) / 2: P(+x) = (1 + 0.6) / 2
        # = 0.8, and readout flips with probability 0.1, so +1 has
        # probability 0.74.
        n = 100_000
        block = np.full(n, (0.6 - 0.3j) / 2)
        plus = np.count_nonzero(measure_x(block, 0.9, np.random.default_rng(6)) == 1)
        p = 0.8 * 0.9 + 0.2 * 0.1
        assert abs(plus - n * p) < 5 * math.sqrt(n * p * (1 - p))


class TestSpinPhotonFidelity:
    def test_ideal_node_is_perfect(self):
        assert spin_photon_fidelity(NoiseParams.ideal(), 0.0) == 1.0
        assert spin_photon_fidelity(NoiseParams.ideal(), 0.5) == 1.0

    def test_calibrated_operating_point(self):
        f = spin_photon_fidelity(NoiseParams(), 0.002)
        assert f >= 0.944
        assert f == pytest.approx(0.944, abs=0.01)

    def test_monotone_decreasing_in_photon_load(self):
        noise = NoiseParams()
        grid = [0.002, 0.01, 0.05, 0.1, 0.2]
        values = [spin_photon_fidelity(noise, n) for n in grid]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_monotone_decreasing_in_leakage(self):
        values = [
            spin_photon_fidelity(NoiseParams(eps_leak=e), 0.01)
            for e in (0.0, 0.1, 0.2, 0.4)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_rejects_negative_load(self):
        with pytest.raises(ValueError):
            spin_photon_fidelity(NoiseParams(), -0.1)
