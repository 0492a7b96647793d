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
    SpinState,
    apply_dephasing,
    apply_herald,
    apply_pi_pulse,
    herald_probability,
    measure_x,
    prepare_superposition,
    reflect_and_herald,
    spin_photon_fidelity,
)


def random_state(rng) -> SpinState:
    # Random mixture of a random pure state with the maximally mixed state.
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi /= np.linalg.norm(psi)
    w = rng.random()
    rho = w * np.outer(psi, psi.conj()) + (1 - w) * np.eye(2) / 2
    return SpinState(rho)


SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def dephase(rho: np.ndarray, p: float) -> np.ndarray:
    return (1 - p) * rho + p * (SZ @ rho @ SZ)


def check_physical_oracle(rho: np.ndarray) -> None:
    # The allclose / trace / eigvalsh form the closed-form check replaced.
    if not np.allclose(rho, rho.conj().T, atol=1e-9):
        raise NonPhysicalStateError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-9 or abs(np.trace(rho).imag) > 1e-9:
        raise NonPhysicalStateError(f"trace must be 1, got {np.trace(rho)}")
    eigs = np.linalg.eigvalsh(rho)
    if eigs.min() < -1e-9:
        raise NonPhysicalStateError(f"negative eigenvalue {eigs.min()}")


def oracle_margins(rho: np.ndarray) -> list[float]:
    """Signed distance of each oracle test quantity from its threshold."""
    adjoint = rho.conj().T
    margins = list((np.abs(rho - adjoint) - (1e-9 + 1e-5 * np.abs(adjoint))).ravel())
    trace = np.trace(rho)
    margins += [abs(trace.real - 1.0) - 1e-9, abs(trace.imag) - 1e-9]
    margins.append(np.linalg.eigvalsh(rho).min() + 1e-9)
    return margins


REJECTIONS = ("density matrix is not Hermitian", "trace must be 1", "negative eigenvalue")


def rejection(check, rho: np.ndarray):
    """None if `check` accepts rho, else which test rejected it."""
    try:
        check(rho)
    except NonPhysicalStateError as exc:
        return next(r for r in REJECTIONS if str(exc).startswith(r))
    return None


class TestStatePreparation:
    def test_superposition_points_along_x(self):
        state = prepare_superposition()
        assert state.bloch_vector() == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)
        assert np.trace(state.rho @ state.rho).real == pytest.approx(1.0, abs=1e-12)

    def test_imperfect_initialization_shortens_z(self):
        # Undoing the pi/2 pulse recovers the initialized mixture
        # f |down><down| + (1-f) |up><up|, so <Z> = -(2f - 1).
        c = math.sqrt(0.5)
        undo = np.array([[c, -c], [c, c]], dtype=complex)
        state = SpinState(undo @ prepare_superposition(0.998).rho @ undo.conj().T)
        assert state.bloch_vector()[2] == pytest.approx(-(2 * 0.998 - 1), abs=1e-12)

    def test_imperfect_superposition_shortens_x(self):
        state = prepare_superposition(0.998)
        assert state.bloch_vector()[0] == pytest.approx(2 * 0.998 - 1, abs=1e-12)

    def test_nonphysical_matrices_rejected(self):
        with pytest.raises(NonPhysicalStateError):
            SpinState(np.array([[1.5, 0], [0, -0.5]]))
        with pytest.raises(NonPhysicalStateError):
            SpinState(np.array([[0.5, 0.9], [0.9, 0.5]]))

    def test_state_does_not_alias_the_callers_array(self):
        rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        state = SpinState(rho)
        rho[0, 1] = rho[1, 0] = 0.0
        state.rho[0, 0] = 1.0
        assert state.bloch_vector() == (1.0, 0.0, 0.0)
        assert not np.shares_memory(state.rho, state.rho)


def near_threshold_matrix(
    theta=math.pi / 2, phi=0.3, smallest=0.2, trace_shift=0.0, trace_imag=0.0,
    diag_skew=0.0, offdiag_skew=0.0, skew_phase=1.0,
) -> np.ndarray:
    """A Hermitian matrix with eigenvalues (1 + trace_shift - smallest,
    smallest), plus anti-Hermitian parts in units of the Hermiticity
    tolerance, so every test can sit near its threshold. The diagonal
    imaginary parts nearly cancel (the trace must stay real), so the
    diagonal with the smaller modulus has the binding tolerance."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    u = np.array([[c, -np.exp(-1j * phi) * s], [np.exp(1j * phi) * s, c]])
    rho = u @ np.diag([1.0 + trace_shift - smallest, smallest]) @ u.conj().T
    a_imag = diag_skew * (1e-9 + 1e-5 * min(abs(rho[0, 0]), abs(rho[1, 1]))) / 2
    rho[0, 0] += 1j * a_imag
    rho[1, 1] += 1j * (trace_imag - a_imag)
    rho[0, 1] += offdiag_skew * (1e-9 + 1e-5 * abs(rho[1, 0])) * np.exp(1j * skew_phase)
    return rho


NEAR_THRESHOLD = dict(
    theta=st.floats(0.0, math.pi),
    phi=st.floats(0.0, 2 * math.pi),
    smallest=st.floats(-3e-9, 1e-9) | st.floats(0.0, 0.5),
    trace_shift=st.just(0.0) | st.floats(-3e-9, 3e-9),
    trace_imag=st.just(0.0) | st.floats(-3e-9, 3e-9),
    diag_skew=st.just(0.0) | st.floats(-2.0, 2.0),
    offdiag_skew=st.just(0.0) | st.floats(0.0, 2.0),
    skew_phase=st.floats(0.0, 2 * math.pi),
)

EDGES = [
    lambda d: {"trace_shift": 1e-9 + d},
    lambda d: {"trace_shift": -1e-9 - d},
    lambda d: {"trace_imag": 1e-9 + d},
    lambda d: {"trace_imag": -1e-9 - d},
    lambda d: {"smallest": -1e-9 - d},
    lambda d: {"smallest": -1e-9 - d, "theta": 0.0},
    # Hermiticity tolerances 1e-9 + 1e-5 |entry|: the smaller diagonal
    # is d = 0.2 at theta = 0 and a = 0.2 at theta = pi, |c| = 0.3 at
    # the default theta and c = 0 at theta = 0.
    lambda d: {"diag_skew": 1.0 + d / 2e-6, "theta": 0.0},
    lambda d: {"diag_skew": 1.0 + d / 2e-6, "theta": math.pi},
    lambda d: {"offdiag_skew": 1.0 + d / 3e-6},
    lambda d: {"offdiag_skew": 1.0 + d / 1e-9, "theta": 0.0},
]


class TestPhysicalityCheck:
    @settings(max_examples=300, deadline=None)
    @given(**NEAR_THRESHOLD)
    def test_closed_form_agrees_with_eigvalsh_oracle(self, **params):
        rho = near_threshold_matrix(**params)
        assume(min(abs(m) for m in oracle_margins(rho)) > 1e-12)
        assert rejection(SpinState, rho) == rejection(check_physical_oracle, rho)

    @pytest.mark.parametrize("edge", EDGES)
    def test_each_threshold_just_outside_the_band(self, edge):
        # 2e-12 inside the threshold is accepted and 2e-12 beyond it is
        # rejected, by both forms.
        inside = near_threshold_matrix(**edge(-2e-12))
        beyond = near_threshold_matrix(**edge(2e-12))
        assert rejection(check_physical_oracle, inside) is None
        assert rejection(check_physical_oracle, beyond) is not None
        for rho in (inside, beyond):
            assert rejection(SpinState, rho) == rejection(check_physical_oracle, rho)

    @settings(max_examples=150, deadline=None)
    @given(lanes=st.lists(st.fixed_dictionaries(NEAR_THRESHOLD), min_size=1, max_size=6))
    def test_block_check_agrees_with_oracle_lane_by_lane(self, lanes):
        # A block fails the first test (in check order) that any lane fails.
        block = np.array([near_threshold_matrix(**params) for params in lanes])
        assume(min(abs(m) for rho in block for m in oracle_margins(rho)) > 1e-12)
        failed = [rejection(check_physical_oracle, rho) for rho in block]
        failed = [verdict for verdict in failed if verdict is not None]
        expected = min(failed, key=REJECTIONS.index) if failed else None
        assert rejection(SpinState, block) == expected

    @pytest.mark.parametrize("edge", EDGES)
    def test_one_bad_lane_in_a_block_raises_its_own_message(self, edge):
        rng = np.random.default_rng(7)
        physical = [random_state(rng).rho for _ in range(5)]
        bad = near_threshold_matrix(**edge(2e-12))
        with pytest.raises(NonPhysicalStateError) as lone:
            SpinState(bad)
        with pytest.raises(NonPhysicalStateError) as batched:
            SpinState(np.array(physical[:2] + [bad] + physical[2:]))
        assert str(batched.value) == str(lone.value)
        SpinState(np.array(physical + [near_threshold_matrix(**edge(-2e-12))]))


class TestHeraldedGate:
    def test_identity_teleport(self):
        spin = prepare_superposition()
        out = apply_herald(spin, phase=0.0, m=1, eps_leak=0.0)
        assert out.bloch_vector() == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)

    def test_pi_phase_flip(self):
        spin = prepare_superposition()
        out = apply_herald(spin, phase=math.pi, m=1, eps_leak=0.0)
        assert out.bloch_vector() == pytest.approx((-1.0, 0.0, 0.0), abs=1e-9)

    def test_born_probability_exactly_half_without_leakage(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            state = random_state(rng)
            phase = rng.uniform(0, 2 * math.pi)
            assert herald_probability(state, phase, 1, 0.0) == pytest.approx(0.5, abs=1e-12)

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
        m, spin = reflect_and_herald(prepare_superposition(), 0.0, NoiseParams.ideal(), rng)
        assert m in (1, -1) and np.ndim(m) == 0
        assert spin.bloch_vector() == pytest.approx((m, 0.0, 0.0), abs=1e-12)

    def test_phase_composition_law(self):
        # Two heralds compose to a single herald with the summed phase.
        rng = np.random.default_rng(5)
        for _ in range(50):
            phi1, phi2 = rng.uniform(0, 2 * math.pi, size=2)
            m1, m2 = rng.choice([1, -1], size=2)
            spin = prepare_superposition()
            two_step = apply_herald(apply_herald(spin, phi1, m1, 0.0), phi2, m2, 0.0)
            one_step = apply_herald(spin, phi1 + phi2, m1 * m2, 0.0)
            assert np.allclose(two_step.rho, one_step.rho, atol=1e-10)

    @pytest.mark.parametrize("eps", [0.0, 0.24114, 1.0])
    @pytest.mark.parametrize("m", [1, -1])
    def test_herald_equals_its_matrix_product_form(self, m, eps):
        rng = np.random.default_rng(41)
        for _ in range(50):
            state = random_state(rng)
            phase = rng.uniform(0, 2 * math.pi)
            e = m * np.exp(1j * phase)
            kraus = np.diag([1.0 + eps * e, e + eps])
            mapped = kraus @ state.rho @ kraus.conj().T
            norm = np.trace(mapped).real
            assert np.allclose(
                apply_herald(state, phase, m, eps).rho, mapped / norm, rtol=0, atol=1e-14
            )
            assert herald_probability(state, phase, m, eps) == pytest.approx(
                norm / (2.0 * (1.0 + eps**2)), rel=0, abs=1e-14
            )

    def test_rejects_nonphysical_input(self):
        rng = np.random.default_rng(0)
        rho = np.array([[1.2, 0.0], [0.0, -0.2]], dtype=complex)
        with pytest.raises(NonPhysicalStateError, match="negative eigenvalue") as lone:
            SpinState(rho)
        # The same matrix as the middle lane of a block, set on the entry arrays.
        rhos = np.array([np.eye(2) / 2, rho, np.eye(2) / 2])
        block = SpinState._from_entries(*(rhos[:, i, j] for i in (0, 1) for j in (0, 1)))
        with pytest.raises(NonPhysicalStateError) as herald:
            reflect_and_herald(block, np.zeros(3), NoiseParams.ideal(), rng)
        assert str(herald.value) == str(lone.value)


class TestChannels:
    def test_pi_pulse_is_involutive(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            state = random_state(rng)
            twice = apply_pi_pulse(apply_pi_pulse(state, 0.0), 0.0)
            assert np.allclose(twice.rho, state.rho, atol=1e-12)

    def test_full_dephasing_kills_coherence(self):
        state = apply_dephasing(prepare_superposition(), 0.5)
        assert state.bloch_vector() == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)

    def test_dephasing_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            apply_dephasing(prepare_superposition(), 1.5)
        with pytest.raises(ValueError):
            apply_pi_pulse(prepare_superposition(), 1.5)

    @pytest.mark.parametrize("p", [0.0, 0.0011, 0.5, 1.0])
    def test_maps_equal_their_matrix_product_forms(self, p):
        rng = np.random.default_rng(31)
        for _ in range(50):
            state = random_state(rng)
            pulsed = apply_pi_pulse(state, p)
            dephased = apply_dephasing(state, p)
            assert np.allclose(pulsed.rho, dephase(SX @ state.rho @ SX, p), rtol=0, atol=1e-14)
            assert np.allclose(dephased.rho, dephase(state.rho, p), rtol=0, atol=1e-14)
            assert not np.shares_memory(pulsed.rho, state.rho)
            assert not np.shares_memory(dephased.rho, state.rho)

    def test_block_maps_act_lane_by_lane(self):
        # One call on a block equals the single-state call on each lane, up to
        # the last bit numpy's vector and scalar loops may round differently.
        rng = np.random.default_rng(13)
        states = [random_state(rng) for _ in range(6)]
        block = SpinState(np.array([state.rho for state in states]))
        p = rng.random(6)
        phase = rng.uniform(0, 2 * math.pi, size=6)
        m = rng.choice([1, -1], size=6)
        maps = [
            lambda spin, i: apply_pi_pulse(spin, p[i]),
            lambda spin, i: apply_dephasing(spin, p[i]),
            lambda spin, i: apply_herald(spin, phase[i], m[i], 0.24114),
        ]
        for f in maps:
            mapped = f(block, slice(None)).rho
            for i, state in enumerate(states):
                assert np.allclose(mapped[i], f(state, i).rho, rtol=0, atol=1e-15)
        probs = herald_probability(block, phase, m, 0.24114)
        for i, state in enumerate(states):
            single = herald_probability(state, phase[i], m[i], 0.24114)
            assert probs[i] == pytest.approx(single, rel=0, abs=1e-15)

    def test_all_maps_preserve_trace_and_positivity(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            state = random_state(rng)
            p = rng.random()
            phase = rng.uniform(0, 2 * math.pi)
            eps = rng.uniform(0, 0.5)
            m = int(rng.choice([1, -1]))
            for mapped in (
                apply_pi_pulse(state, 0.0),
                apply_dephasing(state, p),
                apply_herald(state, phase, m, eps),
            ):
                assert abs(np.trace(mapped.rho).real - 1.0) < 1e-10
                assert np.linalg.eigvalsh(mapped.rho).min() > -1e-9
                assert np.allclose(mapped.rho, mapped.rho.conj().T, atol=1e-10)


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
