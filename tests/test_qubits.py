import dataclasses
import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

import oracles
from heralded import heralded_fidelity
from oracles import SX, coherence_of, dephase, rho_of
from memqkd import bsm
from memqkd.bsm import LABEL_PHASE, ChannelConfig, SequenceConfig, run_memory_cycles
from memqkd.qubits import (
    NoiseParams,
    NonPhysicalStateError,
    herald_tables,
    measure_x,
    prepare_superposition,
    reflect_and_herald,
)


def random_coherence(rng) -> complex:
    # A random state on the equator of the Bloch sphere: |b| <= 1/2.
    return 0.5 * rng.random() * np.exp(1j * rng.uniform(0, 2 * math.pi))


def heralded(b, phase, m, eps):
    """b after a herald of outcome m, turned by h / |h| of its herald-table
    entry as `reflect_and_herald` turns it."""
    _, amps = herald_tables(phase, eps)
    h = np.where(np.equal(m, 1), amps[..., 0], amps[..., 1])
    return h / abs(h) * b


def outcome_probability(phase, m, eps):
    """P(m) as `reflect_and_herald` draws it: m = -1 when u >= P(m = +1)."""
    probs, _ = herald_tables(phase, eps)
    return np.where(np.equal(m, 1), probs[..., 0], 1.0 - probs[..., 0])


def engine_coherences(monkeypatch, noise, n_pi):
    """b of each cycle right after its last herald and at its readout.

    `run_memory_cycles` runs one cycle per pair of photon labels, all
    heralding at slots 0 and 1 of a layout with two slots per window, at
    n_p = 1: with eta_detect = 0 every later slot scatters (r = 1). The
    engine's herald and readout calls are wrapped to record b.
    """
    seen = {}

    def herald(*args):
        m, b = reflect_and_herald(*args)
        seen["heralded"] = b.copy()
        return m, b

    def readout(b, f_readout, rng):
        seen["read"] = b.copy()
        return measure_x(b, f_readout, rng)

    monkeypatch.setattr(bsm, "reflect_and_herald", herald)
    monkeypatch.setattr(bsm, "measure_x", readout)
    labels = np.array(list(itertools.product(range(len(LABEL_PHASE)), repeat=2)))
    slots = np.tile((0, 1), (len(labels), 1))
    run_memory_cycles(
        SequenceConfig(n_pi=n_pi, n_sub=2), ChannelConfig(n_p=1.0), noise, slots, labels,
        np.random.default_rng(31),
    )
    return seen["heralded"], seen["read"]


def scattering(**probabilities) -> NoiseParams:
    """Ideal noise but for the given probabilities, with eta_detect = 0 so
    that at n_p = 1 every slot that does not herald scatters."""
    return dataclasses.replace(NoiseParams.ideal(), eta_detect=0.0, **probabilities)


def oracle_smallest(b) -> np.ndarray:
    """The smaller eigenvalue of each lane's density matrix, by eigvalsh."""
    return np.array([np.linalg.eigvalsh(rho_of(lane)).min() for lane in np.ravel(b)])


def rejection(b):
    """None if a herald accepts the coherence b, else the error message."""
    try:
        reflect_and_herald(b, *herald_tables(np.zeros(np.shape(b)), NoiseParams.ideal().eps_leak),
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
        # The herald returns a new array and leaves the caller's lanes as
        # they were; run_memory_cycles writes only the lanes it maps.
        rng = np.random.default_rng(17)
        block = prepare_superposition(lanes=(4,))
        block[1:] = [random_coherence(rng) for _ in range(3)]
        before = block.copy()
        assert not np.shares_memory(prepare_superposition(lanes=(4,)), block)
        _, after = reflect_and_herald(
            block, *herald_tables(np.zeros(4), NoiseParams().eps_leak), rng
        )
        assert not np.shares_memory(after, block)
        measure_x(block, 0.9998, rng)
        assert np.array_equal(block, before)

    def test_readout_rejects_bad_fidelity(self):
        with pytest.raises(ValueError, match="f_readout must lie in"):
            measure_x(prepare_superposition(), 1.5, np.random.default_rng(0))


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
        b = heralded(prepare_superposition(), phase=0.0, m=1, eps=0.0)
        assert b == pytest.approx(0.5, abs=1e-12)

    def test_pi_phase_flip(self):
        b = heralded(prepare_superposition(), phase=math.pi, m=1, eps=0.0)
        assert b == pytest.approx(-0.5, abs=1e-9)

    def test_born_probability_exactly_half_without_leakage(self):
        rng = np.random.default_rng(8)
        for phase in rng.uniform(0, 2 * math.pi, size=30):
            probs, _ = herald_tables(phase, 0.0)
            assert probs == pytest.approx(0.5, abs=1e-12)

    def test_outcomes_equiprobable_without_leakage(self):
        rng = np.random.default_rng(3)
        noise = NoiseParams.ideal()
        for phase in (0.0, math.pi / 2, 1.234):
            m, _ = reflect_and_herald(prepare_superposition(lanes=(400,)),
                                      *herald_tables(phase, noise.eps_leak), rng)
            # exact 1/2 Born probability, so a 4-sigma band around 200
            assert abs(np.count_nonzero(m == 1) - 200) < 4 * 10

    def test_herald_marginal_uniform_chisquare(self):
        # The outcome distribution must be uniform and phase independent.
        rng = np.random.default_rng(11)
        noise = NoiseParams.ideal()
        n = 10_000
        for phase in LABEL_PHASE[::2]:  # +x, +y, +a, +b
            spins = prepare_superposition(lanes=(n,))
            m, _ = reflect_and_herald(spins, *herald_tables(phase, noise.eps_leak), rng)
            plus = np.count_nonzero(m == 1)
            _, p_value = stats.chisquare([plus, n - plus])
            assert p_value > 0.01

    def test_single_state_outcome_is_a_scalar(self):
        rng = np.random.default_rng(4)
        m, b = reflect_and_herald(prepare_superposition(),
                                  *herald_tables(0.0, NoiseParams.ideal().eps_leak), rng)
        assert m in (1, -1) and np.ndim(m) == 0
        assert b == pytest.approx(m / 2, abs=1e-12)

    def test_phase_composition_law(self):
        # Two heralds compose to a single herald with the summed phase.
        rng = np.random.default_rng(5)
        for _ in range(50):
            phi1, phi2 = rng.uniform(0, 2 * math.pi, size=2)
            m1, m2 = rng.choice([1, -1], size=2)
            b = prepare_superposition()
            two_step = heralded(heralded(b, phi1, m1, 0.0), phi2, m2, 0.0)
            one_step = heralded(b, phi1 + phi2, m1 * m2, 0.0)
            assert two_step == pytest.approx(one_step, abs=1e-10)

    @pytest.mark.parametrize("eps", [0.0, 0.24114, 1.0, 0.999])
    @pytest.mark.parametrize("m", [1, -1])
    def test_herald_equals_its_matrix_product_form(self, m, eps):
        # The product is formed at 30 digits from e = m exp(i phi) of modulus
        # 1. In doubles |e| = 1 only to an ulp, which near an outcome of
        # probability 0 moves the normalised state off the equator by 4e-14.
        # At eps = 0.999 the phases lie within 0.05 rad of the one where
        # outcome m is least likely, 0 for m = -1 and pi for m = +1: there
        # the terms of a sum form of h cancel, and its turn loses bits.
        rng = np.random.default_rng(41)
        with mpmath.workdps(30):
            for _ in range(50):
                b = random_coherence(rng)
                if eps == 0.999:
                    phase = (m == 1) * math.pi + rng.uniform(-0.05, 0.05)
                else:
                    phase = rng.uniform(0, 2 * math.pi)
                e = m * mpmath.expj(phase)
                kraus = mpmath.diag([1 + eps * e, e + eps])
                mapped = kraus * mpmath.matrix(rho_of(b).tolist()) * kraus.H
                norm = mapped[0, 0].real + mapped[1, 1].real
                coherence = coherence_of(np.array((mapped / norm).tolist(), dtype=complex))
                assert abs(heralded(b, phase, m, eps) - coherence) <= 1e-14
                assert outcome_probability(phase, m, eps) == pytest.approx(
                    float(norm / (2 * (1 + mpmath.mpf(eps) ** 2))), rel=0, abs=1e-14
                )

    def test_rejects_nonphysical_input(self):
        # |b| = 0.7 > 1/2: the smaller eigenvalue of rho is 1/2 - 0.7.
        rng = np.random.default_rng(0)
        with pytest.raises(NonPhysicalStateError, match="negative eigenvalue") as lone:
            reflect_and_herald(np.array(0.7 + 0j),
                               *herald_tables(0.0, NoiseParams.ideal().eps_leak), rng)
        smallest = float(str(lone.value).removeprefix("negative eigenvalue "))
        assert smallest == pytest.approx(np.linalg.eigvalsh(rho_of(0.7)).min(), abs=1e-15)
        # A block names its first bad lane.
        block = np.array([0.0, 0.7, 0.9j])
        with pytest.raises(NonPhysicalStateError) as herald:
            reflect_and_herald(block, *herald_tables(np.zeros(3), NoiseParams.ideal().eps_leak), rng)
        assert str(herald.value) == str(lone.value)

    @pytest.mark.parametrize("b", [complex(math.nan, 0.0), complex(0.0, math.nan)])
    def test_herald_rejects_a_nan_lane(self, b):
        block = np.array([0.5, b])
        with pytest.raises(NonPhysicalStateError, match="negative eigenvalue nan"):
            reflect_and_herald(block, *herald_tables(np.zeros(2), NoiseParams.ideal().eps_leak),
                               np.random.default_rng(0))

    def test_positivity_threshold(self):
        # |b| = 1/2 is a pure state and heralds; 1e-6 beyond it is rejected.
        rng = np.random.default_rng(0)
        turn = np.exp(0.7j)
        tables = herald_tables(np.zeros(2), NoiseParams.ideal().eps_leak)
        reflect_and_herald(np.array([0.0, 0.5 * turn]), *tables, rng)
        with pytest.raises(NonPhysicalStateError, match="negative eigenvalue"):
            reflect_and_herald(np.array([0.0, (0.5 + 1e-6) * turn]), *tables, rng)


class TestChannels:
    """The herald is the one map of `qubits` on b. The pi pulse and the
    scatter dephasing are lines of `bsm.run_memory_cycles`' slot loop, so
    these tests read b out of the engine."""

    def test_pi_pulse_is_involutive(self, monkeypatch):
        # Two noiseless pulses, with noiseless scatters between them, give
        # every cycle back the b of its last herald.
        heralded, read = engine_coherences(monkeypatch, scattering(), n_pi=2)
        assert np.abs(heralded.imag).max() > 0.4
        assert np.abs(read - heralded).max() <= 1e-12

    def test_full_dephasing_kills_coherence(self, monkeypatch):
        heralded, read = engine_coherences(
            monkeypatch, scattering(p_scatter_dephase=0.5), n_pi=2
        )
        assert np.abs(heralded).min() == pytest.approx(0.5, abs=1e-12)
        assert np.abs(read).max() <= 1e-12

    @pytest.mark.parametrize("p", [0.0, 0.0011, 0.5, 1.0])
    def test_maps_equal_their_matrix_product_forms(self, p, monkeypatch):
        # After its second herald, at slot 1, a cycle of three windows meets
        # the first window's pulse, then two scatters and a pulse per window.
        for noise in (scattering(p_mw=p), scattering(p_scatter_dephase=p)):
            heralded, read = engine_coherences(monkeypatch, noise, n_pi=3)
            for b, final in zip(heralded, read):
                rho = dephase(SX @ rho_of(b) @ SX, noise.p_mw)
                for _ in range(2):
                    rho = dephase(dephase(rho, noise.p_scatter_dephase), noise.p_scatter_dephase)
                    rho = dephase(SX @ rho @ SX, noise.p_mw)
                assert abs(final - coherence_of(rho)) <= 1e-14

    def test_dephasing_rejects_bad_probability(self):
        # The loop's factors 1 - 2p take their p from NoiseParams, which
        # holds each probability to [0, 1].
        for name in ("p_mw", "p_scatter_dephase"):
            with pytest.raises(ValueError, match=f"{name} must lie in"):
                NoiseParams(**{name: 1.5})

    def test_block_maps_act_lane_by_lane(self):
        # Tables on a block of phases equal the tables of each phase alone, up
        # to the last bit numpy's vector and scalar loops may round differently.
        rng = np.random.default_rng(13)
        block = np.array([random_coherence(rng) for _ in range(6)])
        phase = rng.uniform(0, 2 * math.pi, size=6)
        m = rng.choice([1, -1], size=6)
        mapped = heralded(block, phase, m, 0.24114)
        probs = outcome_probability(phase, m, 0.24114)
        for i, b in enumerate(block):
            assert abs(mapped[i] - heralded(b, phase[i], m[i], 0.24114)) <= 1e-15
            single = outcome_probability(phase[i], m[i], 0.24114)
            assert probs[i] == pytest.approx(single, rel=0, abs=1e-15)

    def test_all_maps_preserve_positivity(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            b = random_coherence(rng)
            phase = rng.uniform(0, 2 * math.pi)
            eps = rng.uniform(0, 0.5)
            m = int(rng.choice([1, -1]))
            mapped = heralded(b, phase, m, eps)
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
    """The heralded fidelity of `heralded`, read on the Y basis as it is calibrated."""

    # NoiseParams() is the noise of the fig4-point-N124 preset.
    N = SequenceConfig().n_qubits

    def test_ideal_node_is_perfect(self):
        for n_m in (0.0, 0.5):
            values = heralded_fidelity(NoiseParams.ideal(), self.N, n_m, LABEL_PHASE)
            assert values.tolist() == [1.0] * 8

    def test_calibrated_operating_point(self):
        f = heralded_fidelity(NoiseParams(), self.N, 0.002)
        assert f >= 0.944
        assert f == pytest.approx(0.944, abs=0.01)

    def test_monotone_decreasing_in_photon_load(self):
        grid = [0.002, 0.01, 0.05, 0.1, 0.2]
        values = [heralded_fidelity(NoiseParams(), self.N, n) for n in grid]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_monotone_decreasing_in_leakage(self):
        values = [
            heralded_fidelity(NoiseParams(eps_leak=e), self.N, 0.01)
            for e in (0.0, 0.1, 0.2, 0.4)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_fully_dephased_at_one_photon_per_slot(self):
        # n_p = 1: every slot without a herald scatters, and each scatter
        # fully dephases, so D = 0 and no basis keeps any fidelity.
        values = heralded_fidelity(NoiseParams(), self.N, float(self.N), LABEL_PHASE)
        assert values.tolist() == [0.5] * 8

    @settings(max_examples=300, deadline=None)
    @given(
        eps=st.floats(0.0, 1.0),
        p=st.floats(0.0, 0.5),
        eta=st.floats(0.0, 1.0),
        n_pi=st.integers(1, 252),
        load=st.floats(0.0, 1.0),
    )
    def test_lies_between_dephased_and_pure_on_every_basis(self, eps, p, eta, n_pi, load):
        noise = NoiseParams(eps_leak=eps, p_scatter_dephase=p, eta_detect=eta)
        n = SequenceConfig(n_pi=n_pi).n_qubits
        values = heralded_fidelity(noise, n, load * n, LABEL_PHASE)
        # The sum over m rounds: on the X basis F can land an ulp above 1.
        assert ((0.5 - 1e-15 <= values) & (values <= 1.0 + 1e-15)).all()

    @settings(max_examples=300, deadline=None)
    @given(eps=st.floats(0.0, 1.0), label=st.integers(0, 7), load=st.floats(0.0, 1.0))
    def test_equals_the_density_matrix_oracle(self, eps, label, load):
        noise, phase = NoiseParams(eps_leak=eps), LABEL_PHASE[label]
        got = heralded_fidelity(noise, self.N, load * self.N, phase)
        want = oracles.heralded_fidelity_by_density_matrix(noise, self.N, load * self.N, phase)
        assert abs(got - want) <= 1e-13
