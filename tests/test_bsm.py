import math

import numpy as np
import pytest

import oracles
from memqkd.bsm import (
    BSMRecord,
    ChannelConfig,
    SequenceConfig,
    classify_bell_state,
    conjugate_label,
    expected_parity,
    ideal_parity,
    run_memory_cycle_traced,
    truth_table_rows,
)
from memqkd.qubits import NoiseParams, TimeBinQubit
from memqkd.session import forced_coincidence_outcomes


class TestConfigs:
    def test_sequence_counts(self):
        seq = SequenceConfig(n_pi=62, n_sub=2)
        assert seq.n_qubits == 124
        assert seq.window_of(0) == 0
        assert seq.window_of(3) == 1

    def test_sequence_rejects_bad_layout(self):
        with pytest.raises(ValueError):
            SequenceConfig(n_pi=62, n_sub=3)
        with pytest.raises(ValueError):
            SequenceConfig(delta_t_ns=20.0, pi_time_ns=32.0)

    def test_channel_derivation(self):
        chan = ChannelConfig.from_mean_photons(0.02, 124)
        assert chan.n_p == pytest.approx(0.02 / 124, rel=1e-15)
        assert chan.p_ab == pytest.approx((0.02 / 124) ** 2, rel=1e-15)

    @pytest.mark.parametrize("n_p", [1.5, -0.1, math.nan])
    def test_channel_rejects_slot_load_outside_unit_interval(self, n_p):
        with pytest.raises(ValueError):
            ChannelConfig(n_p=n_p)


class TestClassification:
    @pytest.mark.parametrize(
        "parity,frame,label",
        [(1, 0, "Phi+"), (-1, 0, "Phi-"), (1, 1, "Psi+"), (-1, 1, "Psi-")],
    )
    def test_classify(self, parity, frame, label):
        assert classify_bell_state(parity, frame) == label

    def test_classification_matches_state_vector_oracle(self):
        # The oracle resolves exactly one Bell pair per frame parity and
        # assigns each member a deterministic total parity.
        for frame in (0, 1):
            for label in ("Phi+", "Phi-", "Psi+", "Psi-"):
                parity = oracles.bell_state_resolved(label, frame)
                if parity == 0:
                    continue  # inaccessible pair at this frame
                assert classify_bell_state(parity, frame) == label
            resolved = [
                lbl
                for lbl in ("Phi+", "Phi-", "Psi+", "Psi-")
                if oracles.bell_state_resolved(lbl, frame) != 0
            ]
            assert resolved == (["Phi+", "Phi-"] if frame == 0 else ["Psi+", "Psi-"])


class TestFrameCorrection:
    def test_conjugate_label_map(self):
        assert conjugate_label("X", 1) == ("X", 1)
        assert conjugate_label("Y", 1) == ("Y", -1)
        assert conjugate_label("A", 1) == ("B", -1)
        assert conjugate_label("B", -1) == ("A", 1)

    def test_conjugate_label_matches_phase_negation(self):
        for basis in ("X", "Y", "A", "B"):
            for sign in (1, -1):
                q = TimeBinQubit(basis, sign)
                cb, cs = conjugate_label(basis, sign)
                conj_phase = (-q.phase) % (2 * math.pi)
                assert TimeBinQubit(cb, cs).phase == pytest.approx(conj_phase, abs=1e-12)


class TestIdealParity:
    @pytest.mark.parametrize(
        "phi1,phi2,parity",
        [
            (0.0, 0.0, 1),
            (math.pi / 2, math.pi / 2, -1),
            (math.pi / 4, 7 * math.pi / 4, 1),  # cross-basis pair, sum 2*pi
            (0.0, math.pi, -1),
        ],
    )
    def test_values(self, phi1, phi2, parity):
        assert ideal_parity(phi1, phi2) == parity

    def test_rejects_invalid_pairs(self):
        with pytest.raises(ValueError):
            ideal_parity(0.0, math.pi / 2)


class TestTruthTable:
    def test_sixteen_rows(self):
        rows = truth_table_rows()
        assert len(rows) == 16
        labels = {(r["alice"], r["bob"], r["frame"]): r for r in rows}
        assert labels[("+x", "+x", "even")]["parity"] == 1
        assert labels[("+x", "+x", "even")]["bell_state"] == "Phi+"
        assert labels[("+y", "+y", "even")]["parity"] == -1
        assert labels[("+y", "+y", "even")]["bell_state"] == "Phi-"
        assert labels[("+y", "+y", "odd")]["bell_state"] == "Psi+"

    def test_rows_match_state_vector_oracle(self):
        for row in truth_table_rows():
            phases = {
                "alice": TimeBinQubit(row["alice"][1].upper(), 1 if row["alice"][0] == "+" else -1).phase,
                "bob": TimeBinQubit(row["bob"][1].upper(), 1 if row["bob"][0] == "+" else -1).phase,
            }
            state = np.kron(
                oracles.time_bin_state(phases["alice"]),
                oracles.time_bin_state(phases["bob"]),
            )
            frame = 0 if row["frame"] == "even" else 1
            assert oracles.deterministic_parity(state, frame) == row["parity"]

    def test_expected_parity_consistency(self):
        qa, qb = TimeBinQubit("Y", 1), TimeBinQubit("Y", 1)
        assert expected_parity(qa, qb, 0) == -1
        assert expected_parity(qa, qb, 1) == 1


def _const_source(qubit):
    return lambda slot: qubit


class TestMemoryCycle:
    def test_zero_photons_never_heralds(self):
        seq = SequenceConfig(n_pi=4, n_sub=2)
        chan = ChannelConfig.from_mean_photons(0.0, seq.n_qubits)
        rng = np.random.default_rng(0)
        for _ in range(200):
            record, _ = run_memory_cycle_traced(
                seq, chan, _const_source(TimeBinQubit("X")), NoiseParams.ideal(), rng
            )
            assert record is None

    @pytest.mark.parametrize(
        "basis,sign_b,parity",
        [("X", 1, 1), ("Y", 1, -1), ("Y", -1, 1)],
    )
    def test_forced_heralds_same_window(self, basis, sign_b, parity):
        # Slots (0, 1) share the first free-precession window: even frame.
        seq = SequenceConfig(n_pi=4, n_sub=2)
        chan = ChannelConfig.from_mean_photons(0.0, seq.n_qubits)
        rng = np.random.default_rng(1)
        qubits = {0: TimeBinQubit(basis, 1), 1: TimeBinQubit(basis, sign_b)}
        for _ in range(100):
            record, _ = run_memory_cycle_traced(
                seq,
                chan,
                lambda slot: qubits[slot],
                NoiseParams.ideal(),
                rng,
                forced_slots=(0, 1),
            )
            assert record is not None
            assert record.frame_parity == 0
            assert record.parity == parity

    def test_forced_heralds_odd_frame(self):
        seq = SequenceConfig(n_pi=4, n_sub=2)
        chan = ChannelConfig.from_mean_photons(0.0, seq.n_qubits)
        rng = np.random.default_rng(2)
        qubits = {0: TimeBinQubit("Y", 1), 2: TimeBinQubit("Y", 1)}
        for _ in range(100):
            record, _ = run_memory_cycle_traced(
                seq,
                chan,
                lambda slot: qubits[slot],
                NoiseParams.ideal(),
                rng,
                forced_slots=(0, 2),
            )
            assert record.frame_parity == 1
            assert record.parity == 1  # odd frame flips the Y-Y row
            assert record.bell_label == "Psi+"

    def test_third_herald_discards_cycle(self):
        seq = SequenceConfig(n_pi=2, n_sub=2)
        chan = ChannelConfig.from_mean_photons(4.0, seq.n_qubits)  # every slot heralds
        rng = np.random.default_rng(3)
        record, trace = run_memory_cycle_traced(
            seq, chan, _const_source(TimeBinQubit("X")), NoiseParams.ideal(), rng
        )
        assert record is None
        assert trace.discarded
        assert trace.heralds == 4

    def test_shared_generator_stream_is_pinned(self):
        # Records of 50 random cycles and one forced-slot cycle drawn from
        # one generator, then the generator's next value, as the slot-by-slot
        # scalar draws produce them. Block drawing must not move any of it.
        seq = SequenceConfig(n_pi=4, n_sub=2)
        chan = ChannelConfig.from_mean_photons(2.0, seq.n_qubits)
        labels = [TimeBinQubit(b, s) for b in "XYAB" for s in (1, -1)]
        source = lambda slot: labels[(3 * slot) % 8]
        rng = np.random.default_rng(2024)

        def summary(record, trace):
            fields = (trace.heralds, trace.scatters, trace.discarded)
            if record is None:
                return fields
            return fields + (record.slot_i, record.slot_j, record.m1, record.m2,
                             record.m3, record.frame_parity)

        observed = [
            summary(*run_memory_cycle_traced(seq, chan, source, NoiseParams(), rng))
            for _ in range(50)
        ]
        observed.append(summary(*run_memory_cycle_traced(
            seq, chan, source, NoiseParams(), rng, forced_slots=(1, 6)
        )))
        assert observed == [
            (1, 2, False), (2, 1, False, 3, 4, -1, 1, 1, 1), (0, 1, False),
            (1, 0, False), (1, 1, False), (1, 1, False), (0, 1, False),
            (4, 0, True), (1, 1, False), (1, 3, False), (1, 2, False),
            (1, 2, False), (0, 2, False), (0, 3, False), (1, 2, False),
            (1, 4, False), (1, 2, False), (0, 0, False),
            (2, 1, False, 1, 4, 1, 1, -1, 0), (1, 2, False),
            (2, 2, False, 2, 5, -1, 1, -1, 1), (0, 2, False), (1, 0, False),
            (1, 1, False), (0, 0, False), (0, 3, False), (0, 1, False),
            (1, 5, False), (0, 3, False), (0, 0, False), (1, 0, False),
            (2, 1, False, 1, 6, 1, 1, 1, 1), (1, 0, False), (0, 1, False),
            (1, 1, False), (2, 2, False, 2, 6, -1, -1, 1, 0), (1, 2, False),
            (1, 2, False), (0, 2, False), (1, 2, False), (1, 2, False),
            (2, 0, False, 0, 5, 1, 1, 1, 0), (2, 1, False, 0, 4, 1, 1, 1, 0),
            (1, 2, False), (1, 1, False), (0, 0, False),
            (2, 1, False, 0, 3, -1, -1, 1, 1), (1, 0, False), (0, 2, False),
            (1, 0, False), (2, 0, False, 1, 6, 1, 1, -1, 1),
        ]
        assert rng.random() == 0.9747810885761651

    def test_noiseless_truth_table_through_reference_engine(self):
        # Spot check: the density-matrix path reproduces the table rows.
        seq = SequenceConfig(n_pi=2, n_sub=2)
        chan = ChannelConfig.from_mean_photons(0.0, seq.n_qubits)
        rng = np.random.default_rng(4)
        for row in truth_table_rows():
            qa = TimeBinQubit(row["alice"][1].upper(), 1 if row["alice"][0] == "+" else -1)
            qb = TimeBinQubit(row["bob"][1].upper(), 1 if row["bob"][0] == "+" else -1)
            slots = (0, 1) if row["frame"] == "even" else (0, 2)
            qubits = {slots[0]: qa, slots[1]: qb}
            for _ in range(25):
                record, _ = run_memory_cycle_traced(
                    seq,
                    chan,
                    lambda slot: qubits[slot],
                    NoiseParams.ideal(),
                    rng,
                    forced_slots=slots,
                )
                assert record.parity == row["parity"]
                assert record.bell_label == row["bell_state"]

    def test_record_validation(self):
        with pytest.raises(ValueError):
            BSMRecord(slot_i=3, slot_j=1, m1=1, m2=1, m3=1, frame_parity=0)
        with pytest.raises(ValueError):
            BSMRecord(slot_i=0, slot_j=1, m1=2, m2=1, m3=1, frame_parity=0)


class TestInformationHiding:
    def test_herald_pair_uniform_and_input_independent(self):
        # Under ideal noise (m1, m2) must be uniform on {+-1}^2 for every
        # input pair with a fixed phase sum.
        from scipy import stats

        seq = SequenceConfig(n_pi=62, n_sub=2)
        noise = NoiseParams.ideal()
        pairs = [
            (TimeBinQubit("X", 1), TimeBinQubit("X", 1)),
            (TimeBinQubit("X", -1), TimeBinQubit("X", -1)),
            (TimeBinQubit("Y", 1), TimeBinQubit("Y", -1)),
            (TimeBinQubit("A", 1), TimeBinQubit("B", -1)),
        ]
        for idx, (qa, qb) in enumerate(pairs):
            m1, m2, _, _ = forced_coincidence_outcomes(
                seq, noise, qa, qb, (0, 1), trials=20_000, seed=100 + idx
            )
            joint = np.zeros(4)
            for v1 in (1, -1):
                for v2 in (1, -1):
                    joint[(v1 == -1) * 2 + (v2 == -1)] = np.sum((m1 == v1) & (m2 == v2))
            _, p_value = stats.chisquare(joint)
            assert p_value > 0.01
