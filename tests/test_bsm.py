import math

import numpy as np
import pytest

import oracles
from memqkd.bsm import (
    BASES,
    CONJ_LABEL,
    LABEL_PHASE,
    ChannelConfig,
    SequenceConfig,
    classify_bell_state,
    conjugate_label,
    expected_parity,
    ideal_parity,
    run_memory_cycles,
    truth_table_rows,
)
from memqkd.qubits import NoiseParams, TimeBinQubit


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


def label(qubit):
    """Photon label 2 * basis index + sign index (sign +1 -> 0)."""
    return 2 * BASES.index(qubit.basis) + (qubit.sign == -1)


def photons(source):
    """The block's photon source for a per-slot qubit source."""
    return lambda slot, k: np.full(k, label(source(slot)))


def frame_parity(seq, block):
    return (seq.window_of(block.slots[:, 1]) - seq.window_of(block.slots[:, 0])) % 2


class TestPhotonLabels:
    def test_labels_index_phase_and_conjugate(self):
        for basis in BASES:
            for sign in (1, -1):
                qubit = TimeBinQubit(basis, sign)
                assert LABEL_PHASE[label(qubit)] == qubit.phase
                assert CONJ_LABEL[label(qubit)] == label(TimeBinQubit(*conjugate_label(basis, sign)))


class TestMemoryCycle:
    def test_zero_photons_never_heralds(self):
        seq = SequenceConfig(n_pi=4, n_sub=2)
        chan = ChannelConfig.from_mean_photons(0.0, seq.n_qubits)
        block = run_memory_cycles(
            seq, chan, NoiseParams.ideal(), 200, np.random.default_rng(0),
            photons(lambda slot: TimeBinQubit("X")),
        )
        assert not block.heralds.any() and not block.scatters.any() and not block.m.any()

    @pytest.mark.parametrize(
        "basis,sign_b,parity",
        [("X", 1, 1), ("Y", 1, -1), ("Y", -1, 1)],
    )
    def test_forced_heralds_same_window(self, basis, sign_b, parity):
        # Slots (0, 1) share the first free-precession window: even frame.
        seq = SequenceConfig(n_pi=4, n_sub=2)
        chan = ChannelConfig.from_mean_photons(0.0, seq.n_qubits)
        qubits = {0: TimeBinQubit(basis, 1), 1: TimeBinQubit(basis, sign_b)}
        block = run_memory_cycles(
            seq, chan, NoiseParams.ideal(), 100, np.random.default_rng(1),
            photons(qubits.get), forced_slots=(0, 1),
        )
        assert (block.heralds == 2).all()
        assert (block.slots == [0, 1]).all()
        assert (frame_parity(seq, block) == 0).all()
        assert (block.m.prod(axis=1) == parity).all()

    def test_forced_heralds_odd_frame(self):
        seq = SequenceConfig(n_pi=4, n_sub=2)
        chan = ChannelConfig.from_mean_photons(0.0, seq.n_qubits)
        qubits = {0: TimeBinQubit("Y", 1), 2: TimeBinQubit("Y", 1)}
        block = run_memory_cycles(
            seq, chan, NoiseParams.ideal(), 100, np.random.default_rng(2),
            photons(qubits.get), forced_slots=(0, 2),
        )
        frame = frame_parity(seq, block)
        parity = block.m.prod(axis=1)
        assert (frame == 1).all()
        assert (parity == 1).all()  # odd frame flips the Y-Y row
        assert {classify_bell_state(int(p), int(f)) for p, f in zip(parity, frame)} == {"Psi+"}

    def test_third_herald_discards_cycle(self):
        seq = SequenceConfig(n_pi=2, n_sub=2)
        chan = ChannelConfig.from_mean_photons(4.0, seq.n_qubits)  # every slot heralds
        block = run_memory_cycles(
            seq, chan, NoiseParams.ideal(), 5, np.random.default_rng(3),
            photons(lambda slot: TimeBinQubit("X")),
        )
        assert (block.heralds == 4).all()
        assert not block.m[:, 2].any()  # no record, so no readout

    def test_shared_generator_stream_is_pinned(self):
        # 50 blocks of one random cycle and one forced-slot block drawn from
        # one generator, then the generator's next value. A block of one
        # takes one value per slot, one per herald outcome and two for the
        # readout, in slot order.
        seq = SequenceConfig(n_pi=4, n_sub=2)
        chan = ChannelConfig.from_mean_photons(2.0, seq.n_qubits)
        labels = [TimeBinQubit(b, s) for b in "XYAB" for s in (1, -1)]
        source = photons(lambda slot: labels[(3 * slot) % 8])
        rng = np.random.default_rng(2024)

        def summary(block):
            heralds = int(block.heralds[0])
            fields = (heralds, int(block.scatters[0]), heralds > 2)
            if heralds != 2:
                return fields
            return fields + (*block.slots[0].tolist(), *block.m[0].tolist(),
                             int(frame_parity(seq, block)[0]))

        observed = [
            summary(run_memory_cycles(seq, chan, NoiseParams(), 1, rng, source))
            for _ in range(50)
        ]
        observed.append(summary(run_memory_cycles(
            seq, chan, NoiseParams(), 1, rng, source, forced_slots=(1, 6)
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
        # Every label pair with a deterministic parity at its frame runs
        # through the density-matrix path: the 16 truth-table rows and the
        # diagonal pairs the CHSH rounds rely on, such as A+/B- at even
        # frame and A+/A+ at odd frame.
        seq = SequenceConfig(n_pi=2, n_sub=2)
        chan = ChannelConfig.from_mean_photons(0.0, seq.n_qubits)
        rng = np.random.default_rng(4)
        qubits = [TimeBinQubit(b, s) for b in BASES for s in (1, -1)]
        observed = {}
        for qa in qubits:
            for qb in qubits:
                for frame, slots in ((0, (0, 1)), (1, (0, 2))):
                    try:
                        want = expected_parity(qa, qb, frame)
                    except ValueError:
                        continue  # this pair has no deterministic parity here
                    block = run_memory_cycles(
                        seq, chan, NoiseParams.ideal(), 25, rng,
                        photons({slots[0]: qa, slots[1]: qb}.get), forced_slots=slots,
                    )
                    assert (frame_parity(seq, block) == frame).all()
                    assert (block.m.prod(axis=1) == want).all()
                    observed[qa, qb, frame] = want
        assert len(observed) == 32  # two partners per label and frame
        assert observed[TimeBinQubit("A", 1), TimeBinQubit("B", -1), 0] == 1
        assert observed[TimeBinQubit("A", 1), TimeBinQubit("A", 1), 1] == 1
        for row in truth_table_rows():
            qa = TimeBinQubit(row["alice"][1].upper(), 1 if row["alice"][0] == "+" else -1)
            qb = TimeBinQubit(row["bob"][1].upper(), 1 if row["bob"][0] == "+" else -1)
            frame = 0 if row["frame"] == "even" else 1
            assert observed[qa, qb, frame] == row["parity"]
            assert classify_bell_state(row["parity"], frame) == row["bell_state"]


class TestInformationHiding:
    def test_herald_pair_uniform_and_input_independent(self):
        # Under ideal noise (m1, m2) must be uniform on {+-1}^2 for every
        # input pair with a fixed phase sum.
        from scipy import stats

        seq = SequenceConfig(n_pi=62, n_sub=2)
        chan = ChannelConfig(n_p=0.0)
        noise = NoiseParams.ideal()
        pairs = [
            (TimeBinQubit("X", 1), TimeBinQubit("X", 1)),
            (TimeBinQubit("X", -1), TimeBinQubit("X", -1)),
            (TimeBinQubit("Y", 1), TimeBinQubit("Y", -1)),
            (TimeBinQubit("A", 1), TimeBinQubit("B", -1)),
        ]
        for idx, (qa, qb) in enumerate(pairs):
            block = run_memory_cycles(
                seq, chan, noise, 20_000, np.random.default_rng(100 + idx),
                photons({0: qa, 1: qb}.get), forced_slots=(0, 1),
            )
            m1, m2 = block.m[:, 0], block.m[:, 1]
            joint = np.zeros(4)
            for v1 in (1, -1):
                for v2 in (1, -1):
                    joint[(v1 == -1) * 2 + (v2 == -1)] = np.sum((m1 == v1) & (m2 == v2))
            _, p_value = stats.chisquare(joint)
            assert p_value > 0.01
