import math

import numpy as np
import pytest

import oracles
from memqkd.bsm import (
    CONJ_LABEL,
    LABEL_NAMES,
    LABEL_PHASE,
    ChannelConfig,
    SequenceConfig,
    run_memory_cycles,
)
from memqkd.qubits import NoiseParams
from memqkd.session import _born_kernel, truth_table_rows


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
        rows = [
            r for r in truth_table_rows()
            if r["parity"] == parity and r["frame"] == ("even", "odd")[frame]
        ]
        assert len(rows) == 4
        assert {r["bell_state"] for r in rows} == {label}

    def test_classification_matches_state_vector_oracle(self):
        # The oracle resolves exactly one Bell pair per frame parity and
        # assigns each member a deterministic total parity.
        for row in truth_table_rows():
            frame = 0 if row["frame"] == "even" else 1
            assert oracles.bell_state_resolved(row["bell_state"], frame) == row["parity"]
        for frame in (0, 1):
            resolved = [
                lbl
                for lbl in ("Phi+", "Phi-", "Psi+", "Psi-")
                if oracles.bell_state_resolved(lbl, frame) != 0
            ]
            assert resolved == (["Phi+", "Phi-"] if frame == 0 else ["Psi+", "Psi-"])


class TestFrameCorrection:
    def test_conjugate_label_map(self):
        # X is fixed, Y flips sign, and A and B swap with a sign flip.
        conj = {name: LABEL_NAMES[c] for name, c in zip(LABEL_NAMES, CONJ_LABEL)}
        assert conj["+x"] == "+x"
        assert conj["+y"] == "-y"
        assert conj["+a"] == "-b"
        assert conj["-b"] == "+a"

    def test_conjugate_label_matches_phase_negation(self):
        # The conjugate label's time-bin state is the complex conjugate of
        # the label's own state, for every label.
        for label, conj in enumerate(CONJ_LABEL):
            state = oracles.time_bin_state(LABEL_PHASE[label])
            assert oracles.time_bin_state(LABEL_PHASE[conj]) == pytest.approx(
                np.conj(state), abs=1e-12
            )


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
        # The ideal-noise Born kernel at even frame puts all weight on the
        # outcomes (m1, m2, m3) whose product is the parity.
        kernel = _born_kernel(phi1, phi2, 0, 1.0, NoiseParams.ideal())
        m = np.array([1, -1])
        product = m[:, None, None] * m[:, None] * m
        assert kernel[product == parity].sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_invalid_pairs(self, monkeypatch):
        # With noise no parity is certain, so no truth table can be read off.
        monkeypatch.setattr(NoiseParams, "ideal", lambda: NoiseParams())
        with pytest.raises(RuntimeError, match="not deterministic"):
            truth_table_rows()


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
            state = np.kron(
                oracles.time_bin_state(LABEL_PHASE[LABEL_NAMES.index(row["alice"])]),
                oracles.time_bin_state(LABEL_PHASE[LABEL_NAMES.index(row["bob"])]),
            )
            frame = 0 if row["frame"] == "even" else 1
            assert oracles.deterministic_parity(state, frame) == row["parity"]

    def test_expected_parity_consistency(self):
        # An odd frame conjugates the first photon: X/X parities stay and
        # Y/Y parities flip.
        rows = {(r["alice"], r["bob"], r["frame"]): r["parity"] for r in truth_table_rows()}
        for (alice, bob, frame), parity in rows.items():
            if frame == "odd":
                flip = -1 if alice[1] == "y" else 1
                assert parity == flip * rows[alice, bob, "even"]


def fixed_heralds(cycles, slots, labels):
    """(slots, labels) arrays of `cycles` cycles that all herald alike."""
    return np.tile(slots, (cycles, 1)), np.tile(labels, (cycles, 1))


def frame_parity(seq, slots):
    return (seq.window_of(slots[1]) - seq.window_of(slots[0])) % 2


class TestPhotonLabels:
    @pytest.mark.parametrize(
        "name,phase",
        [
            ("+x", 0.0),
            ("-x", math.pi),
            ("+y", math.pi / 2),
            ("-y", 3 * math.pi / 2),
            ("+a", math.pi / 4),
            ("-a", 5 * math.pi / 4),
            ("+b", 3 * math.pi / 4),
            ("-b", 7 * math.pi / 4),
        ],
    )
    def test_phase_map(self, name, phase):
        assert LABEL_PHASE[LABEL_NAMES.index(name)] == pytest.approx(phase)

    def test_labels_index_phase_and_conjugate(self):
        # Phase conjugation fixes X, flips the sign of Y and swaps A and B
        # with a sign flip, exactly on the stored phases.
        assert LABEL_PHASE.shape == CONJ_LABEL.shape == (len(LABEL_NAMES),)
        assert (LABEL_PHASE[CONJ_LABEL] == (-LABEL_PHASE) % (2 * math.pi)).all()


class TestMemoryCycle:
    @pytest.mark.parametrize(
        "alice,bob,parity",
        [("+x", "+x", 1), ("+y", "+y", -1), ("+y", "-y", 1)],
    )
    def test_forced_heralds_same_window(self, alice, bob, parity):
        # Slots (0, 1) share the first free-precession window: even frame.
        seq = SequenceConfig(n_pi=4, n_sub=2)
        labels = (LABEL_NAMES.index(alice), LABEL_NAMES.index(bob))
        m = run_memory_cycles(
            seq, ChannelConfig(n_p=0.0), NoiseParams.ideal(),
            *fixed_heralds(100, (0, 1), labels), np.random.default_rng(1),
        )
        assert frame_parity(seq, (0, 1)) == 0
        assert m.shape == (100, 3) and (abs(m) == 1).all()
        assert (m.prod(axis=1) == parity).all()

    def test_forced_heralds_odd_frame(self):
        seq = SequenceConfig(n_pi=4, n_sub=2)
        y_plus = LABEL_NAMES.index("+y")
        m = run_memory_cycles(
            seq, ChannelConfig(n_p=0.0), NoiseParams.ideal(),
            *fixed_heralds(100, (0, 2), (y_plus, y_plus)), np.random.default_rng(2),
        )
        assert frame_parity(seq, (0, 2)) == 1
        assert (m.prod(axis=1) == 1).all()  # odd frame flips the Y-Y row: Psi+

    @pytest.mark.parametrize("pair", [(1, 1), (2, 1), (-1, 3), (0, 8), (0.5, 3)])
    def test_rejects_slots_outside_an_ordered_pair(self, pair):
        seq = SequenceConfig(n_pi=4, n_sub=2)
        slots = np.array([(0, 1), pair])
        with pytest.raises(ValueError):
            run_memory_cycles(
                seq, ChannelConfig(n_p=0.0), NoiseParams.ideal(), slots,
                np.zeros_like(slots), np.random.default_rng(0),
            )

    @pytest.mark.parametrize(
        "labels", [[(0, 0), (0, -1)], [(0, 0), (8, 0)], [(0, 0), (0, 0), (9, 9)], [(0, 0), (0, 1.0)]]
    )
    def test_rejects_labels_that_are_not_one_per_herald_in_0_to_7(self, labels):
        seq = SequenceConfig(n_pi=4, n_sub=2)
        with pytest.raises(ValueError):
            run_memory_cycles(
                seq, ChannelConfig(n_p=0.0), NoiseParams.ideal(), np.array([(0, 1), (2, 3)]),
                np.array(labels), np.random.default_rng(0),
            )

    def test_shared_generator_stream_is_pinned(self):
        # One block of twelve cycles with scatters in play, then the
        # generator's next value. The block takes one value per cycle at
        # each slot, then the outcomes of that slot's heralds, and two
        # values per cycle for the readout.
        seq = SequenceConfig(n_pi=4, n_sub=2)
        chan = ChannelConfig.from_mean_photons(2.0, seq.n_qubits)
        slots = np.array([(lo, hi) for lo in range(4) for hi in (lo + 1, 7 - lo, 6)])
        rng = np.random.default_rng(2024)
        m = run_memory_cycles(seq, chan, NoiseParams(), slots, (3 * slots) % 8, rng)
        assert m.tolist() == [
            [1, 1, 1], [1, 1, -1], [1, 1, -1], [1, -1, 1], [1, 1, -1], [1, -1, -1],
            [-1, -1, -1], [-1, 1, 1], [-1, -1, 1], [-1, 1, 1], [-1, -1, 1], [-1, 1, -1],
        ]
        assert rng.random() == 0.9481525827350313

    def test_noiseless_truth_table_through_reference_engine(self):
        # Every label pair with a deterministic parity at its frame runs
        # through the reference engine: the 16 truth-table rows and the
        # diagonal pairs the CHSH rounds rely on, such as A+/B- at even
        # frame and A+/A+ at odd frame.
        seq = SequenceConfig(n_pi=2, n_sub=2)
        chan = ChannelConfig.from_mean_photons(0.0, seq.n_qubits)
        rng = np.random.default_rng(4)
        observed = {}
        for la in range(len(LABEL_NAMES)):
            for lb in range(len(LABEL_NAMES)):
                state = np.kron(
                    oracles.time_bin_state(LABEL_PHASE[la]),
                    oracles.time_bin_state(LABEL_PHASE[lb]),
                )
                for frame, slots in ((0, (0, 1)), (1, (0, 2))):
                    if max(oracles.parity_distribution(state, frame).values()) < 1 - 1e-9:
                        continue  # this pair has no deterministic parity here
                    want = oracles.deterministic_parity(state, frame)
                    m = run_memory_cycles(
                        seq, chan, NoiseParams.ideal(),
                        *fixed_heralds(25, slots, (la, lb)), rng,
                    )
                    assert frame_parity(seq, slots) == frame
                    assert (m.prod(axis=1) == want).all()
                    observed[LABEL_NAMES[la], LABEL_NAMES[lb], frame] = want
        assert len(observed) == 32  # two partners per label and frame
        assert observed["+a", "-b", 0] == 1
        assert observed["+a", "+a", 1] == 1
        for row in truth_table_rows():
            frame = 0 if row["frame"] == "even" else 1
            assert observed[row["alice"], row["bob"], frame] == row["parity"]


class TestInformationHiding:
    def test_herald_pair_uniform_and_input_independent(self):
        # Under ideal noise (m1, m2) must be uniform on {+-1}^2 for every
        # input pair with a fixed phase sum.
        from scipy import stats

        seq = SequenceConfig(n_pi=62, n_sub=2)
        chan = ChannelConfig(n_p=0.0)
        noise = NoiseParams.ideal()
        pairs = [("+x", "+x"), ("-x", "-x"), ("+y", "-y"), ("+a", "-b")]
        for idx, (alice, bob) in enumerate(pairs):
            labels = (LABEL_NAMES.index(alice), LABEL_NAMES.index(bob))
            m = run_memory_cycles(
                seq, chan, noise, *fixed_heralds(20_000, (0, 1), labels),
                np.random.default_rng(100 + idx),
            )
            m1, m2 = m[:, 0], m[:, 1]
            joint = np.zeros(4)
            for v1 in (1, -1):
                for v2 in (1, -1):
                    joint[(v1 == -1) * 2 + (v2 == -1)] = np.sum((m1 == v1) & (m2 == v2))
            _, p_value = stats.chisquare(joint)
            assert p_value > 0.01
