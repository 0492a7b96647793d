import dataclasses
import itertools
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
from memqkd.qubits import NoiseParams, herald_tables
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

    @pytest.mark.parametrize(
        "n_p, eta", [(0.02 / 124, 0.423), (0.3, 0.5), (1.0, 0.423), (0.5, 0.0)]
    )
    def test_scatter_probability_is_an_unseen_scatter_given_no_herald(self, n_p, eta):
        # A slot heralds with n_p eta, scatters unseen with n_p (1 - eta),
        # and stays dark with 1 - n_p.
        scatter, dark = n_p * (1.0 - eta), 1.0 - n_p
        r = ChannelConfig(n_p=n_p).scatter_probability(eta)
        assert r == pytest.approx(scatter / (scatter + dark), rel=1e-15)

    def test_scatter_probability_where_every_slot_heralds(self):
        assert ChannelConfig(n_p=1.0).scatter_probability(1.0) == 0.0

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

    @pytest.mark.parametrize(
        "noise,n_p,flip",
        [
            # Five pi pulses, each scaling b by 1 - 2 p_mw = -1.
            ({"p_mw": 1.0}, 0.0, True),
            # r = 1: each of the N - 2 = 3 other slots scatters and scales b by -1.
            ({"p_scatter_dephase": 1.0, "eta_detect": 0.0}, 1.0, True),
            # r = 0: nothing scatters, and the herald lanes are never scaled.
            ({"p_scatter_dephase": 1.0, "eta_detect": 0.0}, 0.0, False),
        ],
        ids=["pulses", "scatters", "no-scatter"],
    )
    def test_pulse_and_scatter_drills(self, noise, n_p, flip):
        # Every truth-table row at every slot pair of its frame: a factor of
        # -1 applied an odd number of times flips each parity exactly.
        seq = SequenceConfig(n_pi=5, n_sub=1)
        rows = truth_table_rows()
        slots, labels, want = [], [], []
        for pair in itertools.combinations(range(seq.n_qubits), 2):
            for row in rows:
                if ("even", "odd")[frame_parity(seq, pair)] == row["frame"]:
                    slots.append(pair)
                    labels.append((LABEL_NAMES.index(row["alice"]), LABEL_NAMES.index(row["bob"])))
                    want.append(-row["parity"] if flip else row["parity"])
        m = run_memory_cycles(
            seq, ChannelConfig(n_p=n_p), dataclasses.replace(NoiseParams.ideal(), **noise),
            *fixed_heralds(5, np.array(slots), np.array(labels)), np.random.default_rng(6),
        )
        assert len(slots) == 80
        assert (m.prod(axis=1) == np.tile(want, 5)).all()

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

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32, np.uint64])
    def test_slots_of_any_integer_dtype_run_alike(self, dtype):
        # Stretch lengths and pulse counts past 255 slots or windows come
        # out as with int64 slots, from narrow and unsigned slots alike.
        seq = SequenceConfig(n_pi=300, n_sub=1)
        chan = ChannelConfig.from_mean_photons(2.0, seq.n_qubits)
        slots = np.array([(0, 7), (2, 5), (100, 127)])
        labels = np.array([(0, 1), (2, 3), (4, 7)])
        want = run_memory_cycles(seq, chan, NoiseParams(), slots, labels,
                                 np.random.default_rng(1))
        got = run_memory_cycles(seq, chan, NoiseParams(), slots.astype(dtype),
                                labels.astype(dtype), np.random.default_rng(1))
        assert got.tolist() == want.tolist()

    def test_shared_generator_stream_is_pinned(self):
        # One block of twelve cycles with scatters in play, then the
        # generator's next value. The block takes each cycle's three
        # stretch counts, then its two herald outcomes, and two values per
        # cycle for the readout.
        seq = SequenceConfig(n_pi=4, n_sub=2)
        chan = ChannelConfig.from_mean_photons(2.0, seq.n_qubits)
        slots = np.array([(lo, hi) for lo in range(4) for hi in (lo + 1, 7 - lo, 6)])
        rng = np.random.default_rng(2024)
        m = run_memory_cycles(seq, chan, NoiseParams(), slots, (3 * slots) % 8, rng)
        assert m.tolist() == [
            [1, 1, 1], [1, -1, 1], [1, -1, 1], [1, -1, 1], [1, 1, -1], [-1, -1, 1],
            [1, 1, 1], [1, -1, 1], [-1, 1, -1], [-1, 1, 1], [-1, 1, 1], [1, -1, -1],
        ]
        assert rng.random() == 0.0134764538268769

    @pytest.mark.parametrize("n_pi,n_sub", [(1, 2), (3, 1), (5, 2), (2, 4), (62, 2)])
    @pytest.mark.parametrize("n", [1, 40])
    def test_block_draws_n_times_slots_plus_four_uniforms(self, n, n_pi, n_sub):
        # The block draws one binomial per stretch of each cycle (before the
        # first herald, between the heralds, after the second), then two
        # herald uniforms and two readout uniforms per cycle, wherever the
        # heralds fall. Row 0 heralds at the first and the last slot of its
        # cycle, and row 1 at the last two.
        seq = SequenceConfig(n_pi=n_pi, n_sub=n_sub)
        chan = ChannelConfig.from_mean_photons(2.0, seq.n_qubits)
        pick = np.random.default_rng(100 * n_pi + n_sub)
        slots = np.sort([pick.choice(seq.n_qubits, 2, replace=False) for _ in range(n)], axis=1)
        slots[0] = (0, seq.n_qubits - 1)
        slots[1:2] = (seq.n_qubits - 2, seq.n_qubits - 1)
        labels = pick.integers(0, len(LABEL_PHASE), slots.shape)
        rng, twin = np.random.default_rng(7), np.random.default_rng(7)
        run_memory_cycles(seq, chan, NoiseParams(), slots, labels, rng)
        lo, hi = slots.T
        twin.binomial(np.stack([lo, hi - lo - 1, seq.n_qubits - 1 - hi], axis=1),
                      chan.scatter_probability(NoiseParams().eta_detect))
        twin.random((n, 2))
        twin.random(n), twin.random(n)
        assert rng.random(3).tolist() == twin.random(3).tolist()

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


# Coherences on the equator: pure states at two phases, mixed states and
# the centre.
COHERENCES = [0.5, -0.5j, 0.499 * np.exp(2.1j), 0.3 - 0.2j, -0.2519 + 0.4307j, 0.0]


class TestSlotTables:
    """The engine reads a lane's herald entries from tables built on all
    eight labels at once, and scales b by 1 - 2p at each scatter and pulse.
    numpy's vector and scalar loops may round cos differently with the
    array length, so each label's entries must equal the table of that
    label alone: a one-lane array, as when one cycle heralds at a slot."""

    @pytest.mark.parametrize("eps", [0.0, 0.24114, 1.0])
    def test_herald_entries_equal_the_single_lane_maps(self, eps):
        probs, amps = herald_tables(LABEL_PHASE, eps)
        for label in range(len(LABEL_PHASE)):
            lone_probs, lone_amps = herald_tables(LABEL_PHASE[[label]], eps)
            assert (probs[[label]] == lone_probs).all()
            assert (amps[[label]] == lone_amps).all()
        # Only full leakage has outcomes of probability 0. The engine draws
        # neither, as it reads P(+1) alone: m = +1 needs u < P(+1), and m = -1
        # needs u >= P(+1) = 1. Their h is not asserted: it is 0 up to rounding.
        never_drawn = [(LABEL_NAMES[label], 1 - 2 * column)
                       for label, column in zip(*np.nonzero(probs == 0))]
        assert never_drawn == ([("+x", -1), ("-x", 1)] if eps == 1.0 else [])
        assert ((probs[:, 1] == 0) == (probs[:, 0] == 1)).all()

    @pytest.mark.parametrize("p", [0.0, 0.0011, 0.5, 1.0])
    def test_scatter_and_pulse_factors_equal_their_maps(self, p):
        # Each pulse scales b by the factor f its matrix product gives, and
        # so does each scatter: after k of them an ideal-noise cycle keeps its
        # parity with probability (1 + f^k) / 2. The band is 5 sigma, and
        # no width where that probability is 0 or 1.
        seq = SequenceConfig(n_pi=62, n_sub=2)
        b = COHERENCES[3]
        rho, sx = oracles.rho_of(b), oracles.SX
        pulse = oracles.coherence_of(oracles.dephase(sx @ rho @ sx, p)) / np.conj(b)
        scatter = oracles.coherence_of(oracles.dephase(rho, p)) / b
        ideal, n = NoiseParams.ideal(), 10_000
        x_plus = LABEL_NAMES.index("+x")
        for noise, chan, f in (
            (dataclasses.replace(ideal, p_mw=p), ChannelConfig(n_p=0.0), pulse**seq.n_pi),
            (dataclasses.replace(ideal, p_scatter_dephase=p, eta_detect=0.0),
             ChannelConfig(n_p=1.0), scatter ** (seq.n_qubits - 2)),
        ):
            m = run_memory_cycles(
                seq, chan, noise, *fixed_heralds(n, (0, 1), (x_plus, x_plus)),
                np.random.default_rng(23),
            )
            q = (1.0 + f.real) / 2.0
            kept = np.count_nonzero(m.prod(axis=1) == 1)
            assert abs(kept - n * q) <= 5 * math.sqrt(max(n * q * (1.0 - q), 0.0)) + 1e-9


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
