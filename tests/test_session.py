import dataclasses
import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

import oracles
from memqkd import session
from memqkd.bsm import CONJ_LABEL, LABEL_NAMES, ChannelConfig, SequenceConfig
from memqkd.config import default_config, list_presets, load_preset
from memqkd.qubits import NoiseParams
from memqkd.session import (
    _BLOCK,
    CoincidenceTally,
    EmptyCellError,
    PartyConfig,
    TimingOverheads,
    _cell_map,
    _herald_count_pmf,
    _party_table,
    _period_classes,
    _period_counts,
    _tally_cell,
    chsh_statistic,
    simulate_session,
)

SEQ124 = SequenceConfig(n_pi=62, n_sub=2)


def cell_probabilities(seq, chan, parties, noise) -> np.ndarray:
    """`_point_models`' pi of one point, in the tally's (2, 4, 2, 4, 2, 2) layout."""
    return next(session._point_models([(seq, chan, parties, noise)]))[0].reshape(2, 4, 2, 4, 2, 2)


def sift_fields(report) -> dict:
    return {f: getattr(report, f) for f in ("sifted_xx", "errors_xx", "sifted_yy", "errors_yy")}


def sift(tally: CoincidenceTally) -> dict:
    """The sift fields of the report that `simulate_session` makes of the tally's cells."""
    cells = np.concatenate([tally.counts.ravel(), tally.excluded.ravel()])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(session, "_run_fast", lambda points: iter([(cells, 0, 0)]))
        _, report = simulate_session(
            SEQ124, ChannelConfig(n_p=0.01), PartyConfig(), NoiseParams(), 1, seed=0
        )
    return sift_fields(report)


def small_setup(n_m=1.2, eta=0.6):
    seq = SequenceConfig(n_pi=4, n_sub=2)
    chan = ChannelConfig.from_mean_photons(n_m, seq.n_qubits)
    noise = NoiseParams(
        eps_leak=0.24114,
        p_mw=0.01,
        p_scatter_dephase=0.5,
        f_readout=0.999,
        f_init=0.99,
        eta_detect=eta,
    )
    return seq, chan, noise


class TestDeterminism:
    def test_identical_seeds_give_identical_tallies(self):
        seq, chan, noise = small_setup()
        parties = PartyConfig()
        a = simulate_session(seq, chan, parties, noise, 50_000, seed=9)
        b = simulate_session(seq, chan, parties, noise, 50_000, seed=9)
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_different_seeds_differ(self):
        seq, chan, noise = small_setup()
        parties = PartyConfig()
        a = simulate_session(seq, chan, parties, noise, 50_000, seed=9)
        b = simulate_session(seq, chan, parties, noise, 50_000, seed=10)
        assert a[0] != b[0]


class TestEngineEquivalence:
    def test_reference_and_fast_paths_agree(self):
        seq, chan, noise = small_setup()
        parties = PartyConfig(assignment="random")
        ref_tally, ref = simulate_session(
            seq, chan, parties, noise, 1_000_000, seed=17, engine="reference"
        )
        _, fast = simulate_session(
            seq, chan, parties, noise, 10**10, seed=17, engine="fast"
        )

        for attr in ("coincidences", "discarded_multi"):
            r_ref = getattr(ref, attr) / ref.cycles
            r_fast = getattr(fast, attr) / fast.cycles
            sigma = math.sqrt(r_fast * (1 - r_fast) / ref.cycles)
            assert abs(r_ref - r_fast) < 5 * sigma, attr

        slots_ref = ref.cycles * seq.n_qubits
        h_ref = ref.heralds / slots_ref
        h_fast = fast.heralds / (fast.cycles * seq.n_qubits)
        sigma = math.sqrt(h_fast * (1 - h_fast) / slots_ref)
        assert abs(h_ref - h_fast) < 5 * sigma

        # Error rates of the sifted key agree between engines.
        for attr_n, attr_k in (("sifted_xx", "errors_xx"), ("sifted_yy", "errors_yy")):
            n_ref, k_ref = getattr(ref, attr_n), getattr(ref, attr_k)
            n_fast, k_fast = getattr(fast, attr_n), getattr(fast, attr_k)
            e_ref, e_fast = k_ref / n_ref, k_fast / n_fast
            sigma = math.sqrt(e_fast * (1 - e_fast) / n_ref)
            assert abs(e_ref - e_fast) < 5 * sigma, attr_n

        assert_cells_follow(cell_probabilities(seq, chan, parties, noise), ref_tally)

    @staticmethod
    def assert_paths_agree(seq, cycles, seed):
        # The calibrated noise, heavy scattering and both frame parities in
        # play. The photon load is raised so the reference path accumulates
        # coincidences quickly.
        chan = ChannelConfig.from_mean_photons(2.0, seq.n_qubits)
        parties = PartyConfig(assignment="single")
        noise = NoiseParams()
        ref_tally, ref = simulate_session(
            seq, chan, parties, noise, cycles, seed, engine="reference"
        )
        _, fast = simulate_session(seq, chan, parties, noise, 10**10, seed, engine="fast")
        r_ref = ref.coincidences / ref.cycles
        r_fast = fast.coincidences / fast.cycles
        sigma = math.sqrt(r_fast * (1 - r_fast) / ref.cycles)
        assert abs(r_ref - r_fast) < 5 * sigma

        assert_cells_follow(cell_probabilities(seq, chan, parties, noise), ref_tally)
        (expected,) = session.expected_sessions([(seq, chan, parties, noise, cycles, seed)])
        assert within_5_sigma(ref.errors, ref.sifted, qber(expected))

    def test_paths_agree_at_full_sequence_layout(self):
        # The 62-window, 124-slot layout: about 2e5 coincidences.
        self.assert_paths_agree(SEQ124, 1_300_000, seed=77)

    def test_paths_agree_at_504_slots(self):
        # About 46,000 coincidences.
        self.assert_paths_agree(SequenceConfig(n_pi=252, n_sub=2), 300_000, seed=78)


def assert_cells_follow(pi, tally):
    """Every cell of a reference tally follows the fast engine's cell probabilities.

    A 256-cell chi-square: no count outside pi's support, p > 1e-3.
    """
    observed = np.stack([tally.counts, tally.excluded]).ravel()
    expected = tally.total() * pi.ravel()
    possible = expected > 0
    assert observed[~possible].sum() == 0
    assert expected[possible].min() >= 5
    _, p_value = stats.chisquare(observed[possible], expected[possible])
    assert p_value > 1e-3


def within_5_sigma(observed, trials, p):
    return abs(observed - trials * p) <= 5 * math.sqrt(trials * p * (1 - p))


def qber(expected) -> float:
    """Pooled X/X and Y/Y error rate of a row of `expected_sessions`."""
    return expected[5::2].sum() / expected[4::2].sum()


class TestReferenceDecomposition:
    """The reference engine against the unconditional per-slot process.

    The engine draws herald counts, then a slot pair, then scatters given
    no herald; the oracle runs every slot alike. At n_m = 3 on the 8-slot
    layout over half a million cycles, a scatter rate n_p (1 - eta) that
    forgets the conditioning, or a lower slot drawn before the upper one,
    fails by more than 20 sigma.
    """

    SEQ = SequenceConfig(n_pi=4, n_sub=2)
    CHAN = ChannelConfig.from_mean_photons(3.0, SEQ.n_qubits)
    NOISE = dataclasses.replace(NoiseParams.ideal(), eta_detect=0.5, p_scatter_dephase=0.5)
    CYCLES = 500_000

    def run(self, assignment, seed):
        _, report = simulate_session(
            self.SEQ, self.CHAN, PartyConfig(assignment=assignment), self.NOISE,
            self.CYCLES, seed, engine="reference",
        )
        two, same_parity, no_scatter = oracles.per_slot_two_herald_statistics(
            self.SEQ.n_qubits, self.CHAN.n_p, self.NOISE.eta_detect
        )
        assert within_5_sigma(report.coincidences, report.cycles, two)
        return report, same_parity, no_scatter

    def test_same_party_share_follows_slot_parity(self):
        # Alternating senders: a pair is same-party when its slots share a parity.
        report, same_parity, _ = self.run("alternating", seed=51)
        assert within_5_sigma(report.same_party, report.coincidences, same_parity)

    def test_error_rate_follows_scatter_free_share(self):
        # One undetected scatter fully dephases the spin, and nothing else
        # errs, so a sifted record errs with probability 1/2 after a scatter.
        report, _, no_scatter = self.run("single", seed=52)
        assert within_5_sigma(report.errors, report.sifted, (1 - no_scatter) / 2)


class TestLockstepSessions:
    # `_point_models` forms the pi of `_PI_BLOCK` points at a time, and each
    # point keeps its own generator and draws, so every tally and report is
    # the one of a call on its own.

    @staticmethod
    def points(cycles=10**6):
        """An N grid at n_m = 0.5 and an n_m grid at N = 124, for every mode
        and assignment, in one list, so that a block mixes `_cell_map`s. It
        holds a one-slot point, which has no pi, and points without
        coincidences (n_m = 0, and n_m = 1e-5 at one cycle)."""
        points = []
        for mode in ("qkd", "chsh"):
            for assignment in ("random", "alternating", "single"):
                parties = PartyConfig(mode=mode, assignment=assignment)
                for n_pi, n_sub in [(1, 1), (1, 2), (2, 1), (3, 2), (9, 2), (62, 2), (252, 2)]:
                    seq = SequenceConfig(n_pi=n_pi, n_sub=n_sub)
                    chan = ChannelConfig.from_mean_photons(0.5, seq.n_qubits)
                    points.append((seq, chan, parties, NoiseParams(), cycles))
                for n_m in (0.0, 1e-5, 0.02, 0.2, 2.0, 124.0):
                    chan = ChannelConfig.from_mean_photons(n_m, SEQ124.n_qubits)
                    points.append((SEQ124, chan, parties, NoiseParams(), 1 if n_m == 1e-5 else cycles))
        return [(*point, seed) for seed, point in enumerate(points)]

    def test_fast_sessions_match_one_at_a_time(self):
        points = self.points()
        assert len(points) > 2 * session._PI_BLOCK
        overheads = TimingOverheads(lock_s=0.0)
        together = list(session.simulate_sessions(points, overheads=overheads))
        alone = [simulate_session(*point, overheads=overheads) for point in points]
        assert together == alone
        # Without coincidences, in each of the six mode and assignment pairs:
        # the one-slot point, n_m = 0, the one-cycle point and n_m = N, where
        # P(two heralds) is about 1e-26.
        coincidences = [report.coincidences for _, report in together]
        assert coincidences[0] == 0 and coincidences.count(0) == 4 * 6

    def test_reference_sessions_match_one_at_a_time(self):
        points = self.points(cycles=50)[::5]
        together = list(session.simulate_sessions(points, engine="reference"))
        assert together == [simulate_session(*point, engine="reference") for point in points]

    def test_expected_sessions_match_one_at_a_time(self):
        points = self.points()
        assert len(points) > 2 * session._PI_BLOCK
        alone = np.concatenate([session.expected_sessions([point]) for point in points])
        assert session.expected_sessions(points).tobytes() == alone.tobytes()

    def test_pi_matches_one_point_bit_for_bit(self):
        points = self.points()
        for point, (pi, _) in zip(points, session._point_models(points)):
            one, _ = next(session._point_models([point]))
            if point[0].n_qubits < 2:
                assert pi is None and one is None
            else:
                assert np.array_equal(pi, one)


class TestHeraldCountPmf:
    EDGES = [(n, p) for n in (1, 2, 3, 4, 6, 8, 504, 1032, 2000) for p in (0.0, 1.0)]
    EDGES += [(4, 0.5), (1032, 0.5), (3, 0.999), (2, 1 - 1e-12), (2, 1 - 2**-53), (2000, 1 - 2**-53),
              (124, 0.02 / 124 * 0.423), (504, 0.3), (3, 1e-7)]
    # The grid's top load n_m = 20, and the overdriven limit n_m = N, where p = eta_detect.
    LARGE = [(n, p) for n in (4096, 10**5, 10**6) for p in (20 * 0.423 / n, 0.423)]

    @pytest.mark.parametrize("n,p", EDGES + LARGE)
    def test_terms_match_mpmath(self, n, p):
        pmf = _herald_count_pmf(n, p)
        assert pmf.shape == (n + 1,)
        assert abs(math.fsum(pmf) - 1.0) <= 4 * np.finfo(float).eps
        exact = oracles.herald_count_pmf(n, p)
        k = np.array(sorted(exact))
        assert pmf[k] == pytest.approx([exact[i] for i in k], rel=1e-13, abs=0.0)
        # The oracle stops at the first term below 1e-290 on each side.
        rest = np.delete(pmf, k)
        assert rest.max(initial=0.0) < 1e-289

    def test_pmf_bits_unchanged(self):
        # Over the sweep grid of every even N to 504 and seven loads, and at
        # N = 10^6: the pmfs take only correctly rounded operations, so
        # their bits are the same at every numpy dispatch level.
        eta = NoiseParams().eta_detect
        grid = [(n, n_m) for n in range(2, 505, 2)
                for n_m in (1e-5, 0.002, 0.02, 0.2, 2.0, 4.73, 20.0) if n_m <= n]
        grid += [(10**6, 0.02), (10**6, 20.0)]
        digest = hashlib.sha256()
        for n, n_m in grid:
            p = ChannelConfig.from_mean_photons(n_m, n).n_p * eta
            digest.update(_herald_count_pmf(n, p).tobytes())
        assert len(grid) == 1755
        assert digest.hexdigest() == "a79412eb7356d98cda77806b593491783d486e8e296ae2dec724fb39966a8f4a"


def nonzero_cells(tally):
    """{(excluded, b1, s1, b2, s2, parity): count} for every non-empty cell."""
    stacked = np.stack([tally.counts, tally.excluded])
    return {tuple(int(i) for i in idx): int(stacked[tuple(idx)]) for idx in np.argwhere(stacked)}


def report_counts(report):
    return {
        name: getattr(report, name)
        for name in ("heralds", "coincidences", "discarded_multi", "same_party",
                     "sifted_xx", "errors_xx", "sifted_yy", "errors_yy")
    }


class TestReferenceStream:
    """Reference tallies pinned to their values under the two-stage engine's draws.

    Any change to the reference engine's random stream fails here, where
    the statistical equivalence tests would let it pass.
    """

    def test_full_sequence_layout(self):
        seq = SEQ124
        chan = ChannelConfig.from_mean_photons(2.0, seq.n_qubits)
        tally, report = simulate_session(
            seq, chan, PartyConfig(assignment="single"), NoiseParams(), 300, seed=0,
            engine="reference",
        )
        assert report_counts(report) == {
            "heralds": 295, "coincidences": 59, "discarded_multi": 23, "same_party": 0,
            "sifted_xx": 12, "errors_xx": 5, "sifted_yy": 19, "errors_yy": 9,
        }
        assert nonzero_cells(tally) == {
            (0, 0, 0, 0, 1, 0): 2, (0, 0, 0, 0, 1, 1): 3, (0, 0, 0, 1, 0, 0): 1,
            (0, 0, 0, 1, 0, 1): 3, (0, 0, 0, 1, 1, 0): 2, (0, 0, 0, 1, 1, 1): 2,
            (0, 0, 1, 0, 0, 0): 1, (0, 0, 1, 0, 0, 1): 3, (0, 0, 1, 0, 1, 0): 1,
            (0, 0, 1, 0, 1, 1): 2, (0, 0, 1, 1, 0, 0): 1, (0, 0, 1, 1, 0, 1): 1,
            (0, 0, 1, 1, 1, 0): 5, (0, 0, 1, 1, 1, 1): 1, (0, 1, 0, 0, 0, 0): 2,
            (0, 1, 0, 0, 0, 1): 3, (0, 1, 0, 0, 1, 0): 1, (0, 1, 0, 0, 1, 1): 3,
            (0, 1, 0, 1, 0, 0): 2, (0, 1, 0, 1, 0, 1): 6, (0, 1, 0, 1, 1, 1): 3,
            (0, 1, 1, 0, 0, 0): 2, (0, 1, 1, 0, 1, 0): 1, (0, 1, 1, 1, 0, 1): 2,
            (0, 1, 1, 1, 1, 0): 2, (0, 1, 1, 1, 1, 1): 4,
        }

    def test_eight_slot_chsh_layout(self):
        seq = SequenceConfig(n_pi=4, n_sub=2)
        chan = ChannelConfig.from_mean_photons(1.5, seq.n_qubits)
        tally, report = simulate_session(
            seq, chan, PartyConfig(mode="chsh", assignment="random"), NoiseParams(), 300,
            seed=5, engine="reference",
        )
        assert report_counts(report) == {
            "heralds": 177, "coincidences": 33, "discarded_multi": 6, "same_party": 18,
            "sifted_xx": 1, "errors_xx": 1, "sifted_yy": 1, "errors_yy": 1,
        }
        assert nonzero_cells(tally) == {
            (0, 0, 0, 1, 1, 1): 1, (0, 0, 0, 3, 0, 1): 1, (0, 0, 1, 0, 1, 1): 1,
            (0, 0, 1, 2, 1, 1): 1, (0, 1, 0, 1, 1, 1): 1, (0, 1, 1, 3, 0, 1): 1,
            (0, 2, 0, 0, 1, 0): 1, (0, 2, 1, 3, 0, 0): 1, (0, 3, 0, 0, 0, 1): 1,
            (0, 3, 0, 2, 0, 1): 1, (0, 3, 0, 3, 1, 1): 1, (0, 3, 1, 0, 0, 0): 1,
            (0, 3, 1, 1, 0, 0): 1, (0, 3, 1, 2, 1, 1): 2, (1, 0, 0, 2, 0, 0): 1,
            (1, 0, 0, 3, 0, 0): 1, (1, 0, 0, 3, 1, 1): 1, (1, 0, 1, 1, 0, 0): 2,
            (1, 1, 0, 0, 0, 0): 1, (1, 1, 0, 1, 0, 1): 1, (1, 1, 0, 3, 1, 0): 1,
            (1, 1, 1, 0, 1, 0): 1, (1, 1, 1, 3, 1, 1): 1, (1, 2, 0, 1, 1, 0): 1,
            (1, 2, 0, 2, 1, 1): 1, (1, 2, 0, 3, 0, 1): 1, (1, 3, 0, 0, 1, 0): 1,
            (1, 3, 0, 3, 0, 0): 2, (1, 3, 0, 3, 1, 1): 1, (1, 3, 1, 2, 1, 1): 1,
        }


    def test_full_leakage_never_draws_a_zero_probability_outcome(self):
        # At eps_leak = 1 the outcomes (+x, m = -1) and (-x, m = +1) have
        # probability 0 and no Kraus map; the engine tabulates them per block
        # but never draws them.
        cfg = load_preset("fig4-point-N124").replace(n_m=2.0, cycles=20_000, seed=5)
        noise = dataclasses.replace(cfg.noise, eps_leak=1.0)
        tally, report = simulate_session(
            cfg.sequence, cfg.channel(), cfg.parties, noise, cfg.cycles, cfg.seed,
            engine="reference",
        )
        assert report_counts(report) == {
            "heralds": 16981, "coincidences": 3139, "discarded_multi": 1077, "same_party": 0,
            "sifted_xx": 784, "errors_xx": 292, "sifted_yy": 765, "errors_yy": 404,
        }
        assert nonzero_cells(tally) == {
            (0, 0, 0, 0, 0, 0): 130, (0, 0, 0, 0, 0, 1): 76, (0, 0, 0, 0, 1, 0): 61,
            (0, 0, 0, 0, 1, 1): 127, (0, 0, 0, 1, 0, 0): 108, (0, 0, 0, 1, 0, 1): 100,
            (0, 0, 0, 1, 1, 0): 103, (0, 0, 0, 1, 1, 1): 110, (0, 0, 1, 0, 0, 0): 71,
            (0, 0, 1, 0, 0, 1): 119, (0, 0, 1, 0, 1, 0): 116, (0, 0, 1, 0, 1, 1): 84,
            (0, 0, 1, 1, 0, 0): 92, (0, 0, 1, 1, 0, 1): 89, (0, 0, 1, 1, 1, 0): 95,
            (0, 0, 1, 1, 1, 1): 105, (0, 1, 0, 0, 0, 0): 99, (0, 1, 0, 0, 0, 1): 101,
            (0, 1, 0, 0, 1, 0): 89, (0, 1, 0, 0, 1, 1): 90, (0, 1, 0, 1, 0, 0): 107,
            (0, 1, 0, 1, 0, 1): 91, (0, 1, 0, 1, 1, 0): 87, (0, 1, 0, 1, 1, 1): 96,
            (0, 1, 1, 0, 0, 0): 91, (0, 1, 1, 0, 0, 1): 104, (0, 1, 1, 0, 1, 0): 104,
            (0, 1, 1, 0, 1, 1): 110, (0, 1, 1, 1, 0, 0): 91, (0, 1, 1, 1, 0, 1): 101,
            (0, 1, 1, 1, 1, 0): 100, (0, 1, 1, 1, 1, 1): 92,
        }


class TestReferenceBlocks:
    """Exact counts over one full herald-count block of cycles plus one more.

    At N = 2 every cycle is a coincidence, so the memory-cycle blocks
    cross the herald-count block boundary as well.
    """

    def test_every_slot_heralds_across_a_block_boundary(self):
        # n_p = 1 and eta_detect = 1: every slot of every cycle heralds, so
        # every cycle is discarded, in both blocks.
        seq = SEQ124
        cycles = _BLOCK + 1
        noise = NoiseParams(eta_detect=1.0)
        tally, report = simulate_session(
            seq, ChannelConfig(n_p=1.0), PartyConfig(), noise, cycles, seed=3,
            engine="reference",
        )
        assert report.heralds == cycles * seq.n_qubits
        assert report.discarded_multi == cycles
        assert report.coincidences == tally.total() == 0

    def test_no_photons_no_heralds_across_a_block_boundary(self):
        seq = SEQ124
        cycles = _BLOCK + 1
        tally, report = simulate_session(
            seq, ChannelConfig(n_p=0.0), PartyConfig(), NoiseParams(), cycles, seed=3,
            engine="reference",
        )
        assert report.heralds == report.discarded_multi == tally.total() == 0

    @pytest.mark.parametrize("n_sub", [1, 2])
    def test_two_slots_pair_every_cycle(self, n_sub):
        # N = 2 at n_p = 1: both slots herald in every cycle, so each cycle
        # is one record, across the pulse (n_sub = 1) or in one window. The
        # noiseless node corrects the frame, so no sifted record is an error.
        seq = SequenceConfig(n_pi=2 // n_sub, n_sub=n_sub)
        cycles = _BLOCK + 1
        _, report = simulate_session(
            seq, ChannelConfig(n_p=1.0), PartyConfig(assignment="single"),
            NoiseParams.ideal(), cycles, seed=4, engine="reference",
        )
        assert report.heralds == 2 * cycles
        assert report.coincidences == cycles
        assert report.sifted > 0 and report.errors == 0


class TestReferenceFollowsExactProbabilities:
    # No shrinking: a 5-sigma miss is not made clearer by a smaller layout,
    # and each example runs 50,000 reference cycles.
    @settings(derandomize=True, max_examples=8, deadline=None, phases=[Phase.generate])
    @given(
        n_pi=st.integers(3, 6),
        n_sub=st.sampled_from([1, 2, 4]),
        mode=st.sampled_from(["qkd", "chsh"]),
        assignment=st.sampled_from(["random", "alternating", "single"]),
        heralds_per_cycle=st.floats(1.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_small_layouts(
        self, n_pi, n_sub, mode, assignment, heralds_per_cycle, seed
    ):
        cycles = 50_000
        seq = SequenceConfig(n_pi=n_pi, n_sub=n_sub)
        # Few undetected scatters, so the spin keeps enough coherence for the
        # error rate to depend on the frame and the pulse noise.
        noise = NoiseParams(eta_detect=0.9)
        n_m = min(heralds_per_cycle / noise.eta_detect, seq.n_qubits)
        chan = ChannelConfig.from_mean_photons(n_m, seq.n_qubits)
        parties = PartyConfig(mode=mode, assignment=assignment)
        (expected,) = session.expected_sessions([(seq, chan, parties, noise, cycles, seed)])
        heralds, coincidences, discarded = expected[:3]
        assert cycles * coincidences >= 200

        _, ref = simulate_session(seq, chan, parties, noise, cycles, seed, engine="reference")

        # A cycle's heralds are Binomial(N, a): variance mean * (1 - a).
        var = heralds * (1 - heralds / seq.n_qubits)
        assert abs(ref.heralds - cycles * heralds) <= 5 * math.sqrt(cycles * var)
        assert within_5_sigma(ref.coincidences, cycles, coincidences)
        assert within_5_sigma(ref.discarded_multi, cycles, discarded)
        sifted = expected[4::2].sum() / coincidences
        assert within_5_sigma(ref.sifted, ref.coincidences, sifted)
        assert within_5_sigma(ref.errors, ref.sifted, qber(expected))

    def test_a_million_slots(self):
        # N = 10^6: a two-herald cycle draws three scatter counts, whatever
        # N. About 300 coincidences, whose spins have fully dephased.
        cycles = 2_000
        seq = SequenceConfig(n_pi=500_000, n_sub=2)
        chan = ChannelConfig.from_mean_photons(2.0, seq.n_qubits)
        point = (seq, chan, PartyConfig(assignment="single"), NoiseParams(), cycles, 0)
        (expected,) = session.expected_sessions([point])
        _, ref = simulate_session(*point, engine="reference")
        coincidences, discarded = expected[1:3]
        assert within_5_sigma(ref.coincidences, cycles, coincidences)
        assert within_5_sigma(ref.discarded_multi, cycles, discarded)
        sifted = expected[4::2].sum() / coincidences
        assert within_5_sigma(ref.sifted, ref.coincidences, sifted)
        assert within_5_sigma(ref.errors, ref.sifted, qber(expected))


def preset_point(name: str, cycles: int | None = None) -> tuple:
    cfg = load_preset(name)
    return cfg.sequence, cfg.channel(), cfg.parties, cfg.noise, cycles or cfg.cycles, cfg.seed


class TestExpectedSessions:
    # The fast engine's own pmf and pi, pinned without sampling.
    COUNTERS = [f.name for f in dataclasses.fields(session.SessionReport)][1:9]

    def test_fig4_point(self):
        point = preset_point("fig4-point-N124")
        (expected,) = session.expected_sessions([point])
        heralds, _, _, same_party, sifted_xx, errors_xx, sifted_yy, errors_yy = expected
        assert heralds == pytest.approx(0.00846, rel=1e-7)
        assert same_party == 0.0  # one sender plays both parties
        assert qber(expected) == pytest.approx(0.1152661785, rel=1e-7)
        assert errors_xx / sifted_xx == pytest.approx(0.07064050036, rel=1e-7)
        assert errors_yy / sifted_yy == pytest.approx(0.1598918567, rel=1e-7)
        per_use = (sifted_xx + sifted_yy) / (point[0].n_qubits / 2)
        assert per_use == pytest.approx(2.838948257e-7, rel=1e-7)

    def test_chsh_presets(self):
        noisy, ideal = session.expected_sessions(
            preset_point(name) for name in ("fig3-chsh-qber11", "fig3-chsh-ideal"))
        assert qber(noisy) == pytest.approx(0.109999461, rel=1e-7)
        assert noisy[1] == pytest.approx(0.2249393982, rel=1e-7)
        assert noisy[2] == pytest.approx(0.5795553141, rel=1e-7)
        assert qber(ideal) == pytest.approx(0.0, abs=1e-15)

    def test_points_without_pairs(self):
        noise = NoiseParams()
        one_slot = (SequenceConfig(n_pi=1, n_sub=1), ChannelConfig(n_p=0.3), PartyConfig(), noise, 1, 0)
        dark = (SEQ124, ChannelConfig.from_mean_photons(0.0, 124), PartyConfig(), noise, 1, 0)
        one, none = session.expected_sessions([one_slot, dark])
        assert one[0] == pytest.approx(0.3 * noise.eta_detect, rel=1e-15)
        assert not one[1:].any() and not none.any()

    @pytest.mark.parametrize("name", list_presets())
    def test_trillion_cycles_lie_within_5_sigma(self, name):
        cycles = 10**12
        point = preset_point(name, cycles)
        (expected,) = session.expected_sessions([point])
        _, report = simulate_session(*point)
        heralds, *rest = [getattr(report, counter) for counter in self.COUNTERS]
        # A cycle's heralds are Binomial(N, a); every other counter counts cycles.
        var = expected[0] * (1 - expected[0] / point[0].n_qubits)
        assert abs(heralds - cycles * expected[0]) <= 5 * math.sqrt(cycles * var)
        for counter, observed, p in zip(self.COUNTERS[1:], rest, expected[1:]):
            assert within_5_sigma(observed, cycles, p), counter


class TestHeraldStatistics:
    def test_herald_rate_matches_per_slot_probability(self):
        seq, chan, noise = small_setup(n_m=0.4)
        parties = PartyConfig()
        _, report = simulate_session(seq, chan, parties, noise, 200_000, seed=3)
        slots = report.cycles * seq.n_qubits
        expected = chan.n_p * noise.eta_detect
        observed = report.heralds / slots
        sigma = math.sqrt(expected * (1 - expected) / slots)
        assert abs(observed - expected) < 3 * sigma

    @pytest.mark.parametrize("n", [124, 504, 4096, 10**5])
    @pytest.mark.parametrize("n_m", [2e-5, 2e-4, 2e-3])
    def test_multi_herald_tail_matches_oracle(self, n, n_m):
        p = n_m * NoiseParams().eta_detect / n
        tail = _herald_count_pmf(n, p)[3:].sum()
        assert tail == pytest.approx(oracles.herald_tail_probability(n, p), rel=1e-12)

    def test_trillion_cycles(self):
        # Two draws cover any cycle count, and the counts stay exact.
        seq = SEQ124
        chan = ChannelConfig.from_mean_photons(0.2, seq.n_qubits)
        noise = NoiseParams()
        cycles = 10**12
        _, report = simulate_session(
            seq, chan, PartyConfig(assignment="single"), noise, cycles, seed=8
        )
        a = chan.n_p * noise.eta_detect
        p2 = math.comb(seq.n_qubits, 2) * a**2 * (1 - a) ** (seq.n_qubits - 2)
        assert abs(report.coincidences - cycles * p2) < 5 * math.sqrt(cycles * p2)
        slots = cycles * seq.n_qubits
        assert abs(report.heralds - slots * a) < 5 * math.sqrt(slots * a)

    def test_zero_photons(self):
        seq = SequenceConfig(n_pi=4, n_sub=2)
        chan = ChannelConfig.from_mean_photons(0.0, seq.n_qubits)
        tally, report = simulate_session(
            seq, chan, PartyConfig(), NoiseParams(), 1_000, seed=1
        )
        assert report.coincidences == 0
        assert tally.total() == 0


def check_counters(cfg, engine: str) -> None:
    """The counters of a session of scenario `cfg` are exact: none is
    negative, they obey the herald bookkeeping, and the heralds lie within
    5 sigma of their Binomial(N cycles, a) mean, a = n_p eta_detect, where
    the variance is large enough (>= 100) for a normal tail."""
    seq, chan = cfg.sequence, cfg.channel()
    _, report = simulate_session(
        seq, chan, cfg.parties, cfg.noise, cfg.cycles, cfg.seed, engine=engine
    )
    counters = dataclasses.asdict(report)
    assert all(counters[f] >= 0 for f in counters)
    assert isinstance(report.heralds, int)
    assert report.heralds >= 2 * report.coincidences + 3 * report.discarded_multi
    assert report.heralds <= seq.n_qubits * cfg.cycles
    assert report.coincidences + report.discarded_multi <= cfg.cycles
    a = chan.n_p * cfg.noise.eta_detect
    mean = cfg.cycles * seq.n_qubits * a
    if mean * (1.0 - a) >= 100:
        assert abs(report.heralds - mean) < 5 * math.sqrt(mean * (1.0 - a))


def scenario(n_pi, n_sub, load, cycles, mode, assignment, seed):
    """A scenario the config accepts: N = n_pi n_sub slots at n_m = load N."""
    seq = SequenceConfig(n_pi=n_pi, n_sub=n_sub)
    return default_config().replace(
        sequence=seq, n_m=load * seq.n_qubits, cycles=cycles, seed=seed,
        parties=PartyConfig(mode=mode, assignment=assignment),
    )


class TestCountersOverTheAcceptedDomain:
    # Cycles up to 2^63 - 1 and N up to the 10^6-slot limit: the herald sum
    # reaches about 4e24, past any fixed-width integer.
    @settings(max_examples=50, deadline=None)
    @given(
        n_pi=st.one_of(st.integers(1, 64), st.integers(1, 250_000)),
        n_sub=st.sampled_from([1, 2, 4]),
        load=st.floats(0.0, 1.0),
        cycles=st.integers(1, 2**63 - 1),
        mode=st.sampled_from(["qkd", "chsh"]),
        assignment=st.sampled_from(["random", "alternating", "single"]),
        seed=st.integers(0, 2**32 - 1),
    )
    # n_m = N = 124 with one sender at 1e18 cycles: about 5.2e19 heralds.
    @example(n_pi=62, n_sub=2, load=1.0, cycles=10**18, mode="qkd",
             assignment="single", seed=123456789)
    @example(n_pi=250_000, n_sub=4, load=1.0, cycles=2**63 - 1, mode="chsh",
             assignment="random", seed=1)
    def test_fast_engine(self, n_pi, n_sub, load, cycles, mode, assignment, seed):
        check_counters(scenario(n_pi, n_sub, load, cycles, mode, assignment, seed), "fast")

    @settings(max_examples=25, deadline=None)
    @given(
        n_pi=st.integers(1, 16),
        n_sub=st.sampled_from([1, 2, 4]),
        load=st.floats(0.0, 1.0),
        cycles=st.integers(1, 2_000),
        mode=st.sampled_from(["qkd", "chsh"]),
        assignment=st.sampled_from(["random", "alternating", "single"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_reference_engine(self, n_pi, n_sub, load, cycles, mode, assignment, seed):
        check_counters(scenario(n_pi, n_sub, load, cycles, mode, assignment, seed), "reference")


class TestCellProbabilities:
    @settings(max_examples=100, deadline=None)
    @given(
        n_pi=st.integers(1, 8),
        n_sub=st.sampled_from([1, 2, 4]),
        mode=st.sampled_from(["qkd", "chsh"]),
        assignment=st.sampled_from(["random", "alternating", "single"]),
        bias=st.floats(0.0, 1.0),
        load=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cells_and_tally_are_conserved(
        self, n_pi, n_sub, mode, assignment, bias, load, seed
    ):
        seq = SequenceConfig(n_pi=n_pi, n_sub=n_sub)
        chan = ChannelConfig.from_mean_photons(load * seq.n_qubits, seq.n_qubits)
        parties = PartyConfig(mode=mode, basis_bias=bias, assignment=assignment)
        noise = NoiseParams()
        tally, report = simulate_session(seq, chan, parties, noise, 10_000, seed)
        assert tally.total() == report.coincidences
        assert report.same_party == tally.excluded.sum()
        assert report.heralds >= 2 * report.coincidences + 3 * report.discarded_multi
        if seq.n_qubits < 2:
            assert report.coincidences == 0
            return
        pi = cell_probabilities(seq, chan, parties, noise)
        assert pi.shape == (2, 4, 2, 4, 2, 2)
        assert (pi >= 0).all()
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        if mode == "qkd":
            assert pi[:, 2:].sum() == 0 and pi[:, :, :, 2:].sum() == 0
        if assignment == "single":
            assert pi[1].sum() == 0

    def test_pi_bits_unchanged(self):
        # The presets and 400 random points over noise, layouts, modes,
        # assignments and loads up to n_m = N: pi forms no complex product,
        # so its bits are the same at every numpy dispatch level.
        points = [preset_point(name)[:4] for name in list_presets()]
        rng = random.Random(41)
        for _ in range(400):
            seq = SequenceConfig(n_pi=rng.randint(1, 260), n_sub=rng.choice((1, 2, 4)))
            n_m = math.exp(rng.uniform(math.log(1e-5), math.log(seq.n_qubits)))
            parties = PartyConfig(rng.choice(("qkd", "chsh")), rng.random(),
                                  rng.choice(("random", "alternating", "single")))
            noise = NoiseParams(rng.choice((0.0, 1.0, rng.random())), rng.uniform(0.0, 0.05),
                                rng.uniform(0.0, 0.5), rng.uniform(0.9, 1.0),
                                rng.uniform(0.9, 1.0), rng.uniform(0.05, 1.0))
            points.append((seq, ChannelConfig.from_mean_photons(n_m, seq.n_qubits), parties, noise))
        digest = hashlib.sha256()
        pis = [pi for pi, _ in session._point_models(points) if pi is not None]
        for pi in pis:
            digest.update(pi.tobytes())
        assert len(pis) == 401  # two one-slot points have no pi
        assert digest.hexdigest() == "16492afb0781097cc259b2404ee79e44d9812b60167f92b53f593fed48d9f19e"


class TestCounterProduct:
    # The report's counters come from one product of the engine's cells.
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    @pytest.mark.parametrize("mode", ["qkd", "chsh"])
    @pytest.mark.parametrize("assignment", ["random", "alternating", "single"])
    @settings(max_examples=4, deadline=None)
    @given(
        n_pi=st.integers(1, 6),
        n_sub=st.sampled_from([1, 2, 4]),
        load=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_report_counters_match_the_tally(
        self, engine, mode, assignment, n_pi, n_sub, load, seed
    ):
        seq = SequenceConfig(n_pi=n_pi, n_sub=n_sub)
        chan = ChannelConfig.from_mean_photons(load * seq.n_qubits, seq.n_qubits)
        parties = PartyConfig(mode=mode, assignment=assignment)
        tally, report = simulate_session(
            seq, chan, parties, NoiseParams(), 2_000, seed, engine=engine
        )
        assert report.coincidences == tally.total()
        assert report.same_party == tally.excluded.sum()
        assert sift_fields(report) == oracles.sift_counts(tally.counts)


class TestPairClasses:
    @settings(max_examples=60, deadline=None)
    @given(n_pi=st.integers(1, 64), n_sub=st.sampled_from([1, 2, 4]))
    @example(n_pi=1, n_sub=1)
    @example(n_pi=1, n_sub=4)
    @example(n_pi=2, n_sub=2)
    @example(n_pi=63, n_sub=2)
    def test_counts_match_enumeration(self, n_pi, n_sub):
        # With alternating senders a party pair 2 p_lo + p_hi names the slot parities.
        by_parties = np.tensordot(_period_counts(n_pi), _period_classes(n_sub, "alternating"), 1)
        counts = by_parties.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
        exact = oracles.slot_pair_classes(n_pi, n_sub)
        assert np.array_equal(counts, exact)
        assert counts.sum() == math.comb(n_pi * n_sub, 2)

    # The CI edge layouts: n_sub 1, 2 and 4, odd n_pi, and q = n_pi // 2 = 0.
    @pytest.mark.parametrize("n_pi,n_sub", [
        (2, 1), (3, 1), (61, 1), (124, 1),
        (1, 2), (2, 2), (3, 2), (31, 2), (63, 2), (252, 2),
        (1, 4), (2, 4), (3, 4), (31, 4), (125, 4),
    ])
    def test_pair_weights_match_oracle(self, n_pi, n_sub):
        for assignment in ("random", "alternating", "single"):
            weights = np.tensordot(_period_counts(n_pi), _period_classes(n_sub, assignment), 1)
            expected = oracles.pair_weights(n_pi, n_sub, assignment)
            np.testing.assert_array_equal(weights / weights.sum(), expected)


class TestCellProbabilitiesMatchPerPointOracle:
    # p_mw above 1/2 with odd n_pi gives a negative dephasing factor.
    @settings(max_examples=150, deadline=None)
    @given(
        n_pi=st.integers(1, 64),
        n_sub=st.sampled_from([1, 2, 4]),
        mode=st.sampled_from(["qkd", "chsh"]),
        assignment=st.sampled_from(["random", "alternating", "single"]),
        bias=st.floats(0.0, 1.0),
        load=st.floats(0.0, 1.0),
        eps_leak=st.floats(0.0, 1.0),
        p_mw=st.floats(0.0, 1.0),
    )
    @example(n_pi=3, n_sub=2, mode="qkd", assignment="random", bias=0.7, load=0.01,
             eps_leak=0.24, p_mw=0.9)
    @example(n_pi=1, n_sub=2, mode="chsh", assignment="alternating", bias=0.5, load=0.5,
             eps_leak=0.0, p_mw=1.0)
    def test_matches_oracle(self, n_pi, n_sub, mode, assignment, bias, load, eps_leak, p_mw):
        seq = SequenceConfig(n_pi=n_pi, n_sub=n_sub)
        assume(seq.n_qubits >= 2)
        chan = ChannelConfig(n_p=load)
        parties = PartyConfig(mode=mode, basis_bias=bias, assignment=assignment)
        noise = NoiseParams(eps_leak=eps_leak, p_mw=p_mw)
        pi = cell_probabilities(seq, chan, parties, noise)
        expected = oracles.cell_probabilities_per_point(seq, chan, parties, noise)
        assert np.abs(pi - expected).max() <= 1e-15

    def test_negative_dephasing_factor_flips_the_error_rate(self):
        seq = SequenceConfig(n_pi=3, n_sub=2)
        flipped = NoiseParams(p_mw=0.9)
        assert (1.0 - 2.0 * flipped.p_mw) ** seq.n_pi < 0
        point = (seq, ChannelConfig(n_p=0.01), PartyConfig(), flipped, 1, 0)
        # The sign of the dephasing factor swaps the error rate about 1/2.
        assert qber(session.expected_sessions([point])[0]) > 0.5

    def test_cached_arrays_are_read_only(self):
        for assignment in ("random", "alternating", "single"):
            np.testing.assert_array_equal(_party_table(assignment), oracles.party_table(assignment))
            cell_map = _cell_map(2, NoiseParams(), PartyConfig(assignment=assignment))
            with pytest.raises(ValueError):
                cell_map[0, 0] = 1.0

    # Consecutive calls that differ in one field of the map's cache key. Each
    # call's pi differs from the last, so a map cached under a key without
    # that field would give a wrong pi. Alternating senders tie the parties
    # to the slot parity, so that pi depends on n_sub.
    @pytest.mark.parametrize("field,values", [
        ("n_sub", [1, 2, 4]),
        ("assignment", ["random", "alternating", "single"]),
        ("mode", ["qkd", "chsh"]),
        ("basis_bias", [0.5, 0.8, 0.2]),
    ])
    def test_each_cache_key_field_gets_its_own_map(self, field, values):
        noise, chan = NoiseParams(), ChannelConfig(n_p=0.05)
        last = None
        for value in values:
            seq = SequenceConfig(n_pi=5, n_sub=value if field == "n_sub" else 2)
            choice = {"assignment": "alternating"}
            if field != "n_sub":
                choice[field] = value
            parties = PartyConfig(**choice)
            pi = cell_probabilities(seq, chan, parties, noise)
            expected = oracles.cell_probabilities_per_point(seq, chan, parties, noise)
            assert np.abs(pi - expected).max() <= 1e-15
            assert last is None or np.abs(pi - last).max() > 1e-3
            last = pi

    def test_noise_models_differing_in_eps_leak_do_not_share_tensors(self):
        cfg = load_preset("fig4-point-N124")
        args = (cfg.sequence, cfg.channel(), cfg.parties)
        pi = cell_probabilities(*args, cfg.noise)
        other = cell_probabilities(*args, dataclasses.replace(cfg.noise, eps_leak=0.1))
        assert np.abs(pi - other).max() > 1e-3

    def test_born_range_check_survives_the_cache(self):
        cfg = load_preset("fig4-point-N124")
        noise = NoiseParams()
        object.__setattr__(noise, "f_init", 1.5)  # skips __post_init__
        with pytest.raises(RuntimeError, match=r"Born probabilities outside \[0, 1\]"):
            cell_probabilities(cfg.sequence, cfg.channel(), cfg.parties, noise)


# A probability in [0, 1] that is 0 or 1 in about half the draws.
UNIT = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


class TestCellProbabilitiesMatchWholeCycleOracle:
    # The oracle evolves density matrices through whole cycles and shares no
    # code with either engine, so it also checks the herald tables that both
    # engines read. n_pi = 4 is the first layout with two full pulse periods;
    # at most 12 slots keep the oracle's slot pairs few.
    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(
        n_pi=st.integers(1, 4),
        n_sub=st.sampled_from([1, 2, 4]),
        mode=st.sampled_from(["qkd", "chsh"]),
        assignment=st.sampled_from(["random", "alternating", "single"]),
        bias=UNIT,
        n_p=UNIT,
        noise=st.builds(NoiseParams, UNIT, UNIT, UNIT, UNIT, UNIT, UNIT),
    )
    @example(n_pi=1, n_sub=2, mode="qkd", assignment="random", bias=0.5, n_p=0.5,
             noise=NoiseParams(0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    @example(n_pi=4, n_sub=2, mode="chsh", assignment="alternating", bias=0.5, n_p=1.0,
             noise=NoiseParams(1.0, 1.0, 1.0, 1.0, 1.0, 1.0))
    # Full leakage and full scatter dephasing, with every slot but the two
    # heralds scattering (n_p = 1, eta_detect = 0).
    @example(n_pi=3, n_sub=2, mode="qkd", assignment="single", bias=0.7, n_p=1.0,
             noise=NoiseParams(eps_leak=1.0, p_scatter_dephase=1.0, eta_detect=0.0))
    # n_p * eta_detect near 1, where r = n_p (1 - eta) / (1 - n_p eta) is 0.4995.
    @example(n_pi=3, n_sub=4, mode="qkd", assignment="random", bias=0.3, n_p=0.999,
             noise=NoiseParams(eta_detect=0.999))
    def test_matches_oracle(self, n_pi, n_sub, mode, assignment, bias, n_p, noise):
        seq = SequenceConfig(n_pi=n_pi, n_sub=n_sub)
        assume(2 <= seq.n_qubits <= 12)
        chan = ChannelConfig(n_p=n_p)
        parties = PartyConfig(mode=mode, basis_bias=bias, assignment=assignment)
        pi = cell_probabilities(seq, chan, parties, noise)
        expected = oracles.exact_cell_probabilities(seq, chan, parties, noise)
        assert np.abs(pi - expected).max() <= 1e-13


class TestSifting:
    def test_noiseless_qber_is_exactly_zero(self):
        seq, chan, _ = small_setup()
        tally, report = simulate_session(
            seq, chan, PartyConfig(), NoiseParams.ideal(), 100_000, seed=23
        )
        assert report.sifted > 1000
        assert report.errors == 0

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_frame_tracking_keeps_yy_error_free(self, engine):
        # Odd frames flip the Y-Y parity; with the frame tracked, a
        # noiseless session has no error in either basis.
        seq, chan, _ = small_setup()
        parties = PartyConfig(assignment="single")
        _, report = simulate_session(
            seq, chan, parties, NoiseParams.ideal(), 20_000, seed=41, engine=engine
        )
        assert report.sifted_xx > 100 and report.sifted_yy > 100
        assert report.errors_xx == report.errors_yy == 0

    def test_basis_bias_fraction(self):
        seq, chan, _ = small_setup()
        bias = 0.8
        parties = PartyConfig(basis_bias=bias, assignment="single")
        tally, report = simulate_session(
            seq, chan, parties, NoiseParams.ideal(), 100_000, seed=31
        )
        # Empirical fraction of X photons among tallied coincidences.
        x_first = int(tally.counts[0].sum())
        total = int(tally.counts.sum())
        sigma = math.sqrt(bias * (1 - bias) / total)
        assert abs(x_first / total - bias) < 4 * sigma

    def test_sifted_fraction_approaches_bias_square_sum(self):
        seq, chan, _ = small_setup()
        for bias in (0.5, 0.9):
            parties = PartyConfig(basis_bias=bias, assignment="single")
            _, report = simulate_session(
                seq, chan, parties, NoiseParams.ideal(), 150_000, seed=37
            )
            expected = bias**2 + (1 - bias) ** 2
            observed = report.sifted / report.coincidences
            sigma = math.sqrt(expected * (1 - expected) / report.coincidences)
            assert abs(observed - expected) < 4 * sigma

    def test_sift_drops_cross_basis(self):
        tally = CoincidenceTally()
        tally.counts[0, 0, 1, 0, 0] = 50  # (X,+ | Y,+) coincidences only
        counts = sift(tally)
        assert counts["sifted_xx"] == counts["sifted_yy"] == 0

    def test_sift_error_rules(self):
        tally = CoincidenceTally()
        tally.counts[0, 0, 0, 0, 1] = 3  # +x,+x with parity -1: errors
        tally.counts[1, 0, 1, 1, 0] = 5  # +y,-y with parity +1: correct
        assert sift(tally) == {"sifted_xx": 3, "errors_xx": 3, "sifted_yy": 5, "errors_yy": 0}

    @settings(max_examples=200, deadline=None)
    @given(counts=arrays(np.int64, (4, 2, 4, 2, 2), elements=st.integers(0, 2**40)))
    def test_sift_matches_fancy_index_oracle(self, counts):
        assert sift(CoincidenceTally(counts=counts)) == oracles.sift_counts(counts)


class TestTallyCell:
    def test_odd_window_is_conjugated_and_alice_first(self):
        labels = np.arange(len(LABEL_NAMES))
        la, lb = np.meshgrid(labels, labels, indexing="ij")
        # Bob heralds first in an odd window, Alice second in an even one.
        cell = _tally_cell(1, 0, 1, 0, lb, la, 1)
        assert (cell == 16 * la + 2 * CONJ_LABEL[lb] + 1).all()
        # Two photons of one party land in `excluded`, in herald order.
        cell = _tally_cell(0, 1, 1, 1, la, lb, 0)
        assert (cell == 128 + 16 * la + 2 * CONJ_LABEL[lb]).all()


class TestPartyAssignment:
    def test_single_mode_keeps_everything(self):
        seq, chan, _ = small_setup()
        parties = PartyConfig(assignment="single")
        _, report = simulate_session(
            seq, chan, parties, NoiseParams.ideal(), 50_000, seed=5
        )
        assert report.same_party == 0

    def test_random_assignment_excludes_half(self):
        seq, chan, _ = small_setup()
        parties = PartyConfig(assignment="random")
        tally, report = simulate_session(
            seq, chan, parties, NoiseParams.ideal(), 100_000, seed=5
        )
        frac = report.same_party / report.coincidences
        sigma = math.sqrt(0.25 / report.coincidences)
        assert abs(frac - 0.5) < 4 * sigma
        assert tally.total() == report.coincidences


class TestChsh:
    def test_ideal_correlations(self):
        seq = SEQ124
        chan = ChannelConfig.from_mean_photons(3.0, seq.n_qubits)
        parties = PartyConfig(mode="chsh")
        tally, _ = simulate_session(
            seq, chan, parties, NoiseParams.ideal(), 400_000, seed=43
        )
        for parity in (1, -1):
            terms, s_value = chsh_statistic(tally, parity)
            assert s_value == pytest.approx(2 * math.sqrt(2), abs=0.05)
            for key, value in terms.items():
                want = 1 / math.sqrt(2) * (1 if key == "xa" else -1) * parity
                assert value == pytest.approx(want, abs=0.035)

    @pytest.mark.parametrize("name", ["fig3-chsh-ideal", "fig3-chsh-qber11"])
    def test_presets_give_the_exact_s_of_pi(self, name):
        # A tally of 2^50 pi has the correlations of pi itself: 2 sqrt(2)
        # damped by the readout coherence (1 - 2 p_mw)^62 that the pulses leave.
        cfg = load_preset(name)
        assert cfg.sequence.n_pi == 62
        pi = cell_probabilities(cfg.sequence, cfg.channel(), cfg.parties, cfg.noise)
        want = 2 * math.sqrt(2) * (1 - 2 * cfg.noise.p_mw) ** 62
        for parity in (1, -1):
            _, s_value = chsh_statistic(CoincidenceTally(*(2**50 * pi)), parity)
            assert s_value == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_random_parity_gives_zero(self):
        rng = np.random.default_rng(0)
        tally = CoincidenceTally()
        tally.counts[:, :, :, :, :] = rng.poisson(500, size=tally.counts.shape)
        _, s_value = chsh_statistic(tally, 1)
        assert s_value < 0.2

    def test_empty_cell_raises(self):
        with pytest.raises(EmptyCellError):
            chsh_statistic(CoincidenceTally(), 1)


class TestChannelAccounting:
    @staticmethod
    def clock_rate(seq, overheads=None):
        """The clock rate that a 1,000-cycle fast session reports."""
        _, report = simulate_session(seq, ChannelConfig(n_p=0.01), PartyConfig(), NoiseParams(),
                                     1000, seed=0, overheads=overheads)
        return report.clock_rate_hz

    def test_zero_overheads_clock_rate(self):
        no_overheads = TimingOverheads(lock_s=0.0, block_s=1.0, readout_s=0.0, duty_factor=1.0)
        expected = SEQ124.n_qubits / SEQ124.cycle_duration_s()
        assert self.clock_rate(SEQ124, no_overheads) == pytest.approx(expected, rel=1e-12)

    def test_n248_clock_rate_near_observed(self):
        seq = SequenceConfig(n_pi=124, n_sub=2)
        assert 1.2e6 / 1.5 <= self.clock_rate(seq) <= 1.2e6 * 1.5

    def test_rejects_bad_overheads(self):
        with pytest.raises(ValueError):
            TimingOverheads(duty_factor=0.0)
        with pytest.raises(ValueError):
            TimingOverheads(lock_s=-1.0)


class TestValidation:
    def test_rejects_zero_cycles(self):
        seq, chan, noise = small_setup()
        with pytest.raises(ValueError):
            simulate_session(seq, chan, PartyConfig(), noise, 0, seed=1)

    def test_rejects_overdriven_channel(self):
        seq = SequenceConfig(n_pi=4, n_sub=2)
        with pytest.raises(ValueError):
            ChannelConfig.from_mean_photons(10.0, seq.n_qubits)  # n_p > 1

    @pytest.mark.parametrize("call", [
        lambda: simulate_session(SEQ124, ChannelConfig(n_p=0.01), PartyConfig(), NoiseParams(),
                                 1, seed=0, engine="slow"),
        lambda: chsh_statistic(CoincidenceTally(), 0),
        lambda: ChannelConfig.from_mean_photons(0.0, 0),
    ], ids=["unknown-engine", "parity-0", "no-slots"])
    def test_rejects_out_of_range_arguments(self, call):
        with pytest.raises(ValueError):
            call()
