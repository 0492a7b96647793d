"""Orchestration of many memory cycles into a QKD or CHSH session.

Two execution paths sample the same distribution. The reference path
is the ground truth and never reads the fast path's pmf or cells. It
draws each cycle's herald count, then a uniform slot pair and two photon
labels for each cycle with exactly two heralds, and runs only those
cycles (`run_memory_cycles`): it draws slot by slot and forms each
spin's coherence where a herald or the readout reads it. The fast path
is two exact multinomial draws, so its cost does not grow with the
cycle count:

1. Cycles are independent, so the herald counts of all cycles are one
   draw over the Binomial(N, n_p * eta_detect) pmf of heralds per cycle
   (`_herald_count_pmf`).
2. Only cycles with exactly two heralds make a record, and every input
   to it is discrete: the two photon labels and parties, the window and
   slot parity of each herald, and the outcomes m1, m2, m3. The count of
   undetected scatters enters only through a mean dephasing factor that
   has a closed form. Each coincidence cell therefore has a fixed
   probability pi, and the tally is one draw from Multinomial(coincidences,
   pi). pi is linear in eight numbers of a point (slot-pair counts times
   the two dephasing ends), so a map cached per (n_sub, noise, parties)
   gives it, and one einsum gives the pi of a block of 32 points. One
   np.dot of a point's cells gives all its report counters.

`_point_models` alone forms each point's pmf and pi: the engine draws from
them, and `expected_sessions` reads every report counter's mean from them.

Both paths track the measurement frame and map a record to its tally
cell by one rule (`_tally_cell`): a photon sent in an odd window is
relabelled by phase conjugation, and Alice's photon comes first. Both
are deterministic for a fixed (seed, engine): each draws from one
generator seeded with `seed`, so many points run together
(`simulate_sessions`) make the same draws as one at a time. Drills with
heralds at given slots call `run_memory_cycles` directly.

The fast path's Born kernel takes an odd frame as the sign of one real
product and forms no complex product, so pi has the same bits at every
numpy CPU dispatch level. At ideal noise it gives the truth table
(`truth_table_rows`): each X/X or Y/Y pair's parity has probability 0 or 1.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .bsm import (
    CONJ_LABEL,
    LABEL_NAMES,
    LABEL_PHASE,
    ChannelConfig,
    SequenceConfig,
    run_memory_cycles,
)
from .qubits import NoiseParams, herald_tables

# Parity index (0 for +1) of each outcome (m1, m2, m3) in C order.
_OUTCOME_PARITY = np.indices((2, 2, 2)).sum(axis=0).ravel() % 2
# Reference engine: cycles per herald-count block (1 MB of counts), and
# two-herald cycles per slot-loop block, which share each slot's draw and
# counting calls.
_BLOCK = 2**17
_LANES = 2**13
# Fast engine: points per pi einsum of `_point_models`, whose pi is then at
# most a (32, 256) array of 64 KB.
_PI_BLOCK = 32


def _tally_cell(w1, w2, p1, p2, l1, l2, parity):
    """Flat tally cell of each record, elementwise over array arguments.

    w1 and w2 are the window parities of the first and second herald, p1
    and p2 their parties (Alice 0, Bob 1), l1 and l2 their photon labels,
    and parity is 1 for a total parity of -1. Cells 0..127 are `counts`
    and 128..255 `excluded`, both in C order of the tally layout.
    """
    # Photons sent in odd windows are read out in the conjugated frame.
    l1 = np.where(w1 == 1, CONJ_LABEL[l1], l1)
    l2 = np.where(w2 == 1, CONJ_LABEL[l2], l2)
    # Orient cross-party records so the first index is Alice's photon.
    swap = p1 > p2
    alice, bob = np.where(swap, l2, l1), np.where(swap, l1, l2)
    return 128 * (p1 == p2) + 16 * alice + 2 * bob + parity


# Tally cell of each (w1, w2, p1, p2, label1, label2, parity).
_CELL_INDEX = _tally_cell(*np.indices((2, 2, 2, 2, 8, 8, 2))).ravel()


class EmptyCellError(RuntimeError):
    """A statistic required a coincidence cell that has no counts."""


@dataclass(frozen=True)
class PartyConfig:
    """State generation policy for Alice and Bob.

    mode:        "qkd" draws from {+-x, +-y}, "chsh" from all four bases
    basis_bias:  probability of choosing X in qkd mode (0.5 = unbiased)
    assignment:  how qubit slots map to senders. "random" assigns each
                 slot to Alice or Bob with equal probability, "alternating"
                 by slot parity. "single" models one transmitter playing
                 both parties (the benchtop emulation); every coincidence
                 is then key-eligible.
    """

    mode: str = "qkd"
    basis_bias: float = 0.5
    assignment: str = "random"

    def __post_init__(self) -> None:
        if self.mode not in ("qkd", "chsh"):
            raise ValueError(f"mode must be 'qkd' or 'chsh', got {self.mode!r}")
        if not 0 <= self.basis_bias <= 1:
            raise ValueError(f"basis_bias must lie in [0, 1], got {self.basis_bias}")
        if self.assignment not in ("random", "alternating", "single"):
            raise ValueError(
                "assignment must be 'random', 'alternating' or 'single', "
                f"got {self.assignment!r}"
            )


@dataclass
class CoincidenceTally:
    """Coincidence counts indexed by (basisA, signA, basisB, signB, parity).

    Index convention: bases X, Y, A, B -> 0..3; sign +1 -> 0, -1 -> 1;
    parity +1 -> 0, -1 -> 1. `counts` holds key-eligible records (one
    herald from each party, or every record in single-sender mode);
    `excluded` holds same-party double heralds, which are tallied but
    never sifted into the key.
    """

    counts: np.ndarray = field(
        default_factory=lambda: np.zeros((4, 2, 4, 2, 2), dtype=np.int64)
    )
    excluded: np.ndarray = field(
        default_factory=lambda: np.zeros((4, 2, 4, 2, 2), dtype=np.int64)
    )

    def total(self) -> int:
        return int(self.counts.sum() + self.excluded.sum())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoincidenceTally):
            return NotImplemented
        return np.array_equal(self.counts, other.counts) and np.array_equal(
            self.excluded, other.excluded
        )


@dataclass(frozen=True)
class TimingOverheads:
    """Experimental downtime folded into the clock-rate estimate.

    Defaults: the interferometer is locked for 200 ms out of every
    200 ms experiment block (halving the duty cycle), each memory cycle
    ends with a 30 us readout, and feedback initialization plus the
    automated relock procedure leave about half of the remaining time,
    calibrated to the observed 1.2 MHz qubit clock rate at N = 248.
    """

    lock_s: float = 0.2
    block_s: float = 0.2
    readout_s: float = 30e-6
    duty_factor: float = 0.5

    def __post_init__(self) -> None:
        for name in ("lock_s", "block_s", "readout_s"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        if not 0 < self.duty_factor <= 1:
            raise ValueError(f"duty_factor must lie in (0, 1], got {self.duty_factor}")
        if self.lock_s > 0 and self.block_s <= 0:
            raise ValueError("block_s must be positive when lock_s > 0")


@dataclass
class SessionReport:
    """Summary counters of one session."""

    cycles: int
    heralds: int
    coincidences: int          # cycles with exactly two heralds
    discarded_multi: int       # cycles spoiled by a third herald
    same_party: int            # coincidences excluded from the key
    sifted_xx: int
    errors_xx: int
    sifted_yy: int
    errors_yy: int
    channel_uses: float
    wall_clock_s: float
    clock_rate_hz: float

    @property
    def sifted(self) -> int:
        return self.sifted_xx + self.sifted_yy

    @property
    def errors(self) -> int:
        return self.errors_xx + self.errors_yy

    def sifted_rate_per_use(self) -> float:
        return self.sifted / self.channel_uses if self.channel_uses else 0.0


# Each flat tally cell's share of the counters coincidences, same_party,
# sifted_xx, errors_xx, sifted_yy and errors_yy, in `SessionReport`'s order:
# a coincidence, same-party if `excluded`. A `counts` X/X (Y/Y) cell is
# sifted_xx (sifted_yy), and an error too when its basis, sign and parity
# indices sum to odd, as X pairs correlate with the sign product and Y pairs
# anticorrelate. Plain Python: numpy here would add 0.1 MB of RSS.
_COUNTER_TABLE = np.array([
    [1, p] + [p == 0 and ba == bb == f // 2 and (ba + sa + sb + q) % 2 >= f % 2 for f in range(4)]
    for p, ba, sa, bb, sb, q in itertools.product(*map(range, (2, 4, 2, 4, 2, 2)))
], dtype=np.int64)
_COUNTER_TABLE.flags.writeable = False


# Basis index pairs of the CHSH terms: XA, XB, YA, YB.
_CHSH_TERMS = ((0, 2), (0, 3), (1, 2), (1, 3))


def chsh_statistic(
    tally: CoincidenceTally, parity: int = 1
) -> tuple[dict[str, float], float]:
    """CHSH combination of input correlations conditioned on a parity.

    Each term <A.B> averages the sign product over coincidences whose
    bases are 45 or 135 degrees apart, pooled over which party used
    which basis. S = |<AB>_xa - <AB>_xb - <AB>_ya - <AB>_yb|.
    """
    if parity not in (1, -1):
        raise ValueError(f"parity must be +1 or -1, got {parity}")
    p_idx = 0 if parity == 1 else 1
    terms: dict[str, float] = {}
    total = 0.0
    for i1, i2 in _CHSH_TERMS:
        key = LABEL_NAMES[2 * i1][1] + LABEL_NAMES[2 * i2][1]
        pooled = tally.counts[i1, :, i2, :, p_idx] + tally.counts[i2, :, i1, :, p_idx].T
        n = int(pooled.sum())
        if n == 0:
            raise EmptyCellError(
                f"no coincidences in basis pair {key.upper()} with parity {parity:+d}"
            )
        signs = np.array([[1, -1], [-1, 1]])
        value = float((pooled * signs).sum() / n)
        terms[key] = value
        total += value if key == "xa" else -value
    return terms, abs(total)


def _herald_count_pmf(n: int, p: float) -> np.ndarray:
    """Binomial(n, p) probabilities of k = 0..n heralds.

    The term at the mode floor((n + 1) p) is set to 1 and every other term
    comes from its neighbour nearer the mode by their exact ratio, so no term
    passes 1 but by rounding, a tail far below the rounding error of 1 is a
    sum of accurate terms, and terms past the double range come out 0; then
    all are divided by their sum. With no log or exp, every operation is
    correctly rounded and in a fixed order: the bits do not depend on the CPU.
    """
    mode = min(int((n + 1) * p), n)  # n at p = 1, so no odds divide by 0
    num, den = p.as_integer_ratio()  # p = num/den and 1 - p = (den - num)/den
    k = np.arange(n + 1.0)
    pmf = np.empty(n + 1)
    pmf[mode] = 1.0
    # Up from the mode P(j + 1)/P(j) = (n - j)/(j + 1) * p/(1 - p), and down
    # P(j - 1)/P(j) = j/(n + 1 - j) * (1 - p)/p, from j = mode outward.
    for c, a, b, out in ((k[n - mode:0:-1] / k[mode + 1:], num, den - num, pmf[mode + 1:]),
                         (k[mode:0:-1] / k[n + 1 - mode:], den - num, num, pmf[mode - 1::-1])):
        if len(c):
            # The odds a/b enter rounded, as hi; d steps out a term is then times
            # 1 + d (a/b - hi)/hi, since hi's rounding error would grow d-fold.
            hi = a / b
            m, e = hi.as_integer_ratio()
            np.cumprod(c * hi, out=out)
            if a * e != m * b:
                out *= 1.0 + k[1:len(c) + 1] * ((a * e - m * b) / (b * m))
    return np.divide(pmf, pmf.sum(), out=pmf)


def _draw_labels(rng: np.random.Generator, parties: PartyConfig, shape: tuple) -> np.ndarray:
    """Photon labels 2 * basis index + sign index, an array of `shape`."""
    u = rng.random((2, *shape))
    if parties.mode == "qkd":
        basis = u[0] >= parties.basis_bias  # X (0) with the bias, else Y
    else:
        basis = (4.0 * u[0]).astype(np.int64)  # X, Y, A, B alike
    return 2 * basis + (u[1] >= 0.5)  # sign +1 -> 0, -1 -> 1


def _born_kernel(phi1, phi2, frame, deph, noise: NoiseParams) -> np.ndarray:
    """P(m1, m2, m3 | phi1, phi2, frame, deph) on three trailing axes (index 0 = +1).

    Outcome m of a herald has probability P(m | phi) and multiplies the
    spin coherence by a unit phase g(m | phi); a pi-pulse count of odd
    parity between the heralds conjugates the first factor. With P and
    h = P g from `herald_tables`, and s = -1 at odd frame and +1 at even,

        P(m1, m2, m3) = P1 P2 / 2 + m3 kappa (Re h1 Re h2 - s Im h1 Im h2),
        kappa = (2 f_init - 1) (2 f_readout - 1) deph / 2,

    where `deph` is the mean coherence factor of all dephasing in the
    cycle. Dephasing is a real scalar and commutes with everything, so
    only its total enters. The four inputs broadcast like arrays.
    """
    p1, h1 = herald_tables(phi1, noise.eps_leak)
    p2, h2 = herald_tables(phi2, noise.eps_leak)
    kappa = 0.5 * (2.0 * noise.f_init - 1.0) * (2.0 * noise.f_readout - 1.0)
    kappa = kappa * np.asarray(deph, dtype=float)[..., None, None]
    base = 0.5 * p1[..., :, None] * p2[..., None, :]
    s = 1 - 2 * (np.asarray(frame)[..., None, None] == 1)
    imag = s * (h1.imag[..., :, None] * h2.imag[..., None, :])
    corr = kappa * (h1.real[..., :, None] * h2.real[..., None, :] - imag)
    kernel = np.stack([base + corr, base - corr], axis=-1)
    if kernel.min() < -1e-12 or kernel.max() > 1.0 + 1e-12:
        raise RuntimeError(
            f"Born probabilities outside [0, 1]: {kernel.min()}, {kernel.max()}"
        )
    return np.clip(kernel, 0.0, 1.0)


def truth_table_rows() -> list[dict]:
    """All 16 classifications: the X/X and Y/Y label pairs at even and odd frame.

    Each row's parity is the one that the ideal-noise Born kernel gives
    with probability 1. The frame names the resolved Bell pair, Phi at
    even and Psi at odd, and the parity its member.
    """
    basis, sign_a, sign_b, frame = np.indices((2, 2, 2, 2)).reshape(4, -1)
    alice, bob = 2 * basis + sign_a, 2 * basis + sign_b
    kernel = _born_kernel(LABEL_PHASE[alice], LABEL_PHASE[bob], frame, 1.0, NoiseParams.ideal())
    p_odd = kernel.reshape(-1, 8) @ _OUTCOME_PARITY  # P(parity -1) of each row
    odd = np.round(p_odd).astype(int)
    if np.abs(p_odd - odd).max() > 1e-12:
        raise RuntimeError(f"ideal parities are not deterministic: {p_odd}")
    return [
        {
            "alice": LABEL_NAMES[a],
            "bob": LABEL_NAMES[b],
            "frame": ("even", "odd")[f],
            "parity": 1 - 2 * q,
            "bell_state": ("Phi", "Psi")[f] + "+-"[q],
        }
        for a, b, f, q in zip(alice.tolist(), bob.tolist(), frame.tolist(), odd.tolist())
    ]


def _party_table(assignment: str) -> np.ndarray:
    """P(party pair | w_lo, s_lo, w_hi, s_hi), a (2, 2, 2, 2, 4) array; a
    party pair is 2 * p1 + p2 with Alice as 0."""
    parties = np.zeros((2, 2, 2, 2, 4))
    if assignment == "random":
        parties[...] = 0.25
    elif assignment == "alternating":
        s = np.arange(2)
        parties[:, s[:, None], :, s, 2 * s[:, None] + s] = 1.0
    else:
        # One sender plays both parties: every record is Alice's, then Bob's.
        parties[..., 1] = 1.0
    return parties


def _period_counts(n_pi: int) -> tuple:
    """How often n_pi windows hold each piece of `_period_classes`.

    A slot's class 2 * (window parity) + slot parity repeats every pulse
    period of two windows. With class counts v and u, and pair counts W and
    W_half, of a period and of its first window, q = n_pi // 2 periods and
    an odd n_pi's last window hold C(q, 2) v v^T + q W + odd (q v u^T + W_half).
    """
    q, odd = divmod(n_pi, 2)
    return q * (q - 1) / 2, q, odd * q, odd


def _period_classes(n_sub: int, assignment: str) -> np.ndarray:
    """Slot pairs of one pulse period in the four pieces of `_period_counts`, by
    (w_lo, w_hi, party pair) with `_party_table`'s parties: a (4, 2, 2, 4) array."""
    slot = np.arange(2 * n_sub)
    onehot = np.eye(4)[2 * (slot // n_sub % 2) + slot % 2]
    before = np.cumsum(onehot, axis=0) - onehot
    v, u = onehot.sum(0), onehot[:n_sub].sum(0)
    # einsum, not @: a float matmul starts BLAS, about 0.2 MB of peak RSS.
    pairs, head = (np.einsum("si,sj->ij", before[:k], onehot[:k]) for k in (2 * n_sub, n_sub))
    pieces = np.stack([np.outer(v, v), pairs, np.outer(v, u), head])
    pieces = pieces.reshape(4, 2, 2, 2, 2, 1)  # (w_lo, s_lo, w_hi, s_hi)
    return (pieces * _party_table(assignment)).sum(axis=(2, 4))


def _label_tensors(noise: NoiseParams, mode: str, basis_bias: float) -> np.ndarray:
    """P(w_lo, w_hi, l1 * l2 * q) at deph = +1 and -1, a (2, 2, 2, 128) array.

    The Born kernel is affine in deph, so these two ends give every
    |deph| <= 1, and one kernel call checks the range of them all.
    """
    frame, deph = np.arange(2)[:, None, None], np.array([1.0, -1.0])[:, None, None, None]
    kernel = _born_kernel(LABEL_PHASE[:, None], LABEL_PHASE, frame, deph, noise)
    # (deph, frame, l1, l2, q); einsum for the reason given in `_period_classes`.
    parity = np.einsum("...o,oq->...q", kernel.reshape(2, 2, 8, 8, 8), np.eye(2)[_OUTCOME_PARITY])
    basis = [basis_bias, 1.0 - basis_bias, 0.0, 0.0]
    prior = np.repeat(basis if mode == "qkd" else [0.25] * 4, 2) / 2.0
    labels = (parity * (prior[:, None] * prior)[..., None]).reshape(2, 2, 128)
    w = np.arange(2)  # the frame is the window parities' XOR
    return labels[:, w[:, None] ^ w]


@functools.lru_cache(maxsize=16)
def _cell_map(n_sub: int, noise: NoiseParams, parties: PartyConfig) -> np.ndarray:
    """Unnormalised pi of `_period_classes` piece k at `_label_tensors` end e
    in row 2 k + e, a read-only (8, 256) array. Built row by row, so that no
    temporary outgrows one row's 16 KB of weights."""
    ends = _label_tensors(noise, parties.mode, parties.basis_bias)
    cell_map = np.empty((8, 256))
    for k, by_windows in enumerate(_period_classes(n_sub, parties.assignment)):
        for e, labels in enumerate(ends):
            weights = by_windows[..., None] * labels[:, :, None]
            cell_map[2 * k + e] = np.bincount(_CELL_INDEX, weights.ravel(), minlength=256)
    cell_map.flags.writeable = False
    return cell_map


def _point_models(points: Sequence[tuple]) -> Iterator[tuple[np.ndarray | None, np.ndarray]]:
    """The flat pi and the herald-count pmf of each point (seq, chan,
    parties, noise, ...), in order.

    pi is the probability of each coincidence cell, given that a cycle
    heralded twice, or None for a point of fewer than two slots. As a
    (2, 4, 2, 4, 2, 2) array, index 0 holds the `CoincidenceTally.counts`
    cells and index 1 the `excluded` cells, each in the tally's (basisA,
    signA, basisB, signB, parity) layout. The tally of n coincidences is
    exactly Multinomial(n, pi). The other N - 2 slots each scatter an
    undetected photon with probability r, so the mean scatter dephasing is
    E[(1 - 2p)^Bin(N-2, r)] = (1 - 2pr)^(N-2).

    Each block of `_PI_BLOCK` points forms its pi first, one einsum for all
    of its points that share a `_cell_map`, and each row has the floats it
    has alone; its pmfs come only as read.
    """
    for start in range(0, len(points), _PI_BLOCK):
        block = points[start:start + _PI_BLOCK]
        pis: list[np.ndarray | None] = [None] * len(block)
        by_map: dict[tuple, list[int]] = {}
        for i, (seq, _, parties, noise, *_) in enumerate(block):
            if seq.n_qubits >= 2:
                by_map.setdefault((seq.n_sub, noise, parties), []).append(i)
        for (n_sub, noise, parties), rows in by_map.items():
            weights = []
            for i in rows:
                seq, chan = block[i][:2]
                r = chan.scatter_probability(noise.eta_detect)
                deph = (1.0 - 2.0 * noise.p_mw) ** seq.n_pi
                deph *= (1.0 - 2.0 * noise.p_scatter_dephase * r) ** (seq.n_qubits - 2)
                # Exact at either end, so deph = 1 gives the pi of a kernel built at the point.
                ends = (1.0 + deph) / 2.0, (1.0 - deph) / 2.0
                weights.append([c * e for c in _period_counts(seq.n_pi) for e in ends])
            # einsum runs no BLAS call: np.dot here read about 0.03 MB more peak RSS.
            pi = np.einsum("pi,ij->pj", weights, _cell_map(n_sub, noise, parties))
            pi /= pi.sum(axis=1, keepdims=True)
            for i, row in zip(rows, pi):
                pis[i] = row
        for (seq, chan, _, noise, *_), pi in zip(block, pis):
            yield pi, _herald_count_pmf(seq.n_qubits, chan.n_p * noise.eta_detect)


def _run_fast(points: Sequence[tuple]) -> Iterator[tuple[np.ndarray, int, int]]:
    """The 256 flat tally cells of each point (seq, chan, parties, noise,
    cycles, seed), with its total heralds and the cycles that a third herald
    discarded, in order.

    Each point draws from its own generator: its herald counts over its
    `_point_models` pmf, and its cells over its pi if it has coincidences.
    """
    for (*_, cycles, seed), (pi, pmf) in zip(points, _point_models(points)):
        rng = np.random.default_rng(seed)
        by_heralds = rng.multinomial(cycles, pmf)
        # Summed as Python ints over the herald counts that occur: an int64
        # dot product wraps past 2^63 - 1 heralds.
        seen = np.flatnonzero(by_heralds)
        heralds = sum(k * n for k, n in zip(seen.tolist(), by_heralds[seen].tolist()))
        up_to_two = by_heralds[:3].tolist()  # shorter below two slots
        pairs = up_to_two[2] if len(up_to_two) > 2 else 0
        cells = rng.multinomial(pairs, pi) if pairs else np.zeros(256, dtype=np.int64)
        yield cells, heralds, cycles - sum(up_to_two)


def _run_reference(
    seq: SequenceConfig,
    chan: ChannelConfig,
    parties: PartyConfig,
    noise: NoiseParams,
    cycles: int,
    seed: int,
) -> tuple[np.ndarray, int, int]:
    """The 256 flat tally cells of one point, with its total heralds and the
    cycles that a third herald discarded, as `_run_fast` yields them."""
    rng = np.random.default_rng(seed)
    n = seq.n_qubits
    cells = np.zeros(256, dtype=np.int64)
    heralds = discarded = 0
    for start in range(0, cycles, _BLOCK):
        k = rng.binomial(n, chan.n_p * noise.eta_detect, min(_BLOCK, cycles - start))
        heralds += int(k.sum())
        discarded += int((k > 2).sum())
        pairs = int((k == 2).sum())
        for done in range(0, pairs, _LANES):
            size = min(_LANES, pairs - done)
            # A uniform pair of distinct slots: the second draw skips the first.
            first, second = rng.integers(0, n, size), rng.integers(0, n - 1, size)
            slots = np.sort(np.stack([first, second + (second >= first)], axis=1), axis=1)
            labels = _draw_labels(rng, parties, (size, 2))
            m = run_memory_cycles(seq, chan, noise, slots, labels, rng)
            if parties.assignment == "random":
                party = rng.integers(0, 2, size=slots.shape)
            elif parties.assignment == "alternating":
                party = slots % 2
            else:
                # One sender plays both parties: every record is Alice's, then Bob's.
                party = np.broadcast_to([0, 1], slots.shape)
            window = seq.window_of(slots) % 2
            cell = _tally_cell(*window.T, *party.T, *labels.T, m.prod(axis=1) == -1)
            cells += np.bincount(cell, minlength=256)
    return cells, heralds, discarded


def simulate_sessions(
    points: Iterable[tuple[SequenceConfig, ChannelConfig, PartyConfig, NoiseParams, int, int]],
    *,
    overheads: TimingOverheads | None = None,
    engine: str = "fast",
) -> Iterator[tuple[CoincidenceTally, SessionReport]]:
    """`simulate_session` of each point (seq, chan, parties, noise, cycles,
    seed), yielded in order: the same tally and report as one at a time.

    The fast engine forms the pi of a block of points at once
    (`_point_models`); the reference engine runs the points one by one. One
    np.dot gives the report counters of each point.
    """
    points = list(points)
    for _, _, _, _, cycles, _ in points:
        if cycles < 1:
            raise ValueError(f"cycles must be at least 1, got {cycles}")
    if engine not in ("fast", "reference"):
        raise ValueError(f"engine must be 'fast' or 'reference', got {engine!r}")

    if engine == "fast":
        runs = _run_fast(points)
    else:
        runs = (_run_reference(*point) for point in points)
    ov = overheads if overheads is not None else TimingOverheads()
    lock_factor = 1.0 + (ov.lock_s / ov.block_s if ov.lock_s > 0 else 0.0)
    for (seq, _, _, _, cycles, _), (cells, heralds, discarded) in zip(points, runs):
        # np.dot, not @: the int64 matmul loop would add 0.1 MB to the reference engine's RSS.
        coincidences, *rest = np.dot(cells, _COUNTER_TABLE).tolist()
        n = seq.n_qubits
        wall = cycles * (seq.cycle_duration_s() + ov.readout_s) * lock_factor / ov.duty_factor
        # A channel use is one photon from each party: two qubit slots.
        report = SessionReport(cycles, heralds, coincidences, discarded, *rest,
                               n * cycles / 2.0, wall, (n * cycles / wall) if wall > 0 else 0.0)
        yield CoincidenceTally(*cells.reshape(2, 4, 2, 4, 2, 2)), report


def expected_sessions(points: Iterable[tuple]) -> np.ndarray:
    """The mean counters per cycle of the fast engine's draws at each point
    that `simulate_sessions` takes, as a row of a (points, 8) array in
    `SessionReport`'s order, heralds to errors_yy: sums over the herald-count
    pmf, and pi times P(two heralds)."""
    points = list(points)
    expected = np.zeros((len(points), 8))
    for row, (pi, pmf) in zip(expected, _point_models(points)):
        row[0], row[2] = pmf @ np.arange(len(pmf)), pmf[3:].sum()
        if pi is not None:
            row[1], row[3:] = pmf[2], pmf[2] * (pi @ _COUNTER_TABLE[:, 1:])
    return expected


def simulate_session(
    seq: SequenceConfig,
    chan: ChannelConfig,
    parties: PartyConfig,
    noise: NoiseParams,
    cycles: int,
    seed: int,
    *,
    overheads: TimingOverheads | None = None,
    engine: str = "fast",
) -> tuple[CoincidenceTally, SessionReport]:
    """Run `cycles` independent memory cycles and tally coincidences.

    Deterministic for fixed (seed, engine): either engine draws from one
    generator seeded with `seed`. The fast engine makes two multinomial
    draws; the reference engine runs the two-herald cycles slot by slot.
    """
    points = [(seq, chan, parties, noise, cycles, seed)]
    return next(simulate_sessions(points, overheads=overheads, engine=engine))
