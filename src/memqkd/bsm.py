"""One memory cycle: N photonic qubit slots interleaved with decoupling pulses.

A cycle starts by preparing the spin in (|up>+|down>)/sqrt(2). The N qubit
slots are grouped into n_pi free-precession windows of n_sub slots each,
with one microwave pi pulse closing every window. The first heralded
reflection teleports that photon's phase onto the spin; a second herald
accumulates the phase sum; a final X-basis readout (m3) completes the
asynchronous Bell-state measurement with total parity m1*m2*m3.

Every pi pulse between the two heralds toggles the measurement frame:
with an even number the node resolves the {Phi+-} pair, with an odd
number the {Psi+-} pair. Only the parity of that count enters the
algebra, so the pulse axes of the XY8 pattern are not tracked.

A photon is an integer label 0..7 (`LABEL_NAMES`) with the phase
`LABEL_PHASE`; a photon sent in an odd window is read out as its phase
conjugate `CONJ_LABEL`. `session.truth_table_rows` reads the truth table
off the ideal-noise Born kernel.

`run_memory_cycles` runs a block of independent cycles whose two herald
slots and photon labels are given as integer (n, 2) arrays: one slot
loop whose maps act on the coherences b of all the block's spins at
once (`qubits` says why b is the whole state). A herald's outcome
probability P and amplitude h depend on the photon label and outcome
alone, so the block reads them from one `qubits.herald_tables` call on
the eight label phases, the same tables the fast engine's Born kernel
reads. A scatter scales b by 1 - 2 p_scatter_dephase, and each pi
pulse conjugates b and scales it by 1 - 2 p_mw. At a herald slot the
loop writes just the heralded lanes' b. `session` draws which cycles
herald twice and where; a drill passes its own slots and labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qubits import (
    NoiseParams,
    herald_tables,
    measure_x,
    prepare_superposition,
    reflect_and_herald,
)


@dataclass(frozen=True)
class SequenceConfig:
    """Pulse-sequence layout of one memory cycle.

    n_pi:       number of pi pulses (= free-precession windows)
    n_sub:      qubit slots per window; 1, 2 or 4 fit in practice
    delta_t_ns: time-bin spacing, equal to the inter-pulse interval 2*tau
    pi_time_ns: pi-pulse duration
    """

    n_pi: int = 62
    n_sub: int = 2
    delta_t_ns: float = 142.0
    pi_time_ns: float = 32.0

    def __post_init__(self) -> None:
        if self.n_pi < 1:
            raise ValueError(f"n_pi must be at least 1, got {self.n_pi}")
        if self.n_sub not in (1, 2, 4):
            raise ValueError(f"n_sub must be 1, 2 or 4, got {self.n_sub}")
        if not 0 <= self.pi_time_ns < self.delta_t_ns < math.inf:
            raise ValueError(
                f"need 0 <= pi time ({self.pi_time_ns} ns) < delta_t "
                f"({self.delta_t_ns} ns), both finite"
            )

    @property
    def n_qubits(self) -> int:
        """Photonic qubit slots per memory initialization."""
        return self.n_pi * self.n_sub

    def window_of(self, slot: int) -> int:
        return slot // self.n_sub

    def cycle_duration_s(self) -> float:
        """Wall-clock length of the pulse sequence itself."""
        return self.n_pi * (self.delta_t_ns + self.pi_time_ns) * 1e-9


@dataclass(frozen=True)
class ChannelConfig:
    """Effective channel seen by the node.

    n_p is the mean photon number per qubit slot: n_m / N for a mean n_m
    incident on the device per memory initialization. With each party
    emitting about one photon per qubit, the two-way channel transmission
    is p_ab = n_p^2.
    """

    n_p: float

    def __post_init__(self) -> None:
        if not 0 <= self.n_p <= 1:
            raise ValueError(f"n_p must lie in [0, 1] (a slot probability), got {self.n_p}")

    @property
    def p_ab(self) -> float:
        return self.n_p**2

    def scatter_probability(self, eta_detect: float) -> float:
        """r = n_p (1 - eta) / (1 - n_p eta): a slot's undetected scatter, given no herald."""
        # At n_p eta = 1 every slot heralds, so only N = 2 has such cycles.
        a = self.n_p * eta_detect
        return self.n_p * (1.0 - eta_detect) / (1.0 - a) if a < 1.0 else 0.0

    @classmethod
    def from_mean_photons(cls, n_m: float, n_qubits: int) -> "ChannelConfig":
        if n_qubits <= 0:
            raise ValueError(f"n_qubits must be positive, got {n_qubits}")
        return cls(n_p=n_m / n_qubits)


# Photon label 2 * basis index + sign index over the bases X, Y, A, B,
# with sign + -> 0. Each label's phase is a whole number of eighth turns:
# the bases lie 45 degrees apart on the equator and the minus sign adds pi.
LABEL_NAMES = ("+x", "-x", "+y", "-y", "+a", "-a", "+b", "-b")
_LABEL_EIGHTHS = (0, 4, 2, 6, 1, 5, 3, 7)
LABEL_PHASE = math.pi / 4 * np.array(_LABEL_EIGHTHS)
# Label of each label's phase conjugate phi -> -phi, read out in odd windows.
CONJ_LABEL = np.array([_LABEL_EIGHTHS.index(-e % 8) for e in _LABEL_EIGHTHS])


def run_memory_cycles(
    seq: SequenceConfig,
    chan: ChannelConfig,
    noise: NoiseParams,
    slots: np.ndarray,
    labels: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Run memory cycles that herald at given slots, slot by slot, in lockstep.

    Row i of the (n, 2) arrays `slots` and `labels` holds cycle i's two
    herald slots lo < hi and the labels of the photons they reflect. Every
    other slot of a cycle scatters an undetected photon, which dephases the
    spin, with the probability r = n_p (1 - eta) / (1 - n_p eta) of a
    scatter given no herald. Returns the outcomes (m1, m2, m3), shape
    (n, 3): the two heralds and the readout.

    The cycles draw from `rng` in this order. At each slot: one uniform
    per cycle, then the detector outcomes of the cycles that herald there.
    At the end, two uniforms per cycle for the readout.
    """
    slots, labels = np.asarray(slots), np.asarray(labels)
    if not (slots.shape[1:] == (2,) and labels.shape == slots.shape
            and slots.dtype.kind in "iu" and labels.dtype.kind in "iu"):
        raise ValueError("slots and labels must be integer arrays of one shape (n, 2)")
    lo, hi = slots.T
    if not ((0 <= lo) & (lo < hi) & (hi < seq.n_qubits)).all():
        raise ValueError(f"herald slots must satisfy 0 <= lo < hi < {seq.n_qubits}")
    if not ((0 <= labels) & (labels < len(LABEL_PHASE))).all():
        raise ValueError(f"photon labels must lie in 0..{len(LABEL_PHASE) - 1}")
    r = chan.scatter_probability(noise.eta_detect)

    n = len(slots)
    b = prepare_superposition(noise.f_init, (n,))
    m = np.zeros((n, 3), dtype=np.int64)
    # Herald lanes by slot: a stable sort of the flat (row, column) indices
    # keeps each slot's lanes in row-major order, so a slot's lanes are one
    # slice of each sorted array.
    order = np.argsort(slots, axis=None, kind="stable")
    bounds = np.searchsorted(slots.ravel()[order], np.arange(seq.n_qubits + 1)).tolist()
    # Sorted like the lanes: each lane's cycle, the flat index of its
    # outcome in m, and the herald tables of its photon's label.
    row = order // 2
    outcome = order + row
    probs, amps = herald_tables(LABEL_PHASE, noise.eps_leak)
    label = labels.ravel()[order]
    probs, amps = probs[label], amps[label]
    # A phase flip with probability p scales b by 1 - 2p.
    scatter_factor = 1.0 - 2.0 * noise.p_scatter_dephase
    slot = 0
    for _ in range(seq.n_pi):
        for _ in range(seq.n_sub):
            here = slice(bounds[slot], bounds[slot + 1])
            hit = row[here]
            scatter = rng.random(n) < r
            scatter[hit] = False
            # An unscattered lane's factor is 1, so only scattered lanes are scaled.
            np.multiply(b, scatter_factor, out=b, where=scatter)
            if hit.size:
                m.flat[outcome[here]], b[hit] = reflect_and_herald(
                    b[hit], probs[here], amps[here], rng
                )
            slot += 1
        # The pi pulse: X rho X conjugates b, then its phase flip scales it.
        np.conjugate(b, out=b)
        b *= 1.0 - 2.0 * noise.p_mw
    m[:, 2] = measure_x(b, noise.f_readout, rng)
    return m

