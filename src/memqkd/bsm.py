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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .qubits import (
    NoiseParams,
    TimeBinQubit,
    apply_dephasing,
    apply_pi_pulse,
    measure_x,
    prepare_superposition,
    reflect_and_herald,
)

BELL_LABELS = ("Phi+", "Phi-", "Psi+", "Psi-")


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

    @classmethod
    def from_mean_photons(cls, n_m: float, n_qubits: int) -> "ChannelConfig":
        if n_qubits <= 0:
            raise ValueError(f"n_qubits must be positive, got {n_qubits}")
        return cls(n_p=n_m / n_qubits)


@dataclass(frozen=True)
class BSMRecord:
    """Outcome of one successful asynchronous Bell-state measurement."""

    slot_i: int
    slot_j: int
    m1: int
    m2: int
    m3: int
    frame_parity: int  # pi pulses between the heralds, mod 2 (0 = even)

    def __post_init__(self) -> None:
        if not self.slot_i < self.slot_j:
            raise ValueError("herald slots must satisfy slot_i < slot_j")
        for name in ("m1", "m2", "m3"):
            if getattr(self, name) not in (1, -1):
                raise ValueError(f"{name} must be +1 or -1")
        if self.frame_parity not in (0, 1):
            raise ValueError("frame_parity must be 0 (even) or 1 (odd)")

    @property
    def parity(self) -> int:
        return self.m1 * self.m2 * self.m3

    @property
    def bell_label(self) -> str:
        return classify_bell_state(self.parity, self.frame_parity)


@dataclass(frozen=True)
class CycleTrace:
    """Low-level accounting of one simulated cycle."""

    heralds: int
    scatters: int
    discarded: bool


def classify_bell_state(parity: int, frame_parity: int) -> str:
    """Bell state heralded by a given total parity and frame parity."""
    if parity not in (1, -1):
        raise ValueError(f"parity must be +1 or -1, got {parity}")
    if frame_parity not in (0, 1):
        raise ValueError(f"frame_parity must be 0 or 1, got {frame_parity}")
    if frame_parity == 0:
        return "Phi+" if parity == 1 else "Phi-"
    return "Psi+" if parity == 1 else "Psi-"


def conjugate_label(basis: str, sign: int) -> tuple[str, int]:
    """State label under phase conjugation phi -> -phi.

    Photons sent during an odd-numbered free-precession window are read
    out in the conjugated frame. X states are fixed points, Y states flip
    sign, and the two diagonal bases map into each other with a sign flip.
    """
    if basis == "X":
        return basis, sign
    if basis == "Y":
        return basis, -sign
    if basis == "A":
        return "B", -sign
    if basis == "B":
        return "A", -sign
    raise ValueError(f"unknown basis {basis!r}")


def ideal_parity(phi1: float, phi2: float) -> int:
    """Deterministic parity for a valid input pair (phase sum 0 or pi)."""
    total = (phi1 + phi2) % (2.0 * math.pi)
    if min(total, 2.0 * math.pi - total) < 1e-9:
        return 1
    if abs(total - math.pi) < 1e-9:
        return -1
    raise ValueError(
        f"phase sum {total:.6f} is neither 0 nor pi; not a valid input pair"
    )


def expected_parity(
    qubit_a: TimeBinQubit, qubit_b: TimeBinQubit, frame_parity: int = 0
) -> int:
    """Truth-table parity for a pair of inputs at a given frame parity.

    On odd frames the second photon's phase enters conjugated.
    """
    phi2 = qubit_b.phase if frame_parity == 0 else -qubit_b.phase
    return ideal_parity(qubit_a.phase, phi2)


def truth_table_rows() -> list[dict]:
    """All 16 classifications: 8 input pairs times even/odd frame."""
    rows = []
    for basis in ("X", "Y"):
        for sign_a in (1, -1):
            for sign_b in (1, -1):
                qa = TimeBinQubit(basis, sign_a)
                qb = TimeBinQubit(basis, sign_b)
                for frame in (0, 1):
                    parity = expected_parity(qa, qb, frame)
                    rows.append(
                        {
                            "alice": f"{'+' if sign_a == 1 else '-'}{basis.lower()}",
                            "bob": f"{'+' if sign_b == 1 else '-'}{basis.lower()}",
                            "frame": "even" if frame == 0 else "odd",
                            "parity": parity,
                            "bell_state": classify_bell_state(parity, frame),
                        }
                    )
    return rows


class _StreamUniforms:
    """`rng.random()` values in stream order for one random cycle.

    A random cycle draws at least once per slot, so its first N values come
    from one `rng.random(N)` block, which holds the same doubles as N calls
    of `rng.random()`; any later value is drawn on its own. The generator
    thus ends each cycle where drawing one value at a time would leave it.
    """

    __slots__ = ("_rng", "_block")

    def __init__(self, rng: np.random.Generator, n: int):
        self._rng = rng
        self._block = iter(rng.random(n).tolist())

    def __next__(self) -> float:
        value = next(self._block, None)
        return self._rng.random() if value is None else value

    random = __next__


def run_memory_cycle_traced(
    seq: SequenceConfig,
    chan: ChannelConfig,
    qubit_source: Callable[[int], TimeBinQubit],
    noise: NoiseParams,
    rng: np.random.Generator,
    forced_slots: Optional[tuple[int, int]] = None,
) -> tuple[Optional[BSMRecord], CycleTrace]:
    """Simulate one memory cycle slot by slot.

    Each slot heralds a reflection with probability n_p * eta_detect, or
    scatters an undetected photon with probability n_p * (1 - eta_detect),
    which dephases the spin. The first two heralds build the record; a
    third herald in the same cycle discards it. The record is None unless
    exactly two heralds occurred; the trace counts heralds and scatters.

    The cycle draws from `rng` in this order: one uniform per slot, one
    after each of the first two heralds for its detector outcome, and two
    for the readout. forced_slots injects heralds deterministically at the
    given pair of slots and suppresses random arrivals (no slot draws),
    which is how truth-table and tomography-style drills are run.
    """
    p_herald = chan.n_p * noise.eta_detect
    p_event = p_herald + chan.n_p * (1.0 - noise.eta_detect)
    if forced_slots is not None:
        i, j = forced_slots
        if not 0 <= i < j < seq.n_qubits:
            raise ValueError(f"forced slots {forced_slots} out of range")

    # A forced-slot cycle draws only its detector outcomes and readout.
    uniforms = rng if forced_slots is not None else _StreamUniforms(rng, seq.n_qubits)
    spin = prepare_superposition(noise.f_init)
    heralds: list[tuple[int, int]] = []  # (slot, m)
    windows: list[int] = []
    n_heralds = 0
    n_scatters = 0
    discarded = False

    slot = 0
    for window in range(seq.n_pi):
        for _ in range(seq.n_sub):
            if forced_slots is None:
                u = next(uniforms)
                herald = u < p_herald
                if not herald and u < p_event:
                    n_scatters += 1
                    spin = apply_dephasing(spin, noise.p_scatter_dephase)
            else:
                herald = slot in forced_slots
            if herald:
                n_heralds += 1
                if n_heralds > 2:
                    # Third herald spoils the cycle; finish counting only.
                    discarded = True
                elif not discarded:
                    m, spin = reflect_and_herald(spin, qubit_source(slot), noise, uniforms)
                    heralds.append((slot, m))
                    windows.append(window)
            slot += 1
        spin = apply_pi_pulse(spin, noise.p_mw)

    trace = CycleTrace(heralds=n_heralds, scatters=n_scatters, discarded=discarded)
    if discarded or len(heralds) != 2:
        return None, trace

    m3 = measure_x(spin, noise.f_readout, uniforms)
    (slot_i, m1), (slot_j, m2) = heralds
    record = BSMRecord(
        slot_i=slot_i,
        slot_j=slot_j,
        m1=m1,
        m2=m2,
        m3=m3,
        frame_parity=(windows[1] - windows[0]) % 2,
    )
    return record, trace
