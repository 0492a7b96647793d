"""Spin memory and time-bin photonic qubits as completely positive maps.

The memory qubit lives in the basis {up, down} and is described by a 2x2
density matrix. `SpinState` stores its four entries as Python complex
numbers, and its `rho` property returns a fresh array built from them, so
no state shares memory with an array a caller holds. Photonic qubits are
equal-amplitude superpositions of an early and a late time bin,
(|e> + exp(i*phi)|l>)/sqrt(2), so a single phase phi fixes the state.

Reflecting a photon off the node and detecting it behind the time-delay
interferometer applies a heralded Kraus map to the spin,

    K_m = |up><up| + m exp(i phi) |down><down|
          + eps * (|down><down| + m exp(i phi) |up><up|),

where m = +/-1 is the detector that fired and eps is the amplitude
leakage sqrt(r_down/r_up) from the residual reflection of the uncoupled
spin state. With eps = 0 this teleports the photon phase onto the spin.

Each microwave pi pulse that closes a free-precession window is one
noisy map: the bit flip X rho X followed by a phase flip with the
dephasing probability p_mw, which belongs to the pulse. Both act entry by
entry on the 2x2 matrix: X conjugation swaps the two populations and the
two coherences, and a phase flip with probability p scales the
coherences by 1 - 2p. K_m is diagonal, so the herald scales the
populations by |k_up|^2 and |k_down|^2 and the coherences by
k_up conj(k_down) and its conjugate, with k_up = 1 + eps m exp(i phi) and
k_down = m exp(i phi) + eps. Every map, the readout and the physicality
check work on the four stored entries; `SpinState(rho)` and `rho` are
the only conversions between entries and arrays, for callers.

The functions that sample take `rng`, anything whose `random()` returns
the next uniform double of a numpy Generator's stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Azimuthal angle of the positive-sign state of each basis. The four
# bases are separated by 45 degrees on the equator; the negative sign
# adds pi.
BASIS_ANGLE = {"X": 0.0, "Y": math.pi / 2.0, "A": math.pi / 4.0, "B": 3.0 * math.pi / 4.0}


class NonPhysicalStateError(ValueError):
    """Raised when a density matrix violates trace/hermiticity/positivity."""


@dataclass(frozen=True)
class TimeBinQubit:
    """One photonic time-bin qubit, identified by basis label and sign."""

    basis: str
    sign: int = 1

    def __post_init__(self) -> None:
        if self.basis not in BASIS_ANGLE:
            raise ValueError(f"unknown basis {self.basis!r}, expected one of X, Y, A, B")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")

    @property
    def phase(self) -> float:
        """Relative phase between the early and late bins, in [0, 2*pi)."""
        phi = BASIS_ANGLE[self.basis] + (0.0 if self.sign == 1 else math.pi)
        return phi % (2.0 * math.pi)


@dataclass(frozen=True)
class NoiseParams:
    """Calibrated error model of the memory node.

    eps_leak:          amplitude leakage of the uncoupled-state reflection,
                       in [0, 1]. The physical value is sqrt(r_down/r_up)
                       ~= 0.208; the default is calibrated so the heralded
                       spin-photon fidelity is 0.9445 at n_m = 0.002.
    p_mw:              dephasing probability per microwave pi pulse
                       (ohmic-heating proxy, calibrated against the
                       observed error rate at the N = 124 operating point)
    p_scatter_dephase: dephasing probability per undetected scattered
                       photon; 0.5 means full dephasing (worst case)
    f_readout:         single-shot readout fidelity
    f_init:            spin initialization fidelity
    eta_detect:        overall heralding efficiency; photons that scatter
                       without being detected occur at rate (1 - eta_detect)
    """

    eps_leak: float = 0.24114
    p_mw: float = 0.0011
    p_scatter_dephase: float = 0.5
    f_readout: float = 0.9998
    f_init: float = 0.998
    eta_detect: float = 0.423

    def __post_init__(self) -> None:
        # eps_leak is a ratio of reflection amplitudes, sqrt(r_down/r_up) <= 1.
        for name in ("eps_leak", "p_mw", "p_scatter_dephase", "f_readout", "f_init", "eta_detect"):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")

    @classmethod
    def ideal(cls) -> "NoiseParams":
        """Noise-free node with unit efficiency."""
        return cls(
            eps_leak=0.0,
            p_mw=0.0,
            p_scatter_dephase=0.0,
            f_readout=1.0,
            f_init=1.0,
            eta_detect=1.0,
        )


class SpinState:
    """2x2 density matrix [[a, b], [c, d]] of the memory qubit over {up, down}.

    The maps read and write the four entries without building an array.
    """

    __slots__ = ("_entries",)

    def __init__(self, rho: np.ndarray, validate: bool = True):
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (2, 2):
            raise NonPhysicalStateError(f"density matrix must be 2x2, got {rho.shape}")
        (a, b), (c, d) = rho.tolist()
        if validate:
            _check_physical(a, b, c, d)
        self._entries = (a, b, c, d)

    @classmethod
    def _from_entries(cls, a: complex, b: complex, c: complex, d: complex) -> "SpinState":
        state = object.__new__(cls)
        state._entries = (a, b, c, d)
        return state

    @property
    def rho(self) -> np.ndarray:
        a, b, c, d = self._entries
        return np.array([[a, b], [c, d]], dtype=complex)

    def bloch_vector(self) -> tuple[float, float, float]:
        a, _, c, d = self._entries
        return (2.0 * c.real, 2.0 * c.imag, (a - d).real)

    def __repr__(self) -> str:
        x, y, z = self.bloch_vector()
        return f"SpinState(bloch=({x:+.4f}, {y:+.4f}, {z:+.4f}))"


def _check_physical(a: complex, b: complex, c: complex, d: complex) -> None:
    # Closed form on the four entries. Hermiticity uses the tolerance of
    # np.allclose(rho, rho^H, atol=1e-9) (rtol 1e-5), and the smaller
    # eigenvalue reads the lower triangle, as np.linalg.eigvalsh does. A nan
    # entry fails the Hermiticity comparisons and is rejected there.
    hermitian = (
        2.0 * abs(a.imag) <= 1e-9 + 1e-5 * abs(a)
        and 2.0 * abs(d.imag) <= 1e-9 + 1e-5 * abs(d)
        and abs(b - c.conjugate()) <= 1e-9 + 1e-5 * min(abs(b), abs(c))
    )
    if not hermitian:
        raise NonPhysicalStateError("density matrix is not Hermitian")
    trace = a + d
    if abs(trace.real - 1.0) > 1e-9 or abs(trace.imag) > 1e-9:
        raise NonPhysicalStateError(f"trace must be 1, got {trace}")
    smallest = (a.real + d.real - math.hypot(a.real - d.real, 2.0 * abs(c))) / 2.0
    if smallest < -1e-9:
        raise NonPhysicalStateError(f"negative eigenvalue {smallest}")


def prepare_superposition(f_init: float = 1.0) -> SpinState:
    """Initialization followed by the pi/2 pulse that starts a memory cycle.

    For perfect initialization this is the pure +X state (|up>+|down>)/sqrt(2).
    Imperfect initialization, the mixture f |down><down| + (1-f) |up><up|,
    leaves a shortened Bloch vector (2f-1, 0, 0).
    """
    if not 0 <= f_init <= 1:
        raise ValueError(f"f_init must lie in [0, 1], got {f_init}")
    coherence = complex(0.5 * (2.0 * f_init - 1.0))
    return SpinState._from_entries(0.5 + 0j, coherence, coherence, 0.5 + 0j)


def _herald_factors(phase: float, m: int, eps_leak: float) -> tuple[complex, complex]:
    """Diagonal (k_up, k_down) of the Kraus operator K_m."""
    if m not in (1, -1):
        raise ValueError(f"herald outcome must be +1 or -1, got {m}")
    e = m * complex(math.cos(phase), math.sin(phase))
    return 1.0 + eps_leak * e, e + eps_leak


def apply_herald(spin: SpinState, phase: float, m: int, eps_leak: float) -> SpinState:
    """Post-selected heralded map K_m rho K_m^H / tr(.) for a known outcome m."""
    k_up, k_down = _herald_factors(phase, m, eps_leak)
    a, b, c, d = spin._entries
    up = abs(k_up) ** 2 * a
    down = abs(k_down) ** 2 * d
    norm = (up + down).real
    if norm <= 0:
        raise NonPhysicalStateError("herald outcome has zero probability")
    cross = k_up * k_down.conjugate()
    return SpinState._from_entries(
        up / norm, cross * b / norm, cross.conjugate() * c / norm, down / norm
    )


def herald_probability(spin: SpinState, phase: float, m: int, eps_leak: float) -> float:
    """Born probability of detector outcome m, conditioned on a herald."""
    k_up, k_down = _herald_factors(phase, m, eps_leak)
    a, _, _, d = spin._entries
    # Normalize over the two outcomes; the diagonal Kraus pair sums to
    # 2 (1 + eps^2) times the identity on the populations.
    return (abs(k_up) ** 2 * a + abs(k_down) ** 2 * d).real / (2.0 * (1.0 + eps_leak**2))


def reflect_and_herald(
    spin: SpinState,
    qubit: TimeBinQubit,
    noise: NoiseParams,
    rng: np.random.Generator,
) -> tuple[int, SpinState]:
    """Reflect one photonic qubit off the node and detect it.

    Samples the detector outcome m = +-1 from the Born probabilities and
    returns it with the heralded spin state. With eps_leak = 0 and the spin prepared in
    (|up>+|down>)/sqrt(2), the result is exactly
    (|up> + m exp(i phi) |down>)/sqrt(2).
    """
    _check_physical(*spin._entries)
    p_plus = herald_probability(spin, qubit.phase, +1, noise.eps_leak)
    m = 1 if rng.random() < p_plus else -1
    return m, apply_herald(spin, qubit.phase, m, noise.eps_leak)


def apply_pi_pulse(spin: SpinState, p_mw: float) -> SpinState:
    """Noisy microwave pi pulse: X rho X, then a phase flip with probability p_mw."""
    if not 0 <= p_mw <= 1:
        raise ValueError(f"pi-pulse dephasing probability must lie in [0, 1], got {p_mw}")
    q = 1.0 - 2.0 * p_mw
    a, b, c, d = spin._entries
    return SpinState._from_entries(d, q * c, q * b, a)


def apply_dephasing(spin: SpinState, p: float) -> SpinState:
    """Phase-flip channel rho -> (1-p) rho + p Z rho Z."""
    if not 0 <= p <= 1:
        raise ValueError(f"dephasing probability must lie in [0, 1], got {p}")
    q = 1.0 - 2.0 * p
    a, b, c, d = spin._entries
    return SpinState._from_entries(a, q * b, q * c, d)


def measure_x(
    spin: SpinState, f_readout: float, rng: np.random.Generator
) -> int:
    """Projective X-basis readout with a classical bit-flip error.

    The outcome is sampled from tr(rho P_+x) and then flipped with
    probability 1 - f_readout.
    """
    if not 0 <= f_readout <= 1:
        raise ValueError(f"f_readout must lie in [0, 1], got {f_readout}")
    p_plus = 0.5 + spin._entries[1].real
    m = 1 if rng.random() < p_plus else -1
    if rng.random() < 1.0 - f_readout:
        m = -m
    return m


def spin_photon_fidelity(noise: NoiseParams, n_m: float) -> float:
    """Heralded spin-photon entangled-state fidelity versus photon load.

    Two effects degrade the Bell-state overlap: the amplitude leakage of
    the uncoupled spin state, contributing a factor 1/(1 + eps^2), and
    the chance that an additional photon reached the cavity without being
    detected. Undetected scatters are Poisson with mean
    lam = n_m * (1 - eta_detect) and each dephases the spin with
    probability p_scatter_dephase, attenuating the coherence by
    exp(-2 * p_scatter_dephase * lam). The fidelity is

        F = (1 + exp(-2 p lam)) / (2 (1 + eps^2)),

    monotone non-increasing in both n_m and eps_leak.
    """
    if n_m < 0:
        raise ValueError(f"n_m must be non-negative, got {n_m}")
    lam = n_m * (1.0 - noise.eta_detect)
    coherence = math.exp(-2.0 * noise.p_scatter_dephase * lam)
    return (1.0 + coherence) / (2.0 * (1.0 + noise.eps_leak**2))
