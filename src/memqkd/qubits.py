"""Spin memory and time-bin photonic qubits as completely positive maps.

The memory qubit lives in the basis {up, down} and is described by a 2x2
density matrix. `SpinState` stores its four entries as numpy arrays of
one shape, one element per lane, so a single call maps a whole block of
independent spins; a single state has 0-d entries. Its `rho` property
returns a fresh array built from them, so no state shares memory with an
array a caller holds. Photonic qubits are equal-amplitude superpositions
of an early and a late time bin, (|e> + exp(i*phi)|l>)/sqrt(2), so a
single phase phi fixes the state; `bsm.LABEL_PHASE` holds the eight
phases the parties send.

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
check are elementwise over the entry arrays: phases, outcomes and
probabilities may be scalars or arrays of the lanes' shape. `SpinState(rho)`
and `rho` are the only conversions between entries and matrices.

The functions that sample take a numpy Generator and draw one uniform
per lane for each random outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NonPhysicalStateError(ValueError):
    """Raised when a density matrix violates trace/hermiticity/positivity."""


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
    """2x2 density matrices [[a, b], [c, d]] of the memory qubit over {up, down}.

    The four entries are numpy arrays of one shape, one element per lane;
    a single state has 0-d entries. `spin[rows]` is the state of those
    lanes, and `spin[rows] = other` replaces them without touching any
    array another state holds.
    """

    __slots__ = ("_entries",)

    def __init__(self, rho: np.ndarray):
        rho = np.array(rho, dtype=complex)
        if rho.shape[-2:] != (2, 2):
            raise NonPhysicalStateError(f"density matrix must be 2x2, got {rho.shape}")
        entries = (rho[..., 0, 0], rho[..., 0, 1], rho[..., 1, 0], rho[..., 1, 1])
        _check_physical(*entries)
        self._entries = entries

    @classmethod
    def _from_entries(cls, a, b, c, d) -> "SpinState":
        state = object.__new__(cls)
        state._entries = (a, b, c, d)
        return state

    def __getitem__(self, rows) -> "SpinState":
        return SpinState._from_entries(*(entry[rows] for entry in self._entries))

    def __setitem__(self, rows, other: "SpinState") -> None:
        entries = tuple(entry.copy() for entry in self._entries)
        for entry, value in zip(entries, other._entries):
            entry[rows] = value
        self._entries = entries

    @property
    def rho(self) -> np.ndarray:
        """The matrices as a fresh array of shape (lanes..., 2, 2)."""
        a, b, c, d = self._entries
        return np.moveaxis(np.array([[a, b], [c, d]], dtype=complex), (0, 1), (-2, -1))

    def bloch_vector(self) -> tuple:
        a, _, c, d = self._entries
        return (2.0 * c.real, 2.0 * c.imag, (a - d).real)

    def __repr__(self) -> str:
        return f"SpinState(bloch={np.round(self.bloch_vector(), 4).tolist()})"


def _first(bad, values):
    """The value of the first lane where `bad` holds."""
    return np.extract(bad, values)[0]


def _check_physical(a, b, c, d) -> None:
    # Closed form on the four entries, lane by lane; the first lane that
    # fails a test raises with its value. Hermiticity is the elementwise
    # test of np.allclose(rho, rho^H, atol=1e-9) (rtol 1e-5), and the smaller
    # eigenvalue reads the lower triangle, as np.linalg.eigvalsh does. A nan
    # entry fails the Hermiticity comparison and is rejected there.
    entries = np.array([a, b, c, d])
    adjoint = np.array([a, c, b, d]).conjugate()
    if not (abs(entries - adjoint) <= 1e-9 + 1e-5 * abs(adjoint)).all():
        raise NonPhysicalStateError("density matrix is not Hermitian")
    trace = a + d
    bad = (abs(trace.real - 1.0) > 1e-9) | (abs(trace.imag) > 1e-9)
    if bad.any():
        raise NonPhysicalStateError(f"trace must be 1, got {_first(bad, trace)}")
    smallest = (a.real + d.real - np.hypot(a.real - d.real, 2.0 * abs(c))) / 2.0
    bad = smallest < -1e-9
    if bad.any():
        raise NonPhysicalStateError(f"negative eigenvalue {_first(bad, smallest)}")


def prepare_superposition(f_init: float = 1.0, lanes: tuple[int, ...] = ()) -> SpinState:
    """Initialization followed by the pi/2 pulse that starts a memory cycle.

    For perfect initialization this is the pure +X state (|up>+|down>)/sqrt(2).
    Imperfect initialization, the mixture f |down><down| + (1-f) |up><up|,
    leaves a shortened Bloch vector (2f-1, 0, 0). `lanes` is the shape of
    the entry arrays, () for a single state.
    """
    if not 0 <= f_init <= 1:
        raise ValueError(f"f_init must lie in [0, 1], got {f_init}")
    half = np.full(lanes, 0.5 + 0j)
    coherence = np.full(lanes, complex(0.5 * (2.0 * f_init - 1.0)))
    return SpinState._from_entries(half, coherence, coherence, half)


def _herald_factors(phase, m, eps_leak: float):
    """Diagonal (k_up, k_down) of the Kraus operator K_m."""
    if not np.logical_or(m == 1, m == -1).all():
        raise ValueError(f"herald outcome must be +1 or -1, got {m}")
    e = m * np.exp(1j * phase)
    return 1.0 + eps_leak * e, e + eps_leak


def apply_herald(spin: SpinState, phase, m, eps_leak: float) -> SpinState:
    """Post-selected heralded map K_m rho K_m^H / tr(.) for a known outcome m."""
    k_up, k_down = _herald_factors(phase, m, eps_leak)
    a, b, c, d = spin._entries
    up = abs(k_up) ** 2 * a
    down = abs(k_down) ** 2 * d
    norm = (up + down).real
    if not (norm > 0).all():
        raise NonPhysicalStateError("herald outcome has zero probability")
    cross = k_up * k_down.conjugate() / norm
    return SpinState._from_entries(up / norm, cross * b, cross.conjugate() * c, down / norm)


def herald_probability(spin: SpinState, phase, m, eps_leak: float):
    """Born probability of detector outcome m, conditioned on a herald."""
    k_up, k_down = _herald_factors(phase, m, eps_leak)
    a, _, _, d = spin._entries
    # Normalize over the two outcomes; the diagonal Kraus pair sums to
    # 2 (1 + eps^2) times the identity on the populations.
    return (abs(k_up) ** 2 * a + abs(k_down) ** 2 * d).real / (2.0 * (1.0 + eps_leak**2))


def reflect_and_herald(
    spin: SpinState, phase, noise: NoiseParams, rng: np.random.Generator
) -> tuple:
    """Reflect one photonic qubit of the given phase off the node and detect it.

    Checks that the state is physical, samples the detector outcome
    m = +-1 from the Born probability and returns it with the heralded
    spin state. With eps_leak = 0 and the spin prepared in
    (|up>+|down>)/sqrt(2), the result is exactly
    (|up> + m exp(i phi) |down>)/sqrt(2).
    """
    _check_physical(*spin._entries)
    p_plus = herald_probability(spin, phase, 1, noise.eps_leak)
    m = 1 - 2 * (rng.random(np.shape(p_plus)) >= p_plus)
    return m, apply_herald(spin, phase, m, noise.eps_leak)


def _in_unit_interval(name: str, p) -> None:
    if not np.logical_and(0 <= p, p <= 1).all():
        raise ValueError(f"{name} must lie in [0, 1], got {p}")


def apply_pi_pulse(spin: SpinState, p_mw) -> SpinState:
    """Noisy microwave pi pulse: X rho X, then a phase flip with probability p_mw."""
    _in_unit_interval("pi-pulse dephasing probability", p_mw)
    q = 1.0 - 2.0 * p_mw
    a, b, c, d = spin._entries
    return SpinState._from_entries(d, q * c, q * b, a)


def apply_dephasing(spin: SpinState, p) -> SpinState:
    """Phase-flip channel rho -> (1-p) rho + p Z rho Z."""
    _in_unit_interval("dephasing probability", p)
    q = 1.0 - 2.0 * p
    a, b, c, d = spin._entries
    return SpinState._from_entries(a, q * b, q * c, d)


def measure_x(spin: SpinState, f_readout: float, rng: np.random.Generator):
    """Projective X-basis readout with a classical bit-flip error.

    The outcome is sampled from tr(rho P_+x) and then flipped with
    probability 1 - f_readout.
    """
    if not 0 <= f_readout <= 1:
        raise ValueError(f"f_readout must lie in [0, 1], got {f_readout}")
    p_plus = 0.5 + spin._entries[1].real
    m = 1 - 2 * (rng.random(np.shape(p_plus)) >= p_plus)
    flip = rng.random(np.shape(p_plus)) < 1.0 - f_readout
    return m * (1 - 2 * flip)


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
