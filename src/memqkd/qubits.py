"""Spin memory and time-bin photonic qubits as completely positive maps.

The memory qubit lives in the basis {up, down}. Its density matrix
[[(1 + z)/2, b], [conj(b), (1 - z)/2]] is fixed by the Bloch pair of the
real population difference z and the complex coherence b, so it is
Hermitian with unit trace by construction and only positivity,
z^2 + 4|b|^2 <= 1, can fail. `SpinState` stores z and b as numpy arrays
of one shape, one element per lane, so one call maps a whole block of
spins. Photonic qubits are equal-amplitude superpositions of an early
and a late time bin, (|e> + exp(i*phi)|l>)/sqrt(2); `bsm.LABEL_PHASE`
holds the eight phases phi the parties send.

Reflecting a photon off the node and detecting it behind the time-delay
interferometer applies a heralded Kraus map to the spin,

    K_m = |up><up| + m exp(i phi) |down><down|
          + eps * (|down><down| + m exp(i phi) |up><up|),

where m = +/-1 is the detector that fired and eps is the amplitude
leakage sqrt(r_down/r_up) from the residual reflection of the uncoupled
spin state. With eps = 0 this teleports the photon phase onto the spin.
K_m is diagonal, k_up = 1 + eps e and k_down = e + eps with e = m exp(i phi),
and |e| = 1 gives |k_up|^2 = |k_down|^2 = 1 + eps^2 + 2 eps m cos(phi). So
the outcome's probability does not depend on the state, and the herald
leaves z alone and turns b by the unit phase k_up conj(k_down) / |k_up|^2.

Each microwave pi pulse that closes a free-precession window is one
noisy map: the bit flip X rho X, (z, b) -> (-z, conj(b)), then a phase
flip with the dephasing probability p_mw of the pulse, which scales b by
1 - 2 p_mw. The X readout gives +1 with probability 1/2 + Re(b). Maps and
readout are elementwise: phases, outcomes and probabilities may be
scalars or arrays of the lanes' shape. `SpinState(rho)` checks that its
matrices are physical, and `reflect_and_herald` checks positivity at
every herald. The functions that sample take a numpy Generator and draw
one uniform per lane for each random outcome.
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
    """Memory-qubit states as Bloch pairs: real z and complex b arrays.

    `SpinState(rho)` checks the matrices and keeps z = Re(rho_upup -
    rho_downdown) and b = rho_updown. A single state has 0-d arrays;
    `spin[rows]` is the state of those lanes.
    """

    __slots__ = ("z", "b")

    def __init__(self, rho: np.ndarray):
        rho = np.array(rho, dtype=complex)
        if rho.shape[-2:] != (2, 2):
            raise NonPhysicalStateError(f"density matrix must be 2x2, got {rho.shape}")
        a, b, c, d = rho[..., 0, 0], rho[..., 0, 1], rho[..., 1, 0], rho[..., 1, 1]
        _check_physical(a, b, c, d)
        self.z, self.b = (a - d).real, b

    @classmethod
    def _from_pair(cls, z, b) -> "SpinState":
        state = object.__new__(cls)
        state.z, state.b = z, b
        return state

    def __getitem__(self, rows) -> "SpinState":
        return SpinState._from_pair(self.z[rows], self.b[rows])

    @property
    def rho(self) -> np.ndarray:
        """The matrices as a fresh array of shape (lanes..., 2, 2)."""
        z, b = self.z, self.b
        rows = [[(1.0 + z) / 2.0, b], [b.conjugate(), (1.0 - z) / 2.0]]
        return np.moveaxis(np.array(rows, dtype=complex), (0, 1), (-2, -1))

    def bloch_vector(self) -> tuple:
        return (2.0 * self.b.real, -2.0 * self.b.imag, self.z)

    def __repr__(self) -> str:
        return f"SpinState(bloch={np.round(self.bloch_vector(), 4).tolist()})"


def _first(bad, values):
    """The value of the first lane where `bad` holds."""
    return np.extract(bad, values)[0]


def _check_eigenvalue(smallest) -> None:
    # A nan lane fails too.
    bad = ~(smallest >= -1e-9)
    if bad.any():
        raise NonPhysicalStateError(f"negative eigenvalue {_first(bad, smallest)}")


def _check_physical(a, b, c, d) -> None:
    # Closed form on the four matrix entries, lane by lane; the first lane
    # that fails a test raises with its value. Hermiticity is the
    # elementwise test of np.allclose(rho, rho^H, atol=1e-9) (rtol 1e-5), and
    # the smaller eigenvalue reads the lower triangle, as np.linalg.eigvalsh
    # does. A nan entry fails the Hermiticity comparison and is rejected there.
    entries = np.array([a, b, c, d])
    adjoint = np.array([a, c, b, d]).conjugate()
    if not (abs(entries - adjoint) <= 1e-9 + 1e-5 * abs(adjoint)).all():
        raise NonPhysicalStateError("density matrix is not Hermitian")
    trace = a + d
    bad = (abs(trace.real - 1.0) > 1e-9) | (abs(trace.imag) > 1e-9)
    if bad.any():
        raise NonPhysicalStateError(f"trace must be 1, got {_first(bad, trace)}")
    _check_eigenvalue((a.real + d.real - np.hypot(a.real - d.real, 2.0 * abs(c))) / 2.0)


def prepare_superposition(f_init: float = 1.0, lanes: tuple[int, ...] = ()) -> SpinState:
    """Initialization followed by the pi/2 pulse that starts a memory cycle.

    For perfect initialization this is the pure +X state (|up>+|down>)/sqrt(2).
    Imperfect initialization, the mixture f |down><down| + (1-f) |up><up|,
    leaves a shortened Bloch vector (2f-1, 0, 0). `lanes` is the shape of
    the pair's arrays, () for a single state.
    """
    if not 0 <= f_init <= 1:
        raise ValueError(f"f_init must lie in [0, 1], got {f_init}")
    coherence = complex(0.5 * (2.0 * f_init - 1.0))
    return SpinState._from_pair(np.zeros(lanes), np.full(lanes, coherence))


def _check_outcome(m) -> None:
    if not np.logical_or(m == 1, m == -1).all():
        raise ValueError(f"herald outcome must be +1 or -1, got {m}")


def apply_herald(spin: SpinState, phase, m, eps_leak: float) -> SpinState:
    """Post-selected heralded map K_m rho K_m^H / tr(.) for a known outcome m."""
    _check_outcome(m)
    e = m * np.exp(1j * phase)
    turn = (1.0 + eps_leak * e) * (e + eps_leak).conjugate()
    norm = abs(turn)  # |k_up conj(k_down)| = |k_up|^2
    if not (norm > 0).all():
        raise NonPhysicalStateError("herald outcome has zero probability")
    return SpinState._from_pair(spin.z, turn / norm * spin.b)


def herald_probability(phase, m, eps_leak: float):
    """Born probability of detector outcome m, conditioned on a herald.

    It is |k_up|^2 / (2 (1 + eps^2)) for every state: |k_up| = |k_down|,
    and the weights of the two outcomes sum to 2 (1 + eps^2).
    """
    _check_outcome(m)
    return 0.5 + eps_leak * m * np.cos(phase) / (1.0 + eps_leak**2)


def reflect_and_herald(
    spin: SpinState, phase, noise: NoiseParams, rng: np.random.Generator
) -> tuple:
    """Reflect one photonic qubit of the given phase off the node and detect it.

    Checks that the state is positive, samples the detector outcome
    m = +-1 from the Born probability and returns it with the heralded
    spin state. With eps_leak = 0 and the spin prepared in
    (|up>+|down>)/sqrt(2), the result is exactly
    (|up> + m exp(i phi) |down>)/sqrt(2).
    """
    _check_eigenvalue((1.0 - np.hypot(spin.z, 2.0 * abs(spin.b))) / 2.0)
    p_plus = herald_probability(phase, 1, noise.eps_leak)
    m = 1 - 2 * (rng.random(np.broadcast(p_plus, spin.z).shape) >= p_plus)
    return m, apply_herald(spin, phase, m, noise.eps_leak)


def _in_unit_interval(name: str, p) -> None:
    if not np.logical_and(0 <= p, p <= 1).all():
        raise ValueError(f"{name} must lie in [0, 1], got {p}")


def apply_pi_pulse(spin: SpinState, p_mw) -> SpinState:
    """Noisy microwave pi pulse: X rho X, then a phase flip with probability p_mw."""
    _in_unit_interval("pi-pulse dephasing probability", p_mw)
    return SpinState._from_pair(-spin.z, (1.0 - 2.0 * p_mw) * spin.b.conjugate())


def apply_dephasing(spin: SpinState, p) -> SpinState:
    """Phase-flip channel rho -> (1-p) rho + p Z rho Z."""
    _in_unit_interval("dephasing probability", p)
    return SpinState._from_pair(spin.z, (1.0 - 2.0 * p) * spin.b)


def measure_x(spin: SpinState, f_readout: float, rng: np.random.Generator):
    """Projective X-basis readout with a classical bit-flip error.

    The outcome is sampled from tr(rho P_+x) = 1/2 + Re(b) and then
    flipped with probability 1 - f_readout.
    """
    if not 0 <= f_readout <= 1:
        raise ValueError(f"f_readout must lie in [0, 1], got {f_readout}")
    p_plus = 0.5 + spin.b.real
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
