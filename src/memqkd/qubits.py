"""Spin memory and time-bin photonic qubits as completely positive maps.

The memory qubit lives in the basis {up, down}. A memory cycle keeps it
on the equator of the Bloch sphere, so its density matrix is
[[1/2, b], [conj(b), 1/2]] and the complex coherence b is the whole
state: positive exactly when |b| <= 1/2. The population difference z
is zero at every step of a cycle and is not stored. The cycle starts at
z = 0 (`prepare_superposition`), a pi pulse maps z to -z, and dephasing
and heralds leave z alone. A spin is a complex numpy array, one element
per lane, so one call maps a whole block of spins. Photonic qubits are
equal-amplitude superpositions of an early and a late time bin,
(|e> + exp(i*phi)|l>)/sqrt(2); `bsm.LABEL_PHASE` holds the eight phases
phi the parties send.

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
keeps the populations and turns b by the unit phase
k_up conj(k_down) / |k_up|^2.

Each microwave pi pulse that closes a free-precession window is one
noisy map: the bit flip X rho X, b -> conj(b), then a phase flip with
the dephasing probability p_mw of the pulse, which scales b by
1 - 2 p_mw. The X readout gives +1 with probability 1/2 + Re(b). Maps
and readout are elementwise: phases, outcomes and probabilities may be
scalars or arrays of the lanes' shape. `reflect_and_herald` checks
positivity at every herald. The functions that sample take a numpy
Generator and draw one uniform per lane for each random outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NonPhysicalStateError(ValueError):
    """Raised when a spin state is not positive (|b| > 1/2) or a herald
    outcome has zero probability."""


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


def prepare_superposition(f_init: float = 1.0, lanes: tuple[int, ...] = ()) -> np.ndarray:
    """Initialization followed by the pi/2 pulse that starts a memory cycle.

    For perfect initialization this is the pure +X state (|up>+|down>)/sqrt(2),
    b = 1/2. Imperfect initialization, the mixture f |down><down| +
    (1-f) |up><up|, leaves a shortened Bloch vector (2f-1, 0, 0), so
    b = (2f - 1)/2. `lanes` is the shape of the array, () for one spin.
    """
    if not 0 <= f_init <= 1:
        raise ValueError(f"f_init must lie in [0, 1], got {f_init}")
    return np.full(lanes, complex(0.5 * (2.0 * f_init - 1.0)))


def _check_outcome(m) -> None:
    if not np.logical_or(m == 1, m == -1).all():
        raise ValueError(f"herald outcome must be +1 or -1, got {m}")


def apply_herald(b, phase, m, eps_leak: float):
    """Post-selected heralded map K_m rho K_m^H / tr(.) for a known outcome m."""
    _check_outcome(m)
    e = m * np.exp(1j * phase)
    turn = (1.0 + eps_leak * e) * (e + eps_leak).conjugate()
    norm = abs(turn)  # |k_up conj(k_down)| = |k_up|^2
    if not (norm > 0).all():
        raise NonPhysicalStateError("herald outcome has zero probability")
    return turn / norm * b


def herald_probability(phase, m, eps_leak: float):
    """Born probability of detector outcome m, conditioned on a herald.

    It is |k_up|^2 / (2 (1 + eps^2)) for every state: |k_up| = |k_down|,
    and the weights of the two outcomes sum to 2 (1 + eps^2).
    """
    _check_outcome(m)
    return 0.5 + eps_leak * m * np.cos(phase) / (1.0 + eps_leak**2)


def reflect_and_herald(b, phase, noise: NoiseParams, rng: np.random.Generator) -> tuple:
    """Reflect one photonic qubit of the given phase off the node and detect it.

    Checks that the state is positive, samples the detector outcome
    m = +-1 from the Born probability and returns it with the heralded
    coherence. With eps_leak = 0 and the spin prepared in
    (|up>+|down>)/sqrt(2), the result is exactly
    (|up> + m exp(i phi) |down>)/sqrt(2).
    """
    smallest = (1.0 - 2.0 * abs(b)) / 2.0
    bad = np.logical_not(smallest >= -1e-9)  # a nan lane fails too
    if bad.any():
        raise NonPhysicalStateError(f"negative eigenvalue {np.extract(bad, smallest)[0]}")
    p_plus = herald_probability(phase, 1, noise.eps_leak)
    m = 1 - 2 * (rng.random(np.broadcast(p_plus, b).shape) >= p_plus)
    return m, apply_herald(b, phase, m, noise.eps_leak)


def _in_unit_interval(name: str, p) -> None:
    if not np.logical_and(0 <= p, p <= 1).all():
        raise ValueError(f"{name} must lie in [0, 1], got {p}")


def apply_pi_pulse(b, p_mw):
    """Noisy microwave pi pulse: X rho X, then a phase flip with probability p_mw."""
    _in_unit_interval("pi-pulse dephasing probability", p_mw)
    return (1.0 - 2.0 * p_mw) * np.conjugate(b)


def apply_dephasing(b, p):
    """Phase-flip channel rho -> (1-p) rho + p Z rho Z."""
    _in_unit_interval("dephasing probability", p)
    return (1.0 - 2.0 * p) * b


def measure_x(b, f_readout: float, rng: np.random.Generator):
    """Projective X-basis readout with a classical bit-flip error.

    The outcome is sampled from tr(rho P_+x) = 1/2 + Re(b) and then
    flipped with probability 1 - f_readout.
    """
    if not 0 <= f_readout <= 1:
        raise ValueError(f"f_readout must lie in [0, 1], got {f_readout}")
    p_plus = 0.5 + np.real(b)
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
