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
the outcome's probability P(m) = |k_up|^2 / (2 (1 + eps^2)) does not
depend on the state (the two outcomes' weights sum to 2 (1 + eps^2)), and
the herald keeps the populations and turns b by the unit phase g(m) of
h(m) = k_up conj(k_down) / (2 (1 + eps^2)) = P(m) g(m). Both depend on the
photon phase and the outcome alone. `herald_tables` is the one place that
forms them, once per phase: `reflect_and_herald` picks m and turns b by
h / |h|, and the fast engine's Born kernel reads P and h.

The other maps of a cycle are applied by `bsm.run_memory_cycles`
between the reads of b: a phase flip with probability p scales b by
1 - 2p, and each microwave pi pulse that closes a free-precession window
is the bit flip X rho X, b -> conj(b), followed by a phase flip with the
pulse's dephasing probability p_mw. The X readout gives +1 with
probability 1/2 + Re(b). Herald and readout are elementwise: phases and
probabilities may be scalars or arrays of the lanes' shape.
`reflect_and_herald` checks positivity at every herald. It takes one
uniform per lane, which its caller draws; `measure_x` takes a numpy
Generator and draws two uniforms per lane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NonPhysicalStateError(ValueError):
    """Raised when a spin state at a herald is not positive (|b| > 1/2)."""


@dataclass(frozen=True)
class NoiseParams:
    """Calibrated error model of the memory node.

    eps_leak:          amplitude leakage of the uncoupled-state reflection,
                       in [0, 1]. The physical value is sqrt(r_down/r_up)
                       ~= 0.208; the default is calibrated so the Y-basis
                       fidelity of the heralded spin (`herald_tables` and the
                       N = 124 cycle's scatters) is 0.9445 at n_m = 0.002.
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

    eps_leak: float = 0.24123
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


def herald_tables(phase, eps_leak: float) -> tuple:
    """The Born probabilities P(m) and amplitudes h(m) = P(m) g(m) of a herald.

    Returns two arrays with the shape of `phase` and a new last axis for
    m = +1, -1: P(m) = (1 + eps^2 + 2 eps m cos(phi)) / (2 (1 + eps^2)),
    and h(m) = k_up conj(k_down) / (2 (1 + eps^2)), whose phase is the unit
    turn g(m) of b and whose modulus is P(m). h is kept in product form:
    expanded into a sum, its terms cancel near an outcome of probability 0
    and its phase loses bits. At eps_leak = 1 the phases 0 and pi each have
    an outcome of probability 0, which is never drawn.
    """
    one = 1.0 + eps_leak * eps_leak
    e = np.array([1.0, -1.0]) * np.exp(1j * np.expand_dims(phase, -1))
    probs = (one + 2.0 * eps_leak * e.real) / (2.0 * one)
    return probs, (1.0 + eps_leak * e) * (e + eps_leak).conjugate() / (2.0 * one)


def reflect_and_herald(b, probs, amps, u) -> tuple:
    """Reflect one photonic qubit off the node and detect it.

    `probs` and `amps` are what `herald_tables` gives for the photon
    phases, and `u` holds one uniform in [0, 1) per lane. Checks that the
    state is positive, takes the detector outcome m = +-1, which is +1
    where u < probs[..., 0], and returns it with the heralded coherence:
    b turned by h / |h| of that outcome. An outcome of probability 0 is
    never taken. With eps_leak = 0 and the spin prepared in
    (|up>+|down>)/sqrt(2), the result is exactly
    (|up> + m exp(i phi) |down>)/sqrt(2).
    """
    smallest = 0.5 - abs(b)
    physical = smallest >= -1e-9  # a nan lane fails too
    if not physical.all():
        raise NonPhysicalStateError(f"negative eigenvalue {np.extract(~physical, smallest)[0]}")
    minus = u >= probs[..., 0]
    h = np.where(minus, amps[..., 1], amps[..., 0])
    return np.where(minus, -1, 1), h / abs(h) * b


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

