"""The heralded spin-photon fidelity that the engines' own maps give.

A photon of phase phi heralds the spin prepared in (|up>+|down>)/sqrt(2)
with outcome m, which should leave it in (|up> + m exp(i phi)|down>)/sqrt(2).
The herald turns the coherence b = 1/2 by the unit phase of h(m), with
(P, h) = `qubits.herald_tables(phi, eps_leak)`. The cycle's other N - 1
slots each scatter an undetected photon with the engines' probability
r = `ChannelConfig.scatter_probability`, and each scatter is a phase flip
with p_scatter_dephase. The flips commute with the herald and together
scale b by D = (1 - 2 p_scatter_dephase r)^(N - 1). The overlap of the
state with the ideal one, weighted by P(m) and summed over m, is

    F(phi) = 1/2 + (D/2) sum_m Re(h(m) m exp(i phi))
           = 1/2 + D (1 + eps^2 cos(2 phi)) / (2 (1 + eps^2)).

Initialization, readout and the pi pulses' p_mw are left out. The
leakage costs nothing on the X basis (phi = 0, pi) and the most on the
Y basis (phi = +-pi/2), where F = 1/(1 + eps^2) at D = 1.
"""

import numpy as np

from memqkd.bsm import LABEL_PHASE, ChannelConfig
from memqkd.qubits import herald_tables

Y_PHASE = LABEL_PHASE[2]


def heralded_fidelity(noise, n_qubits: int, n_m: float, phase=Y_PHASE):
    """F(phase) of the module docstring at photon load n_m per cycle of n_qubits slots."""
    r = ChannelConfig.from_mean_photons(n_m, n_qubits).scatter_probability(noise.eta_detect)
    deph = (1.0 - 2.0 * noise.p_scatter_dephase * r) ** (n_qubits - 1)
    _, amps = herald_tables(phase, noise.eps_leak)
    e = np.array([1.0, -1.0]) * np.exp(1j * np.expand_dims(phase, -1))
    return 0.5 + deph / 2.0 * (amps * e).real.sum(axis=-1)
