"""Cooperativity and heralding-efficiency budget of the calibrated device.

The memory node is a single spin coupled to a one-sided nanocavity. These
two figures summarise the device; no engine or CLI path reads them, and
the simulated heralding efficiency is `[noise] eta_detect`.
"""

from __future__ import annotations

import math

# (g, kappa, gamma) in GHz: single-photon Rabi frequency, total cavity
# linewidth and atomic linewidth.
DEVICE_RATES_GHZ = (8.38, 21.6, 0.123)
# (eta_sp, eta_c, eta_f, eta_qe): the device reflectivity, the mean of the
# measured r_up = 0.944 and r_down = 0.041; tapered-fiber to waveguide
# coupling; fiber network and interferometer transmission; detector
# quantum efficiency.
DEVICE_EFFICIENCIES = (0.4925, 0.930, 0.934, 0.99)


def cooperativity(g: float, kappa: float, gamma: float) -> float:
    """Atom-cavity cooperativity C = 4 g^2 / (kappa * gamma)."""
    if not (0 <= g < math.inf and 0 < kappa < math.inf and 0 < gamma < math.inf):
        raise ValueError(f"need finite g >= 0, kappa > 0 and gamma > 0, got {g}, {kappa}, {gamma}")
    return 4.0 * g**2 / (kappa * gamma)


def total_heralding_efficiency(eta_sp: float, eta_c: float, eta_f: float, eta_qe: float) -> float:
    """Overall heralding efficiency eta = eta_sp * eta_c * eta_f * eta_qe."""
    factors = (eta_sp, eta_c, eta_f, eta_qe)
    if not all(0 <= factor <= 1 for factor in factors):
        raise ValueError(f"each efficiency must lie in [0, 1], got {factors}")
    return math.prod(factors)
