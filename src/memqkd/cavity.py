"""Cooperativity and heralding-efficiency budget of the calibrated device.

The memory node is a single spin coupled to a one-sided nanocavity. These
two figures summarise the device; no engine or CLI path reads them, and
the simulated heralding efficiency is `[noise] eta_detect`.

All rates (g, kappa, gamma) are in GHz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CavityParams:
    """Physical constants of the atom-cavity system.

    Defaults are the calibrated device values: a single-photon Rabi
    frequency of 8.38 GHz, total cavity linewidth 21.6 GHz and a
    0.123 GHz atomic linewidth.
    """

    g: float = 8.38          # single-photon Rabi frequency, GHz
    kappa: float = 21.6      # total cavity linewidth, GHz
    gamma: float = 0.123     # atomic linewidth, GHz

    def __post_init__(self) -> None:
        for name in ("g", "kappa", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.g < 0:
            raise ValueError(f"g must be non-negative, got {self.g}")
        if self.kappa <= 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")


@dataclass(frozen=True)
class EfficiencyBudget:
    """Multiplicative budget for the overall heralding efficiency.

    eta_sp: average device reflectivity over the two spin states, the
            mean of the measured r_up = 0.944 and r_down = 0.041
    eta_c:  tapered-fiber to diamond waveguide coupling
    eta_f:  fiber network and interferometer transmission
    eta_qe: detector quantum efficiency
    """

    eta_sp: float = 0.4925
    eta_c: float = 0.930
    eta_f: float = 0.934
    eta_qe: float = 0.99

    def __post_init__(self) -> None:
        for name in ("eta_sp", "eta_c", "eta_f", "eta_qe"):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")


def cooperativity(params: CavityParams) -> float:
    """Atom-cavity cooperativity C = 4 g^2 / (kappa * gamma)."""
    return 4.0 * params.g**2 / (params.kappa * params.gamma)


def total_heralding_efficiency(budget: EfficiencyBudget) -> float:
    """Overall heralding efficiency eta = eta_sp * eta_c * eta_f * eta_qe."""
    return budget.eta_sp * budget.eta_c * budget.eta_f * budget.eta_qe
