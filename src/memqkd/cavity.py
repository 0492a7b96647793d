"""Spin-dependent cavity reflection and the heralding-efficiency budget.

The memory node is a single spin coupled to a one-sided nanocavity that is
critically coupled to its output waveguide. With the spin in the coupled
state the atom pulls the system far from critical coupling, so resonant
probe light is almost fully reflected; with the spin uncoupled the bare
cavity absorbs nearly everything. That contrast is what makes the node a
spin-controlled mirror.

All rates (g, kappa, gamma, detunings) are in GHz; detunings are signed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CavityParams:
    """Physical constants of the atom-cavity system.

    Defaults are the calibrated device values: a single-photon Rabi
    frequency of 8.38 GHz, total cavity linewidth 21.6 GHz with the
    waveguide rate at critical coupling (kappa/2), and a 0.123 GHz
    atomic linewidth.
    """

    g: float = 8.38          # single-photon Rabi frequency, GHz
    kappa: float = 21.6      # total cavity linewidth, GHz
    kappa_wg: float = 10.8   # cavity-waveguide coupling rate, GHz
    gamma: float = 0.123     # atomic linewidth, GHz
    delta_c: float = 0.0     # probe-cavity detuning, GHz

    def __post_init__(self) -> None:
        for name in ("g", "kappa", "kappa_wg", "gamma", "delta_c"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.g < 0:
            raise ValueError(f"g must be non-negative, got {self.g}")
        if self.kappa <= 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if not 0 <= self.kappa_wg <= self.kappa:
            raise ValueError(
                f"kappa_wg must lie in [0, kappa], got {self.kappa_wg}"
            )
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")

    def uncoupled(self) -> "CavityParams":
        """Same cavity with the emitter decoupled (g = 0)."""
        return CavityParams(0.0, self.kappa, self.kappa_wg, self.gamma, self.delta_c)


@dataclass(frozen=True)
class SpinReflectances:
    """Measured power reflectivities of the device for the two spin states.

    Defaults are the calibrated values: the coupled state reflects 94.4%
    of incident photons, the uncoupled state only 4.1%.
    """

    r_up: float = 0.944
    r_down: float = 0.041

    def __post_init__(self) -> None:
        if not 0 <= self.r_down <= self.r_up <= 1:
            raise ValueError(
                "reflectances must satisfy 0 <= r_down <= r_up <= 1, "
                f"got r_up={self.r_up}, r_down={self.r_down}"
            )

    def leakage_amplitude(self) -> float:
        """Amplitude ratio sqrt(r_down / r_up) of the unwanted reflection."""
        if self.r_up == 0:
            return 0.0
        return math.sqrt(self.r_down / self.r_up)


@dataclass(frozen=True)
class EfficiencyBudget:
    """Multiplicative budget for the overall heralding efficiency.

    eta_sp: average device reflectivity over the two spin states
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


def reflection_coefficient(params: CavityParams) -> complex:
    """Complex reflection amplitude of the single-sided atom-cavity system.

    For a resonant atom-cavity system probed at detuning delta_c:

        r = (i*d + g^2/(i*d + gamma/2) - kappa_wg + kappa/2)
            / (i*d + g^2/(i*d + gamma/2) + kappa/2)

    The magnitude never exceeds 1 for parameters satisfying the
    CavityParams invariants (passive device).
    """
    d = 1j * params.delta_c
    atom = params.g**2 / (d + params.gamma / 2.0)
    return (d + atom - params.kappa_wg + params.kappa / 2.0) / (
        d + atom + params.kappa / 2.0
    )


def reflectivity(params: CavityParams) -> float:
    """Power reflectivity |r|^2 at the configured detuning."""
    return abs(reflection_coefficient(params)) ** 2


def cooperativity(params: CavityParams) -> float:
    """Atom-cavity cooperativity C = 4 g^2 / (kappa * gamma)."""
    return 4.0 * params.g**2 / (params.kappa * params.gamma)


def model_reflectances(params: CavityParams) -> SpinReflectances:
    """Reflectances predicted by the ideal model.

    The coupled spin state uses the full g; the uncoupled state is the
    bare cavity (g = 0). A critically coupled bare cavity gives exactly
    zero on resonance, so the measured few-percent residual must be
    supplied as a SpinReflectances override when it matters.
    """
    return SpinReflectances(
        r_up=reflectivity(params),
        r_down=reflectivity(params.uncoupled()),
    )


def average_reflectivity(refl: SpinReflectances) -> float:
    """Mean device reflectivity (r_up + r_down) / 2, the eta_sp factor."""
    return (refl.r_up + refl.r_down) / 2.0


def total_heralding_efficiency(budget: EfficiencyBudget) -> float:
    """Overall heralding efficiency eta = eta_sp * eta_c * eta_f * eta_qe."""
    return budget.eta_sp * budget.eta_c * budget.eta_f * budget.eta_qe
