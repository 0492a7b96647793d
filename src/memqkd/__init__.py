"""Memory-assisted MDI-QKD: spin-cavity Bell-state node simulator and rates."""

from . import bsm, cavity, config, qubits, rates, session

__version__ = "0.1.0"
