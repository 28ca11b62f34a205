"""Hard-wall eigenstates in a screw-dislocation background and their Shannon
information entropies, with a verification of the BBM uncertainty bound."""

from .eigen import Eigenstate, QuantumNumbers, SystemParams, solve
from .entropy import EntropyReport, report
from .errors import ConvergenceError, DomainError
from .momentum import MomentumProfile, build_profile

__version__ = "0.1.0"

__all__ = [
    "SystemParams",
    "QuantumNumbers",
    "solve",
    "Eigenstate",
    "build_profile",
    "MomentumProfile",
    "report",
    "EntropyReport",
    "DomainError",
    "ConvergenceError",
    "__version__",
]
