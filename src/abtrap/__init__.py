"""Hard-wall eigenstates in a screw-dislocation background and their Shannon
information entropies, with a verification of the BBM uncertainty bound."""

from .eigen import Eigenstate, QuantumNumbers, SystemParams, solve
from .entropy import EntropyReport, report, shannon_momentum, shannon_position
from .errors import ConvergenceError, DomainError, EvaluationError
from .momentum import MomentumProfile, build_profile
from .specfun import bessel_j, bessel_zero

__version__ = "0.1.0"

__all__ = [
    "Eigenstate",
    "QuantumNumbers",
    "SystemParams",
    "solve",
    "EntropyReport",
    "report",
    "shannon_momentum",
    "shannon_position",
    "ConvergenceError",
    "DomainError",
    "EvaluationError",
    "MomentumProfile",
    "build_profile",
    "bessel_j",
    "bessel_zero",
    "__version__",
]
