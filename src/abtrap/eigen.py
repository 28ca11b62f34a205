"""Eigenstates of a spinless particle confined by a hard wall at r0 in a
screw-dislocation background (units hbar = c = 1).

The dislocation couples the angular quantum number l to the longitudinal
wavenumber k, shifting the effective Bessel order to nu = |l - beta*k| (an
Aharonov-Bohm-type effect: the defect acts without any local interaction).
The radial eigenfunction is R(r) = a0 J_nu(Theta r / r0) with Theta the
(n+1)-th positive zero of J_nu, and

    E(n, l, k) = (Theta / r0)^2 / (2m) + k^2 / (2m).

The plane wave along z is normalized on a periodic box of length Lz. The
state is solved on the unit cylinder r0 = Lz = 1, in x = r / r0: the box only
rescales it, and the entropies shift by ln(r0^2 Lz) (see the entropy module).
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .specfun import bessel_j, bessel_zero

__all__ = ["SystemParams", "QuantumNumbers", "Eigenstate", "solve"]


def _shown(value) -> str:
    """repr of `value`; an int past the float range by its size, as its digits may pass repr's limit."""
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"
    return repr(value)


def _finite(value, message: str) -> float:
    """`value` as a float; a bool, a non-real or one that is not a finite float raises `message`."""
    if isinstance(value, np.generic):
        value = value.item()  # the Python number a numpy one holds, np.bool_ a bool
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (number and abs(value) <= sys.float_info.max):  # exact for an int, false for nan
        raise DomainError(f"{message}, got {_shown(value)}")
    return float(value)


@dataclass(frozen=True)
class SystemParams:
    """Physical configuration: mass, dislocation strength, wall radius, z box."""

    m: float = 1.0
    beta: float = 0.0
    r0: float = 1.0
    lz: float = 1.0

    def __post_init__(self):
        for name in ("m", "beta", "r0", "lz"):
            value = _finite(getattr(self, name), f"{name} must be a finite number")
            object.__setattr__(self, name, value)
        for name, what in (("m", "mass"), ("r0", "wall radius"), ("lz", "z-box length")):
            if getattr(self, name) <= 0.0:
                raise DomainError(f"{name} ({what}) must be > 0, got {getattr(self, name)}")
        if not (0.0 <= self.beta < 1.0):
            raise DomainError(
                f"beta (dislocation parameter) must obey the constraint 0<beta<1 "
                f"(beta=0 is accepted as the defect-free reference), got {self.beta}"
            )


@dataclass(frozen=True)
class QuantumNumbers:
    """Radial index n >= 0, angular momentum integer l, wavenumber k."""

    n: int
    l: int
    k: float = 1.0

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool) or self.n < 0:
            raise DomainError(f"radial index n must be an integer >= 0, got {_shown(self.n)}")
        if not isinstance(self.l, (int, np.integer)) or isinstance(self.l, bool):
            raise DomainError(f"angular momentum l must be an integer, got {_shown(self.l)}")
        for name in ("n", "l"):  # int() takes a numpy integer to a Python one
            _finite(int(getattr(self, name)), f"{name} must lie within the float range")
        object.__setattr__(self, "k", _finite(self.k, "wavenumber k must be finite"))


def _normalize(nu: float, theta: float) -> float:
    """Normalization constant a0 on the unit cylinder, from the closed-form norm.

    When Theta is a zero of J_nu the Lommel identity gives
    int_0^1 J_nu(Theta x)^2 x dx = J_{nu+1}(Theta)^2 / 2, so
    a0 = [2 pi J_{nu+1}(Theta)^2 / 2]^(-1/2).
    """
    j1 = bessel_j(nu + 1.0, theta)
    if j1 == 0.0:
        # zeros of J_nu and J_{nu+1} interlace, so Theta is not a zero of J_nu
        raise ConvergenceError(f"normalize: J_{{nu+1}}(Theta) = 0 at nu={nu}, Theta={theta!r}")
    return 1.0 / math.sqrt(2.0 * math.pi * (0.5 * j1 * j1))


@dataclass(frozen=True)
class Eigenstate:
    """Solved hard-wall state; its radial methods take x = r / r0 (unit cylinder)."""

    params: SystemParams
    qn: QuantumNumbers
    nu: float
    theta: float
    a0: float

    @property
    def energy(self) -> float:
        """E = (Theta / r0)^2 / (2m) + k^2 / (2m); inf, not OverflowError, past the float range."""
        t, k, m = self.theta / self.params.r0, self.qn.k, self.params.m
        return t * t / (2.0 * m) + k * k / (2.0 * m)

    def radial_wavefunction(self, x):
        """R(x) = a0 J_nu(Theta x) inside the wall x < 1, 0 at and beyond it.

        An array x keeps its shape, a scalar gives a numpy float64; a NaN is refused.
        """
        wave = self.a0 * bessel_j(self.nu, self.theta * np.minimum(x, 1.0, dtype=float))
        return np.where(np.less(x, 1.0), wave, 0.0)[()]

    def radial_nodes(self) -> list[float]:
        """The x in (0, 1) where R changes sign: the first n zeros of J_nu over Theta."""
        return [bessel_zero(self.nu, i) / self.theta for i in range(1, self.qn.n + 1)]

    def position_density(self, x):
        """Probability density |psi|^2 on the unit cylinder; independent of theta and z."""
        w = self.radial_wavefunction(x)
        return w * w


def solve(params: SystemParams, qn: QuantumNumbers) -> Eigenstate:
    """Construct the normalized eigenstate for the given quantum numbers.

    The library indexes positive Bessel zeros from 1, so the ground state
    n = 0 maps to the first zero (j = n + 1).
    """
    nu = abs(qn.l - params.beta * qn.k)  # the dislocation's effective Bessel order
    theta = bessel_zero(nu, qn.n + 1)
    return Eigenstate(params=params, qn=qn, nu=nu, theta=theta, a0=_normalize(nu, theta))
