"""Shannon information entropies of an eigenstate in position and momentum
space, and the Bialynicki-Birula–Mycielski (BBM) uncertainty-bound check.

Position space (density rho = |psi|^2, independent of theta and z):

    S_r = -2 pi Lz int_0^r0 rho ln(rho) r dr.

Momentum space splits into a transverse part, integrated by the momentum
profile (see the momentum module), and a longitudinal part with a closed form.
The z plane wave lives on a box of length Lz, so its momentum density is the
sinc^2 distribution |chi(p_z)|^2 = (Lz/2pi) sinc^2((p_z - k) Lz / 2), whose
differential entropy is exactly

    S_z = ln(2 pi / Lz) + 2 (1 - euler_gamma).

(The constant is -(2/pi) int sinc^2(u) ln(sinc^2(u)) du = 2(1-gamma); both
Frullani-type integrals in the derivation are classical.) Entropies are in
nats throughout, and 0 ln 0 is taken as 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigen import Eigenstate, QuantumNumbers, SystemParams, solve
from .errors import ConvergenceError
from .momentum import MomentumProfile, build_profile, _radial_factor_zeros_inside, _xlnx
from .quadrature import integrate_adaptive, integrate_oscillatory

__all__ = [
    "EntropyReport",
    "SINC_ENTROPY_CONST",
    "longitudinal_momentum_entropy",
    "shannon_position",
    "shannon_momentum",
    "bbm_check",
    "report",
]

# entropy of the unit-scale sinc^2 density: 2 (1 - euler_gamma)
SINC_ENTROPY_CONST = 2.0 * (1.0 - float(np.euler_gamma))


def longitudinal_momentum_entropy(params: SystemParams) -> float:
    """Entropy of the box-limited plane wave's momentum density (exact)."""
    return math.log(2.0 * math.pi / params.lz) + SINC_ENTROPY_CONST


def shannon_position(state, tol: float = 1e-7) -> float:
    """Position-space entropy S_r of a normalized state."""
    params = state.params
    r0, lz = params.r0, params.lz

    def integrand(r):
        return _xlnx(state.position_density(r)) * r

    pts = _radial_factor_zeros_inside(state) if isinstance(state, Eigenstate) else []
    if pts:
        res = integrate_oscillatory(integrand, 0.0, r0, pts, tol)
    else:
        res = integrate_adaptive(integrand, 0.0, r0, tol)
    return -2.0 * math.pi * lz * res.value


def shannon_momentum(profile: MomentumProfile) -> float:
    """Full momentum-space entropy S_p (transverse + longitudinal)."""
    return (
        profile.inner_entropy
        + profile.tail_entropy
        + longitudinal_momentum_entropy(profile.state.params)
    )


def bbm_check(s_r: float, s_p: float, dimension: int = 3) -> tuple[float, bool]:
    """BBM entropic uncertainty bound D(1 + ln pi) and whether it is met."""
    if dimension < 1:
        raise ValueError(f"dimension must be a positive integer, got {dimension!r}")
    bound = dimension * (1.0 + math.log(math.pi))
    return bound, (s_r + s_p) >= bound - 1e-9


@dataclass(frozen=True)
class EntropyReport:
    """Consolidated entropies for one state, in nats."""

    params: SystemParams
    qn: QuantumNumbers
    s_r: float
    s_p: float
    total: float
    bbm_bound: float
    satisfied: bool


def report(
    params: SystemParams,
    qn: QuantumNumbers,
    tol: float = 1e-7,
) -> EntropyReport:
    """solve -> momentum profile -> entropies -> BBM check, deterministically.

    `tol` is the quadrature tolerance of S_r; S_p comes from the profile's
    fixed momentum rule.
    """

    def _staged(stage, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConvergenceError as exc:
            if exc.stage is None:
                exc.stage = stage
            raise ConvergenceError(f"{stage}: {exc}", best=exc.best, stage=stage) from exc

    state = solve(params, qn)
    profile = _staged("momentum-profile", build_profile, state)
    s_r = _staged("position-entropy", shannon_position, state, tol)
    s_p = shannon_momentum(profile)
    bound, ok = bbm_check(s_r, s_p)
    return EntropyReport(
        params=params,
        qn=qn,
        s_r=s_r,
        s_p=s_p,
        total=s_r + s_p,
        bbm_bound=bound,
        satisfied=ok,
    )
