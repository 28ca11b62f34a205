"""Shannon information entropies of an eigenstate in position and momentum
space, and the Bialynicki-Birula–Mycielski (BBM) uncertainty-bound check.

Position space (density rho = |psi|^2, independent of theta and z):

    S_r = -2 pi Lz int_0^r0 rho ln(rho) r dr.

The integral has one fixed rule. [0, r0] is split at the radial nodes (the
zeros of J_nu(Theta r / r0)), every lobe between them is cut into 4 equal
panels, and each panel gets 20 Gauss-Legendre points after the smoothing map
u = 3 s^2 - 2 s^3, which flattens the log cusps of rho ln rho at the nodes
and at the wall. Against 25-digit mpmath the rule is within 5e-11 on sampled
states with nu <= 40, n <= 15 and |k| <= 20, and within 1e-11 for nu < 0.05.

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

from .eigen import QuantumNumbers, SystemParams, solve
from .errors import ConvergenceError
from .momentum import MomentumProfile, build_profile
from .quadrature import density_integrals, subdivide

__all__ = [
    "BBM_BOUND",
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
# the three-dimensional BBM bound 3 (1 + ln pi) on S_r + S_p
BBM_BOUND = 3.0 * (1.0 + math.log(math.pi))


def longitudinal_momentum_entropy(params: SystemParams) -> float:
    """Entropy of the box-limited plane wave's momentum density (exact)."""
    return math.log(2.0 * math.pi / params.lz) + SINC_ENTROPY_CONST


# Gauss-Legendre panels per lobe of the radial density; on the sampled states
# above, 3 leave errors up to 7e-10 and 4 stay below 5e-11
_LOBE_PANELS = 4


def shannon_position(state) -> float:
    """Position-space entropy S_r of a normalized state, by one fixed rule.

    The state needs `params`, a vectorized `position_density` and
    `radial_nodes()`; the integral is split at those nodes.
    """
    r0, lz = state.params.r0, state.params.lz
    edges = subdivide([0.0, *state.radial_nodes(), r0], r0, _LOBE_PANELS)
    return lz * density_integrals(edges, state.position_density)[1]


def shannon_momentum(profile: MomentumProfile) -> float:
    """Full momentum-space entropy S_p (transverse + longitudinal)."""
    return (
        profile.inner_entropy
        + profile.tail_entropy
        + longitudinal_momentum_entropy(profile.state.params)
    )


def bbm_check(s_r: float, s_p: float) -> tuple[float, bool]:
    """The BBM entropic uncertainty bound and whether S_r + S_p meets it."""
    return BBM_BOUND, (s_r + s_p) >= BBM_BOUND - 1e-9


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


def report(params: SystemParams, qn: QuantumNumbers) -> EntropyReport:
    """solve -> momentum profile -> entropies -> BBM check, deterministically.

    S_r and S_p each come from one fixed rule, so there is no tolerance. A
    ConvergenceError is re-raised with the stage it came from as its prefix.
    """
    stage = "solve"
    try:
        state = solve(params, qn)
        stage = "momentum-profile"
        profile = build_profile(state)
        stage = "position-entropy"
        s_r = shannon_position(state)
    except ConvergenceError as exc:
        raise ConvergenceError(f"{stage}: {exc}", best=exc.best, stage=stage) from exc
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
