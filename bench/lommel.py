"""Exact momentum amplitude of a defect-free (beta = 0) hard-wall state.

At beta = 0 the Bessel order of the state equals the order |l| of the
Hankel kernel, and the Lommel integral gives the transform in closed form:

    phi(p) = a0 r0 alpha J_{nu+1}(Theta) J_nu(p r0) / (alpha^2 - p^2),

with alpha = Theta / r0. Normalization fixes (a0 J_{nu+1}(Theta))^2 =
1 / (pi lz r0^2), so the density needs only nu and Theta. Bessel values come
from scipy, never from abtrap.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

SINC_ENTROPY = 2.0 * (1.0 - float(np.euler_gamma))


def amplitude_sq(p, order: int, theta: float, r0: float = 1.0, lz: float = 1.0):
    """phi(p)^2 for the state with Bessel order `order` and zero `theta`."""
    p = np.asarray(p, dtype=float)
    alpha = theta / r0
    gap = alpha * alpha - p * p
    # removable singularity at p = alpha: the limit is r0^2 J_{nu+1}^2 / (4 pi lz)
    near = np.abs(p - alpha) < 1e-9 * alpha
    safe_gap = np.where(near, 1.0, gap)
    regular = alpha**2 * special.jv(order, p * r0) ** 2 / (math.pi * lz * safe_gap**2)
    limit = r0**2 * special.jv(order + 1, theta) ** 2 / (4.0 * math.pi * lz)
    return np.where(near, limit, regular)


def printed_density(p, order: int, theta: float, r0: float = 1.0, lz: float = 1.0):
    """The radial marginal 2 pi lz phi(p)^2 p that `abtrap density` prints."""
    p = np.asarray(p, dtype=float)
    return 2.0 * math.pi * lz * amplitude_sq(p, order, theta, r0, lz) * p


def momentum_entropy(
    order: int, theta: float, r0: float = 1.0, lz: float = 1.0,
    p_end: float = 2e5, nodes: int = 40,
) -> tuple[float, float]:
    """(captured norm, S_p) with the transverse integrals taken to p_end.

    Panels run between consecutive zeros of J_order(p r0), where rho ln rho
    has its log cusps; each panel gets a Gauss-Legendre rule after the
    smoothing map u = 3 s^2 - 2 s^3, which flattens the cusps at both ends.
    """
    count = int(p_end * r0 / math.pi) + order + 50
    zeros = special.jn_zeros(order, count) / r0
    edges = np.concatenate([[0.0], zeros[zeros < p_end], [p_end]])
    x, w = np.polynomial.legendre.leggauss(nodes)
    s = 0.5 * (x + 1.0)
    u = s * s * (3.0 - 2.0 * s)
    du = 3.0 * s * (1.0 - s) * w
    lo, hi = edges[:-1, None], edges[1:, None]
    p = lo + (hi - lo) * u
    weights = (hi - lo) * du
    rho = lz * amplitude_sq(p, order, theta, r0, lz)
    xlnx = np.where(rho > 0.0, rho * np.log(np.where(rho > 0.0, rho, 1.0)), 0.0)
    norm = 2.0 * math.pi * float(np.sum(weights * rho * p))
    s_radial = -2.0 * math.pi * float(np.sum(weights * xlnx * p))
    s_z = math.log(2.0 * math.pi / lz) + SINC_ENTROPY
    return norm, s_radial + s_z
