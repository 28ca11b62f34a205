"""Independent oracles and reference paths used by the test suite.

The oracles deliberately avoid the package's own evaluation paths: Bessel
values come from a high-precision power series evaluated with mpmath
arbitrary precision arithmetic (and zeros from bisection on that series),
reference gamma values from mpmath, brute-force integrals from a plain
midpoint rule on numpy arrays, the exact beta = 0 momentum entropy from the
Lommel closed form with scipy Bessel values, and the position entropy from
mpmath zeros, Bessel values and quadrature.

The reference paths reuse the package's special functions and adaptive
quadrature, but not its fixed-grid rules: the Bessel derivative, the scalar
adaptive Hankel transform and the adaptive radial norm.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

from abtrap.errors import DomainError
from abtrap.momentum import _radial_factor_zeros_inside
from abtrap.quadrature import integrate_adaptive, integrate_oscillatory
from abtrap.specfun import bessel_j, bessel_zero


def series_j(nu: float, x: float, dps: int = 40) -> float:
    """J_nu(x) by direct summation of the ascending series at high precision."""
    return float(_series_j_mp(nu, x, dps))


def _series_j_mp(nu, x, dps):
    """Series tail of J_nu(x) as an mpmath value (shared by the zero finder)."""
    with mp.workdps(dps):
        nu_mp = mp.mpf(nu)
        x_mp = mp.mpf(x)
        if x_mp == 0:
            return mp.mpf(1) if nu == 0 else mp.mpf(0)
        half = x_mp / 2
        term = half**nu_mp / mp.gamma(nu_mp + 1)
        total = term
        q = half * half
        k = 0
        while True:
            k += 1
            term *= -q / (k * (nu_mp + k))
            total += term
            if abs(term) < mp.mpf(10) ** (-dps) * (1 + abs(total)) and k > float(x) / 2:
                return total


def zero_by_bisection(nu: float, j: int, dps: int = 40) -> float:
    """j-th positive zero of J_nu: sign scan + bisection on the series oracle."""
    with mp.workdps(dps):
        f = lambda t: _series_j_mp(nu, t, dps)  # noqa: E731 - local shorthand
        step = mp.mpf(0.25)
        x = mp.mpf(max(nu, 1e-6)) + mp.mpf("1e-6")
        fx = f(x)
        found = 0
        while True:
            x2 = x + step
            fx2 = f(x2)
            if fx * fx2 < 0:
                found += 1
                if found == j:
                    lo, hi = x, x2
                    flo = fx
                    break
            x, fx = x2, fx2
        for _ in range(150):
            mid = (lo + hi) / 2
            fm = f(mid)
            if fm == 0:
                return float(mid)
            if flo * fm < 0:
                hi = mid
            else:
                lo, flo = mid, fm
            if hi - lo < mp.mpf(10) ** (-25):
                break
        return float((lo + hi) / 2)


def position_entropy_ref(
    n: int, l: int, beta: float, k: float, r0: float = 1.0, lz: float = 1.0
) -> float:
    """S_r of the hard-wall state (n, l) at 25 digits, from mpmath alone.

    Theta is mpmath's (n+1)-th zero of J_nu, nu = |l - beta k|, and the
    Lommel identity fixes a0^2 = 1 / (pi lz r0^2 J_{nu+1}(Theta)^2). In
    x = Theta r / r0 the entropy is
    -2 pi lz (r0 / Theta)^2 int_0^Theta rho ln rho x dx, integrated by
    tanh-sinh quadrature split at the radial nodes.
    """
    with mp.workdps(25):
        nu = abs(mp.mpf(l) - mp.mpf(beta) * mp.mpf(k))
        zeros = [mp.besseljzero(nu, j) for j in range(1, n + 2)]
        theta = zeros[-1]
        a0_sq = 1 / (mp.pi * lz * r0**2 * mp.besselj(nu + 1, theta) ** 2)

        def integrand(x):
            rho = a0_sq * mp.besselj(nu, x) ** 2
            return rho * mp.log(rho) * x if rho > 0 else mp.mpf(0)

        total = mp.quad(integrand, [0, *zeros])
        return float(-2 * mp.pi * lz * (r0 / theta) ** 2 * total)


def bessel_j_prime(nu: float, x):
    """Derivative dJ_nu/dx for x > 0, from the package's bessel_j.

    Uses (J_{nu-1} - J_{nu+1})/2 when nu >= 1 and the equivalent recurrence
    form (nu/x) J_nu - J_{nu+1} when nu < 1 (avoids negative orders).
    """
    nu = float(nu)
    if not math.isfinite(nu) or nu < 0.0:
        raise DomainError(f"order must be finite and >= 0, got {nu!r}")
    arr = np.asarray(x, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0):
        raise DomainError("bessel_j_prime requires finite x > 0")
    if nu >= 1.0:
        val = 0.5 * (bessel_j(nu - 1.0, arr) - bessel_j(nu + 1.0, arr))
    else:
        val = (nu / arr) * bessel_j(nu, arr) - bessel_j(nu + 1.0, arr)
    return float(val) if np.asarray(x).ndim == 0 else val


def gamma_ref(x: float) -> float:
    with mp.workdps(40):
        return float(mp.gamma(mp.mpf(x)))


def besselj_ref(nu: float, x: float) -> float:
    with mp.workdps(40):
        return float(mp.besselj(mp.mpf(nu), mp.mpf(x)))


def midpoint(f, a: float, b: float, panels: int, chunk: int = 262144) -> float:
    """Plain midpoint rule; f must accept numpy arrays."""
    if panels < 1:
        raise ValueError(f"panels must be >= 1, got {panels!r}")
    h = (b - a) / panels
    total = 0.0
    for start in range(0, panels, chunk):
        stop = min(start + chunk, panels)
        mids = a + (np.arange(start, stop, dtype=float) + 0.5) * h
        total += float(np.sum(np.asarray(f(mids), dtype=float)))
    return total * h


def lommel_momentum_entropy(order: int, theta: float, r0: float = 1.0, lz: float = 1.0) -> float:
    """Exact S_p of the beta = 0 hard-wall state with Bessel order `order`.

    At beta = 0 the Lommel integral gives the transform in closed form,
    phi(p) = a0 r0 alpha J_{nu+1}(Theta) J_nu(p r0) / (alpha^2 - p^2) with
    alpha = Theta / r0, and normalization fixes (a0 J_{nu+1}(Theta))^2 =
    1 / (pi lz r0^2). The transverse integral runs between the zeros of
    J_order(p r0) to p r0 = 2e4; for Theta < 20 the rest changes S_p by less
    than 1e-9. Each panel gets a 40-point Gauss-Legendre rule after the
    smoothing map u = 3 s^2 - 2 s^3. Bessel values come from scipy.
    """
    from scipy import special

    alpha = theta / r0
    zeros = special.jn_zeros(order, int(2e4 / math.pi) + order + 2) / r0
    edges = np.concatenate([[0.0], zeros[zeros < 2e4 / r0]])
    x, w = np.polynomial.legendre.leggauss(40)
    s = 0.5 * (x + 1.0)
    u = s * s * (3.0 - 2.0 * s)
    du = 3.0 * s * (1.0 - s) * w
    transverse = 0.0
    for start in range(0, edges.size - 1, 2048):
        chunk = edges[start:start + 2049]
        lo, hi = chunk[:-1, None], chunk[1:, None]
        p = lo + (hi - lo) * u
        gap = alpha * alpha - p * p
        # removable singularity at p = alpha: rho -> r0^2 J_{nu+1}^2 / (4 pi lz)
        near = np.abs(p - alpha) < 1e-9 * alpha
        rho = np.where(
            near,
            r0**2 * special.jv(order + 1, theta) ** 2 / (4.0 * math.pi * lz),
            alpha**2 * special.jv(order, p * r0) ** 2 / (math.pi * lz * np.where(near, 1.0, gap) ** 2),
        )
        xlnx = np.where(rho > 0.0, rho * np.log(np.where(rho > 0.0, rho, 1.0)), 0.0)
        transverse -= 2.0 * math.pi * float(np.sum((hi - lo) * du * xlnx * p))
    return transverse + math.log(2.0 * math.pi / lz) + 2.0 * (1.0 - float(np.euler_gamma))


def radial_norm_adaptive(state, tol: float = 1e-12) -> float:
    """2 pi Lz int_0^r0 |R|^2 r dr, via the adaptive engine."""
    res = integrate_adaptive(lambda r: state.position_density(r) * r, 0.0, state.params.r0, tol)
    return 2.0 * math.pi * state.params.lz * res.value


def _kernel_zeros_inside(order: int, p: float, r0: float) -> list[float]:
    """Radii in (0, r0) where J_order(p r) changes sign."""
    zeros = []
    i = 1
    limit = p * r0 * (1.0 - 1e-12)
    while True:
        z = bessel_zero(float(order), i)
        if z >= limit:
            break
        zeros.append(z / p)
        i += 1
    return zeros


def radial_amplitude(state, p_r: float, tol: float = 1e-11) -> float:
    """Transverse amplitude phi(p_r), by adaptive quadrature split at the sign
    changes of both Bessel factors."""
    p_r = float(p_r)
    if not math.isfinite(p_r) or p_r < 0.0:
        raise DomainError(f"p_r must be finite and >= 0, got {p_r!r}")
    order = abs(state.qn.l)
    r0 = state.params.r0
    if p_r == 0.0:
        if order != 0:
            return 0.0  # J_l(0) = 0 for l != 0
        return integrate_adaptive(lambda r: state.radial_wavefunction(r) * r, 0.0, r0, tol).value

    def f(r):
        return state.radial_wavefunction(r) * bessel_j(order, p_r * r) * r

    pts = sorted(set(_radial_factor_zeros_inside(state)) | set(_kernel_zeros_inside(order, p_r, r0)))
    pts = [q for q in pts if 0.0 < q < r0]
    if pts:
        return integrate_oscillatory(f, 0.0, r0, pts, tol).value
    return integrate_adaptive(f, 0.0, r0, tol).value


def momentum_density(state, p_r: float) -> float:
    """Transverse momentum density rho(p_r) = Lz * phi(p_r)^2."""
    amp = radial_amplitude(state, p_r)
    return state.params.lz * amp * amp
