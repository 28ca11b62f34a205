"""Independent oracles and reference paths used by the test suite.

The oracles deliberately avoid the package's own evaluation paths: Bessel
values come from a high-precision power series evaluated with mpmath
arbitrary precision arithmetic (and zeros from bisection on that series),
brute-force integrals from a plain
midpoint rule on numpy arrays, panel cuts from one `np.linspace` per panel,
the exact beta = 0 momentum entropy from the Lommel closed form with scipy
Bessel values, the position entropy from mpmath zeros, Bessel values and
quadrature, and the momentum tail's wall terms from mpmath's Taylor series
of the radial wavefunction at the wall.

The reference paths reuse the package's special functions, radial nodes and
adaptive quadrature, but not its fixed-grid rules: the Bessel derivative, the
scalar adaptive Hankel transform and the adaptive radial norm. Density maxima
are counted on a uniform grid.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

from abtrap.errors import DomainError
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


def subdivide_linspace(edges, width: float, min_parts: int) -> np.ndarray:
    """Each span between consecutive edges cut into max(min_parts, ceil(span / width))
    equal parts, one `np.linspace` per span."""
    out = [edges[0]]
    for lo, hi in zip(edges[:-1], edges[1:]):
        parts = max(min_parts, math.ceil((hi - lo) / width))
        out.extend(np.linspace(lo, hi, parts + 1)[1:])
    return np.asarray(out, dtype=float)


def lommel_transverse(order: int, theta: float, p_from: float = 0.0) -> tuple[float, float]:
    """Norm and transverse entropy of the beta = 0 hard-wall state past p_from.

    On the unit cylinder the Lommel integral gives the transform in closed
    form, phi(p) = a0 Theta J_{nu+1}(Theta) J_nu(p) / (Theta^2 - p^2), and
    normalization fixes (a0 J_{nu+1}(Theta))^2 = 1 / pi. The integrals run
    between the zeros of J_order from p_from to the last zero P below
    max(2e4, 2.4 (order + 1)^2), twice Hankel's cutoff; the first span, over
    which J_order climbs from 0 at a large order, is cut into panels no wider
    than pi. Each panel gets a 40-point Gauss-Legendre rule after the
    smoothing map u = 3 s^2 - 2 s^3. Bessel values come from scipy. Past P,
    rho is 2 <rho> cos^2 of the Hankel phase, with <rho> = Theta^2 / (pi^2 p^5)
    its mean over one period (it drops terms of relative size 2 Theta^2 / p^2
    and order^2 / (2 p^2)), and the mean of rho ln rho is
    <rho> (ln(<rho> / 2) + 1); both are integrated against 2 pi p dp out to
    p = inf in closed form.
    """
    from scipy import special

    cut = max(2e4, 2.4 * (order + 1) ** 2)
    zeros = special.jn_zeros(order, int(cut / math.pi) + order + 2)
    zeros = zeros[(zeros > p_from) & (zeros < cut)]
    first = np.linspace(p_from, zeros[0], math.ceil((zeros[0] - p_from) / math.pi) + 1)
    edges = np.concatenate([first, zeros[1:]])
    x, w = np.polynomial.legendre.leggauss(40)
    s = 0.5 * (x + 1.0)
    u = s * s * (3.0 - 2.0 * s)
    du = 3.0 * s * (1.0 - s) * w
    norm = entropy = 0.0
    for start in range(0, edges.size - 1, 2048):
        chunk = edges[start:start + 2049]
        lo, hi = chunk[:-1, None], chunk[1:, None]
        p = lo + (hi - lo) * u
        gap = theta * theta - p * p
        # removable singularity at p = Theta: rho -> J_{nu+1}^2 / (4 pi)
        near = np.abs(p - theta) < 1e-9 * theta
        rho = np.where(
            near,
            special.jv(order + 1, theta) ** 2 / (4.0 * math.pi),
            theta**2 * special.jv(order, p) ** 2 / (math.pi * np.where(near, 1.0, gap) ** 2),
        )
        xlnx = np.where(rho > 0.0, rho * np.log(np.where(rho > 0.0, rho, 1.0)), 0.0)
        norm += 2.0 * math.pi * float(np.sum((hi - lo) * du * rho * p))
        entropy -= 2.0 * math.pi * float(np.sum((hi - lo) * du * xlnx * p))
    # with A = Theta^2 / pi^2, int_P^inf p^-4 dp = 1 / (3 P^3) and
    # int_P^inf p^-4 ln p dp = (ln P + 1/3) / (3 P^3)
    big_p, amp = float(edges[-1]), theta * theta / (math.pi * math.pi)
    cube = 2.0 * math.pi * amp / (3.0 * big_p**3)
    norm += cube
    entropy -= cube * (math.log(0.5 * amp / big_p**5) - 2.0 / 3.0)
    return norm, entropy


def lommel_momentum_entropy(order: int, theta: float) -> float:
    """Exact S_p of the beta = 0 hard-wall state with Bessel order `order`, on
    the unit box: the `lommel_transverse` entropy plus S_z = ln 2 pi + 2 (1 - gamma)."""
    transverse = lommel_transverse(order, theta)[1]
    return transverse + math.log(2.0 * math.pi) + 2.0 * (1.0 - float(np.euler_gamma))


def green_wall_terms(nu: float, n: int, order: int, count: int = 5, dps: int = 40) -> np.ndarray:
    """Rows (W_m) and (V_m), m < count, of the momentum tail's wall part.

    W_m = f_m'(1) - L f_m(1) and V_m = f_m(1), L = `order`, where f_0 = R and
    f_{m+1} = B f_m = -f_m'' - f_m' / x + L^2 f_m / x^2. R = a0 J_nu(Theta x)
    is a Taylor series in t = x - 1 from mpmath's derivatives of J_nu at its
    (n+1)-th zero Theta, with a0 = 1 / (sqrt(pi) |J_{nu+1}(Theta)|); B acts on
    it with 1 / x = sum_k (-t)^k, and each pass leaves two fewer exact degrees.
    """
    size = 2 * count
    with mp.workdps(dps):
        nu = mp.mpf(nu)
        theta = mp.besseljzero(nu, n + 1)
        a0 = 1 / (mp.sqrt(mp.pi) * abs(mp.besselj(nu + 1, theta)))
        f = [a0 * mp.besselj(nu, theta, derivative=k) * theta**k / mp.factorial(k)
             for k in range(size)]

        def over_x(c):
            return [mp.fsum((-1) ** (k - i) * c[i] for i in range(k + 1)) for k in range(size)]

        def d_dt(c):
            return [(k + 1) * c[k + 1] for k in range(size - 1)] + [mp.mpf(0)]

        rows = []
        for _ in range(count):
            rows.append((f[1] - order * f[0], f[0]))
            df = d_dt(f)
            f = [-a - b + order**2 * c for a, b, c in zip(d_dt(df), over_x(df), over_x(over_x(f)))]
        return np.array(rows, dtype=float).T


def radial_norm_adaptive(state, tol: float = 1e-12) -> float:
    """2 pi int_0^1 |R|^2 x dx on the unit cylinder, via the adaptive engine."""
    res = integrate_adaptive(lambda x: state.position_density(x) * x, 0.0, 1.0, tol)
    return 2.0 * math.pi * res.value


def _kernel_zeros_inside(order: int, p: float) -> list[float]:
    """The x in (0, 1) where J_order(p x) changes sign."""
    zeros = []
    i = 1
    limit = p * (1.0 - 1e-12)
    while True:
        z = bessel_zero(float(order), i)
        if z >= limit:
            break
        zeros.append(z / p)
        i += 1
    return zeros


def radial_amplitude(state, p_r: float, tol: float = 1e-11) -> float:
    """Transverse amplitude phi(p_r) on the unit cylinder (p_r in units of
    1 / r0), by adaptive quadrature split at the sign changes of both Bessel
    factors."""
    p_r = float(p_r)
    if not math.isfinite(p_r) or p_r < 0.0:
        raise DomainError(f"p_r must be finite and >= 0, got {p_r!r}")
    order = abs(state.qn.l)
    if p_r == 0.0:
        if order != 0:
            return 0.0  # J_l(0) = 0 for l != 0
        return integrate_adaptive(lambda x: state.radial_wavefunction(x) * x, 0.0, 1.0, tol).value

    def f(x):
        return state.radial_wavefunction(x) * bessel_j(order, p_r * x) * x

    pts = sorted(set(state.radial_nodes()) | set(_kernel_zeros_inside(order, p_r)))
    pts = [q for q in pts if 0.0 < q < 1.0]
    if pts:
        return integrate_oscillatory(f, 0.0, 1.0, pts, tol).value
    return integrate_adaptive(f, 0.0, 1.0, tol).value


def momentum_density(state, p_r: float) -> float:
    """Transverse momentum density rho(p_r) = phi(p_r)^2 on the unit cylinder."""
    amp = radial_amplitude(state, p_r)
    return amp * amp


def principal_maxima(ps, dens) -> list[float]:
    """Locations of local maxima of a sampled density above 5% of its peak.

    The threshold keeps the principal ridges and drops the much weaker
    diffraction sidelobes shed by the hard wall. A maximum at the first
    sample (the l = 0 ground profile at p = 0) counts.
    """
    floor = 0.05 * float(np.max(dens))
    out = []
    if dens[0] >= dens[1] and dens[0] >= floor:
        out.append(float(ps[0]))
    for i in range(1, len(ps) - 1):
        if dens[i] > dens[i - 1] and dens[i] >= dens[i + 1] and dens[i] >= floor:
            out.append(float(ps[i]))
    return out


def mean_p_squared(state) -> float:
    """<p^2> of the transverse momentum on the unit cylinder, from the position side.

    R = a0 J_nu(Theta x) solves -(1/x)(x R')' + nu^2 R / x^2 = Theta^2 R and
    vanishes at the wall, so the kinetic integral gives
    <p^2> = Theta^2 + (L^2 - nu^2) <x^-2>, with
    <x^-2> = 2 pi a0^2 int_0^1 J_nu(Theta x)^2 dx / x. scipy's `quad` takes
    x^(2 nu - 1) as an algebraic weight and the smooth (J_nu(Theta x) / x^nu)^2
    as the integrand. No momentum-space quantity enters.
    """
    from scipy.integrate import quad
    from scipy.special import jv

    order, nu, theta = abs(state.qn.l), state.nu, state.theta
    c = order * order - nu * nu
    if c == 0.0:  # nu = L, where <x^-2> may diverge (nu = 0) but does not enter
        return theta * theta
    at_zero = (0.5 * theta) ** (2.0 * nu) / math.gamma(nu + 1.0) ** 2

    def smooth(x):
        return (jv(nu, theta * x) / x**nu) ** 2 if x > 0.0 else at_zero

    inner, _ = quad(smooth, 0.0, 1.0, weight="alg", wvar=(2.0 * nu - 1.0, 0.0),
                    epsabs=0.0, epsrel=1e-12)
    return theta * theta + c * 2.0 * math.pi * state.a0**2 * inner
