"""Self-contained special functions: Gamma, Bessel J of real order and its
positive zeros.

Only non-negative orders are supported; the physics of this package never
produces a negative order (nu = |l - beta*k| >= 0) and the irregular branch is
excluded by normalizability.

Evaluation strategy for J_nu(x):

* power series for x <= series_cutoff(nu),
* Miller backward recurrence, normalized by the Neumann-type sum
  sum_k (mu+2k) Gamma(mu+k)/k! * J_{mu+2k}(x) = (x/2)^mu
  (mu the fractional part of nu, the k = 0 coefficient read as its
  mu -> 0 limit Gamma(mu+1)), in the intermediate range,
* Hankel large-x asymptotic expansion for x >= asymptotic_cutoff(nu).

All three branches accept numpy arrays; scalars go through the same code.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "gamma",
    "bessel_j",
    "bessel_zero",
    "series_cutoff",
    "asymptotic_cutoff",
]

# Lanczos approximation, g = 7, 9 terms. Relative error < 1e-14 on the
# positive real axis, comfortably inside the 1e-13 contract on (0, 50].
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma(x: float) -> float:
    """Gamma function for positive real argument."""
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"gamma requires finite x > 0, got {x!r}")
    if x < 0.5:
        # recurrence keeps the Lanczos kernel in its sweet spot
        return gamma(x + 1.0) / x
    z = x - 1.0
    acc = _LANCZOS_COEF[0]
    for i in range(1, len(_LANCZOS_COEF)):
        acc += _LANCZOS_COEF[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * acc


def series_cutoff(nu: float) -> float:
    """Largest x evaluated by the ascending power series."""
    return max(10.0, float(nu))


def asymptotic_cutoff(nu: float) -> float:
    """Smallest x evaluated by the Hankel asymptotic expansion."""
    return max(30.0, 1.2 * float(nu) * float(nu))


def _check_order(nu) -> float:
    nu = float(nu)
    if not math.isfinite(nu) or nu < 0.0:
        raise DomainError(f"order must be finite and >= 0, got {nu!r}")
    return nu


def _j_series(nu: float, x: np.ndarray) -> np.ndarray:
    """Ascending series: sum_k (-1)^k (x/2)^(nu+2k) / (k! Gamma(nu+k+1))."""
    half = 0.5 * x
    # leading coefficient (x/2)^nu / Gamma(nu+1); series in q = (x/2)^2
    q = half * half
    term = np.where(half > 0.0, half, 1.0) ** nu / gamma(nu + 1.0)
    # exact limits at the origin: J_0(0) = 1, J_nu(0) = 0 for nu > 0
    term = np.where(half == 0.0, 1.0 if nu == 0.0 else 0.0, term)
    out = term.copy()
    # fixed term count from the largest argument (no per-term reductions)
    qmax = float(np.max(q))
    t = 1.0
    nterms = 1
    for k in range(1, 80):
        t *= qmax / (k * (nu + k))
        nterms = k
        if t < 1e-19 and k * k > qmax:
            break
    for k in range(1, nterms + 1):
        term *= q / (-k * (nu + k))
        out += term
    return out


def _j_asymptotic(nu: float, x: np.ndarray) -> np.ndarray:
    """Hankel expansion; valid for x >= asymptotic_cutoff(nu).

    The terms factor as a_j / x^j with scalar a_j, so P and Q reduce to
    polynomials in 1/x^2 evaluated by Horner's rule; the truncation index is
    chosen once from the smallest argument (asymptotic series: stop at the
    smallest term).
    """
    mu = 4.0 * nu * nu
    xmin = float(np.min(x))
    a = [1.0]
    scaled_prev = 1.0
    for j in range(1, 40):
        a.append(a[-1] * (mu - (2.0 * j - 1.0) ** 2) / (8.0 * j))
        scaled = abs(a[-1]) / xmin**j
        if scaled >= scaled_prev or scaled < 1e-18:
            break
        scaled_prev = scaled
    # fold (-1)^k signs into Horner coefficients in u = 1/x^2
    pc = [(-1.0) ** k * a[2 * k] for k in range((len(a) + 1) // 2)]
    qc = [(-1.0) ** k * a[2 * k + 1] for k in range(len(a) // 2)]
    u = 1.0 / (x * x)
    p = np.full_like(x, pc[-1])
    for coef in pc[-2::-1]:
        p = p * u + coef
    q = np.full_like(x, qc[-1])
    for coef in qc[-2::-1]:
        q = q * u + coef
    q /= x
    omega = x - (0.5 * nu + 0.25) * math.pi
    return np.sqrt(2.0 / (math.pi * x)) * (p * np.cos(omega) - q * np.sin(omega))


_MILLER_RESCALE = 1e250


def _j_miller(nu: float, x: np.ndarray) -> np.ndarray:
    """Backward (Miller) recurrence normalized by the Neumann-type sum."""
    n_int = int(math.floor(nu))
    mu = nu - n_int
    xmax = float(np.max(x))
    m_start = int(xmax + 12.0 * xmax ** (1.0 / 3.0) + 30.0) + n_int
    if m_start % 2 == 1:
        m_start += 1  # even start keeps the even-index bookkeeping simple

    # normalization coefficients c_k = (mu+2k) Gamma(mu+k) / k! for k = 0..m/2
    # (the k=0 coefficient is the mu->0 limit mu*Gamma(mu) = Gamma(mu+1))
    kmax = m_start // 2
    coefs = np.empty(kmax + 1)
    coefs[0] = gamma(mu + 1.0)
    if kmax >= 1:
        coefs[1] = (mu + 2.0) * gamma(mu + 1.0)
    for k in range(2, kmax + 1):
        coefs[k] = coefs[k - 1] * (mu + 2.0 * k) * (mu + k - 1.0) / ((mu + 2.0 * k - 2.0) * k)

    inv_x = 1.0 / x
    jp = np.zeros_like(x)          # J_{mu+m+1}
    jc = np.full_like(x, 1e-280)   # J_{mu+m}, arbitrary tiny seed
    norm = np.zeros_like(x)
    target = np.zeros_like(x)
    for m in range(m_start, -1, -1):
        if m % 2 == 0:
            norm += coefs[m // 2] * jc
        if m == n_int:
            target = jc.copy()
        if m > 0:
            jm = (2.0 * (mu + m)) * inv_x * jc - jp
            jp = jc
            jc = jm
            big = np.abs(jc) > _MILLER_RESCALE
            if np.any(big):
                scale = np.where(big, 1.0 / _MILLER_RESCALE, 1.0)
                jc *= scale
                jp *= scale
                norm *= scale
                target *= scale
    ref = (0.5 * x) ** mu
    return target * ref / norm


def _bessel_j_array(nu: float, x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    s_cut = series_cutoff(nu)
    a_cut = asymptotic_cutoff(nu)
    small = x <= s_cut
    large = x >= a_cut
    mid = ~(small | large)
    if np.any(small):
        out[small] = _j_series(nu, x[small])
    if np.any(mid):
        out[mid] = _j_miller(nu, x[mid])
    if np.any(large):
        out[large] = _j_asymptotic(nu, x[large])
    return out


def bessel_j(nu: float, x):
    """Bessel function of the first kind, real order nu >= 0, argument x >= 0.

    Accepts a scalar or a numpy array for x.
    """
    nu = _check_order(nu)
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("bessel_j requires finite x")
    if np.any(arr < 0.0):
        raise DomainError("bessel_j is restricted to x >= 0")
    scalar = arr.ndim == 0
    vals = _bessel_j_array(nu, np.atleast_1d(arr))
    return float(vals[0]) if scalar else vals.reshape(arr.shape)


def _mcmahon_guess(nu: float, j: int) -> float:
    """McMahon asymptotic estimate of the j-th positive zero of J_nu."""
    mu = 4.0 * nu * nu
    beta = (j + 0.5 * nu - 0.25) * math.pi
    if beta <= 0.0:
        return 0.0
    e = 8.0 * beta
    e2 = e * e
    t1 = (mu - 1.0) / e
    t2 = 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * e * e2)
    t3 = 32.0 * (mu - 1.0) * (83.0 * mu * mu - 982.0 * mu + 3779.0) / (15.0 * e * e2 * e2)
    t4 = 64.0 * (mu - 1.0) * (
        6949.0 * mu**3 - 153855.0 * mu * mu + 1585743.0 * mu - 6277237.0
    ) / (105.0 * e * e2 * e2 * e2)
    return beta - t1 - t2 - t3 - t4


def _bracket_by_scan(nu: float, j: int) -> tuple[float, float]:
    """Fallback bracket: the j-th sign change of J_nu on a pi/8 grid.

    The grid runs from just above the order line to nu + (j + nu/2 + 1) pi,
    past McMahon's (j + nu/2 - 1/4) pi, which bounds the zero from above for
    nu >= 1/2 and falls short of it by less than 0.05 below that. All grid
    points go to bessel_j in one batch; no sign change by the end of the grid
    raises ConvergenceError.
    """
    step = math.pi / 8.0
    x0 = max(nu, 1e-6) + 1e-3
    x_stop = nu + (j + 0.5 * nu + 1.0) * math.pi
    xs = x0 + step * np.arange(int(math.ceil((x_stop - x0) / step)) + 1)
    f = np.asarray(bessel_j(nu, xs))
    # a grid point exactly on a zero counts as the crossing that starts there
    crossings = np.flatnonzero((f[:-1] == 0.0) | (f[:-1] * f[1:] < 0.0))
    if crossings.size < j:
        raise ConvergenceError(
            f"zero scan failed for nu={nu}, j={j}: {crossings.size} sign changes "
            f"up to x={float(xs[-1]):.6g}"
        )
    i = int(crossings[j - 1])
    return float(xs[i]), float(xs[i + 1])


@lru_cache(maxsize=200000)
def bessel_zero(nu: float, j: int) -> float:
    """j-th positive zero of J_nu (j = 1 is the first), to near machine precision.

    McMahon initial guesses bracket the zero between midpoints to the
    neighbouring guesses; a safeguarded Newton iteration (bisection fallback)
    refines it, with J_nu' = (nu/x) J_nu - J_{nu+1} so that each step costs
    two Bessel evaluations. It stops as soon as the Newton step falls below
    1e-15 max(1, x).
    """
    nu = _check_order(nu)
    if not isinstance(j, (int, np.integer)) or j < 1:
        raise DomainError(f"zero index must be a positive integer, got {j!r}")
    j = int(j)

    g = _mcmahon_guess(nu, j)
    g_next = _mcmahon_guess(nu, j + 1)
    if j == 1:
        lo = max(nu + 0.05 * max(g - nu, 0.5), 1e-8)
    else:
        lo = 0.5 * (_mcmahon_guess(nu, j - 1) + g)
    hi = 0.5 * (g + g_next)
    f_lo = bessel_j(nu, lo)
    f_hi = bessel_j(nu, hi)
    if not (f_lo * f_hi < 0.0):
        lo, hi = _bracket_by_scan(nu, j)
        f_lo = bessel_j(nu, lo)

    # safeguarded Newton within [lo, hi]
    x = min(max(g, lo), hi)
    for _ in range(100):
        f = bessel_j(nu, x)
        if f == 0.0:
            return x
        if f * f_lo < 0.0:
            hi = x
        else:
            lo = x
            f_lo = f
        tiny = 1e-15 * max(1.0, abs(x))
        df = (nu / x) * f - bessel_j(nu + 1.0, x)
        if df != 0.0:
            step = f / df
            # converged: x already sits on a bracket end, so test before the bracket
            if abs(step) <= tiny:
                return x - step
            x_new = x - step
            if not (lo < x_new < hi):
                x_new = 0.5 * (lo + hi)
        else:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= tiny:
            return x_new
        x = x_new
    return x
