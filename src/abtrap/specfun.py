"""Self-contained special functions: Bessel J of real order and its positive
zeros. Gamma is the standard library's `math.gamma`, or `math.lgamma` for the
series' leading term past nu = 170, where Gamma(nu + 1) overflows.

Only non-negative orders are supported; the physics of this package never
produces a negative order (nu = |l - beta*k| >= 0) and the irregular branch is
excluded by normalizability.

Evaluation strategy for J_nu(x):

* power series for x <= series_cutoff(nu) = min(max(10, nu), 20); past
  x = 20 its alternating terms cancel (8e-13 at x = nu = 25, 0.64 at 80),
* Miller backward recurrence, normalized by the Neumann-type sum
  sum_k (mu+2k) Gamma(mu+k)/k! * J_{mu+2k}(x) = (x/2)^mu
  (mu the fractional part of nu, the k = 0 coefficient read as its
  mu -> 0 limit Gamma(mu+1)), in between,
* Hankel's large-x expansion, P and Q from `hankel_pq` (the momentum tail's
  too), for x >= asymptotic_cutoff(nu) = max(30, 1.2 nu^2).

All three branches accept numpy arrays; scalars go through the same code.

Zeros of J_nu come from Segura's fixed-point iteration (SIAM J. Numer. Anal.
40 (2002) 114) on the ratio J_nu/J_{nu+1} from the continued fraction CF1
(Thompson & Barnett, J. Comput. Phys. 64 (1986) 490): no Bessel evaluation.
Its start, McMahon's asymptotic estimate, is `mcmahon_zero`, which also takes
an array of indices.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "bessel_j",
    "bessel_zero",
    "hankel_pq",
    "mcmahon_zero",
    "series_cutoff",
    "asymptotic_cutoff",
]


def series_cutoff(nu: float) -> float:
    """Largest x evaluated by the ascending power series."""
    return min(max(10.0, float(nu)), 20.0)


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
    term = np.where(half > 0.0, half, 1.0)
    if nu <= 170.0:
        term = term**nu / math.gamma(nu + 1.0)
    else:  # Gamma(nu+1) overflows past nu = 170.6
        term = np.exp(nu * np.log(term) - math.lgamma(nu + 1.0))
    # exact limits at the origin: J_0(0) = 1, J_nu(0) = 0 for nu > 0
    term = np.where(half == 0.0, 1.0 if nu == 0.0 else 0.0, term)
    out = term.copy()
    # stop on the largest argument's scalar term bound (no per-term reductions)
    qmax = float(np.max(q))
    t = 1.0
    for k in range(1, 80):
        term *= q / (-k * (nu + k))
        out += term
        t *= qmax / (k * (nu + k))
        if t < 1e-19 and k * k > qmax:
            break
    return out


def hankel_pq(nu: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hankel's P, Q: J_nu(x) = sqrt(2 / (pi x)) (P cos w - Q sin w), w = x - (nu/2 + 1/4) pi.

    P and x Q are polynomials in 1/x^2, summed by Horner's rule up to the
    smallest term at the smallest x (the series is asymptotic).
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
    return p, q / x


def _j_asymptotic(nu: float, x: np.ndarray) -> np.ndarray:
    """J_nu from `hankel_pq`; valid for x >= asymptotic_cutoff(nu)."""
    p, q = hankel_pq(nu, x)
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
    coefs[0] = math.gamma(mu + 1.0)
    if kmax >= 1:
        coefs[1] = (mu + 2.0) * coefs[0]
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


def mcmahon_zero(nu: float, j):
    """McMahon estimate of the j-th positive zero of J_nu, and its last term.

    The last term's size tracks the estimate's error (mpmath, nu <= 700).
    `j` may be an integer array, which gives arrays of both.
    """
    mu = 4.0 * nu * nu
    beta = (j + 0.5 * nu - 0.25) * math.pi
    e = 8.0 * beta
    e2 = e * e
    t1 = (mu - 1.0) / e
    t2 = 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * e * e2)
    t3 = 32.0 * (mu - 1.0) * (83.0 * mu * mu - 982.0 * mu + 3779.0) / (15.0 * e * e2 * e2)
    t4 = 64.0 * (mu - 1.0) * (
        6949.0 * mu**3 - 153855.0 * mu * mu + 1585743.0 * mu - 6277237.0
    ) / (105.0 * e * e2 * e2 * e2)
    return beta - t1 - t2 - t3 - t4, t4


def _zero_ratio(nu: float, x: float) -> float:
    """J_nu(x) / J_{nu+1}(x) from CF1: J_{nu+1}/J_nu = 1/(b_1 - 1/(b_2 - ...)), b_k = 2(nu+k)/x.

    Summed backward from past the turning point nu + k = x, the stable
    recurrence of the minimal solution J, it is good to a few ulp near a zero
    of J_nu; forward (Lentz) summation is off by 6e-14 at x = 65, 2e-9 at 9429.
    """
    inv = 2.0 / x
    t = 0.0  # J_{nu+k}/J_{nu+k-1} at the start index, tail neglected
    for k in range(int(max(x - nu, 0.0) + 12.0 * x ** (1.0 / 3.0) + 30.0), 1, -1):
        # an exact zero denominator is a pole of the ratio; step past it
        t = 1.0 / ((nu + k) * inv - t or 1e-300)
    return (nu + 1.0) * inv - t


_ZERO_MAX_ITER = 100


@lru_cache(maxsize=200000)
def bessel_zero(nu: float, j: int) -> float:
    """j-th positive zero of J_nu (j = 1 is the first), to near machine precision.

    Segura's fixed point x <- x + arctan(J_nu/J_{nu+1}) (Gil, Segura & Temme,
    Numerical Methods for Special Functions, ch. 7), with the CF1 ratio,
    converges (from below after one step) to the zero of J_nu between the
    zeros of J_{nu+1} around the start. That start is McMahon's estimate if
    its last term is below 0.1, well inside the basin (half-width 1 to pi/2);
    otherwise nu for j = 1 and the previous zero plus pi after it. It stops
    once a step is below 1e-15 max(1, x).
    """
    nu = _check_order(nu)
    if not isinstance(j, (int, np.integer)) or j < 1:
        raise DomainError(f"zero index must be a positive integer, got {j!r}")
    j = int(j)

    x, last_term = mcmahon_zero(nu, j)
    if not (math.isfinite(x) and math.isfinite(last_term)):  # nu past about 1e38
        raise ConvergenceError(f"bessel_zero: McMahon's estimate overflows at nu={nu}, j={j}")
    if abs(last_term) >= 0.1:
        x = nu
        # a loop, not recursion: each lower zero is then a cache hit
        for i in range(1, j):
            x = bessel_zero(nu, i) + math.pi
    for _ in range(_ZERO_MAX_ITER):
        step = math.atan(_zero_ratio(nu, x))
        x += step
        if abs(step) <= 1e-15 * max(1.0, x):
            return x
    raise ConvergenceError(
        f"bessel_zero: nu={nu}, j={j} unsettled after {_ZERO_MAX_ITER} steps, x={x!r}"
    )
