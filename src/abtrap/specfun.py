"""Self-contained special functions: Bessel J of real order and its positive
zeros. Gamma is the standard library's `math.gamma`, or `math.lgamma` for the
series' leading term past nu = 170, where Gamma(nu + 1) overflows.

Only non-negative orders are supported; the physics of this package never
produces a negative order (nu = |l - beta*k| >= 0) and the irregular branch is
excluded by normalizability.

Evaluation strategy for J_nu(x):

* power series for x <= series_cutoff(nu) = min(max(10, nu), 20); past
  x = 20 its alternating terms cancel (8e-13 at x = nu = 25, 0.64 at 80),
* Hankel's large-x expansion, P and Q from `hankel_pq` (the momentum tail's
  too), for x >= asymptotic_cutoff(nu) = max(16, 1.2 nu^2),
* forward recurrence J_{m+1} = (2 m / x) J_m - J_{m-1} in the orders, for
  max(16, nu) < x < asymptotic_cutoff(nu): it is stable while the order
  stays below x (DLMF 10.74(iv); Gil, Segura & Temme, Numerical Methods for
  Special Functions, ch. 4), and starts from J_mu and J_{mu+1} by Hankel,
  mu the fractional part of nu, both in Hankel's range from x = 16,
* Miller's backward recurrence for the rest, where x <= max(16, nu) bounds
  its start x + nu + 8 x^(1/3) + 10, normalized by the Neumann-type sum
  sum_k (mu+2k) Gamma(mu+k)/k! * J_{mu+2k}(x) = (x/2)^mu (the k = 0
  coefficient read as its mu -> 0 limit Gamma(mu+1)); it runs on ratios of
  consecutive orders (Gautschi 1967), which cannot overflow.

Either recurrence longer than _MAX_RECURRENCE steps raises ConvergenceError
before it allocates or loops.

All four branches accept numpy arrays; scalars go through the same code.

Zeros of J_nu come from Segura's fixed-point iteration (SIAM J. Numer. Anal.
40 (2002) 114) on the ratio J_nu/J_{nu+1} from the continued fraction CF1
(Thompson & Barnett, J. Comput. Phys. 64 (1986) 490): no Bessel evaluation.
Its start is McMahon's asymptotic estimate, `mcmahon_zero`, which also takes
an array of indices, or Olver's for a first zero at large order.
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


# Hankel's expansion holds from here at orders below 4, so the forward
# recurrence can start here from J_mu and J_{mu+1}
_HANKEL_FLOOR = 16.0
# bessel_j raises rather than run a backward (Miller) or forward recurrence
# of more steps; at nu = 5000.5, the largest order tested, Miller takes 10146
_MAX_RECURRENCE = 100_000
_ZERO_MAX_ITER = 100  # bessel_zero's fixed-point steps before it raises


def _recurrence_margin(x: float) -> float:
    """Orders past the turning point at which Miller and CF1 start from a zero tail."""
    return 8.0 * x ** (1.0 / 3.0) + 10.0


def series_cutoff(nu: float) -> float:
    """Largest x evaluated by the ascending power series."""
    return min(max(10.0, float(nu)), 20.0)


def asymptotic_cutoff(nu: float) -> float:
    """Smallest x evaluated by the Hankel asymptotic expansion.

    From x = 16 it is within 4e-16 of mpmath at nu = 0, 0.2, 1, 2 and 3.7.
    """
    return max(_HANKEL_FLOOR, 1.2 * float(nu) * float(nu))


def _check_order(nu) -> float:
    nu = float(nu)
    if not math.isfinite(nu) or nu < 0.0:
        raise DomainError(f"order must be finite and >= 0, got {nu!r}")
    return nu


def _j_series(nu: float, x: np.ndarray) -> np.ndarray:
    """Ascending series: sum_k (-1)^k (x/2)^(nu+2k) / (k! Gamma(nu+k+1))."""
    half = 0.5 * x
    # leading coefficient (x/2)^nu / Gamma(nu+1), formed in place in `half`
    # to keep the peak memory of large batches down; series in q = (x/2)^2
    q = half * half
    origin = half == 0.0
    term = half
    term[origin] = 1.0
    if nu <= 170.0:
        term **= nu
        term /= math.gamma(nu + 1.0)
    else:  # Gamma(nu+1) overflows past nu = 170.6
        np.log(term, out=term)
        term *= nu
        term -= math.lgamma(nu + 1.0)
        np.exp(term, out=term)
    # exact limits at the origin: J_0(0) = 1, J_nu(0) = 0 for nu > 0
    term[origin] = 1.0 if nu == 0.0 else 0.0
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
    smallest term at the smallest x (the series is asymptotic). It holds for
    x >= asymptotic_cutoff(nu); below it raises ConvergenceError.
    """
    mu = 4.0 * nu * nu
    xmin = float(np.min(x))
    if not xmin >= asymptotic_cutoff(nu):  # a NaN fails too
        raise ConvergenceError(f"hankel_pq: x = {xmin!r} lies below Hankel's range "
                               f"x >= {asymptotic_cutoff(nu):.6g} at nu={nu}")
    a = [1.0]
    scaled_prev = 1.0
    for j in range(1, 40):
        a.append(a[-1] * (mu - (2.0 * j - 1.0) ** 2) / (8.0 * j))
        scaled = abs(a[-1]) / xmin**j
        if scaled >= scaled_prev or scaled < 1e-18:
            break
        scaled_prev = scaled
    # Horner's rule on the even terms (P) and the odd ones (x Q) in u = -1/x^2, which
    # carries the alternating signs; the sums are formed in place, which keeps the
    # peak memory of large batches down
    u = x * x
    np.divide(-1.0, u, out=u)
    p = np.full_like(x, a[0::2][-1])
    for coef in a[0::2][-2::-1]:
        p *= u
        p += coef
    q = np.full_like(x, a[1::2][-1])
    for coef in a[1::2][-2::-1]:
        q *= u
        q += coef
    q /= x
    return p, q


def _j_asymptotic(nu: float, x: np.ndarray) -> np.ndarray:
    """J_nu from `hankel_pq`; valid for x >= asymptotic_cutoff(nu)."""
    p, q = hankel_pq(nu, x)
    # one work array keeps the peak memory of large batches down, so the
    # phase is formed again for the sine
    shift = (0.5 * nu + 0.25) * math.pi
    work = x - shift
    p *= np.cos(work, out=work)
    np.subtract(x, shift, out=work)
    q *= np.sin(work, out=work)
    p -= q
    np.multiply(x, math.pi, out=work)
    np.divide(2.0, work, out=work)
    p *= np.sqrt(work, out=work)
    return p


def _check_recurrence(nu: float, steps: int) -> None:
    if steps > _MAX_RECURRENCE:
        raise ConvergenceError(
            f"bessel_j: order {nu:.17g} needs a recurrence of {steps} steps, "
            f"more than {_MAX_RECURRENCE}"
        )


def _j_forward(nu: float, x: np.ndarray) -> np.ndarray:
    """Forward recurrence from J_mu and J_{mu+1} by Hankel; nu >= 1, x > max(16, nu)."""
    n_int = int(math.floor(nu))
    _check_recurrence(nu, n_int)
    mu = nu - n_int
    jp = _j_asymptotic(mu, x)
    jc = _j_asymptotic(mu + 1.0, x)
    inv_x, work = 1.0 / x, np.empty_like(x)
    for m in range(1, n_int):  # J_{mu+m+1} = (2 (mu+m) / x) J_{mu+m} - J_{mu+m-1}, in place
        np.multiply(np.multiply(inv_x, 2.0 * (mu + m), out=work), jc, out=work)
        jp, jc = jc, np.subtract(work, jp, out=jp)
    return jc


def _j_miller(nu: float, x: np.ndarray) -> np.ndarray:
    """Miller's recurrence on h_m = J_{mu+m}/J_{mu+m-1} = 1/(2(mu+m)/x - h_{m+1}).

    Gautschi's continued fraction (SIAM Rev. 9 (1967) 24), from h = 0 past
    m_start. One loop nests the Neumann sum S = c_0 + h_1 h_2 (c_1 + h_3 h_4
    (c_2 + ...)) = (x/2)^mu / J_mu and the product J_nu/J_mu = h_1 ... h_n.
    A ratio is large only next to a zero of J, so nothing overflows or is rescaled.
    """
    n_int = int(math.floor(nu))
    mu = nu - n_int
    xmax = float(np.max(x))
    m_start = int(xmax + _recurrence_margin(xmax)) + n_int
    m_start += m_start % 2  # an even start keeps the even-index bookkeeping simple
    _check_recurrence(nu, m_start)

    # normalization coefficients c_k = (mu+2k) Gamma(mu+k) / k! for k = 0..m/2
    # (the k=0 coefficient is the mu->0 limit mu*Gamma(mu) = Gamma(mu+1))
    kmax = m_start // 2
    coefs = np.empty(kmax + 1)
    coefs[0] = math.gamma(mu + 1.0)
    coefs[1] = (mu + 2.0) * coefs[0]
    for k in range(2, kmax + 1):
        coefs[k] = coefs[k - 1] * (mu + 2.0 * k) * (mu + k - 1.0) / ((mu + 2.0 * k - 2.0) * k)

    inv_x, work = 1.0 / x, np.empty_like(x)
    h = np.zeros_like(x)  # h_{m+1}, tail neglected at the start
    total = np.full_like(x, coefs[kmax])
    ratio = 1.0
    for m in range(m_start, 0, -1):
        np.subtract(np.multiply(inv_x, 2.0 * (mu + m), out=work), h, out=h)
        # an exact zero denominator is a pole of the ratio; step past it
        h[h == 0.0] = 1e-300
        np.divide(1.0, h, out=h)
        total *= h
        if m % 2 == 1:
            total += coefs[m // 2]
        if m <= n_int:
            ratio *= h
    return (0.5 * x) ** mu * ratio / total


def _bessel_j_array(nu: float, x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    small = x <= series_cutoff(nu)
    large = x >= asymptotic_cutoff(nu)
    ahead = (x > max(_HANKEL_FLOOR, nu)) & ~large
    mid = ~(small | large | ahead)
    for mask, branch in ((small, _j_series), (mid, _j_miller),
                         (ahead, _j_forward), (large, _j_asymptotic)):
        if np.any(mask):
            out[mask] = branch(nu, x[mask])
    return out


def bessel_j(nu: float, x):
    """Bessel function of the first kind, real order nu >= 0, argument x >= 0.

    An array x keeps its shape, a scalar gives a numpy float64; a NaN is refused.
    """
    nu = _check_order(nu)
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("bessel_j requires finite x")
    if np.any(arr < 0.0):
        raise DomainError("bessel_j is restricted to x >= 0")
    return _bessel_j_array(nu, np.atleast_1d(arr)).reshape(arr.shape)[()]


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

    Summed backward from _recurrence_margin(x) orders past the turning point nu + k = x,
    the stable recurrence of the minimal solution J, it is good to a few ulp near a
    zero of J_nu; forward (Lentz) summation is off by 6e-14 at x = 65, 2e-9 at 9429.
    """
    inv = 2.0 / x
    t = 0.0  # J_{nu+k}/J_{nu+k-1} at the start index, tail neglected
    for k in range(int(max(x - nu, 0.0) + _recurrence_margin(x)), 1, -1):
        # an exact zero denominator is a pole of the ratio; step past it
        t = 1.0 / ((nu + k) * inv - t or 1e-300)
    return (nu + 1.0) * inv - t


@lru_cache(maxsize=200000)
def bessel_zero(nu: float, j: int) -> float:
    """j-th positive zero of J_nu (j = 1 is the first), to near machine precision.

    Segura's fixed point x <- x + arctan(J_nu/J_{nu+1}) (Gil, Segura & Temme,
    Numerical Methods for Special Functions, ch. 7), with the CF1 ratio,
    converges (from below after one step) to the zero of J_nu between the
    zeros of J_{nu+1} around the start. That start is McMahon's estimate if
    its last term is below 0.1, well inside the basin (half-width 1 to pi/2);
    otherwise Olver's nu + 1.8557571 nu^(1/3) + 1.033150 nu^(-1/3) for j = 1
    (DLMF 10.21.40; 2e-3 off at nu = 10, where McMahon's last term passes
    0.1) and the previous zero plus pi after it. It stops once a step is
    below 1e-15 max(1, x).
    """
    nu = _check_order(nu)
    if not isinstance(j, (int, np.integer)) or isinstance(j, bool) or j < 1:
        raise DomainError(f"zero index must be a positive integer, got {j!r}")
    j = int(j)

    x, last_term = mcmahon_zero(nu, j)
    if not (math.isfinite(x) and math.isfinite(last_term)):  # nu past about 1e38
        raise ConvergenceError(f"bessel_zero: McMahon's estimate overflows at nu={nu}, j={j}")
    if abs(last_term) >= 0.1:
        cube_root = nu ** (1.0 / 3.0)
        x = nu + 1.8557571 * cube_root + 1.033150 / cube_root
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
