"""Integration engines.

`smoothed_gauss_legendre` is the package's one rule: a fixed composite rule
for integrands with endpoint singularities at known panel edges. It builds the
Hankel transform's radial grid, and `density_integrals` sums the norm and the
entropy of a density with it, for S_r, for the momentum norm and S_p on
[0, p_max], and for the modelled momentum tail. `subdivide` cuts panels.

`integrate_adaptive` (with `integrate_oscillatory` and `QuadResult`) is no
longer called by the package; it is kept as the independent reference path
of the test oracles and as a layer the benchmark tracer wraps by name. It is
globally adaptive bisection with a Gauss-Kronrod 7-15 rule per interval and
the usual QUADPACK-style error estimate. Integrands are called with numpy
arrays of abscissae and must return finite arrays of the same shape; a bad
interval, tolerance, breakpoint or integrand value raises DomainError.
Subdivision order is deterministic, so results are bit-reproducible for a
given tolerance.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "density_integrals",
    "integrate_adaptive",
    "integrate_oscillatory",
    "smoothed_gauss_legendre",
    "subdivide",
]


# 15-point Kronrod abscissae/weights on [-1, 1] and the embedded 7-point
# Gauss weights (QUADPACK dqk15 constants).
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# full symmetric node/weight tables, ordered left to right
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_WK = np.concatenate([_WGK[:-1], _WGK[::-1]])
_WGFULL = np.zeros_like(_WK)
_WGFULL[1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class QuadResult:
    """Integral value with its error estimate and evaluation count."""

    value: float
    error_estimate: float
    evaluations: int


def _gk15(f: Callable, a: float, b: float) -> tuple[float, float, float]:
    """One Gauss-Kronrod 7-15 panel: (value, error estimate, resabs)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + half * _NODES
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        raise DomainError("integrand must return an array matching its input")
    if not np.all(np.isfinite(y)):
        bad = x[~np.isfinite(y)][0]
        raise DomainError(f"integrand returned a non-finite value near x={bad!r}")
    resk = half * float(np.dot(_WK, y))
    resg = half * float(np.dot(_WGFULL, y))
    resabs = abs(half) * float(np.dot(_WK, np.abs(y)))
    reskh = 0.5 * resk / half if half != 0 else 0.0
    resasc = abs(half) * float(np.dot(_WK, np.abs(y - reskh)))
    err = abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    err = max(err, 50.0 * _EPS * resabs)
    return resk, err, resabs


def integrate_adaptive(
    f: Callable,
    a: float,
    b: float,
    tol: float,
    *,
    max_intervals: int = 4096,
) -> QuadResult:
    """Adaptive integral of f over [a, b] to absolute-or-relative tolerance tol.

    Raises ConvergenceError, naming the value reached, if the subdivision
    budget is exhausted before the summed error estimate meets the target.
    """
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError(f"needs finite a < b, got [{a!r}, {b!r}]")
    if not (tol > 0.0):
        raise DomainError(f"tolerance must be positive, got {tol!r}")

    val, err, _ = _gk15(f, a, b)
    evals = 15
    # heap of (-error, insertion order, a, b, value, error)
    heap = [(-err, 0, a, b, val, err)]
    total_val, total_err = val, err
    counter = 1
    while total_err > max(tol, tol * abs(total_val)):
        if len(heap) >= max_intervals:
            raise ConvergenceError(
                f"subdivision budget of {max_intervals} intervals exhausted at "
                f"{total_val!r} (error estimate {total_err:.3e}, {evals} evaluations)"
            )
        _, _, ia, ib, ival, ierr = heapq.heappop(heap)
        im = 0.5 * (ia + ib)
        if im <= ia or im >= ib:
            # interval at floating-point resolution: keep as converged
            heapq.heappush(heap, (0.0, counter, ia, ib, ival, 0.0))
            total_err -= ierr
            counter += 1
            continue
        lv, le, _ = _gk15(f, ia, im)
        rv, re, _ = _gk15(f, im, ib)
        evals += 30
        total_val += lv + rv - ival
        total_err += le + re - ierr
        heapq.heappush(heap, (-le, counter, ia, im, lv, le))
        heapq.heappush(heap, (-re, counter + 1, im, ib, rv, re))
        counter += 2
    return QuadResult(total_val, total_err, evals)


def integrate_oscillatory(
    f: Callable,
    a: float,
    b: float,
    breakpoints: Sequence[float],
    tol: float,
) -> QuadResult:
    """Piecewise adaptive integration between the given interior breakpoints.

    Breakpoints must be strictly increasing and lie inside (a, b); error
    estimates of the pieces add.
    """
    a, b = float(a), float(b)
    pts = [float(p) for p in breakpoints]
    for i, p in enumerate(pts):
        if not (a < p < b):
            raise DomainError(f"breakpoint {p!r} outside ({a!r}, {b!r})")
        if i > 0 and p <= pts[i - 1]:
            raise DomainError("breakpoints must be strictly increasing")
    edges = [a, *pts, b]
    npieces = len(edges) - 1
    piece_tol = tol / npieces
    value = err = 0.0
    evals = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        res = integrate_adaptive(f, lo, hi, piece_tol)
        value += res.value
        err += res.error_estimate
        evals += res.evaluations
    return QuadResult(value, err, evals)


_SGL_X, _SGL_W = np.polynomial.legendre.leggauss(20)
_SGL_S = 0.5 * (_SGL_X + 1.0)
# u = 3 s^2 - 2 s^3 maps [0, 1] onto itself with du/ds = 6 s (1 - s)
_SGL_U = _SGL_S * _SGL_S * (3.0 - 2.0 * _SGL_S)
_SGL_DU = 3.0 * _SGL_S * (1.0 - _SGL_S) * _SGL_W


def smoothed_gauss_legendre(edges) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a 20-point Gauss-Legendre rule on each panel.

    The rule is applied after the map u = 3 s^2 - 2 s^3 of each panel, whose
    derivative vanishes at both ends; it flattens endpoint singularities such
    as the log cusps of rho ln rho at a zero of rho, so panels should be cut
    at those points. Returns flat arrays, panel by panel.
    """
    edges = np.asarray(edges, dtype=float)
    lo, width = edges[:-1, None], np.diff(edges)[:, None]
    return (lo + width * _SGL_U).ravel(), (width * _SGL_DU).ravel()


def subdivide(edges, width: float, min_parts: int) -> np.ndarray:
    """Cut each panel between consecutive edges into equal parts no wider than
    width, and into at least min_parts: the edges interpolated over the part index."""
    edges = np.asarray(edges, dtype=float)
    parts = np.maximum(min_parts, np.ceil(np.diff(edges) / width))
    knots = np.concatenate([[0.0], np.cumsum(parts)])
    return np.interp(np.arange(knots[-1] + 1.0), knots, edges)


def density_integrals(edges, density: Callable) -> tuple[float, float]:
    """(2 pi int rho x dx, -2 pi int rho ln rho x dx) over the panels between edges.

    `density` is called once with all nodes of `smoothed_gauss_legendre`;
    panels should be cut at the zeros of rho, where rho ln rho has its cusps.
    """
    x, weights = smoothed_gauss_legendre(edges)
    rho = np.asarray(density(x), dtype=float)
    rho_log = np.where(rho > 1e-300, rho * np.log(np.maximum(rho, 1e-300)), 0.0)  # 0 ln 0 := 0
    return (
        2.0 * math.pi * float(np.sum(weights * rho * x)),
        -2.0 * math.pi * float(np.sum(weights * rho_log * x)),
    )
