"""Momentum-space profile of an eigenstate.

The 3-D Fourier transform factorizes in cylindrical coordinates: the angular
integral turns the transverse part into an order-|l| Hankel transform of the
radial wavefunction,

    phi(p) = int_0^r0 R(r) J_|l|(p r) r dr,

under the unitary physical-momentum convention (hbar = 1), where a unimodular
phase has been dropped (it cancels in the density). The transverse momentum
density per p dp dp_theta is uniform in the momentum angle and equals

    rho(p) = Lz * phi(p)^2,        2 pi int_0^inf rho(p) p dp = 1.

The longitudinal factor is handled analytically in the entropy module.

`build_profile` evaluates phi with a fixed composite Gauss-Legendre rule in r
and integrates the density with one fixed rule per state. On [0, p_max],
p_max = 10 (Theta + 20) / r0, one batch of Gauss-Legendre p-nodes, split at
the amplitude's sign changes, gives the captured norm and the transverse
entropy. Past p_max, phi follows its two-term asymptotic form (L = |l|)

    phi(p) ~ C0 p^-(nu+2) + R'(r0) r0 sqrt(2 / (pi p r0)) cos(p r0 - L pi/2 - pi/4) / p^2.

The first term is the r^nu behaviour of R at the origin, through the
Weber-Schafheitlin integral of r^(nu+1) J_L(p r) (Watson, Treatise on the
Theory of Bessel Functions, sec. 13.24):

    C0 = a0 (Theta / 2 r0)^nu / Gamma(nu + 1) * 2^(nu+1) Gamma((L + nu + 2) / 2) / Gamma((L - nu) / 2),

which vanishes at beta = 0, where nu = L. The second is the hard wall's
endpoint contribution, from integration by parts (Wong, Asymptotic
Approximations of Integrals, ch. II), with R'(r0) = -a0 (Theta / r0)
J_{nu+1}(Theta). The norm and entropy of that model are integrated past p_max
and carried by the profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError
from .eigen import Eigenstate
from .quadrature import smoothed_gauss_legendre
from .specfun import bessel_j, bessel_zero, gamma

__all__ = ["MomentumProfile", "build_profile"]

_GL_POINTS = 10
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_GL_POINTS)
_SCAN_POINTS = 2048
# the modelled tail is integrated to _TAIL_REACH * p_max; what lies beyond
# changes S_p of the grid states by less than 4e-9 (most at small nu, whose
# origin term decays slowest)
_TAIL_REACH = 200.0
_TAIL_CHUNK = 4096  # tail panels per batch, which bounds the memory used
_DENSITY_FLOOR = 1e-300  # 0 ln 0 := 0 guard


def _xlnx(rho):
    rho = np.asarray(rho, dtype=float)
    safe = np.maximum(rho, _DENSITY_FLOOR)
    return np.where(rho > _DENSITY_FLOOR, rho * np.log(safe), 0.0)


def _radial_factor_zeros_inside(state: Eigenstate) -> list[float]:
    """Radii in (0, r0) where J_nu(Theta r / r0) changes sign."""
    return [
        state.params.r0 * bessel_zero(state.nu, i) / state.theta
        for i in range(1, state.qn.n + 1)
    ]


def _subdivide(edges, width: float, min_parts: int = 1) -> np.ndarray:
    """Cut each panel between consecutive edges into equal parts no wider than width."""
    out = [edges[0]]
    for lo, hi in zip(edges[:-1], edges[1:]):
        parts = max(min_parts, int(math.ceil((hi - lo) / width)))
        out.extend(np.linspace(lo, hi, parts + 1)[1:])
    return np.asarray(out)


class _AmplitudeEvaluator:
    """Vectorized phi(p) on a fixed composite Gauss-Legendre radial grid.

    Panels are no wider than half an oscillation of the kernel at p_cap, so
    the rule stays at quadrature-limited accuracy for every p <= p_cap.
    """

    def __init__(self, state: Eigenstate, p_cap: float):
        r0 = state.params.r0
        edges = sorted({0.0, r0, *_radial_factor_zeros_inside(state)})
        refined = _subdivide(edges, math.pi / max(p_cap, math.pi / r0), min_parts=2)
        # R(r) ~ r^nu is algebraic at the origin for fractional nu; grade the
        # innermost panel geometrically so Gauss-Legendre stays accurate there
        first = refined[1]
        grading = [first * 0.5**m for m in range(24, 0, -1)]
        refined = np.asarray([0.0, *grading, *refined[1:]])
        half = 0.5 * np.diff(refined)
        mids = 0.5 * (refined[:-1] + refined[1:])
        nodes = (mids[:, None] + half[:, None] * _GL_X[None, :]).ravel()
        weights = (half[:, None] * _GL_W[None, :]).ravel()
        self._nodes = nodes
        self._weighted = weights * state.radial_wavefunction(nodes) * nodes
        self._order = abs(state.qn.l)

    def __call__(self, p):
        arr = np.asarray(p, dtype=float)
        scalar = arr.ndim == 0
        ps = np.atleast_1d(arr)
        out = np.empty_like(ps)
        chunk = max(1, 200_000 // self._nodes.size)
        for start in range(0, ps.size, chunk):
            block = ps[start:start + chunk]
            args = np.multiply.outer(block, self._nodes)
            vals = bessel_j(self._order, args.ravel()).reshape(args.shape)
            out[start:start + chunk] = vals @ self._weighted
        return float(out[0]) if scalar else out.reshape(arr.shape)


def _p_max(state: Eigenstate) -> float:
    """Edge of the sampled profile, far enough out for the tail model to hold."""
    return 10.0 * (state.theta + 20.0) / state.params.r0


def _rgamma(x: float) -> float:
    """1 / Gamma(x) for real x; zero at the poles 0, -1, -2, ..."""
    if x > 0.0:
        return 1.0 / gamma(x)
    return math.sin(math.pi * x) * gamma(1.0 - x) / math.pi


def _tail_coefficients(state: Eigenstate) -> tuple[float, float]:
    """(C0, A) of the tail model C0 p^-(nu+2) + A cos(p r0 - (2L+1) pi/4) p^-5/2."""
    r0, nu, theta = state.params.r0, state.nu, state.theta
    order = abs(state.qn.l)
    c0 = (
        state.a0 * (0.5 * theta / r0) ** nu / gamma(nu + 1.0) * 2.0 ** (nu + 1.0)
        * gamma(0.5 * (order + nu) + 1.0) * _rgamma(0.5 * (order - nu))
    )
    wall_slope = -state.a0 * theta / r0 * bessel_j(nu + 1.0, theta)
    return c0, wall_slope * r0 * math.sqrt(2.0 / (math.pi * r0))


def _tail_amplitude(state: Eigenstate, p):
    """The two-term asymptotic amplitude; accurate only well past p_max / 2."""
    c0, wall = _tail_coefficients(state)
    phase = p * state.params.r0 - (2 * abs(state.qn.l) + 1) * math.pi / 4.0
    return c0 * p ** -(state.nu + 2.0) + wall * np.cos(phase) * p**-2.5


def _tail_integrals(state: Eigenstate, p_max: float) -> tuple[float, float]:
    """Norm and transverse entropy of the tail model from p_max on.

    Panels run between the zeros of the wall term's cosine, where rho ln rho
    has its cusps once the wall term dominates.
    """
    r0, lz = state.params.r0, state.params.lz
    # cos(p r0 - (2L+1) pi/4) vanishes at p r0 = (2L+3) pi/4 + m pi
    phase = (2 * abs(state.qn.l) + 3) * math.pi / 4.0
    first = math.floor((p_max * r0 - phase) / math.pi) + 1
    last = math.ceil((_TAIL_REACH * p_max * r0 - phase) / math.pi)
    edges = np.concatenate([[p_max], (phase + math.pi * np.arange(first, last + 1)) / r0])
    norm = entropy = 0.0
    for start in range(0, edges.size - 1, _TAIL_CHUNK):
        p, w = smoothed_gauss_legendre(edges[start:start + _TAIL_CHUNK + 1])
        rho = lz * _tail_amplitude(state, p) ** 2
        norm += 2.0 * math.pi * float(np.sum(w * rho * p))
        entropy -= 2.0 * math.pi * float(np.sum(w * _xlnx(rho) * p))
    return norm, entropy


def _amplitude_breakpoints(scan: np.ndarray) -> list[float]:
    """Approximate sign changes of phi in a (p, amplitude, density) scan.

    Located by linear interpolation of the scan; crossings where the
    neighbouring density is below 1e-12 * peak are dropped (they no longer
    matter to any integral).
    """
    ps, amps, dens = scan[:, 0], scan[:, 1], scan[:, 2]
    peak = float(np.max(dens))
    flips = np.where(np.sign(amps[:-1]) * np.sign(amps[1:]) < 0)[0]
    points = []
    for i in flips:
        if max(dens[max(i - 1, 0)], dens[min(i + 2, len(ps) - 1)]) < 1e-12 * peak:
            continue
        frac = amps[i] / (amps[i] - amps[i + 1])
        points.append(float(ps[i] + frac * (ps[i + 1] - ps[i])))
    return points


@dataclass(frozen=True, eq=False)
class MomentumProfile:
    """Transverse momentum profile with its integrals.

    `amplitude` is the profile's vectorized amplitude function, valid on
    [0, p_max]; `sample` tabulates it.
    `captured_norm` and `inner_entropy` are the norm and the transverse
    entropy -2 pi int rho ln rho p dp on [0, p_max]; `tail_norm` and
    `tail_entropy` are those of the tail model past p_max.
    """

    state: Eigenstate
    p_max: float
    captured_norm: float
    tail_norm: float
    inner_entropy: float
    tail_entropy: float
    amplitude: Callable = field(repr=False)
    _scan: np.ndarray = field(repr=False)

    def density(self, p):
        amp = self.amplitude(p)
        return self.state.params.lz * amp * amp

    def sample(self, count: int) -> np.ndarray:
        """Rows (p_r, amplitude, density) on at most `count` grid points, sorted by p_r.

        The grid is clustered around the density peak: 70% of the points lie
        below the knee 2.5 max(p_peak, Theta / r0).
        """
        if count < 64:
            raise DomainError(f"samples must be >= 64, got {count!r}")
        ps, dens = self._scan[:, 0], self._scan[:, 2]
        p_peak = float(ps[int(np.argmax(dens))])
        p_knee = min(self.p_max, 2.5 * max(p_peak, self.state.theta / self.state.params.r0))
        n_near = int(0.7 * count)
        grid = np.unique(np.concatenate([
            np.linspace(0.0, p_knee, n_near),
            np.linspace(p_knee, self.p_max, count - n_near + 1),
        ]))
        amp = self.amplitude(grid)
        return np.column_stack([grid, amp, self.state.params.lz * amp**2])

    def principal_maxima(self, rel_height: float = 0.05) -> list[float]:
        """Locations of local density maxima above rel_height * peak.

        The default threshold keeps the principal ridges and drops the much
        weaker diffraction sidelobes shed by the hard wall. A maximum at
        p = 0 (the l = 0 ground profile) counts.
        """
        ps, dens = self._scan[:, 0], self._scan[:, 2]
        peak = float(np.max(dens))
        out = []
        if dens[0] >= dens[1] and dens[0] >= rel_height * peak:
            out.append(float(ps[0]))
        for i in range(1, len(ps) - 1):
            if dens[i] > dens[i - 1] and dens[i] >= dens[i + 1] and dens[i] >= rel_height * peak:
                out.append(float(ps[i]))
        return out


def build_profile(state: Eigenstate) -> MomentumProfile:
    """The transverse momentum profile of `state` and its integrals.

    One batch of composite Gauss-Legendre nodes on [0, p_max], split at the
    amplitude's sign changes and cut to panels no wider than pi / r0, gives
    the captured norm and transverse entropy; the tail model gives both past
    p_max.
    """
    r0 = state.params.r0
    lz = state.params.lz
    p_max = _p_max(state)
    evaluator = _AmplitudeEvaluator(state, p_max)
    # dense scan: used for the sign changes, the peak search and maxima counting
    p_scan = np.linspace(0.0, p_max, _SCAN_POINTS)
    amp_scan = evaluator(p_scan)
    scan = np.column_stack([p_scan, amp_scan, lz * amp_scan**2])

    edges = _subdivide([0.0, *_amplitude_breakpoints(scan), p_max], math.pi / r0)
    p_nodes, weights = smoothed_gauss_legendre(edges)
    rho = lz * evaluator(p_nodes) ** 2
    tail_norm, tail_entropy = _tail_integrals(state, p_max)
    return MomentumProfile(
        state=state,
        p_max=p_max,
        captured_norm=2.0 * math.pi * float(np.sum(weights * rho * p_nodes)),
        tail_norm=tail_norm,
        inner_entropy=-2.0 * math.pi * float(np.sum(weights * _xlnx(rho) * p_nodes)),
        tail_entropy=tail_entropy,
        amplitude=evaluator,
        _scan=scan,
    )
