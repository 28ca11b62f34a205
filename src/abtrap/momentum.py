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

`build_profile` uses the package's one rule, `smoothed_gauss_legendre`, in
both variables. In r it builds phi as one weighted sum over fixed nodes, on
panels two oscillations of J_L(p_max r) wide; its smoothing map
u = 3 s^2 - 2 s^3 turns the r^(nu+L+1) behaviour of the integrand at the
origin into s^(2 nu+2 L+3), which Gauss-Legendre integrates without grading.
On [0, p_max], p_max = 10 (Theta + 20) / r0, a scan of 8 points per pi / r0
brackets the amplitude's sign changes, and regula falsi puts each on its root.
One batch of p-nodes, split there, gives the captured norm and the transverse
entropy through `density_integrals`. Past p_max, phi follows its two-term
asymptotic form (L = |l|)

    phi(p) ~ C0 p^-(nu+2) + R'(r0) r0 sqrt(2 / (pi p r0)) cos(p r0 - L pi/2 - pi/4) / p^2.

The first term is the r^nu behaviour of R at the origin, through the
Weber-Schafheitlin integral of r^(nu+1) J_L(p r) (Watson, Treatise on the
Theory of Bessel Functions, sec. 13.24):

    C0 = a0 (Theta / 2 r0)^nu / Gamma(nu + 1) * 2^(nu+1) Gamma((L + nu + 2) / 2) / Gamma((L - nu) / 2),

which vanishes at beta = 0, where nu = L. The second is the hard wall's
endpoint contribution, from integration by parts (Wong, Asymptotic
Approximations of Integrals, ch. II), with R'(r0) = -a0 (Theta / r0)
J_{nu+1}(Theta). The norm and entropy of that model are integrated past p_max
and carried by the profile. `sample_profile` tabulates the amplitude alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .eigen import Eigenstate
from .quadrature import density_integrals, smoothed_gauss_legendre, subdivide
from .specfun import bessel_j, gamma

__all__ = ["MomentumProfile", "build_profile", "sample_profile"]

# the modelled tail is integrated to _TAIL_REACH * p_max; what lies beyond
# changes S_p of the grid states by less than 4e-9 (most at small nu, whose
# origin term decays slowest)
_TAIL_REACH = 200.0
_TAIL_CHUNK = 4096  # tail panels per batch, which bounds the memory used


class _AmplitudeEvaluator:
    """Vectorized phi(p) by `smoothed_gauss_legendre` on a fixed radial grid.

    [0, r0] is split at the radial nodes and cut to panels no wider than two
    oscillations of the kernel at p_cap, 4 pi / p_cap; that keeps phi within
    2e-13 of a four times finer grid for every p <= p_cap.
    """

    def __init__(self, state: Eigenstate, p_cap: float):
        r0 = state.params.r0
        edges = [0.0, *state.radial_nodes(), r0]
        nodes, weights = smoothed_gauss_legendre(
            subdivide(edges, 4.0 * math.pi / max(p_cap, math.pi / r0), 1)
        )
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
        chunk_norm, chunk_entropy = density_integrals(
            edges[start:start + _TAIL_CHUNK + 1], lambda p: lz * _tail_amplitude(state, p) ** 2
        )
        norm += chunk_norm
        entropy += chunk_entropy
    return norm, entropy


def _amplitude_breakpoints(
    evaluator: _AmplitudeEvaluator, ps: np.ndarray, amps: np.ndarray
) -> np.ndarray:
    """Sign changes of phi between neighbouring points of a scan `amps` at `ps`.

    Each crossing is refined from its two scan points by regula falsi with the
    Anderson-Bjorck weight (the end that stays is scaled by 1 - f(x) / f(end
    dropped), or by 1/2), which converges superlinearly. A round is one
    evaluator call over the crossings whose estimate still moved by more than
    1e-10 of the scan range; the grid states take 3 to 8 rounds.
    """
    i = np.flatnonzero(np.sign(amps[:-1]) * np.sign(amps[1:]) < 0)
    a, b, fa, fb = ps[i], ps[i + 1], amps[i], amps[i + 1]
    x = a - fa * (b - a) / (fb - fa)
    tol = 1e-10 * (ps[-1] - ps[0])
    todo = np.arange(x.size)
    for _ in range(64):
        if todo.size == 0:
            break
        fx = evaluator(x[todo])
        drop_b = np.sign(fx) == np.sign(fb[todo])  # the change lies in [a, x]
        weight = 1.0 - fx / np.where(drop_b, fb[todo], fa[todo])
        weight = np.where(weight > 0.0, weight, 0.5)
        j, k = todo[drop_b], todo[~drop_b]
        b[j], fb[j], fa[j] = x[j], fx[drop_b], fa[j] * weight[drop_b]
        a[k], fa[k], fb[k] = x[k], fx[~drop_b], fb[k] * weight[~drop_b]
        step = a[todo] - fa[todo] * (b[todo] - a[todo]) / (fb[todo] - fa[todo])
        moved = np.abs(step - x[todo]) > tol
        x[todo] = step
        todo = todo[moved]
    return x


@dataclass(frozen=True, eq=False)
class MomentumProfile:
    """Transverse momentum profile with its integrals.

    `amplitude` is the profile's vectorized amplitude function, valid on
    [0, p_max]. `captured_norm` and `inner_entropy` are the norm and the
    transverse entropy -2 pi int rho ln rho p dp on [0, p_max]; `tail_norm`
    and `tail_entropy` are those of the tail model past p_max.
    """

    state: Eigenstate
    p_max: float
    captured_norm: float
    tail_norm: float
    inner_entropy: float
    tail_entropy: float
    amplitude: Callable = field(repr=False)


def build_profile(state: Eigenstate) -> MomentumProfile:
    """The transverse momentum profile of `state` and its integrals, for `S_p`.

    The amplitude is a weighted sum over r-panels two kernel oscillations at
    p_max wide. A scan of 8 points per pi / r0 brackets its sign changes,
    each refined by regula falsi; the scan serves nothing else. One batch of
    composite Gauss-Legendre nodes on [0, p_max], split at them and cut to
    panels no wider than pi / r0, gives the captured norm and transverse
    entropy; the tail model gives both past p_max.
    """
    r0, lz = state.params.r0, state.params.lz
    p_max = _p_max(state)
    evaluator = _AmplitudeEvaluator(state, p_max)
    # 8 scan points per pi / r0 bracket the breakpoints
    p_scan = np.linspace(0.0, p_max, math.ceil(8.0 * p_max * r0 / math.pi) + 1)
    amp_scan = evaluator(p_scan)
    breakpoints = _amplitude_breakpoints(evaluator, p_scan, amp_scan)
    edges = subdivide([0.0, *breakpoints, p_max], math.pi / r0, 1)
    captured_norm, inner_entropy = density_integrals(edges, lambda p: lz * evaluator(p) ** 2)
    tail_norm, tail_entropy = _tail_integrals(state, p_max)
    return MomentumProfile(
        state=state,
        p_max=p_max,
        captured_norm=captured_norm,
        tail_norm=tail_norm,
        inner_entropy=inner_entropy,
        tail_entropy=tail_entropy,
        amplitude=evaluator,
    )


def sample_profile(state: Eigenstate, count: int) -> np.ndarray:
    """Rows (p_r, amplitude, density) of `state` on `count` points of [0, p_max].

    70% of the points lie below the knee min(p_max, 2.5 Theta / r0), where
    most of the density lies; the rest run on to p_max. The amplitude is the
    one `build_profile` integrates, but no integral is taken.
    """
    p_max = _p_max(state)
    p_knee = min(p_max, 2.5 * state.theta / state.params.r0)
    n_near = int(0.7 * count)
    grid = np.unique(np.concatenate([
        np.linspace(0.0, p_knee, n_near),
        np.linspace(p_knee, p_max, count - n_near + 1),
    ]))
    amp = _AmplitudeEvaluator(state, p_max)(grid)
    return np.column_stack([grid, amp, state.params.lz * amp**2])
