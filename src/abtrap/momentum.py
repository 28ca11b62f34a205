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
On [0, p_max], p_max = 5 (Theta + 20) / r0, a scan of 8 points per pi / r0
brackets the amplitude's sign changes, and regula falsi puts each on its root.
One batch of p-nodes, split there, gives the captured norm and the transverse
entropy through `density_integrals`. Past p_max, phi follows the first five
terms of its large-p expansion (L = |l|, chi = p r0 - L pi/2 - pi/4)

    phi(p) ~ sum_{j=0,1} C_j p^-(nu+2+2j)
             + sum_{j=0..2} p^-(j+5/2) (W_j cos chi + W'_j sin chi).

The origin terms are the terms r^(nu+2j) of the ascending series of R,
through the Weber-Schafheitlin integrals of r^(nu+2j+1) J_L(p r) (Watson,
Treatise on the Theory of Bessel Functions, sec. 13.24):

    C_j = (-1)^j a0 (Theta / 2 r0)^(nu+2j) / (j! Gamma(nu + j + 1))
          * 2^(nu+2j+1) Gamma((L + nu + 2j + 2) / 2) / Gamma((L - nu - 2j) / 2),

which vanish at beta = 0, where nu = L. The wall terms come from Green's
identity for the Bessel operator B f = -(1/r)(r f')' + L^2 f / r^2 (Watson
sec. 5.11; Wong, Asymptotic Approximations of Integrals, ch. II): since
B J_L(p r) = p^2 J_L(p r), and R and B R = (Theta^2 / r0^2 + (L^2 - nu^2) / r^2) R
vanish at r0, two passes leave the wall part through p^-9/2 as

    r0 R'(r0) (p^-2 + g0 p^-4) J_L(p r0),    g0 = (Theta^2 + L^2 - nu^2) / r0^2,

with R'(r0) = -a0 (Theta / r0) J_{nu+1}(Theta) and J_L in three terms of
Hankel's expansion. The first terms left out fall as p^-(nu+6) and p^-11/2.
The norm and entropy of that model are integrated past p_max and carried by
the profile. `sample_profile` tabulates the amplitude alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .eigen import Eigenstate
from .quadrature import density_integrals, smoothed_gauss_legendre, subdivide
from .specfun import bessel_j

__all__ = ["MomentumProfile", "build_profile", "sample_profile"]

# the modelled tail is integrated to _TAIL_REACH * p_max = 2000 (Theta + 20) / r0;
# what lies beyond changes S_p of the grid states by less than 4e-9, and by
# 6e-8 at nu = 0.01 (the origin term decays slowest at small nu)
_TAIL_REACH = 400.0
_TAIL_CHUNK = 4096  # tail panels per batch, which bounds the memory used


class _AmplitudeEvaluator:
    """Vectorized phi(p) by `smoothed_gauss_legendre` on a fixed radial grid.

    [0, r0] is split at the radial nodes and cut to panels no wider than two
    oscillations of the kernel at p_max, 4 pi / p_max; that keeps phi within
    3e-13 of a four times finer grid for every p <= p_max.
    """

    def __init__(self, state: Eigenstate):
        edges = [0.0, *state.radial_nodes(), state.params.r0]
        nodes, weights = smoothed_gauss_legendre(subdivide(edges, 4.0 * math.pi / _p_max(state), 1))
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
    return 5.0 * (state.theta + 20.0) / state.params.r0


def _tail_coefficients(state: Eigenstate) -> tuple[tuple[float, ...], np.ndarray]:
    """((E0, E1), W) of the five-term tail model; see `_tail_amplitude`.

    E_j = C_j (r0 / Theta)^(nu+2j), its Gamma ratio formed in logs, is finite
    at any order. Row j of W holds the (cos chi, sin chi) coefficients of
    p^-(j+5/2) in the wall part of the module docstring.
    """
    r0, nu, theta = state.params.r0, state.nu, state.theta
    order = abs(state.qn.l)
    origin = []
    for j in range(2):
        x = 0.5 * (order - nu) - j
        if x <= 0.0 and x == math.floor(x):  # 1 / Gamma(x) vanishes at its poles
            origin.append(0.0)
            continue
        sign = (-1.0) ** (j + min(math.floor(x), 0))  # that of (-1)^j Gamma(x)
        log_ratio = (math.lgamma(0.5 * (order + nu) + j + 1.0) - math.lgamma(x)
                     - math.lgamma(nu + j + 1.0) - math.lgamma(j + 1.0))
        origin.append(sign * 2.0 * state.a0 * math.exp(log_ratio))
    slope = -state.a0 * theta / r0 * bessel_j(nu + 1.0, theta)  # R'(r0)
    four = 4.0 * order * order
    a1, a2 = (four - 1.0) / 8.0, (four - 1.0) * (four - 9.0) / 128.0
    wall = math.sqrt(2.0 * r0 / math.pi) * slope * np.array(
        [[1.0, 0.0], [0.0, -a1 / r0], [(theta**2 + order**2 - nu**2 - a2) / r0**2, 0.0]]
    )
    return tuple(origin), wall


def _tail_amplitude(state: Eigenstate, coefficients, p):
    """The five-term asymptotic amplitude, with chi = p r0 - (2L+1) pi / 4,

        sum_j E_j (Theta / (r0 p))^(nu+2j) / p^2
        + sum_j p^-(j+5/2) (W[j,0] cos chi + W[j,1] sin chi),

    over j = 0, 1 and j = 0, 1, 2, from `coefficients = ((E0, E1), W)`; its
    error falls as p^-(nu+6) or p^-11/2, whichever is slower, so it is
    accurate only well past p_max / 2.
    """
    origin, wall = coefficients
    chi = p * state.params.r0 - (2 * abs(state.qn.l) + 1) * math.pi / 4.0
    cos, sin = np.cos(chi), np.sin(chi)
    inv = 1.0 / p
    x = state.theta / state.params.r0 * inv  # below 1 / 5 past p_max
    smooth = 0.0
    for e in origin[::-1]:
        smooth = smooth * x * x + e
    oscillating = 0.0
    for w_cos, w_sin in wall[::-1]:
        oscillating = oscillating * inv + w_cos * cos + w_sin * sin
    return smooth * x**state.nu * inv * inv + oscillating * inv * inv * np.sqrt(inv)


def _tail_integrals(state: Eigenstate, p_max: float) -> tuple[float, float]:
    """Norm and transverse entropy of the tail model from p_max on.

    Panels run between the zeros of cos chi, where rho ln rho has its cusps
    once the leading wall term dominates. The later terms move the model's
    zeros by O(1 / p); on the grid states, panels cut at the model's own zeros
    and four times finer change the tail entropy by at most 3.5e-9.
    """
    r0, lz = state.params.r0, state.params.lz
    # cos(p r0 - (2L+1) pi/4) vanishes at p r0 = (2L+3) pi/4 + m pi
    phase = (2 * abs(state.qn.l) + 3) * math.pi / 4.0
    first = math.floor((p_max * r0 - phase) / math.pi) + 1
    last = math.ceil((_TAIL_REACH * p_max * r0 - phase) / math.pi)
    edges = np.concatenate([[p_max], (phase + math.pi * np.arange(first, last + 1)) / r0])
    coefficients = _tail_coefficients(state)
    norm = entropy = 0.0
    for start in range(0, edges.size - 1, _TAIL_CHUNK):
        chunk_norm, chunk_entropy = density_integrals(
            edges[start:start + _TAIL_CHUNK + 1],
            lambda p: lz * _tail_amplitude(state, coefficients, p) ** 2,
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
    evaluator = _AmplitudeEvaluator(state)
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

    70% of the points lie below the knee 2.5 Theta / r0 (below p_max), where
    most of the density lies; the rest run on to p_max. The amplitude is the
    one `build_profile` integrates, but no integral is taken.
    """
    p_max = _p_max(state)
    p_knee = 2.5 * state.theta / state.params.r0
    n_near = int(0.7 * count)
    grid = np.unique(np.concatenate([
        np.linspace(0.0, p_knee, n_near),
        np.linspace(p_knee, p_max, count - n_near + 1),
    ]))
    amp = _AmplitudeEvaluator(state)(grid)
    return np.column_stack([grid, amp, state.params.lz * amp**2])
