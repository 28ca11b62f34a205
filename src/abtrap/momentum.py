"""Momentum-space profile of an eigenstate, on the unit cylinder.

The 3-D Fourier transform factorizes in cylindrical coordinates: the angular
integral turns the transverse part into an order-|l| Hankel transform of the
radial wavefunction. On the unit cylinder r0 = Lz = 1, with x = r / r0 and
momenta p in units of 1 / r0 (the entropy module and the CLI apply the box),

    phi(p) = int_0^1 R(x) J_|l|(p x) x dx,

under the unitary physical-momentum convention (hbar = 1), where a unimodular
phase has been dropped (it cancels in the density). The transverse momentum
density per p dp dp_theta is uniform in the momentum angle and equals

    rho(p) = phi(p)^2,        2 pi int_0^inf rho(p) p dp = 1.

The longitudinal factor is handled analytically in the entropy module.

Each state has one plan, `_AmplitudeEvaluator`: it builds the state's tail
model, `_Tail`, and fixes p_max from it once; `build_profile` and
`sample_profile` read both from there. `build_profile` uses the package's one
rule, `smoothed_gauss_legendre`, in both variables. In x the plan builds phi
as one weighted sum over fixed nodes, on panels two oscillations of
J_L(p_max x) wide; its smoothing map u = 3 s^2 - 2 s^3 turns the x^(nu+L+1)
behaviour of the integrand at the origin into s^(2 nu+2 L+3), which
Gauss-Legendre integrates without grading except for L = 0, 0 < nu < 1/2.
That sum runs once per plan, on Chebyshev panels 3 pi wide or less: phi is
entire of exponential type 1, since R lives on [0, 1], so every other value
is a panel's barycentric interpolant (Berrut and Trefethen, SIAM Rev. 46
(2004) 501), within 2.8e-15 of the sum. The Bessel work is thus set by p_max
and the radial grid, not by how many points of phi are asked for. On
[0, p_max] a scan of 8 points per pi brackets the amplitude's sign changes,
and regula falsi puts each on its root. One batch of p-nodes, split there,
gives the captured norm and the transverse entropy through
`density_integrals`. Past p_max, phi follows the tail model (L = |l|,
M = _ORDER = 3): origin terms plus the wall part of Green's identity,

    phi(p) ~ sum_{j=0..M} C_j p^-(nu+2+2j)
             + sum_{m=0..M} p^-2(m+1) [f_m'(1) J_L(p) - f_m(1) p J_L'(p)].

The origin terms are the terms x^(nu+2j) of the ascending series of R,
through the Weber-Schafheitlin integrals of x^(nu+2j+1) J_L(p x) (Watson,
Treatise on the Theory of Bessel Functions, sec. 13.24):

    C_j = (-1)^j a0 (Theta / 2)^(nu+2j) / (j! Gamma(nu + j + 1))
          * 2^(nu+2j+1) Gamma((L + nu + 2j + 2) / 2) / Gamma((L - nu - 2j) / 2),

which vanish at beta = 0, where nu = L. The wall terms come from Green's
identity for the Bessel operator B f = -(1/x)(x f')' + L^2 f / x^2 (Watson
sec. 5.11; Wong, Asymptotic Approximations of Integrals, ch. II): since
B J_L(p x) = p^2 J_L(p x), each pass moves B onto f_m, with f_0 = R and
f_{m+1} = B f_m. R solves R'' = -R' / x - (Theta^2 - nu^2 / x^2) R, so each
f_m is a R + b R' with a and b polynomials in 1 / x, B acts on their
coefficients, and one loop, `_green_passes`, gives f_m(1) and f_m'(1) for
any m. With s = R'(1) = -a0 Theta J_{nu+1}(Theta), c = L^2 - nu^2 and
g0 = Theta^2 + c,

    f_0(1) = f_1(1) = 0,      f_0'(1) = s,   f_1'(1) = g0 s,
    f_2(1) = 4 c s,           f_2'(1) = (g0^2 - 20 c) s,
    f_3(1) = 12 c s (g0 - 8), f_3'(1) = s [g0^3 - 84 c g0 + (640 + 32 L^2 - 40 c) c].

The series runs in (Theta^2 + |c|) / p^2, not in Hankel's L^2 / p, because
J_L(p) and J_{L+1}(p) are kept exact. The first terms left out, j = m = 4,
fall as p^-(nu+10) and p^-19/2, and p_max is where they would move the
transverse entropy past p_max by _TAIL_TOL = 1e-11: `_Tail.truncation`
bounds that per unit ln p from the terms' envelopes, and `_p_max` sums it
from p = inf down. When nu << L the origin series runs in about
(L Theta / 2 p)^2, so p_max grows with L Theta; on the default grid it is
25 to 120, 9 to 12 Theta. The tail is integrated on two scales. On the near
band [p_max, P], P about 40 p_max, the exact model is integrated on panels
between its zeros. Past P, J_L and J_{L+1} take Hankel's P and Q from
`specfun.hankel_pq`, so phi = o(p) + A(p) cos chi + B(p) sin chi, with o the
origin terms and chi = p - L pi/2 - pi/4; the means of rho and rho ln rho over
one period of chi vary slowly in p, and are integrated in t = P / p over
(0, 1], out to p = inf. The profile carries the tail's norm and entropy, and
fails when the norm misses 1 by more than 1e-7. `sample_profile` tabulates
the square of the plan's amplitude alone and integrates no tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigen import Eigenstate
from .errors import ConvergenceError
from .quadrature import density_integrals, rho_ln_rho, smoothed_gauss_legendre, subdivide
from .specfun import bessel_j, hankel_pq, mcmahon_zero

__all__ = ["MomentumProfile", "build_profile", "sample_profile"]

# the tail's near band runs from p_max to P, about _NEAR_BAND * p_max; past P the
# model is averaged over its phase chi on _PHASES and integrated in t = P / p
# on the panels between _FAR_EDGES, graded by 4 towards t = 0 (p = inf)
_NEAR_BAND = 40.0
_FAR_EDGES = np.concatenate([[0.0], 4.0 ** -np.arange(7.0, -1.0, -1.0)])
_PHASES = 2.0 * math.pi * (np.arange(40) + 0.5) / 40
# build_profile fails when the norm misses 1 by more than this
_NORM_DEFECT = 1e-7
# the tail model keeps the origin terms j <= _ORDER and the Green passes m <= _ORDER
_ORDER = 3
# p_max is where the terms the tail model leaves out move the entropy past it by
# this much; it is sought on p = Theta e^u, u < _LOG_SPAN in steps of _LOG_STEP
_TAIL_TOL = 1e-11
_LOG_SPAN = 12.0
_LOG_STEP = 1.0 / 32.0
# phi is tabulated on equal panels of [0, p_max] no wider than _TABLE_WIDTH, at
# the Chebyshev points of the second kind _CHEB_NODES (on [-1, 1]), and
# interpolated with the barycentric weights _CHEB_WEIGHTS
_TABLE_WIDTH = 3.0 * math.pi
_CHEB_NODES = -np.cos(math.pi * np.arange(24) / 23)
_CHEB_WEIGHTS = (-1.0) ** np.arange(24) * np.r_[0.5, np.ones(22), 0.5]
# array elements per slice of a batch, in the exact sum and in the interpolation
_SLICE_ELEMENTS = 200_000


class _AmplitudeEvaluator:
    """The momentum plan of one state: its tail model, p_max, and phi(p) on [0, p_max].

    The exact phi, `_block`, is a vectorized `smoothed_gauss_legendre` sum.
    [0, 1] is split at the radial nodes and cut to panels no wider than two
    oscillations of the kernel at p_max, 4 pi / p_max. The integrand
    R(x) J_L(p x) x behaves as x^(nu+L+1) at the origin, s^(2 nu+2 L+3) after
    the smoothing map; for L = 0 and 0 < nu < 1/2 that power is fractional and
    below 4, and the first panel is cut at 1/16 and 1/4 of its width. That
    keeps phi within 3e-13 of a four times finer grid for every p <= p_max
    (4e-12 at (0,0,0.2) without the cuts).

    The constructor takes that sum once, at the 24 Chebyshev points of the
    second kind of each of ceil(p_max / 3 pi) equal panels of [0, p_max];
    calling the plan evaluates the barycentric interpolant of the panel that
    holds p, with weights (-1)^j halved at both ends, or the table value where
    p is a node. It is within 2.8e-15 of `_block` on 5003 points of
    [0, p_max], on the 36 rows of `abtrap table --betas 0 0.2 0.4 0.8` and
    eight wide states (5.7e-13 with 16 points per 2 pi). The panel index is
    clamped to the table; no caller asks for p past p_max.
    """

    def __init__(self, state: Eigenstate):
        self.tail = _Tail(state)
        self.p_max = _p_max(self.tail)
        edges = subdivide([0.0, *state.radial_nodes(), 1.0], 4.0 * math.pi / self.p_max, 1)
        if state.qn.l == 0 and 0.0 < state.nu < 0.5:
            edges = np.concatenate([[0.0], edges[1] / np.array([16.0, 4.0]), edges[1:]])
        nodes, weights = smoothed_gauss_legendre(edges)
        self._nodes = nodes
        self._weighted = weights * state.radial_wavefunction(nodes) * nodes
        panels = math.ceil(self.p_max / _TABLE_WIDTH)
        self._width = self.p_max / panels
        # row j holds phi at node j of every panel
        table_p = self._width * (np.arange(panels) + 0.5 * (_CHEB_NODES[:, None] + 1.0))
        self._table = self._block(table_p.ravel()).reshape(table_p.shape)

    def _block(self, p: np.ndarray) -> np.ndarray:
        """The exact sum: phi at each point of the 1-D array `p`, from one J_L per radial node."""

        def rows(p):
            args = np.multiply.outer(p, self._nodes)
            return bessel_j(self.tail.order, args.ravel()).reshape(args.shape) @ self._weighted

        return _in_slices(rows, p, self._nodes.size)

    def __call__(self, p: np.ndarray) -> np.ndarray:
        """phi at each point of the 1-D array `p` in [0, p_max], from the table."""

        def rows(p):
            s = p / self._width
            panel = np.minimum(s.astype(np.intp), self._table.shape[1] - 1)
            # q = w_j / (t - t_j) at the panel coordinate t in [-1, 1], in place
            q = 2.0 * (s - panel) - 1.0 - _CHEB_NODES[:, None]
            node, point = np.nonzero(q == 0.0)
            q[node, point] = 1.0
            np.divide(_CHEB_WEIGHTS[:, None], q, out=q)
            values = self._table[:, panel]
            hits = values[node, point]
            total = q.sum(axis=0)
            values *= q
            phi = values.sum(axis=0) / total
            phi[point] = hits  # p on a node: the table value
            return phi

        return _in_slices(rows, p, _CHEB_NODES.size)


def _in_slices(rows, p: np.ndarray, width: int) -> np.ndarray:
    """rows(p) over the 1-D array `p`, in slices of _SLICE_ELEMENTS // width points."""
    out = np.empty(p.size)
    step = max(1, _SLICE_ELEMENTS // width)
    for start in range(0, p.size, step):
        out[start:start + step] = rows(p[start:start + step])
    return out


def _p_max(tail: _Tail) -> float:
    """Edge of the sampled profile: where the tail's truncation error past it is _TAIL_TOL.

    The bound `tail.truncation` is summed from the top of the grid
    p = Theta e^u, u < _LOG_SPAN in steps of _LOG_STEP, down by the trapezoid
    rule; p_max is the first p where that sum falls to _TAIL_TOL, interpolated
    in its logarithm.
    """
    u = np.arange(0.0, _LOG_SPAN, _LOG_STEP)
    density = tail.truncation(tail.theta * np.exp(u))
    past = np.cumsum(0.5 * _LOG_STEP * (density[:0:-1] + density[-2::-1]))[::-1]
    # past falls with u; np.interp clamps to the grid at either end
    return tail.theta * math.exp(np.interp(-math.log(_TAIL_TOL), -np.log(past), u[:-1]))


def _origin_term(order: int, nu: float, j: int, a0: float) -> float:
    """E_j = C_j Theta^-(nu+2j), its Gamma ratio formed in logs, finite at any order."""
    x = 0.5 * (order - nu) - j
    if x <= 0.0 and x == math.floor(x):  # 1 / Gamma(x) vanishes at its poles
        return 0.0
    sign = (-1.0) ** (j + min(math.floor(x), 0))  # that of (-1)^j Gamma(x)
    log_ratio = (math.lgamma(0.5 * (order + nu) + j + 1.0) - math.lgamma(x)
                 - math.lgamma(nu + j + 1.0) - math.lgamma(j + 1.0))
    return sign * 2.0 * a0 * math.exp(log_ratio)


def _times_y(c: np.ndarray, power: int = 1) -> np.ndarray:
    """The polynomial in y with coefficients `c` (lowest first), times y^power."""
    return np.concatenate([np.zeros(power), c[:-power]])


def _green_passes(order: int, nu: float, theta: float, count: int) -> np.ndarray:
    """(f_m(1), f_m'(1)) / R'(1) for m < count, with f_0 = R and f_{m+1} = B f_m.

    Each f_m is a R + b R', a and b polynomials in y = 1 / x, since
    R'' = -R' / x - (Theta^2 - nu^2 y^2) R and d/dx = -y^2 d/dy; B acts on
    the pair (a, b). At the wall R = 0, so f_m(1) = b(1) R'(1), and f_m'(1)
    is the R' part of f_m' at y = 1.
    """
    size = 2 * count + 2
    degree = np.arange(size)

    def d_dx(c):
        return -_times_y(degree * c)

    def times_q(c):  # times Theta^2 - nu^2 y^2
        return theta * theta * c - nu * nu * _times_y(c, 2)

    a, b = np.eye(1, size)[0], np.zeros(size)  # f_0 = R
    values = []
    for _ in range(count):
        # f_m' = da R + db R'
        da, db = d_dx(a) - times_q(b), a + d_dx(b) - _times_y(b)
        values.append((b.sum(), db.sum()))
        # f_{m+1} = -f_m'' - f_m' / x + L^2 f_m / x^2
        a, b = (-d_dx(da) + times_q(db) - _times_y(da) + order**2 * _times_y(a, 2),
                -da - d_dx(db) + order**2 * _times_y(b, 2))
    return np.array(values)


class _Tail:
    """The tail model of phi past p_max, with J_L(p) and J_{L+1}(p) exact,

        sum_{j<=M} E_j (Theta / p)^(nu+2j) / p^2
        + sum_{m<=M} p^-2(m+1) [W_m J_L(p) + V_m p J_{L+1}(p)],   M = _ORDER.

    `origin` holds E_j, `green` the rows (W_m) and (V_m) of the wall part:
    W_m = f_m'(1) - L f_m(1) and V_m = f_m(1), by the recurrence of
    `_green_passes`. The terms j = M + 1 and m = M + 1, the first left out,
    are kept for `truncation`.
    """

    def __init__(self, state: Eigenstate):
        order, nu, theta = abs(state.qn.l), state.nu, state.theta
        self.order, self.nu, self.theta = order, nu, theta
        origin = [_origin_term(order, nu, j, state.a0) for j in range(_ORDER + 2)]
        self.origin, self._next_origin = tuple(origin[:-1]), origin[-1]
        # R'(1) = -a0 Theta J_{nu+1}(Theta), where |a0 J_{nu+1}(Theta)| = 1 / sqrt(pi)
        # by the normalization, and R changes sign n times before the wall
        slope = -(-1.0) ** state.qn.n * theta / math.sqrt(math.pi)
        value, deriv = slope * _green_passes(order, nu, theta, _ORDER + 2).T
        green = np.array([deriv - order * value, value])
        self.green, self._next_green = green[:, :-1], green[:, -1]

    def _origin_part(self, p):
        """sum_j E_j (Theta / p)^(nu+2j) / p^2, by Horner in (Theta / p)^2."""
        x = self.theta / p  # below 1 past p_max
        smooth = 0.0
        for e in self.origin[::-1]:
            smooth = smooth * x * x + e
        return smooth * x**self.nu / (p * p)

    def _wall_factors(self, p):
        """The factors of J_L(p) and of J_{L+1}(p) in the wall part."""
        inv2 = 1.0 / (p * p)
        bessel = next_bessel = 0.0
        for w, v in self.green.T[::-1]:
            bessel = bessel * inv2 + w
            next_bessel = next_bessel * inv2 + v
        return bessel * inv2, next_bessel / p

    def __call__(self, p):
        """The model at each point of `p`."""
        factor, next_factor = self._wall_factors(p)
        wall = factor * bessel_j(self.order, p) + next_factor * bessel_j(self.order + 1, p)
        return self._origin_part(p) + wall

    def truncation(self, p):
        """Bound on how much the first terms left out move the transverse entropy,
        per unit ln p, at each point of `p`.

        The entropy moves by 2 pi int (1 + ln rho) 2 phi dphi p dp; this takes
        |phi| and the terms left out, dphi, at their envelopes, with
        |J_L|, |J_{L+1}| <= sqrt(2 / (pi p)), and 1 + |ln rho| for |1 + ln rho|.
        """
        envelope = np.sqrt(2.0 / (math.pi * p))
        factor, next_factor = self._wall_factors(p)
        phi = np.abs(self._origin_part(p)) + envelope * (np.abs(factor) + np.abs(next_factor))
        inv2 = 1.0 / (p * p)
        w, v = self._next_green
        dphi = (abs(self._next_origin) * (self.theta / p) ** (self.nu + 2 * _ORDER + 2)
                + envelope * (abs(w) * inv2 + abs(v) / p) * inv2**_ORDER) * inv2
        log_rho = 2.0 * np.log(np.maximum(phi, 1e-300))
        return 4.0 * math.pi * p * p * phi * dphi * (1.0 + np.abs(log_rho))

    def average(self, p) -> tuple[np.ndarray, np.ndarray]:
        """Means of rho and of rho ln rho of the model over one period of chi.

        At each p the model is o + A cos chi + B sin chi, with chi = p - (2L+1) pi / 4,
        o the origin part, A = s (F P_L + H Q_{L+1}) and B = s (H P_{L+1} - F Q_L):
        s = sqrt(2 / (pi p)), F and H the factors of J_L(p) and J_{L+1}(p), and
        P, Q from `hankel_pq` at p. The means are taken on the midpoint nodes
        _PHASES, with o, A and B held at p.
        """
        p_l, q_l = hankel_pq(self.order, p)
        p_next, q_next = hankel_pq(self.order + 1, p)
        scale = np.sqrt(2.0 / (math.pi * p))
        factor, next_factor = self._wall_factors(p)
        a = scale * (factor * p_l + next_factor * q_next)
        b = scale * (next_factor * p_next - factor * q_l)
        amp = (self._origin_part(p)[:, None] + a[:, None] * np.cos(_PHASES)
               + b[:, None] * np.sin(_PHASES))
        rho = amp * amp
        return rho.mean(axis=1), rho_ln_rho(rho).mean(axis=1)

    def integrals(self, p_max: float) -> tuple[float, float]:
        """Norm and transverse entropy of the model from p_max on.

        On the near band [p_max, P], P about _NEAR_BAND p_max, panels run between
        the model's zeros, where rho ln rho has its cusps: McMahon's zeros of
        J_L(p), moved by the origin part. P lies midway between the last two.
        Past P the phase means of `average` vary slowly; they are integrated in
        t = P / p on smoothed Gauss-Legendre panels of (0, 1], which reach p = inf.
        """
        # the k-th zero of J_L lies near (k + L/2 - 1/4) pi; the zero before
        # p_max is kept too, since the origin part can move it past p_max
        shift = 0.5 * self.order - 0.25
        ks = np.arange(max(math.floor(p_max / math.pi - shift), 1),
                       math.floor(_NEAR_BAND * p_max / math.pi - shift) + 1)
        zeros = mcmahon_zero(self.order, ks)[0]
        # near a zero z of J_L(p) the model is o + D sin(p - z), with o its origin
        # part and D = -F(z) J_{L+1}(z), F the factor of J_L, so o moves the
        # model's zero by arcsin(-o / D); where |o| > |D| rho has no zero, and the
        # edge stays a quarter period off
        slope = -self._wall_factors(zeros)[0] * bessel_j(self.order + 1, zeros)
        zeros = zeros + np.arcsin(np.clip(-self._origin_part(zeros) / slope, -1.0, 1.0))
        zeros = zeros[zeros > p_max]
        # rho is even in the phase about each extremum of A cos chi + B sin chi,
        # midway between two zeros, so the phase means' error from starting at
        # P falls to second order when P is there rather than on a zero
        far = 0.5 * (zeros[-2] + zeros[-1])
        edges = np.concatenate([[p_max], zeros[:-1], [far]])
        norm, entropy = density_integrals(edges, lambda p: self(p) ** 2)
        t, weights = smoothed_gauss_legendre(_FAR_EDGES)
        p = far / t
        rho, rho_log = self.average(p)
        measure = 2.0 * math.pi * weights * p * far / (t * t)  # 2 pi p dp
        return norm + float(np.sum(measure * rho)), entropy - float(np.sum(measure * rho_log))


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


@dataclass(frozen=True)
class MomentumProfile:
    """Integrals of the transverse momentum profile, on the unit cylinder.

    Momenta are in units of 1 / r0. `captured_norm` and `inner_entropy` are
    the norm and the transverse entropy -2 pi int rho ln rho p dp on
    [0, p_max]; `tail_norm` and `tail_entropy` are those of the tail model
    past p_max.
    """

    state: Eigenstate
    p_max: float
    captured_norm: float
    tail_norm: float
    inner_entropy: float
    tail_entropy: float


def build_profile(state: Eigenstate) -> MomentumProfile:
    """The transverse momentum profile of `state` and its integrals, for `S_p`.

    The amplitude is a weighted sum over x-panels two kernel oscillations at
    p_max wide, tabulated once on Chebyshev panels of [0, p_max] and
    interpolated from there. A scan of 8 points per pi brackets its sign changes,
    each refined by regula falsi; the scan serves nothing else. One batch of
    composite Gauss-Legendre nodes on [0, p_max], split at them and cut to
    panels no wider than pi, gives the captured norm and transverse
    entropy; the tail model gives both past p_max.
    """
    evaluator = _AmplitudeEvaluator(state)
    p_max = evaluator.p_max
    # 8 scan points per pi bracket the breakpoints
    p_scan = np.linspace(0.0, p_max, math.ceil(8.0 * p_max / math.pi) + 1)
    amp_scan = evaluator(p_scan)
    breakpoints = _amplitude_breakpoints(evaluator, p_scan, amp_scan)
    edges = subdivide([0.0, *breakpoints, p_max], math.pi, 1)
    captured_norm, inner_entropy = density_integrals(edges, lambda p: evaluator(p) ** 2)
    tail_norm, tail_entropy = evaluator.tail.integrals(p_max)
    defect = abs(1.0 - captured_norm - tail_norm)
    if not defect <= _NORM_DEFECT:  # a NaN defect fails too
        raise ConvergenceError(
            f"momentum norm misses 1 by {defect:.1e} (captured {captured_norm:.9f}, "
            f"tail {tail_norm:.3e}); the tail model does not hold past p_max = {p_max:.6g}"
        )
    return MomentumProfile(
        state=state,
        p_max=p_max,
        captured_norm=captured_norm,
        tail_norm=tail_norm,
        inner_entropy=inner_entropy,
        tail_entropy=tail_entropy,
    )


def sample_profile(state: Eigenstate, count: int) -> np.ndarray:
    """Rows (p r0, density) of `state` on `count` points of [0, p_max].

    70% of the points lie below the knee 2.5 Theta (below p_max), where
    most of the density lies; the rest run on to p_max. The density is the
    square of the amplitude `build_profile` integrates, interpolated from the
    plan's table, so the count sets no Bessel work; no integral is taken.
    """
    evaluator = _AmplitudeEvaluator(state)
    p_knee = 2.5 * state.theta
    n_near = int(0.7 * count)
    grid = np.unique(np.concatenate([
        np.linspace(0.0, p_knee, n_near),
        np.linspace(p_knee, evaluator.p_max, count - n_near + 1),
    ]))
    return np.column_stack([grid, evaluator(grid) ** 2])
