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
model, `_Tail`, fixes p_max from it once, and tabulates phi on [0, p_max];
`build_profile` and `sample_profile` read all three from there. The exact phi
is one weighted sum of `smoothed_gauss_legendre` over fixed x-nodes, on panels
two oscillations of J_L(p_max x) wide; it runs once per plan, at the
Chebyshev points of equal panels about 3 sqrt(p_max) wide, and every other
value is a panel's barycentric interpolant (Berrut and Trefethen, SIAM Rev.
46 (2004) 501): phi is entire of exponential type 1, since R lives on [0, 1],
so a panel w wide needs about w / 2 points. So p_max and the radial grid set
the Bessel work, not how many points of phi are asked for. On [0, p_max]
a scan of 8 points per pi brackets the amplitude's sign changes, and regula
falsi puts each on its root. One batch of p-nodes, split there and cut to
panels no wider than pi, gives the captured norm and the transverse entropy
through `density_integrals`. Past p_max, phi follows the tail model (L = |l|,
M = 4): origin terms plus the wall part of Green's identity,

    phi(p) ~ sum_{j<M} C_j p^-(nu+2+2j)
             + sum_{m<M} p^-2(m+1) [f_m'(1) J_L(p) - f_m(1) p J_L'(p)].

The origin terms are the terms x^(nu+2j) of the ascending series of R,
through the Weber-Schafheitlin integrals of x^(nu+2j+1) J_L(p x) (Watson,
Treatise on the Theory of Bessel Functions, sec. 13.24):

    C_j = (-1)^j a0 (Theta / 2)^(nu+2j) / (j! Gamma(nu + j + 1))
          * 2^(nu+2j+1) Gamma((L + nu + 2j + 2) / 2) / Gamma((L - nu - 2j) / 2),

which vanish at beta = 0, where nu = L. The wall terms come from Green's
identity for the Bessel operator B f = -(1/x)(x f')' + L^2 f / x^2 (Watson
sec. 5.11; Wong, Asymptotic Approximations of Integrals, ch. II): since
B J_L(p x) = p^2 J_L(p x), each pass moves B onto f_m, with f_0 = R and
f_{m+1} = B f_m. Their wall values f_m(1), f_m'(1) are polynomials in
c = L^2 - nu^2 and Theta^2 times R'(1) = -a0 Theta J_{nu+1}(Theta), tabled
in closed form by `_wall_values`. `_Tail.table` holds the whole model, each
row a polynomial in 1 / p^2: rows C_j Theta^-nu, W_m = f_m'(1) - L f_m(1) and
V_m = f_m(1), and one column per order j = m = 0..M, the last the first
terms left out, so M is the table's width less one.

The series runs in (Theta^2 + |c|) / p^2, not in Hankel's L^2 / p, because
J_L(p) and J_{L+1}(p) are kept exact. The first terms left out fall as
p^-(nu+10) and p^-19/2, and p_max is where they would move the
transverse entropy past p_max by _TAIL_TOL = 1e-11: `_Tail.truncation`
bounds that per unit ln p from the terms' envelopes, and `_p_max` sums it
from p = inf down. When nu << L the origin series runs in about
(L Theta / 2 p)^2, so p_max grows with L Theta; on the default grid it is
25 to 120, 9.3 to 12.5 Theta. `_Tail.integrals` takes the model on panels
between its zeros from p_max to P, about 8 p_max, and past P, where it is
o + R cos(chi - delta) with o the origin terms and chi = p - L pi/2 - pi/4,
through the closed-form phase means of rho and rho ln rho and four end terms
at P. The profile carries the tail's norm and entropy, and fails when the
norm misses 1 by more than 1e-7.
`sample_profile` tabulates the square of the plan's amplitude alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigen import Eigenstate
from .errors import ConvergenceError
from .quadrature import density_integrals, smoothed_gauss_legendre, subdivide
from .specfun import asymptotic_cutoff, bessel_j, hankel_pq, mcmahon_zero

__all__ = ["MomentumProfile", "build_profile", "sample_profile"]

# the tail's near band ends at P, about _NEAR_BAND * p_max; past P the phase means are
# integrated in t = P / p between _FAR_EDGES, graded by 4 towards t = 0, and the end
# terms sum _HARMONICS harmonics, row j - 1 of _END_STENCIL the weights of
# (-1)^j d^(j-1) G_j / dp^(j-1) on P + (-2, -1, 0, 1, 2) h, times h^(j-1)
_NEAR_BAND = 8.0
_FAR_EDGES = np.concatenate([[0.0], 4.0 ** -np.arange(7.0, -1.0, -1.0)])
_HARMONICS = 64
_END_STENCIL = np.array([[0.0, 0.0, -1.0, 0.0, 0.0], [1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12],
                         [0.0, -1.0, 2.0, -1.0, 0.0], [-0.5, 1.0, 0.0, -1.0, 0.5]])
# build_profile fails when the norm misses 1 by more than this
_NORM_DEFECT = 1e-7
# p_max is where the terms the tail model leaves out move the entropy past it by
# this much; it is sought on p = Theta e^u, u < _LOG_SPAN in steps of _LOG_STEP
_TAIL_TOL = 1e-11
_LOG_SPAN = 12.0
_LOG_STEP = 1.0 / 32.0
# phi is tabulated on equal panels of [0, p_max] no wider than _PANEL_SCALE sqrt(p_max)
_PANEL_SCALE = 3.0
# the radial nodes whose weight |w R(x) x| is below this share of the largest are dropped
_NODE_FLOOR = 1e-18
# array elements per slice of a batch, in the exact sum and in the interpolation
_SLICE_ELEMENTS = 200_000


class _AmplitudeEvaluator:
    """The momentum plan of one state: its tail model, p_max, and phi(p) on [0, p_max].

    The exact sum `_block` splits [0, 1] at the radial nodes, in panels no
    wider than 4 pi / p_max. After the smoothing map its integrand behaves as
    s^(2 nu+2 L+3) at the origin; for L = 0 and 0 < nu < 1/2 that power is
    fractional and below 4, and the first panel is cut at 1/16 and 1/4 of its
    width: phi is then within 3e-13 of a four times finer grid for p <= p_max
    (4e-12 at (0,0,0.2) without the cuts). Nodes whose weight |w R(x) x| is
    below _NODE_FLOOR of the largest, where R is evanescent (Theta x < nu),
    are dropped: (0,160,0.5) keeps 798 of 2040. The table holds the sum at the
    Chebyshev points of the second kind of ceil(sqrt(p_max) / _PANEL_SCALE)
    equal panels. The sum costs table points times radial nodes, both about
    proportional to p_max, and the interpolant the points per panel, so the
    width w grows as sqrt(p_max). On a panel phi's Chebyshev coefficients are
    2 i^k J_k(w / 2) times a phase (Trefethen, Approximation Theory and
    Approximation Practice, ch. 8), so it takes z + 6 z^(1/3) + 10 points,
    z = w / 2, with the margin of J_k's transition region: 36 on each of the
    three panels at (1,1,0.8). The interpolant, with barycentric weights
    (-1)^j halved at both ends, takes its numerator and weight sum in one
    reduction each; it is within 3.1e-15 of `_block` on 5003 points of
    [0, p_max], on the 36 rows of `abtrap table --betas 0 0.2 0.4 0.8` and ten
    wide states, (100,0,0.5) and (0,160,0.5) among them.
    """

    def __init__(self, state: Eigenstate):
        self.tail = _Tail(state)
        self.p_max = _p_max(self.tail)
        edges = subdivide([0.0, *state.radial_nodes(), 1.0], 4.0 * math.pi / self.p_max, 1)
        if state.qn.l == 0 and 0.0 < state.nu < 0.5:
            edges = np.concatenate([[0.0], edges[1] / np.array([16.0, 4.0]), edges[1:]])
        nodes, weights = smoothed_gauss_legendre(edges)
        weighted = weights * state.radial_wavefunction(nodes) * nodes
        keep = np.abs(weighted) >= _NODE_FLOOR * np.max(np.abs(weighted))
        self._nodes, self._weighted = nodes[keep], weighted[keep]
        panels = math.ceil(math.sqrt(self.p_max) / _PANEL_SCALE)
        self._width = self.p_max / panels
        z = 0.5 * self._width
        count = math.ceil(z + 6.0 * z ** (1.0 / 3.0) + 10.0)
        self._cheb = -np.cos(math.pi * np.arange(count) / (count - 1))
        self._bary = (-1.0) ** np.arange(count) * np.r_[0.5, np.ones(count - 2), 0.5]
        # row j holds phi at node j of every panel
        table_p = self._width * (np.arange(panels) + 0.5 * (self._cheb[:, None] + 1.0))
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
            q = 2.0 * (s - panel) - 1.0 - self._cheb[:, None]
            np.divide(self._bary[:, None], q, out=q)
            values = self._table[:, panel]
            total = q.sum(axis=0)
            phi = np.einsum("jp,jp->p", q, values) / total
            # p on a node: its q and the weight sum are infinite; take the table value
            hit = np.flatnonzero(np.isinf(total))
            phi[hit] = values[np.isinf(q[:, hit]).argmax(axis=0), hit]
            return phi

        with np.errstate(divide="ignore", invalid="ignore"):
            return _in_slices(rows, p, self._cheb.size)


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


def _wall_values(order: int, nu: float, theta: float) -> np.ndarray:
    """Rows (W_m) and (V_m) / R'(1), m <= 4, in c = L^2 - nu^2 and g = Theta^2 + c.

    W_m = f_m'(1) - L f_m(1) and V_m = f_m(1). Green's passes take f_0 = R and
    f_{m+1} = B f_m; with R(1) = 0 and R'' = -R' / x - (Theta^2 - nu^2 / x^2) R
    each f_m is a R + b R', a and b polynomials in 1 / x, and f_m(1) and f_m'(1)
    are b(1) and the R' part of f_m' there.
    """
    ell = order * order
    c = (order - nu) * (order + nu)
    g = theta * theta + c
    value, deriv = np.array([
        (0.0, 1.0),
        (0.0, g),
        (4.0 * c, g * g - 20.0 * c),
        (12.0 * c * (g - 8.0), g**3 - 84.0 * c * g + (640.0 + 32.0 * ell - 40.0 * c) * c),
        (24.0 * c * (g * g - 24.0 * g + 16.0 * ell - 24.0 * c + 176.0),
         g**4 + c * (48.0 * ell * c + 128.0 * ell * g - 5376.0 * ell - 208.0 * c * g
                     + 7248.0 * c - 216.0 * g * g + 5056.0 * g - 36096.0)),
    ]).T
    return np.array([deriv - order * value, value])


class _Tail:
    """The tail model of phi past p_max, with J_L(p) and J_{L+1}(p) exact,

        sum_{j<M} E_j (Theta / p)^(nu+2j) / p^2
        + sum_{m<M} p^-2(m+1) [W_m J_L(p) + V_m p J_{L+1}(p)],

    in one array `table`: rows E_j Theta^2j, W_m and V_m, so each is a
    polynomial in 1 / p^2, and a column per order j = m = 0..M. M = 4 is the
    table's width less one: the model sums the columns before the last, and
    `truncation` reads the last, the first terms left out. W_m = f_m'(1) -
    L f_m(1) and V_m = f_m(1) come from `_wall_values`.
    """

    def __init__(self, state: Eigenstate):
        order, nu, theta = abs(state.qn.l), state.nu, state.theta
        self.order, self.nu, self.theta = order, nu, theta
        # R'(1) = -a0 Theta J_{nu+1}(Theta), where |a0 J_{nu+1}(Theta)| = 1 / sqrt(pi)
        # by the normalization, and R changes sign n times before the wall
        slope = -(-1.0) ** state.qn.n * theta / math.sqrt(math.pi)
        wall = slope * _wall_values(order, nu, theta)
        origin = [_origin_term(order, nu, j, state.a0) * theta ** (2 * j)
                  for j in range(wall.shape[1])]
        self.table = np.vstack([origin, wall])

    def _parts(self, p, omitted=False):
        """The origin part and the factors of J_L(p) and of J_{L+1}(p) at each point
        of `p`: of the kept columns, by Horner in 1 / p^2, or, with `omitted`, of the
        last column alone, short of its factor p^-2M."""
        inv2 = 1.0 / (p * p)
        columns = self.table[:, -1:] if omitted else self.table[:, :-1]
        origin, factor, next_factor = np.polynomial.polynomial.polyval(inv2, columns.T)
        return origin * (self.theta / p) ** self.nu * inv2, factor * inv2, next_factor / p

    def __call__(self, p):
        """The model at each point of `p`; where all lie past the Hankel cutoffs of
        both orders, from one P and Q per order: the sums `bessel_j` takes there."""
        if np.min(p) >= asymptotic_cutoff(self.order + 1):
            o, a, b = self._phase_form(p)
            chi = p - (0.5 * self.order + 0.25) * math.pi
            return o + a * np.cos(chi) + b * np.sin(chi)
        origin, factor, next_factor = self._parts(p)
        wall = factor * bessel_j(self.order, p) + next_factor * bessel_j(self.order + 1, p)
        return origin + wall

    def truncation(self, p):
        """Bound on how much the first terms left out move the transverse entropy,
        per unit ln p, at each point of `p`.

        The entropy moves by 2 pi int (1 + ln rho) 2 phi dphi p dp; this takes
        |phi| and the terms left out, dphi, at their envelopes, with
        |J_L|, |J_{L+1}| <= sqrt(2 / (pi p)), and 1 + |ln rho| for |1 + ln rho|.
        """
        envelope = np.sqrt(2.0 / (math.pi * p))
        phi, dphi = (np.abs(o) + envelope * (np.abs(f) + np.abs(h))
                     for o, f, h in (self._parts(p), self._parts(p, omitted=True)))
        dphi = dphi * p ** (2.0 - 2.0 * self.table.shape[1])
        log_rho = 2.0 * np.log(np.maximum(phi, 1e-300))
        return 4.0 * math.pi * p * p * phi * dphi * (1.0 + np.abs(log_rho))

    def _phase_form(self, p):
        """(o, A, B) of the model o + A cos chi + B sin chi at each point of `p`:
        A = s (F P_L + H Q_{L+1}) and B = s (H P_{L+1} - F Q_L), s = sqrt(2 / (pi p)),
        with F, H the factors of J_L(p), J_{L+1}(p) and P, Q from `hankel_pq`."""
        p_l, q_l = hankel_pq(self.order, p)
        p_next, q_next = hankel_pq(self.order + 1, p)
        scale = np.sqrt(2.0 / (math.pi * p))
        origin, factor, next_factor = self._parts(p)
        return (origin, scale * (factor * p_l + next_factor * q_next),
                scale * (next_factor * p_next - factor * q_l))

    def integrals(self, p_max: float) -> tuple[float, float]:
        """Norm and transverse entropy of the model from p_max on.

        On the near band, panels run between the model's zeros, where rho ln rho
        has its cusps: McMahon's zeros of J_L(p), moved by the origin part; P
        lies midway between the last two. Past P, f = 2 pi p rho and
        2 pi p rho ln rho are periodic in chi: their phase means are integrated
        in t = P / p, and the rest of f is int_P^inf = sum_j
        (-1)^j d^(j-1) G_j / dp^(j-1) at P and fixed chi, G_j its j-th
        antiderivative in chi of mean 0 (Iserles and Norsett, Proc. R. Soc. A
        461 (2005) 1383), kept to j = 4.
        """
        # the k-th zero of J_L lies near (k + L/2 - 1/4) pi; the zero before p_max is
        # kept too, since the origin part can move it past p_max. Past P the model is
        # in phase form, so P and its stencil lie past Hankel's cutoff for J_{L+1}
        shift = 0.5 * self.order - 0.25
        end = max(_NEAR_BAND * p_max, 1.01 * asymptotic_cutoff(self.order + 1) + 4.0 * math.pi)
        ks = np.arange(max(int(p_max / math.pi - shift), 1), int(end / math.pi - shift) + 1)
        zeros = mcmahon_zero(self.order, ks)[0]
        # near a zero z of J_L(p) the model is o + D sin(p - z), with o its origin
        # part and D = -F(z) J_{L+1}(z), F the factor of J_L, so o moves the
        # model's zero by arcsin(-o / D); where |o| > |D| rho has no zero, and the
        # edge stays a quarter period off
        origin, factor, _ = self._parts(zeros)
        slope = -factor * bessel_j(self.order + 1, zeros)
        zeros = zeros + np.arcsin(np.clip(-origin / slope, -1.0, 1.0))
        zeros = zeros[zeros > p_max]
        # rho is even in the phase about each extremum of A cos chi + B sin chi,
        # midway between two zeros, so the odd end terms nearly vanish there
        far = 0.5 * (zeros[-2] + zeros[-1])
        edges = np.concatenate([[p_max], zeros[:-1], [far]])
        norm, entropy = density_integrals(edges, lambda p: self(p) ** 2)
        # the far band's nodes P / t, then the end terms' stencil P + (-2..2) h
        t, weights = smoothed_gauss_legendre(_FAR_EDGES)
        step = far / 256.0
        p = np.concatenate([far / t, far + step * np.arange(-2.0, 3.0)])
        o, a, b = self._phase_form(p)
        r, scale = np.hypot(a, b), 2.0 * math.pi * p[:, None]
        means = scale[:-5] * _phase_harmonics(o[:-5], r[:-5], 1)[..., 0]
        rho, rho_log = (weights * far / (t * t)) @ means
        # G_j = Re sum_k c_k e^(ik theta) / (ik)^j, c_k the harmonics of f and
        # theta = chi - delta at P, where A cos chi + B sin chi = R cos(chi - delta)
        coefs = scale[-5:, :, None] * _phase_harmonics(o[-5:], r[-5:], _HARMONICS)[..., 1:]
        k = 1j * np.arange(1, _HARMONICS)
        wave = np.exp(k * (far - (shift + 0.5) * math.pi - np.arctan2(b[-5:], a[-5:]))[:, None])
        ends = np.einsum("ji,iqk,ik,jk->q", _END_STENCIL / step ** np.arange(4.0)[:, None],
                         coefs, wave, k ** -np.arange(1.0, 5.0)[:, None]).real
        return float(norm + rho + ends[0]), float(entropy - rho_log - ends[1])


def _phase_harmonics(o: np.ndarray, r: np.ndarray, count: int) -> np.ndarray:
    """Cosine coefficients, k < count, of rho = u^2 and rho ln rho, u = o + r cos theta.

    Shape (points, 2, count); k = 0 gives the phase means. With
    w = o + sgn(o) (o^2 - r^2)^(1/2) and z = -r / w, complex with |z| = 1 where
    |o| < r, ln|u| = ln(|w| / 2) - 2 sum_k Re(z^k) cos(k theta) / k (Gradshteyn
    and Ryzhik 1.514 for |o| >= r, 1.448 for |o| < r). rho ln rho = u^2 ln u^2
    is a five-term convolution of their exponential coefficients: exact, with no
    phase nodes to alias the cusps of rho ln rho at the zeros of u.
    """
    root = np.sqrt(o * o - r * r + 0j)
    w = o + np.where(o < 0.0, -root, root)
    k = np.arange(1, count + 2)
    log = -2.0 * np.real(np.power.outer(-r / w, k)) / k
    # the exponential coefficients of ln u^2 from -2 to count + 1, and of u^2 from -2 to 2
    log = np.column_stack([log[:, 1::-1], 2.0 * np.log(0.5 * np.abs(w)), log])
    square = np.column_stack([0.25 * r * r, o * r, o * o + 0.5 * r * r, o * r, 0.25 * r * r])
    out = np.zeros((o.size, 2, count))
    out[:, 0, :3] = square[:, 2:2 + count]
    out[:, 1] = sum(square[:, j, None] * log[:, j:j + count] for j in range(5))
    out[..., 1:] *= 2.0
    return out


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
    """The transverse momentum profile of `state` and its integrals, for `S_p`:
    the plan's table on [0, p_max], split at its sign changes, and the tail model past it."""
    evaluator = _AmplitudeEvaluator(state)
    p_max = evaluator.p_max
    p_scan = subdivide([0.0, p_max], math.pi / 8.0, 1)  # 8 points per pi
    breakpoints = _amplitude_breakpoints(evaluator, p_scan, evaluator(p_scan))
    edges = subdivide([0.0, *breakpoints, p_max], math.pi, 1)
    captured_norm, inner_entropy = density_integrals(edges, lambda p: evaluator(p) ** 2)
    tail_norm, tail_entropy = evaluator.tail.integrals(p_max)
    defect = abs(1.0 - captured_norm - tail_norm)
    if not defect <= _NORM_DEFECT:  # a NaN defect fails too
        raise ConvergenceError(
            f"momentum norm misses 1 by {defect:.1e} (captured {captured_norm:.9f}, "
            f"tail {tail_norm:.3e}); the tail model does not hold past p_max = {p_max:.6g}"
        )
    return MomentumProfile(state=state, p_max=p_max, captured_norm=captured_norm,
                           tail_norm=tail_norm, inner_entropy=inner_entropy,
                           tail_entropy=tail_entropy)


def sample_profile(state: Eigenstate, count: int) -> np.ndarray:
    """Rows (p r0, density) of `state` on `count` points of [0, p_max], 70% of
    them below the knee 2.5 Theta, where most of the density lies. The density
    is the square of the plan's interpolated amplitude, so the count sets no
    Bessel work."""
    evaluator = _AmplitudeEvaluator(state)
    n_near = int(0.7 * count)
    grid = np.interp(np.arange(count), [0, n_near - 1, count - 1],
                     [0.0, 2.5 * state.theta, evaluator.p_max])
    return np.column_stack([grid, evaluator(grid) ** 2])
