import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from abtrap.eigen import QuantumNumbers, SystemParams, solve
from abtrap.entropy import (
    BBM_BOUND,
    EntropyReport,
    report,
    shannon_momentum,
    shannon_position,
)
from abtrap.errors import ConvergenceError
from abtrap.momentum import _AmplitudeEvaluator, build_profile
from abtrap.quadrature import integrate_adaptive
from abtrap.reference import default_grid_points

from oracles import lommel_momentum_entropy, mean_p_squared, midpoint, position_entropy_ref


# the entropy 2 (1 - gamma) of the unit-scale sinc^2 density
SINC_ENTROPY = 2.0 * (1.0 - float(np.euler_gamma))
# S_z of the plane wave on the unit box lz = 1
UNIT_LONGITUDINAL = math.log(2.0 * math.pi) + SINC_ENTROPY


class UniformCylinderState:
    """Synthetic stub: constant density over the unit cylinder, in a box (r0, lz)."""

    def __init__(self, r0=1.0, lz=1.0):
        self.params = SystemParams(r0=r0, lz=lz)

    def position_density(self, x):
        xx = np.asarray(x, dtype=float)
        return np.where(xx <= 1.0, 1.0 / math.pi, 0.0)

    def radial_nodes(self):
        return []


class TestShannonPosition:
    def test_uniform_cylinder(self):
        st = UniformCylinderState()
        assert shannon_position(st) == pytest.approx(math.log(math.pi), abs=1e-9)
        assert shannon_position(st) == pytest.approx(1.14473, abs=1e-5)

    def test_uniform_cylinder_scales(self):
        st = UniformCylinderState(r0=2.0, lz=3.0)
        assert shannon_position(st) == pytest.approx(math.log(math.pi * 4.0 * 3.0), abs=1e-9)

    def test_r0_dilation_shift(self):
        # S_r(s r0) = S_r(r0) + 2 ln s at fixed quantum numbers
        s = 2.0
        st1 = solve(SystemParams(beta=0.2), QuantumNumbers(0, 0, 1.0))
        st2 = solve(SystemParams(beta=0.2, r0=s), QuantumNumbers(0, 0, 1.0))
        assert shannon_position(st2) - shannon_position(st1) == pytest.approx(
            2.0 * math.log(s), abs=1e-6
        )

    def test_ground_state_vs_riemann_oracle(self, ground_pipeline):
        pl = ground_pipeline
        st = pl.state

        def integrand(x):
            rho = st.position_density(x)
            return np.where(rho > 1e-300, rho * np.log(np.maximum(rho, 1e-300)), 0.0) * x

        brute = -2.0 * math.pi * midpoint(integrand, 0.0, 1.0, 10**6)
        assert pl.s_r == pytest.approx(brute, abs=1e-5)

    def test_against_mpmath_oracle(self):
        # high order, many nodes, and nu -> 0 (nu = 0.01 and 0.0475)
        cases = ((3, 30, 0.0, 1.0), (0, 40, 0.0, 1.0), (0, 1, 0.99, 1.0), (12, 0, 0.95, 0.05))
        for n, l, beta, k in cases:
            st = solve(SystemParams(beta=beta), QuantumNumbers(n, l, k))
            exact = position_entropy_ref(n, l, beta, k)
            assert shannon_position(st) == pytest.approx(exact, abs=1e-9), (n, l, beta, k)

    def test_order_past_the_series_range(self):
        # J_80 near its turning point lies outside the power series; the
        # 4-panel rule is good to 4e-8 at nu = 80
        st = solve(SystemParams(beta=0.0), QuantumNumbers(0, 80, 1.0))
        exact = position_entropy_ref(0, 80, 0.0, 1.0)
        assert shannon_position(st) == pytest.approx(exact, abs=1e-6)


class TestShannonMomentum:
    def test_defect_free_vs_lommel_closed_form(self):
        for n, l in ((0, 0), (1, 1), (2, -2), (2, 0)):
            st = solve(SystemParams(beta=0.0), QuantumNumbers(n, l, 1.0))
            exact = lommel_momentum_entropy(abs(l), st.theta)
            assert shannon_momentum(build_profile(st)) == pytest.approx(exact, abs=2e-11), (n, l)

    def test_order_160_vs_lommel_closed_form(self):
        # J_160 climbs from 0 to its first zero near 170 over the oracle's
        # first span, and Hankel's cutoff 1.2 (L+1)^2 lies past 2e4: the oracle
        # was 2.2e-8 off here with one panel there; 4.3e-12 measured
        st = solve(SystemParams(beta=0.0), QuantumNumbers(0, 160, 1.0))
        exact = lommel_momentum_entropy(160, st.theta)
        assert shannon_momentum(build_profile(st)) == pytest.approx(exact, abs=1e-11)

    def test_converged_in_p_max(self, monkeypatch):
        # (2,1,0.8) converges slowest of the grid states, and at (0,1,0.99)
        # nu = 0.01 gives the tail's origin term its slowest decay, so the
        # tail carries the most there; it runs to p = inf at any p_max, and
        # doubling p_max moves the split between the sampled profile and the
        # tail's near band
        import abtrap.momentum as momentum_mod

        states = [
            solve(SystemParams(beta=beta), QuantumNumbers(n, l, 1.0))
            for n, l, beta in ((2, 1, 0.8), (0, 1, 0.99))
        ]
        s_p = [shannon_momentum(build_profile(st)) for st in states]
        p_max = momentum_mod._p_max
        monkeypatch.setattr(momentum_mod, "_p_max", lambda tail: 2.0 * p_max(tail))
        for st, value in zip(states, s_p):
            assert shannon_momentum(build_profile(st)) == pytest.approx(value, abs=1e-7)

    def test_small_nu_at_large_order(self, monkeypatch):
        # with nu << L = |l| the tail's origin series runs in about
        # (L Theta / 2 p)^2, so p_max has to grow with L Theta; with
        # p_max = 5 (Theta + 20) these states missed the norm by 3.7e-7 to 9.5e-6
        # and exited 3. (1,14,0.837,k=16.33) came from a seeded domain sweep
        import abtrap.momentum as momentum_mod

        cases = [(1, 14, 0.9, (14 - 0.05) / 0.9), (1, 20, 0.9, (20 - 0.3) / 0.9),
                 (1, 14, 0.837, 16.33)]
        reports = [report(SystemParams(beta=beta), QuantumNumbers(n, l, k))
                   for n, l, beta, k in cases]
        p_max = momentum_mod._p_max
        monkeypatch.setattr(momentum_mod, "_p_max", lambda tail: 2.0 * p_max(tail))
        for (n, l, beta, k), rep in zip(cases, reports):
            wide = report(SystemParams(beta=beta), QuantumNumbers(n, l, k))
            assert rep.s_p == pytest.approx(wide.s_p, abs=momentum_mod._TAIL_TOL), (n, l, beta, k)

    def test_longitudinal_term(self):
        # a profile with no transverse entropy leaves S_p = S_z = ln(2 pi / lz) + 2 (1 - gamma)
        def bare(lz):
            state = SimpleNamespace(params=SystemParams(lz=lz))
            return shannon_momentum(SimpleNamespace(inner_entropy=0.0, tail_entropy=0.0, state=state))

        assert bare(1.0) == UNIT_LONGITUDINAL
        # doubling the box shifts the longitudinal entropy by -ln 2
        assert bare(2.0) == pytest.approx(UNIT_LONGITUDINAL - math.log(2.0), rel=1e-15, abs=0)
        # ln(2 pi / lz) overflows at lz = 5e-324; ln 2 pi - ln lz does not
        assert bare(5e-324) == pytest.approx(UNIT_LONGITUDINAL - math.log(5e-324), rel=1e-15)

    def test_sinc_entropy_constant_against_quadrature(self):
        # c0 = -(2/pi) int_0^inf sinc^2(u) ln(sinc^2 u) du, summed cell by
        # cell with an averaged analytic tail; closed form is 2 (1 - gamma)
        def f(u):
            s2 = np.sin(u) ** 2 / (u * u)
            return np.where(s2 > 1e-300, s2 * np.log(np.maximum(s2, 1e-300)), 0.0)

        cells = 3000
        total = 0.0
        for m in range(cells):
            total += integrate_adaptive(f, max(m * math.pi, 1e-300), (m + 1) * math.pi, 1e-12).value
        u_max = cells * math.pi
        tail = ((1.0 - math.log(4.0)) / 2.0) / u_max - (math.log(u_max) + 1.0) / u_max
        c0 = -(2.0 / math.pi) * (total + tail)
        assert c0 == pytest.approx(SINC_ENTROPY, abs=1e-7)

    def test_r0_dilation_shift(self):
        s = 2.0
        st1 = solve(SystemParams(beta=0.2), QuantumNumbers(0, 0, 1.0))
        st2 = solve(SystemParams(beta=0.2, r0=s), QuantumNumbers(0, 0, 1.0))
        sp1 = shannon_momentum(build_profile(st1))
        sp2 = shannon_momentum(build_profile(st2))
        assert sp2 - sp1 == pytest.approx(-2.0 * math.log(s), abs=1e-6)

    def test_ground_state_vs_riemann_oracle(self, ground_pipeline):
        # midpoint recomputation of the transverse part over [0, p_max], with
        # the amplitude's exact radial sum (not the plan's table) on a dense
        # grid, spline-interpolated; the modelled tail past p_max is taken
        # from the profile
        from scipy.interpolate import CubicSpline

        pl = ground_pipeline
        prof = pl.profile
        dense_p = np.linspace(0.0, prof.p_max, 40001)
        spline = CubicSpline(dense_p, _AmplitudeEvaluator(prof.state)._block(dense_p))

        def integrand(p):
            rho = spline(p) ** 2
            return np.where(rho > 1e-300, rho * np.log(np.maximum(rho, 1e-300)), 0.0) * p

        brute = -2.0 * math.pi * midpoint(integrand, 0.0, prof.p_max, 10**6)
        brute += prof.tail_entropy + UNIT_LONGITUDINAL
        assert pl.s_p == pytest.approx(brute, abs=1e-5)


# the states outside the default grid that the accuracy checks of the momentum
# tail run on: large |l|, large n, nu near 0, beta near 1 and a negative k
WIDE_STATES = (
    (0, 20, 0.5, 1.0), (0, 25, 0.5, 1.0), (5, 30, 0.5, 1.0), (10, 0, 0.5, 1.0),
    (20, 0, 0.5, 1.0), (10, 10, 0.95, -10.0), (12, 0, 0.95, 0.05), (0, 1, 0.99, 1.0),
)


class TestGaussianBound:
    def test_transverse_entropy_below_gaussian_bound(self, grid_pipelines):
        # of all 2-D densities with second moment <p^2>, the Gaussian has the
        # largest entropy, 1 + ln(pi <p^2>). <p^2> comes from the position side
        # alone, so this bounds the momentum pipeline independently, from
        # above; BBM bounds S_p from below by the position entropy. The slack
        # is 0.0765 at (0,0,0) and 0.19 to 0.95 on the 36 table rows, and
        # 1.0 to 2.9 on the wide states
        profiles = [pl.profile for key, pl in grid_pipelines.items() if isinstance(key, tuple)]
        for n, l in default_grid_points():  # the beta = 0 rows of the 36
            profiles.append(build_profile(solve(SystemParams(beta=0.0), QuantumNumbers(n, l))))
        wide = [build_profile(solve(SystemParams(beta=beta), QuantumNumbers(n, l, k)))
                for n, l, beta, k in WIDE_STATES]
        for prof, most in [(prof, 1.5) for prof in profiles] + [(prof, 3.0) for prof in wide]:
            transverse = prof.inner_entropy + prof.tail_entropy
            slack = 1.0 + math.log(math.pi * mean_p_squared(prof.state)) - transverse
            assert 0.05 < slack < most, (prof.state.qn, slack)
            total = shannon_position(prof.state) + shannon_momentum(prof)
            assert total >= BBM_BOUND, prof.state.qn


class TestBBMCheck:
    def test_three_dimensional_bound(self):
        assert BBM_BOUND == pytest.approx(6.4341896575482005, rel=1e-15, abs=0)
        assert f"{BBM_BOUND:.5f}" == "6.43419"

    def test_reference_row_satisfied(self):
        rep = entropies(9.74631, 0.06678)
        assert rep.satisfied and rep.total == 9.74631 + 0.06678 >= BBM_BOUND

    def test_slack_absorbs_rounding(self):
        assert entropies(3.0, bound_minus(3.0, 1e-10)).satisfied
        assert not entropies(3.0, bound_minus(3.0, 1e-6)).satisfied


def entropies(s_r, s_p):
    """A report holding the given entropies; its total and BBM check follow from them."""
    return EntropyReport(SystemParams(), QuantumNumbers(0, 0), s_r, s_p)


def bound_minus(s_r, eps):
    return 3.0 * (1.0 + math.log(math.pi)) - s_r - eps


class TestReport:
    def test_defect_free_baseline(self):
        rep = report(SystemParams(beta=0.0), QuantumNumbers(0, 0, 0.0))
        assert rep.satisfied is True
        assert rep.total == rep.s_r + rep.s_p

    def test_composes_pipeline(self, ground_pipeline):
        pl = ground_pipeline
        rep = report(pl.params, pl.qn)
        assert rep.s_r == pytest.approx(pl.s_r, abs=1e-9)
        assert rep.s_p == pytest.approx(pl.s_p, abs=1e-9)
        assert rep.satisfied == (rep.total >= BBM_BOUND - 1e-9)

    def test_deterministic(self):
        params, qn = SystemParams(beta=0.4), QuantumNumbers(0, 0, 1.0)
        r1 = report(params, qn)
        r2 = report(params, qn)
        assert (r1.s_r, r1.s_p, r1.total) == (r2.s_r, r2.s_p, r2.total)

    def test_beta_trend_against_reference_anchors(self):
        lo = report(SystemParams(beta=0.2), QuantumNumbers(0, 0, 1.0))
        hi = report(SystemParams(beta=0.8), QuantumNumbers(0, 0, 1.0))
        assert hi.s_p > lo.s_p
        assert hi.total > lo.total

    def test_stage_tagging(self, monkeypatch):
        import abtrap.entropy as entropy_mod

        def boom(*args, **kwargs):
            raise ConvergenceError("synthetic failure")

        monkeypatch.setattr(entropy_mod, "build_profile", boom)
        with pytest.raises(ConvergenceError) as err:
            report(SystemParams(beta=0.2), QuantumNumbers(0, 0, 1.0))
        assert str(err.value) == "momentum-profile: synthetic failure"

    def test_position_entropy_failure_names_its_stage(self, monkeypatch):
        import abtrap.entropy as entropy_mod

        def boom(*args, **kwargs):
            raise OverflowError("math range error")

        monkeypatch.setattr(entropy_mod, "shannon_position", boom)
        with pytest.raises(ConvergenceError) as err:
            report(SystemParams(beta=0.2), QuantumNumbers(0, 0, 1.0))
        assert str(err.value) == "position-entropy: math range error"

    def test_solve_failure_names_its_stage(self, monkeypatch):
        import abtrap.entropy as entropy_mod

        def boom(*args, **kwargs):
            raise ConvergenceError("no zero found")

        monkeypatch.setattr(entropy_mod, "solve", boom)
        with pytest.raises(ConvergenceError) as err:
            report(SystemParams(beta=0.2), QuantumNumbers(0, 0, 1.0))
        assert str(err.value) == "solve: no zero found"

    def test_scaling_identity_to_the_float_range(self):
        # S_r - ln(r0^2 lz) and S_p + ln(r0^2 lz) are the unit-box values, for
        # log-uniform boxes in [1e-300, 1e300] with both ends drawn
        rng = np.random.default_rng(17)
        boxes = [(1e-300, 1e-300), (1e300, 1e300)]
        boxes += [tuple(10.0 ** rng.uniform(-300.0, 300.0, 2)) for _ in range(2)]
        for n, l, beta in ((0, 0, 0.2), (1, 1, 0.8), (2, -2, 0.4), (0, 20, 0.5)):
            qn = QuantumNumbers(n, l, 1.0)
            unit = report(SystemParams(beta=beta), qn)
            for r0, lz in boxes:
                rep = report(SystemParams(beta=beta, r0=r0, lz=lz), qn)
                shift = 2.0 * math.log(r0) + math.log(lz)
                assert rep.s_r - shift == pytest.approx(unit.s_r, rel=1e-12, abs=0), (n, l, r0, lz)
                assert rep.s_p + shift == pytest.approx(unit.s_p, rel=1e-12, abs=0), (n, l, r0, lz)

    def test_report_is_frozen_dataclass(self, ground_pipeline):
        rep = report(ground_pipeline.params, ground_pipeline.qn)
        assert isinstance(rep, EntropyReport)
        # the report holds what the pipeline computed; the total is derived
        assert [f.name for f in dataclasses.fields(rep)] == ["params", "qn", "s_r", "s_p"]
        assert rep.total == rep.s_r + rep.s_p
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.s_p = 0.0
