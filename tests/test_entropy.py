import dataclasses
import math

import numpy as np
import pytest

from abtrap.eigen import QuantumNumbers, SystemParams, solve
from abtrap.entropy import (
    SINC_ENTROPY_CONST,
    EntropyReport,
    bbm_check,
    longitudinal_momentum_entropy,
    report,
    shannon_momentum,
    shannon_position,
)
from abtrap.errors import ConvergenceError
from abtrap.momentum import build_profile
from abtrap.quadrature import integrate_adaptive

from oracles import lommel_momentum_entropy, midpoint, position_entropy_ref


class UniformCylinderState:
    """Synthetic stub: constant density over the cylinder of radius r0."""

    def __init__(self, r0=1.0, lz=1.0):
        self.params = SystemParams(r0=r0, lz=lz)
        self._rho = 1.0 / (math.pi * r0 * r0 * lz)

    def position_density(self, r):
        rr = np.asarray(r, dtype=float)
        return np.where(rr <= self.params.r0, self._rho, 0.0)

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
        lz = st.params.lz

        def integrand(r):
            rho = st.position_density(r)
            return np.where(rho > 1e-300, rho * np.log(np.maximum(rho, 1e-300)), 0.0) * r

        brute = -2.0 * math.pi * lz * midpoint(integrand, 0.0, 1.0, 10**6)
        assert pl.s_r == pytest.approx(brute, abs=1e-5)

    def test_against_mpmath_oracle(self):
        # high order, many nodes, and nu -> 0 (nu = 0.01 and 0.0475)
        cases = ((3, 30, 0.0, 1.0), (0, 40, 0.0, 1.0), (0, 1, 0.99, 1.0), (12, 0, 0.95, 0.05))
        for n, l, beta, k in cases:
            st = solve(SystemParams(beta=beta), QuantumNumbers(n, l, k))
            exact = position_entropy_ref(n, l, beta, k)
            assert shannon_position(st) == pytest.approx(exact, abs=1e-9), (n, l, beta, k)


class TestShannonMomentum:
    def test_defect_free_vs_lommel_closed_form(self):
        for n, l in ((0, 0), (1, 1), (2, -2), (2, 0)):
            st = solve(SystemParams(beta=0.0), QuantumNumbers(n, l, 1.0))
            exact = lommel_momentum_entropy(abs(l), st.theta)
            assert shannon_momentum(build_profile(st)) == pytest.approx(exact, abs=1e-7), (n, l)

    def test_longitudinal_term(self):
        params = SystemParams()
        expect = math.log(2.0 * math.pi) + SINC_ENTROPY_CONST
        assert longitudinal_momentum_entropy(params) == expect
        # doubling the box shifts the longitudinal entropy by -ln 2
        assert longitudinal_momentum_entropy(SystemParams(lz=2.0)) == pytest.approx(
            expect - math.log(2.0), rel=1e-15, abs=0
        )

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
        assert SINC_ENTROPY_CONST == pytest.approx(
            2.0 * (1.0 - float(np.euler_gamma)), rel=1e-15, abs=0
        )
        assert c0 == pytest.approx(SINC_ENTROPY_CONST, abs=1e-7)

    def test_r0_dilation_shift(self):
        s = 2.0
        st1 = solve(SystemParams(beta=0.2), QuantumNumbers(0, 0, 1.0))
        st2 = solve(SystemParams(beta=0.2, r0=s), QuantumNumbers(0, 0, 1.0))
        sp1 = shannon_momentum(build_profile(st1))
        sp2 = shannon_momentum(build_profile(st2))
        assert sp2 - sp1 == pytest.approx(-2.0 * math.log(s), abs=1e-6)

    def test_ground_state_vs_riemann_oracle(self, ground_pipeline):
        # midpoint recomputation of the transverse part over [0, p_max], with
        # the amplitude tabulated on a dense grid and spline-interpolated; the
        # modelled tail past p_max is taken from the profile
        from scipy.interpolate import CubicSpline

        pl = ground_pipeline
        prof = pl.profile
        lz = prof.state.params.lz
        dense_p = np.linspace(0.0, prof.p_max, 40001)
        spline = CubicSpline(dense_p, prof.amplitude(dense_p))

        def integrand(p):
            rho = lz * spline(p) ** 2
            return np.where(rho > 1e-300, rho * np.log(np.maximum(rho, 1e-300)), 0.0) * p

        brute = -2.0 * math.pi * midpoint(integrand, 0.0, prof.p_max, 10**6)
        brute += prof.tail_entropy + longitudinal_momentum_entropy(prof.state.params)
        assert pl.s_p == pytest.approx(brute, abs=1e-5)


class TestBBMCheck:
    def test_three_dimensional_bound(self):
        bound, _ = bbm_check(5.0, 5.0)
        assert bound == pytest.approx(6.4341896575482005, rel=1e-15, abs=0)
        assert f"{bound:.5f}" == "6.43419"

    def test_reference_row_satisfied(self):
        bound, ok = bbm_check(9.74631, 0.06678)
        assert ok and 9.81309 >= bound

    def test_slack_absorbs_rounding(self):
        bound, ok = bbm_check(3.0, bound_minus(3.0, 1e-10))
        assert ok
        _, ok = bbm_check(3.0, bound_minus(3.0, 1e-6))
        assert not ok


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
        assert rep.bbm_bound == pytest.approx(6.4341896575482005, rel=1e-15, abs=0)
        assert rep.satisfied == (rep.total >= rep.bbm_bound - 1e-9)

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
        assert err.value.stage == "momentum-profile"

    def test_solve_failure_names_its_stage(self, monkeypatch):
        import abtrap.entropy as entropy_mod

        def boom(*args, **kwargs):
            raise ConvergenceError("no zero found")

        monkeypatch.setattr(entropy_mod, "solve", boom)
        with pytest.raises(ConvergenceError) as err:
            report(SystemParams(beta=0.2), QuantumNumbers(0, 0, 1.0))
        assert err.value.stage == "solve"
        assert str(err.value) == "solve: no zero found"

    def test_report_is_frozen_dataclass(self, ground_pipeline):
        rep = report(ground_pipeline.params, ground_pipeline.qn)
        assert isinstance(rep, EntropyReport)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.total = 0.0
