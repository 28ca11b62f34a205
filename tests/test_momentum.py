import math

import numpy as np
import pytest

import abtrap.momentum as momentum_mod
from abtrap import cli
from abtrap.eigen import QuantumNumbers, SystemParams, solve
from abtrap.entropy import shannon_momentum
from abtrap.errors import DomainError
from abtrap.momentum import (
    _AmplitudeEvaluator,
    _amplitude_breakpoints,
    _p_max,
    _Tail,
    build_profile,
    sample_profile,
)
from abtrap.quadrature import integrate_adaptive
from abtrap.specfun import bessel_j

from oracles import (
    green_wall_terms,
    lommel_transverse,
    midpoint,
    momentum_density,
    principal_maxima,
    radial_amplitude,
)


@pytest.fixture(scope="module")
def ground_beta0():
    state = solve(SystemParams(beta=0.0), QuantumNumbers(0, 0, 1.0))
    return state, build_profile(state)


class TestRadialAmplitude:
    def test_zero_momentum_vanishes_for_nonzero_l(self):
        st = solve(SystemParams(beta=0.2), QuantumNumbers(0, 2, 1.0))
        assert radial_amplitude(st, 0.0) == 0.0
        assert momentum_density(st, 0.0) == 0.0

    def test_zero_momentum_reduction_for_l0(self, ground_beta0):
        # J_0(0) = 1 turns phi(0) into the plain radial integral of R(r) r
        st, _ = ground_beta0
        direct = integrate_adaptive(
            lambda r: st.radial_wavefunction(r) * r, 0.0, 1.0, 1e-12
        ).value
        assert radial_amplitude(st, 0.0) == pytest.approx(direct, abs=1e-11)

    def test_against_riemann_oracle(self, ground_beta0):
        st, _ = ground_beta0
        for p in (st.theta, st.theta / (2.0 * math.pi), 7.0):
            f = lambda r: st.radial_wavefunction(r) * np.where(  # noqa: E731
                r > 0, _j0(p * r), 1.0
            ) * r
            brute = midpoint(f, 0.0, 1.0, 10**6)
            assert radial_amplitude(st, p) == pytest.approx(brute, abs=1e-6)

    def test_negative_momentum_rejected(self, ground_beta0):
        st, _ = ground_beta0
        with pytest.raises(DomainError):
            radial_amplitude(st, -1.0)


def _j0(x):
    from abtrap.specfun import bessel_j

    return bessel_j(0.0, np.asarray(x, dtype=float))


def _scan_maxima(prof):
    """Principal maxima of the profile's density on 2048 uniform points of [0, p_max]."""
    ps = np.linspace(0.0, prof.p_max, 2048)
    return principal_maxima(ps, _AmplitudeEvaluator(prof.state)(ps) ** 2)


class TestProfile:
    def test_fast_amplitude_matches_contract_path(self):
        # nu = 0.01, 0.2 and 0.0475 test the r^nu behaviour of R at the origin;
        # p_max / 2 and p_max test the r-panels, which are widest there
        # relative to the kernel's oscillation
        states = ((0, 0, 0.0, 1.0), (0, 1, 0.99, 1.0), (1, 1, 0.8, 1.0), (12, 0, 0.95, 0.05))
        for n, l, beta, k in states:
            st = solve(SystemParams(beta=beta), QuantumNumbers(n, l, k))
            amplitude = _AmplitudeEvaluator(st)
            p_max = amplitude.p_max
            ps = np.array([0.0, 0.7, st.theta, 2.9 * st.theta, 25.0, p_max / 2, p_max])
            for p, phi in zip(ps, amplitude(ps)):
                assert phi == pytest.approx(
                    radial_amplitude(st, p, tol=1e-12), abs=1e-12
                ), (n, l, beta, k, p)

    @pytest.mark.parametrize("n, l, beta", [
        (0, 0, 0.0), (1, 1, 0.8), (2, -2, 0.4), (0, 1, 0.99), (0, 20, 0.5), (5, 30, 0.5),
        (10, 0, 0.5),
    ])
    def test_table_matches_exact_sum(self, n, l, beta):
        # the plan interpolates phi on panels about 3 sqrt(p_max) wide, from
        # width / 2 plus a margin Chebyshev points each (36 on 7.7 pi at
        # (1,1,0.8), 55 on 17 pi at (10,0,0.5)); it is within 2.5e-15 of the
        # exact radial sum on [0, p_max] here
        st = solve(SystemParams(beta=beta), QuantumNumbers(n, l, 1.0))
        plan = _AmplitudeEvaluator(st)
        ps = np.linspace(0.0, plan.p_max, 5003)
        assert np.max(np.abs(plan(ps) - plan._block(ps))) <= 1e-13

    @pytest.mark.parametrize("n, l, beta", [(1, 1, 0.8), (2, -2, 0.4), (10, 0, 0.5)])
    def test_interpolant_on_a_node_is_the_table_entry(self, n, l, beta):
        # where the panel coordinate t of p lands exactly on a Chebyshev node, the
        # weight sum is infinite and the value is that node's table entry, bit for
        # bit: here at p = 0, at p = p_max and at 25-40% of the table points
        plan = _AmplitudeEvaluator(solve(SystemParams(beta=beta), QuantumNumbers(n, l, 1.0)))
        panels = plan._table.shape[1]
        table_p = plan._width * (np.arange(panels) + 0.5 * (plan._cheb[:, None] + 1.0))
        ps = np.concatenate([[0.0], table_p.ravel(), [plan.p_max]])
        s = ps / plan._width
        panel = np.minimum(s.astype(np.intp), panels - 1)
        node, point = np.nonzero(2.0 * (s - panel) - 1.0 == plan._cheb[:, None])
        assert {0, ps.size - 1} <= set(point) and point.size > 0.2 * ps.size, (n, l, beta)
        assert np.array_equal(plan(ps)[point], plan._table[node, panel[point]])

    def test_interpolant_carries_a_nan_to_its_panel(self, monkeypatch):
        # a NaN table entry makes every point of its panel NaN that is off its
        # nodes, as the barycentric sum does, and leaves the other panels finite
        plan = _AmplitudeEvaluator(solve(SystemParams(beta=0.4), QuantumNumbers(2, -2, 1.0)))
        table = plan._table.copy()
        table[3, 1] = np.nan
        monkeypatch.setattr(plan, "_table", table)
        ps = np.linspace(0.0, plan.p_max, 1001)
        s = ps / plan._width
        panel = np.minimum(s.astype(np.intp), plan._table.shape[1] - 1)
        off_node = ~np.isin(2.0 * (s - panel) - 1.0, plan._cheb)
        phi = plan(ps)
        assert np.isnan(phi[(panel == 1) & off_node]).all()
        assert ((panel == 1) & off_node).sum() > 100
        assert np.isfinite(phi[panel != 1]).all()

    def test_breakpoints_on_the_roots(self):
        # regula falsi puts each sign change on a root of the amplitude; the
        # linear interpolation of the scan alone does not (34 and 12 roots)
        for n, l, beta in ((2, -2, 0.4), (0, 0, 0.8)):
            st = solve(SystemParams(beta=beta), QuantumNumbers(n, l, 1.0))
            amplitude = _AmplitudeEvaluator(st)
            p_max = amplitude.p_max
            ps = np.linspace(0.0, p_max, math.ceil(8.0 * p_max / math.pi) + 1)
            amps = amplitude(ps)
            i = np.flatnonzero(np.sign(amps[:-1]) * np.sign(amps[1:]) < 0)
            lo, hi = ps[i], ps[i + 1]
            secant = lo + (hi - lo) * amps[i] / (amps[i] - amps[i + 1])
            f_lo = amps[i]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                right = np.sign(amplitude(mid)) == np.sign(f_lo)
                lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
            roots = 0.5 * (lo + hi)
            refined = _amplitude_breakpoints(amplitude, ps, amps)
            assert refined.size == roots.size >= 10, (n, l, beta)
            assert np.max(np.abs(refined - roots)) <= 1e-9 * p_max, (n, l, beta)
            assert np.max(np.abs(secant - roots)) > 1e-9 * p_max, (n, l, beta)

    def test_bessel_block_size(self, monkeypatch):
        # (1,1,0.8) took 3 188 884 Bessel points with one-oscillation r-panels
        # and a 2048-point scan, 1 021 684 with the two-term tail's
        # p_max = 10 (Theta + 20) / r0, and 290 082 with p_max = 5 (Theta + 20);
        # the count is deterministic, unlike a timing. It was 130 947 with p_max
        # from the tail's truncation error (72.9 here, 129.1 before) and the
        # exact sum at every p; with phi tabulated once, it was 64 027: the
        # table's 192 points times the 140 r-nodes, 26 880, and 37 147 J_L and
        # J_{L+1} on the tail's near band. With that band cut to 8 p_max and
        # taken from one Hankel phase, it was 27 044: the table's 26 880 and 164
        # J_{L+1} at the McMahon zeros that place the near band's panels. With
        # panels about 3 sqrt(p_max) wide, three of 36 points, the table takes
        # 108 x 140 = 15 120 and the count is 15 284
        points = []

        def counting(nu, x):
            points.append(np.size(x))
            return bessel_j(nu, x)

        monkeypatch.setattr(momentum_mod, "bessel_j", counting)
        build_profile(solve(SystemParams(beta=0.8), QuantumNumbers(1, 1, 1.0)))
        assert sum(points) <= 15_284

    def test_wide_states_take_a_small_table(self, monkeypatch):
        # 24 points per 3 pi took 1 200 table points at (5,30,0.5) and 6 288 at
        # (100,0,0.5); panels about 3 sqrt(p_max) wide take 464 and 1 836. The
        # Bessel work is stubbed out: the plan's shape does not depend on phi
        points = []

        def counting(nu, x):
            points.append(np.size(x))
            return np.zeros_like(x)

        monkeypatch.setattr(momentum_mod, "bessel_j", counting)
        for (n, l), bound in (((5, 30), 480), ((100, 0), 2_515)):
            points.clear()
            plan = _AmplitudeEvaluator(solve(SystemParams(beta=0.5), QuantumNumbers(n, l, 1.0)))
            assert plan._table.size <= bound, (n, l)
            assert sum(points) == plan._table.size * plan._nodes.size, (n, l)
        assert plan._width > 15.0 * math.pi

    def test_trimmed_radial_grid(self, monkeypatch):
        # R is evanescent for Theta x < nu: at (0,160,0.5) 798 of the 2 040
        # radial nodes carry a weight |w R(x) x| above 1e-18 of the largest,
        # and the others move S_p by less than 1e-13
        plans = []

        class Recorded(_AmplitudeEvaluator):
            def __init__(self, state):
                super().__init__(state)
                plans.append(self)

        monkeypatch.setattr(momentum_mod, "_AmplitudeEvaluator", Recorded)
        st = solve(SystemParams(beta=0.5), QuantumNumbers(0, 160, 1.0))
        s_p = shannon_momentum(build_profile(st))
        monkeypatch.setattr(momentum_mod, "_NODE_FLOOR", 0.0)
        assert shannon_momentum(build_profile(st)) == pytest.approx(s_p, abs=1e-13)
        trimmed, full = (plan._nodes.size for plan in plans)
        assert trimmed < full

    def test_samples_sorted_and_consistent(self):
        # the six bench `density` states, then a wide, a high-n and a small-nu
        # one; the grid rises only while the knee 2.5 Theta lies below p_max
        for n, l, beta in [(0, 0, 0.0), (0, 0, 0.2), (1, 0, 0.4), (1, 1, 0.0), (2, -2, 0.0),
                           (2, -2, 0.4), (0, 20, 0.5), (100, 0, 0.5), (0, 1, 0.99)]:
            st = solve(SystemParams(beta=beta), QuantumNumbers(n, l, 1.0))
            plan = _AmplitudeEvaluator(st)
            assert 2.5 * st.theta < plan.p_max
            ps, dens = sample_profile(st, 512).T
            assert ps.size == 512 and ps[0] == 0.0 and ps[-1] == plan.p_max
            assert np.all(np.diff(ps) > 0)
            # the samples are the square of the amplitude the profile integrates
            assert np.array_equal(dens, plan(ps) ** 2)

    def test_sample_knee_ignores_the_density_peak(self):
        # on (1,1,0.8) the density peaks at 1.21 Theta / r0, and the last of
        # the 70% points below the knee is still 2.5 Theta / r0
        st = solve(SystemParams(beta=0.8), QuantumNumbers(1, 1, 1.0))
        count = 512
        ps, dens = sample_profile(st, count).T
        assert ps[np.argmax(dens)] > 1.2 * st.theta
        assert ps[int(0.7 * count) - 1] == 2.5 * st.theta

    def test_samples_take_one_amplitude_batch(self, monkeypatch, capsys):
        # `density --space momentum` takes the exact sum on the plan's table
        # only, whatever the sample count: 108 table points times the 140
        # r-nodes, 15 120 Bessel points on (1,1,0.8) (26 880 with 24 points per
        # 3 pi panel, 573 440 at 4096 samples when each sample took the exact
        # sum); building the profile as well would add 164, at the McMahon
        # zeros of the tail's near band
        points = []

        def counting(nu, x):
            points.append(np.size(x))
            return bessel_j(nu, x)

        st = solve(SystemParams(beta=0.8), QuantumNumbers(1, 1, 1.0))
        plan = _AmplitudeEvaluator(st)
        monkeypatch.setattr(momentum_mod, "bessel_j", counting)
        argv = ["density", "--space", "momentum", "--n", "1", "--l", "1", "--beta", "0.8"]
        counts = []
        for samples in ("512", "4096"):
            points.clear()
            assert cli.main([*argv, "--samples", samples]) == 0
            counts.append(sum(points))
        assert counts == [plan._table.size * plan._nodes.size] * 2 == [15_120] * 2

    def test_captured_norm_with_tail_correction(self, ground_beta0):
        # at beta = 0 the Lommel closed form gives the density past p_max, so
        # the tail model's norm and entropy there have an exact reference
        # (8.2e-5 and 1.5e-3 here; the model is within 2e-13 and 3e-12)
        st, prof = ground_beta0
        assert prof.captured_norm + prof.tail_norm == pytest.approx(1.0, abs=1e-10)
        norm, entropy = lommel_transverse(0, st.theta, prof.p_max)
        assert prof.tail_norm == pytest.approx(norm, abs=1e-12)
        assert prof.tail_entropy == pytest.approx(entropy, abs=2e-11)

    def test_norm_by_direct_quadrature(self, ground_beta0):
        st, prof = ground_beta0
        amplitude = _AmplitudeEvaluator(st)
        res = integrate_adaptive(
            lambda p: 2.0 * math.pi * amplitude(p) ** 2 * p, 0.0, prof.p_max, 1e-9
        )
        assert res.value == pytest.approx(prof.captured_norm, abs=1e-7)

    def test_doubling_samples_keeps_norm(self, ground_beta0):
        _, prof = ground_beta0
        # the sample grid only tabulates the profile: its trapezoid norm
        # converges to the captured norm at second order in the grid step
        errors = []
        for count in (512, 1024):
            ps, dens = sample_profile(prof.state, count).T
            errors.append(abs(np.trapezoid(2.0 * math.pi * dens * ps, ps) - prof.captured_norm))
        assert errors[0] <= 2e-3
        assert errors[1] <= 0.3 * errors[0]

    def test_scaling_contracts_profile(self, capsys):
        # doubling r0 halves the momentum at which the printed 2 pi rho(p) p
        # peaks; (1,1,0.8) peaks off p = 0, where a halving shows
        argv = ["density", "--space", "momentum", "--n", "1", "--l", "1", "--beta", "0.8"]
        peaks = []
        for r0 in ("1", "2"):
            assert cli.main([*argv, "--r0", r0]) == 0
            lines = capsys.readouterr().out.splitlines()[1:]
            rows = np.array([[float(v) for v in line.split(",")] for line in lines])
            peaks.append(rows[np.argmax(rows[:, 1]), 0])
        assert peaks[0] > 0.5
        assert peaks[1] == pytest.approx(peaks[0] / 2.0, rel=0.05)

    def test_reciprocity_pointwise(self, capsys):
        # r0 -> 2 r0 maps the printed 2 pi rho(p) p to p / 2 and twice the
        # density, and 2 pi lz rho(r) r to 2 r and half the density. (1,1,0.8)
        # peaks off the axis in both spaces (p = 1.21 Theta / r0, r = 0.73 r0),
        # so a moved peak shows
        for space in ("momentum", "position"):
            argv = ["density", "--space", space, "--n", "1", "--l", "1", "--beta", "0.8"]
            rows = []
            for r0 in ("1", "2"):
                assert cli.main([*argv, "--r0", r0]) == 0
                lines = capsys.readouterr().out.splitlines()[1:]
                rows.append(np.array([[float(v) for v in line.split(",")] for line in lines]))
            unit, wide = rows
            assert unit[np.argmax(unit[:, 1]), 0] > 0.5
            # the larger side of each pair is halved, so 5-decimal rounding stays under 1e-5
            if space == "momentum":
                pairs = ((wide[:, 0], unit[:, 0] / 2.0), (wide[:, 1] / 2.0, unit[:, 1]))
            else:
                pairs = ((wide[:, 0] / 2.0, unit[:, 0]), (wide[:, 1], unit[:, 1] / 2.0))
            for got, expect in pairs:
                np.testing.assert_allclose(got, expect, rtol=0, atol=1e-5, err_msg=space)

    def test_principal_ridge_count(self):
        # n + 1 principal maxima in the transverse momentum density
        for n, l in ((0, 0), (1, -1), (2, -2)):
            st = solve(SystemParams(beta=0.2), QuantumNumbers(n, l, 1.0))
            prof = build_profile(st)
            assert len(_scan_maxima(prof)) == n + 1, (n, l)

    def test_ridge_count_against_contract_path_sampling(self):
        # independently sample the contract-path density on a uniform grid
        st = solve(SystemParams(beta=0.2), QuantumNumbers(2, -2, 1.0))
        prof = build_profile(st)
        ps = np.linspace(0.0, 25.0, 513)
        dens = np.array([momentum_density(st, float(p)) for p in ps])
        assert len(principal_maxima(ps, dens)) == len(_scan_maxima(prof)) == 3


class TestTailModel:
    def test_origin_term_vanishes_without_defect(self):
        # nu = |l| at beta = 0, so 1 / Gamma((|l| - nu) / 2) sits on a pole
        for n, l in ((0, 0), (1, 1), (2, -2)):
            st = solve(SystemParams(beta=0.0), QuantumNumbers(n, l, 1.0))
            assert _Tail(st).origin[0] == 0.0

    def test_origin_term_past_gamma_pole(self):
        # (l, beta) = (-1, 0.8) gives (|l| - nu) / 2 = -0.4;
        # E_0 = C_0 Theta^-nu
        import mpmath as mp

        st = solve(SystemParams(beta=0.8), QuantumNumbers(0, -1, 1.0))
        nu, order = st.nu, 1
        expect = (
            2 * st.a0 / mp.gamma(nu + 1)
            * mp.gamma((order + nu + 2) / 2) * mp.rgamma((order - nu) / 2)
        )
        assert _Tail(st).origin[0] == pytest.approx(float(expect), rel=1e-12, abs=0)

    def test_second_origin_term_vanishes_without_defect(self):
        # (|l| - nu) / 2 - 1 = -1 at beta = 0, another pole of Gamma
        for n, l in ((0, 0), (1, 1), (2, -2)):
            st = solve(SystemParams(beta=0.0), QuantumNumbers(n, l, 1.0))
            assert _Tail(st).origin[1:] == (0.0, 0.0, 0.0)

    def test_second_origin_term_past_gamma_pole(self):
        # (l, beta) = (-1, 0.8) gives (|l| - nu) / 2 - 1 = -1.4;
        # E_1 = C_1 Theta^-(nu+2)
        import mpmath as mp

        st = solve(SystemParams(beta=0.8), QuantumNumbers(0, -1, 1.0))
        nu, order = mp.mpf(st.nu), 1
        expect = (
            -2 * st.a0 / mp.gamma(nu + 2)
            * mp.gamma((order + nu + 4) / 2) * mp.rgamma((order - nu - 2) / 2)
        )
        assert _Tail(st).origin[1] == pytest.approx(float(expect), rel=1e-12, abs=0)

    def test_third_origin_term_past_gamma_pole(self):
        # (l, beta) = (-1, 0.8) gives (|l| - nu) / 2 - 2 = -2.4;
        # E_2 = C_2 Theta^-(nu+4)
        import mpmath as mp

        st = solve(SystemParams(beta=0.8), QuantumNumbers(0, -1, 1.0))
        nu, order = mp.mpf(st.nu), 1
        expect = (
            2 * st.a0 / (2 * mp.gamma(nu + 3))
            * mp.gamma((order + nu + 6) / 2) * mp.rgamma((order - nu - 4) / 2)
        )
        assert _Tail(st).origin[2] == pytest.approx(float(expect), rel=1e-12, abs=0)

    def test_fourth_origin_term_past_gamma_pole(self):
        # (l, beta) = (-1, 0.8) gives (|l| - nu) / 2 - 3 = -3.4;
        # E_3 = C_3 Theta^-(nu+6)
        import mpmath as mp

        st = solve(SystemParams(beta=0.8), QuantumNumbers(0, -1, 1.0))
        nu, order = mp.mpf(st.nu), 1
        expect = (
            -2 * st.a0 / (6 * mp.gamma(nu + 4))
            * mp.gamma((order + nu + 8) / 2) * mp.rgamma((order - nu - 6) / 2)
        )
        assert _Tail(st).origin[3] == pytest.approx(float(expect), rel=1e-12, abs=0)

    def test_origin_terms_finite_at_high_order(self):
        # (Theta / 2)^(nu+2) alone overflows at nu = 159.5, Theta = 169.8
        st = solve(SystemParams(beta=0.5), QuantumNumbers(0, 160, 1.0))
        tail = _Tail(st)
        assert all(math.isfinite(e) and e != 0.0 for e in tail.origin)
        assert np.all(np.isfinite(tail.green))

    def test_coefficients_built_once_per_profile(self, monkeypatch):
        # each plan forms the tail's coefficients once, since p_max follows
        # from them: build_profile integrates that tail, and sample_profile
        # only tabulates the amplitude up to its p_max
        calls = []

        class Counting(_Tail):
            def __init__(self, state):
                calls.append(state)
                super().__init__(state)

        st = solve(SystemParams(beta=0.8), QuantumNumbers(2, 1, 1.0))
        monkeypatch.setattr(momentum_mod, "_Tail", Counting)
        build_profile(st)
        assert calls == [st]
        sample_profile(st, 64)
        assert calls == [st, st]

    def test_p_max_fixed_once_per_plan(self, monkeypatch):
        # the evaluator fixes p_max, and build_profile and sample_profile read
        # it from there rather than work it out again
        calls = []

        def counting(tail):
            calls.append(tail)
            return _p_max(tail)

        st = solve(SystemParams(beta=0.8), QuantumNumbers(2, 1, 1.0))
        p_max = _p_max(_Tail(st))
        monkeypatch.setattr(momentum_mod, "_p_max", counting)
        assert build_profile(st).p_max == p_max
        assert len(calls) == 1
        assert sample_profile(st, 64)[-1, 0] == p_max
        assert len(calls) == 2

    @pytest.mark.parametrize("n, l, r0", [(0, 0, 1.0), (1, -3, 1.0), (2, 2, 1.7)])
    def test_wall_terms_match_lommel_expansion(self, n, l, r0):
        # at beta = 0 the Lommel integral gives phi(p) = A J_L(p) / (Theta^2 - p^2)
        # on the unit cylinder, A = a0 Theta J_{L+1}(Theta). Expanding
        # 1 / (Theta^2 - p^2) in p^-2 gives the Green coefficients
        # W_m = -A Theta^(2m), m = 0..3, and no J_{L+1} term, whatever the box r0;
        # the Hankel envelopes of J_L and J_{L+1} past P are pinned by
        # specfun's `hankel_pq` test
        import mpmath as mp

        st = solve(SystemParams(beta=0.0, r0=r0), QuantumNumbers(n, l, 1.0))
        with mp.workdps(30):
            alpha = mp.mpf(st.theta)
            amp = st.a0 * alpha * mp.besselj(abs(l) + 1, alpha)
            green = [[float(-amp * alpha ** (2 * m)) for m in range(4)], [0.0] * 4]
        tail = _Tail(st)
        assert tail.origin == (0.0, 0.0, 0.0, 0.0)
        np.testing.assert_allclose(tail.green, green, rtol=1e-12, atol=0)

    def test_green_terms_match_bessel_operator(self):
        # f_0 = R and f_{m+1} = B f_m = -f_m'' - f_m' / x + L^2 f_m / x^2, each pass
        # applied to mpmath's Taylor series of R at the wall x = 1; with
        # p J_L'(p) = L J_L(p) - p J_{L+1}(p), the m-th pass gives
        # p^-2(m+1) [(f_m' - L f_m) J_L + f_m p J_{L+1}]. Rows m <= 3 and the
        # first left out, m = 4, within 3.4e-15 here
        for n, l, beta, k in ((1, -3, 0.5, 1.0), (0, 2, 0.8, 1.0), (2, 5, 0.3, 1.0),
                              (0, 20, 0.5, 1.0), (1, 30, 0.9, 33.27777777777778),
                              (10, 10, 0.95, -10.0), (0, 1, 0.99, 1.0), (2, -2, 0.0, 1.0)):
            st = solve(SystemParams(beta=beta), QuantumNumbers(n, l, k))
            tail = _Tail(st)
            green = np.column_stack([tail.green, tail._next_green])
            expect = green_wall_terms(st.nu, n, abs(l))
            np.testing.assert_allclose(green[0], expect[0], rtol=1e-14, atol=0)
            # V_m = f_m(1) vanishes exactly in the model for m <= 1, and for every m
            # at beta = 0, where c = L^2 - nu^2 = 0; the series has R(1) = 0 to 40 digits
            zero = green[1] == 0.0
            assert np.count_nonzero(zero) == (5 if beta == 0.0 else 2) and np.all(zero[:2])
            np.testing.assert_allclose(green[1, ~zero], expect[1, ~zero], rtol=1e-14, atol=0)
            assert np.all(np.abs(expect[1, zero]) <= 1e-30 * np.abs(expect[0, zero]))

    def test_residual_falls_at_ninth_order(self):
        # the first terms left out fall as p^-19/2 (wall) and p^-(nu+10)
        # (origin), so from p_max / 4 to p_max / 2 the residual falls by 2^9 or
        # more (2^10.2 to 2^12.1 measured)
        for n, l, beta in ((1, 1, 0.8), (2, -2, 0.0), (0, 0, 0.2)):
            st = solve(SystemParams(beta=beta), QuantumNumbers(n, l, 1.0))
            amplitude = _AmplitudeEvaluator(st)
            residuals = []
            for p in (0.25 * amplitude.p_max, 0.5 * amplitude.p_max):
                ps = np.linspace(0.9 * p, p, 200)
                residuals.append(np.max(np.abs(amplitude(ps) - amplitude.tail(ps))))
            assert residuals[1] <= residuals[0] / 2**9, (n, l, beta, residuals)

    @pytest.mark.parametrize("l", [20, 25])
    def test_residual_small_at_large_l(self, l):
        # J_L(p r0) is exact in the model, so the Hankel ratio (4 L^2 - 1) / (8 p r0),
        # 0.89 and 1.2 at p_max here, does not enter; 1.1e-12 measured at both
        st = solve(SystemParams(beta=0.5), QuantumNumbers(0, l, 1.0))
        amplitude = _AmplitudeEvaluator(st)
        ps = np.linspace(0.9 * amplitude.p_max, amplitude.p_max, 200)
        assert np.max(np.abs(amplitude(ps) - amplitude.tail(ps))) <= 1e-11

    @pytest.mark.parametrize("n, l, beta", [
        (1, 1, 0.8), (2, 1, 0.8), (0, 1, 0.99), (0, 0, 0.2), (0, 140, 0.5),
    ])
    def test_tail_matches_a_far_start(self, monkeypatch, n, l, beta):
        # the far band from 8 p_max, with its end terms, against a start at
        # 160 p_max: within 7.7e-16 and 3.5e-17 here (up to 7.9e-13 and 4.0e-14
        # with the first two end terms alone, at (0,0,0.2)). At (0,140,0.5) 8 p_max lies below
        # Hankel's cutoff for J_141, where the far band's phase form fails: the
        # band reaches past that cutoff (off by 1.7e-7 when it stopped at 8 p_max)
        st = solve(SystemParams(beta=beta), QuantumNumbers(n, l, 1.0))
        tail = _Tail(st)
        norm, entropy = tail.integrals(_p_max(tail))
        monkeypatch.setattr(momentum_mod, "_NEAR_BAND", 160.0)
        far_norm, far_entropy = tail.integrals(_p_max(tail))
        assert abs(norm - far_norm) <= 1e-13
        assert abs(entropy - far_entropy) <= 1e-12

    @pytest.mark.parametrize("o, r, tol", [
        (1.3, 1.0, 1e-14), (-0.4, 1.0, 1e-11), (1.0, 1.0, 1e-14), (-0.7, 0.0, 1e-14),
        (0.0, 0.8, 1e-9),
    ])
    def test_phase_harmonics_in_closed_form(self, o, r, tol):
        # the means and first harmonics of rho = u^2 and rho ln rho, u = o + r cos theta,
        # against a 4096-node midpoint sum; where u has simple zeros (|o| < r) the
        # sum's own error is set by the cusps of rho ln rho there, 2.3e-12 and
        # 1.3e-10 (3.3e-14 at 65 536 nodes), and elsewhere it is below 4e-15
        theta = 2.0 * math.pi * (np.arange(4096) + 0.5) / 4096
        rho = (o + r * np.cos(theta)) ** 2
        rho_log = np.where(rho > 0.0, rho * np.log(np.where(rho > 0.0, rho, 1.0)), 0.0)
        cosines = np.cos(np.multiply.outer(np.arange(6), theta))
        expect = np.stack([cosines @ rho, cosines @ rho_log]) / 4096
        expect[:, 1:] *= 2.0
        closed = momentum_mod._phase_harmonics(np.array([o]), np.array([r]), 6)[0]
        assert np.max(np.abs(closed - expect)) <= tol

class TestPhaseIndependence:
    def test_symmetric_when_beta_k_zero(self):
        params = SystemParams(beta=0.0)
        st_plus = solve(params, QuantumNumbers(0, 1, 1.0))
        st_minus = solve(params, QuantumNumbers(0, -1, 1.0))
        for p in (0.5, 2.0, 6.0):
            assert momentum_density(st_plus, p) == momentum_density(st_minus, p)

    def test_asymmetric_when_beta_k_nonzero(self):
        params = SystemParams(beta=0.8)
        st_plus = solve(params, QuantumNumbers(0, 1, 1.0))
        st_minus = solve(params, QuantumNumbers(0, -1, 1.0))
        assert st_plus.nu != st_minus.nu
        diffs = [
            abs(momentum_density(st_plus, p) - momentum_density(st_minus, p))
            for p in (0.5, 2.0, 6.0)
        ]
        assert max(diffs) > 1e-3
