import math

import numpy as np
import pytest

import abtrap.momentum as momentum_mod
from abtrap import cli
from abtrap.eigen import QuantumNumbers, SystemParams, solve
from abtrap.errors import DomainError
from abtrap.momentum import (
    _AmplitudeEvaluator,
    _amplitude_breakpoints,
    _p_max,
    _tail_amplitude,
    _tail_coefficients,
    build_profile,
    sample_profile,
)
from abtrap.quadrature import integrate_adaptive
from abtrap.specfun import bessel_j

from oracles import midpoint, momentum_density, principal_maxima, radial_amplitude


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
    return principal_maxima(ps, prof.state.params.lz * prof.amplitude(ps) ** 2)


class TestProfile:
    def test_fast_amplitude_matches_contract_path(self):
        # nu = 0.01, 0.2 and 0.0475 test the r^nu behaviour of R at the origin;
        # p_max / 2 and p_max test the r-panels, which are widest there
        # relative to the kernel's oscillation
        states = ((0, 0, 0.0, 1.0), (0, 1, 0.99, 1.0), (1, 1, 0.8, 1.0), (12, 0, 0.95, 0.05))
        for n, l, beta, k in states:
            st = solve(SystemParams(beta=beta), QuantumNumbers(n, l, k))
            prof = build_profile(st)
            for p in (0.0, 0.7, st.theta, 2.9 * st.theta, 25.0, prof.p_max / 2, prof.p_max):
                assert float(prof.amplitude(p)) == pytest.approx(
                    radial_amplitude(st, p, tol=1e-12), abs=1e-12
                ), (n, l, beta, k, p)

    def test_breakpoints_on_the_roots(self):
        # regula falsi puts each sign change on a root of the amplitude; the
        # linear interpolation of the scan alone does not
        for n, l, beta in ((2, -2, 0.4), (0, 0, 0.8)):
            st = solve(SystemParams(beta=beta), QuantumNumbers(n, l, 1.0))
            prof = build_profile(st)
            ps = np.linspace(0.0, prof.p_max, math.ceil(8.0 * prof.p_max / math.pi) + 1)
            amps = prof.amplitude(ps)
            i = np.flatnonzero(np.sign(amps[:-1]) * np.sign(amps[1:]) < 0)
            lo, hi = ps[i], ps[i + 1]
            secant = lo + (hi - lo) * amps[i] / (amps[i] - amps[i + 1])
            f_lo = amps[i]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                right = np.sign(prof.amplitude(mid)) == np.sign(f_lo)
                lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
            roots = 0.5 * (lo + hi)
            refined = _amplitude_breakpoints(prof.amplitude, ps, amps)
            assert refined.size == roots.size > 20, (n, l, beta)
            assert np.max(np.abs(refined - roots)) <= 1e-9 * prof.p_max, (n, l, beta)
            assert np.max(np.abs(secant - roots)) > 1e-9 * prof.p_max, (n, l, beta)

    def test_bessel_block_size(self, monkeypatch):
        # (1,1,0.8) took 3 188 884 Bessel points with one-oscillation r-panels
        # and a 2048-point scan; the count is deterministic, unlike a timing
        points = []

        def counting(nu, x):
            points.append(np.size(x))
            return bessel_j(nu, x)

        monkeypatch.setattr(momentum_mod, "bessel_j", counting)
        build_profile(solve(SystemParams(beta=0.8), QuantumNumbers(1, 1, 1.0)))
        assert sum(points) <= 0.4 * 3_188_884

    def test_samples_sorted_and_consistent(self, ground_beta0):
        st, prof = ground_beta0
        ps, amps, dens = sample_profile(st, 512).T
        assert ps.size == 512 and ps[0] == 0.0 and ps[-1] == prof.p_max
        assert np.all(np.diff(ps) > 0)
        assert np.all(dens >= 0.0)
        lz = st.params.lz
        assert np.allclose(dens, lz * amps**2, rtol=0, atol=1e-15)
        # the samples are the amplitude the profile integrates
        assert np.array_equal(amps, prof.amplitude(ps))

    def test_sample_knee_ignores_the_density_peak(self):
        # on (1,1,0.8) the density peaks at 1.21 Theta / r0, and the last of
        # the 70% points below the knee is still 2.5 Theta / r0
        st = solve(SystemParams(beta=0.8), QuantumNumbers(1, 1, 1.0))
        count = 512
        ps, _, dens = sample_profile(st, count).T
        assert ps[np.argmax(dens)] > 1.2 * st.theta
        assert ps[int(0.7 * count) - 1] == 2.5 * st.theta

    def test_samples_take_one_amplitude_batch(self, monkeypatch, capsys):
        # `density --space momentum` evaluates the amplitude on its samples
        # only: 4096 points times the r-nodes, 1 802 240 Bessel points on
        # (1,1,0.8), where building the profile as well took 2 823 924
        points = []

        def counting(nu, x):
            points.append(np.size(x))
            return bessel_j(nu, x)

        st = solve(SystemParams(beta=0.8), QuantumNumbers(1, 1, 1.0))
        r_nodes = _AmplitudeEvaluator(st, _p_max(st))._nodes.size
        monkeypatch.setattr(momentum_mod, "bessel_j", counting)
        argv = ["density", "--space", "momentum", "--n", "1", "--l", "1", "--beta", "0.8"]
        assert cli.main([*argv, "--samples", "4096"]) == 0
        assert sum(points) == 4096 * r_nodes == 1_802_240

    def test_captured_norm_with_tail_correction(self, ground_beta0):
        _, prof = ground_beta0
        assert prof.captured_norm + prof.tail_norm == pytest.approx(1.0, abs=1e-6)
        # the ground profile captures essentially everything even uncorrected
        assert prof.captured_norm >= 1.0 - 1e-6

    def test_norm_by_direct_quadrature(self, ground_beta0):
        _, prof = ground_beta0
        lz = prof.state.params.lz
        res = integrate_adaptive(
            lambda p: 2.0 * math.pi * lz * prof.amplitude(p) ** 2 * p, 0.0, prof.p_max, 1e-9
        )
        assert res.value == pytest.approx(prof.captured_norm, abs=1e-7)

    def test_doubling_samples_keeps_norm(self, ground_beta0):
        _, prof = ground_beta0
        # the sample grid only tabulates the profile: its trapezoid norm
        # converges to the captured norm at second order in the grid step
        errors = []
        for count in (512, 1024):
            ps, _, dens = sample_profile(prof.state, count).T
            errors.append(abs(np.trapezoid(2.0 * math.pi * dens * ps, ps) - prof.captured_norm))
        assert errors[0] <= 2e-3
        assert errors[1] <= 0.3 * errors[0]

    def test_scaling_contracts_profile(self, ground_beta0):
        st1, prof1 = ground_beta0
        st2 = solve(SystemParams(beta=0.0, r0=2.0), QuantumNumbers(0, 0, 1.0))
        rows1, rows2 = sample_profile(st1, 512), sample_profile(st2, 512)
        p1 = rows1[np.argmax(rows1[:, 2]), 0]
        p2 = rows2[np.argmax(rows2[:, 2]), 0]
        assert p2 == pytest.approx(p1 / 2.0, rel=0.05)

    def test_reciprocity_pointwise(self):
        # r0 -> s r0 at fixed (n, l, beta, k) maps rho(p) -> s^2 rho(s p)
        s = 2.0
        st1 = solve(SystemParams(beta=0.4), QuantumNumbers(0, 0, 1.0))
        st2 = solve(SystemParams(beta=0.4, r0=s), QuantumNumbers(0, 0, 1.0))
        prof1 = build_profile(st1)
        prof2 = build_profile(st2)
        ps = np.linspace(0.0, prof2.p_max, 300)
        d2 = prof2.amplitude(ps) ** 2
        d1 = prof1.amplitude(s * ps) ** 2
        assert np.max(np.abs(d2 - s * s * d1)) <= 1e-6

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
            assert _tail_coefficients(st)[0] == 0.0

    def test_origin_term_past_gamma_pole(self):
        # (l, beta) = (-1, 0.8) gives (|l| - nu) / 2 = -0.4
        import mpmath as mp

        st = solve(SystemParams(beta=0.8), QuantumNumbers(0, -1, 1.0))
        nu, order = st.nu, 1
        expect = (
            st.a0 * (st.theta / 2.0) ** nu / mp.gamma(nu + 1) * 2 ** (nu + 1)
            * mp.gamma((order + nu + 2) / 2) * mp.rgamma((order - nu) / 2)
        )
        assert _tail_coefficients(st)[0] == pytest.approx(float(expect), rel=1e-12, abs=0)

    def test_residual_shrinks_with_p_max(self):
        st = solve(SystemParams(beta=0.8), QuantumNumbers(1, 1, 1.0))
        residuals = []
        for scale in (1.0, 2.0):
            p_max = scale * _p_max(st)
            ps = np.linspace(0.7 * p_max, p_max, 200)
            exact = _AmplitudeEvaluator(st, p_max)(ps)
            residuals.append(np.max(np.abs(exact - _tail_amplitude(st, ps))))
        assert residuals[1] < residuals[0]


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
