import math

import numpy as np
import pytest

from abtrap.eigen import QuantumNumbers, SystemParams, solve
from abtrap.errors import DomainError
from abtrap.momentum import (
    _AmplitudeEvaluator,
    _p_max,
    _tail_amplitude,
    _tail_coefficients,
    build_profile,
)
from abtrap.quadrature import integrate_adaptive

from oracles import midpoint, momentum_density, radial_amplitude


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


class TestProfile:
    def test_fast_amplitude_matches_contract_path(self, ground_beta0):
        st, prof = ground_beta0
        for p in (0.0, 0.7, st.theta, 2.9 * st.theta, 25.0):
            assert float(prof.amplitude(p)) == pytest.approx(
                radial_amplitude(st, p, tol=1e-12), abs=1e-9
            )

    def test_samples_sorted_and_consistent(self, ground_beta0):
        _, prof = ground_beta0
        ps, amps, dens = prof.sample(512).T
        assert np.all(np.diff(ps) > 0)
        assert np.all(dens >= 0.0)
        lz = prof.state.params.lz
        assert np.allclose(dens, lz * amps**2, rtol=0, atol=1e-15)

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
            ps, _, dens = prof.sample(count).T
            errors.append(abs(np.trapezoid(2.0 * math.pi * dens * ps, ps) - prof.captured_norm))
        assert errors[0] <= 2e-3
        assert errors[1] <= 0.3 * errors[0]

    def test_rejects_bad_arguments(self, ground_beta0):
        _, prof = ground_beta0
        with pytest.raises(DomainError):
            prof.sample(32)

    def test_scaling_contracts_profile(self, ground_beta0):
        st1, prof1 = ground_beta0
        st2 = solve(SystemParams(beta=0.0, r0=2.0), QuantumNumbers(0, 0, 1.0))
        prof2 = build_profile(st2)
        rows1, rows2 = prof1.sample(512), prof2.sample(512)
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
        d2 = prof2.density(ps)
        d1 = prof1.density(s * ps)
        assert np.max(np.abs(d2 - s * s * d1)) <= 1e-6

    def test_principal_ridge_count(self):
        # n + 1 principal maxima in the transverse momentum density
        for n, l in ((0, 0), (1, -1), (2, -2)):
            st = solve(SystemParams(beta=0.2), QuantumNumbers(n, l, 1.0))
            prof = build_profile(st)
            assert len(prof.principal_maxima()) == n + 1, (n, l)

    def test_ridge_count_against_contract_path_sampling(self):
        # independently sample the contract-path density on a uniform grid
        st = solve(SystemParams(beta=0.2), QuantumNumbers(2, -2, 1.0))
        prof = build_profile(st)
        ps = np.linspace(0.0, 25.0, 513)
        dens = np.array([momentum_density(st, float(p)) for p in ps])
        peak = dens.max()
        count = sum(
            1
            for i in range(1, len(ps) - 1)
            if dens[i] > dens[i - 1] and dens[i] >= dens[i + 1] and dens[i] >= 0.05 * peak
        )
        assert count == len(prof.principal_maxima()) == 3


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
        assert _tail_coefficients(st)[0] == pytest.approx(float(expect), rel=1e-12)

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
