import math

import mpmath as mp
import numpy as np
import pytest

import abtrap.specfun as specfun_mod
from abtrap.errors import ConvergenceError, DomainError
from abtrap.specfun import (
    asymptotic_cutoff,
    bessel_j,
    bessel_zero,
    gamma,
    series_cutoff,
    _bracket_by_scan,
    _j_asymptotic,
    _j_miller,
    _j_series,
)

from oracles import bessel_j_prime, besselj_ref, gamma_ref, series_j, zero_by_bisection

# frozen from the independent series/bisection oracle (tests below recompute them)
J0_ZERO_1 = 2.404825557695773
J0_ZERO_2 = 5.520078110286311
J1_AT_Z1 = 0.5191474972894667


class TestGamma:
    def test_trivial_values(self):
        assert gamma(1.0) == pytest.approx(1.0, abs=1e-14)
        assert gamma(0.5) == pytest.approx(1.7724538509055160, rel=1e-14)
        assert gamma(5.0) == pytest.approx(24.0, rel=1e-14)

    def test_accuracy_against_reference(self):
        for x in np.geomspace(1e-3, 50.0, 120):
            assert gamma(float(x)) == pytest.approx(gamma_ref(float(x)), rel=1e-13)

    def test_recurrence(self):
        # Gamma(x+1) = x Gamma(x) on a log-spaced grid
        for x in np.geomspace(1e-2, 49.0, 80):
            x = float(x)
            assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-13)

    def test_domain_errors(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                gamma(bad)


class TestBesselJ:
    def test_trivial_values(self):
        assert bessel_j(0.0, 0.0) == 1.0
        assert bessel_j(0.7, 0.0) == 0.0
        # J_{1/2}(pi) = sqrt(2/(pi*x)) sin(x) -> 0 at x = pi
        assert abs(bessel_j(0.5, math.pi)) <= 1e-12

    def test_first_zero_from_series_oracle(self):
        z = zero_by_bisection(0.0, 1)
        assert z == pytest.approx(J0_ZERO_1, abs=1e-13)
        assert abs(bessel_j(0.0, z)) <= 1e-12

    def test_accuracy_grid(self):
        # abs error <= 1e-12 over nu in [0, 10], x in [0, 200]
        for nu in (0.0, 0.2, 0.5, 1.0, 2.7, 5.0, 10.0):
            xs = np.concatenate(
                [np.linspace(0.0, 12.0, 25), np.linspace(12.5, 35.0, 15), np.geomspace(35.0, 200.0, 20)]
            )
            for x in xs:
                assert bessel_j(nu, float(x)) == pytest.approx(
                    besselj_ref(nu, float(x)), abs=1e-12
                ), (nu, x)

    def test_half_integer_closed_form(self):
        for x in np.linspace(0.1, 50.0, 250):
            x = float(x)
            closed = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
            assert abs(bessel_j(0.5, x) - closed) <= 1e-12

    def test_vectorized_matches_scalar(self):
        # truncation counts come from array extrema, so agreement is to
        # rounding level rather than bitwise
        xs = np.linspace(0.0, 120.0, 257)
        vec = bessel_j(1.3, xs)
        scl = np.array([bessel_j(1.3, float(x)) for x in xs])
        assert np.max(np.abs(vec - scl)) <= 1e-14

    def test_branch_agreement_at_crossovers(self):
        # the three evaluation branches agree where they hand over
        for nu in (0.0, 0.4, 1.7, 5.0, 10.0):
            s = series_cutoff(nu)
            a = asymptotic_cutoff(nu)
            x = np.array([s])
            assert abs(_j_series(nu, x)[0] - _j_miller(nu, x)[0]) <= 1e-12
            x = np.array([a])
            assert abs(_j_miller(nu, x)[0] - _j_asymptotic(nu, x)[0]) <= 1e-12

    def test_continuity_just_across_crossovers(self):
        for nu in (0.0, 0.8, 3.3):
            for cut in (series_cutoff(nu), asymptotic_cutoff(nu)):
                below = bessel_j(nu, cut - 1e-13)
                above = bessel_j(nu, cut + 1e-13)
                assert abs(above - below) <= 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_j(0.0, -1.0)
        with pytest.raises(DomainError):
            bessel_j(-0.5, 1.0)
        with pytest.raises(DomainError):
            bessel_j(0.0, math.nan)
        with pytest.raises(DomainError):
            bessel_j(math.inf, 1.0)


class TestBesselJPrime:
    def test_small_x_leading_term(self):
        # J_0'(x) = -J_1(x) ~ -x/2 for small x
        assert bessel_j_prime(0.0, 1e-4) == pytest.approx(-0.5e-4, rel=1e-6)

    def test_order_one_origin_limit(self):
        assert bessel_j_prime(1.0, 1e-8) == pytest.approx(0.5, rel=1e-8)

    def test_value_at_first_zero(self):
        # J_0' = -J_1 evaluated at the first J_0 zero (series oracle value)
        assert bessel_j_prime(0.0, J0_ZERO_1) == pytest.approx(-J1_AT_Z1, abs=1e-13)
        assert bessel_j_prime(0.0, J0_ZERO_1) == pytest.approx(-0.519147, abs=5e-7)

    def test_consistency_with_central_differences(self):
        h = 1e-6
        for nu in (0.0, 0.3, 1.0, 2.6):
            for x in (0.5, 3.3, 17.0, 80.0):
                fd = (bessel_j(nu, x + h) - bessel_j(nu, x - h)) / (2.0 * h)
                assert bessel_j_prime(nu, x) == pytest.approx(fd, abs=1e-8)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            bessel_j_prime(0.0, 0.0)


class TestBesselZero:
    def test_first_two_j0_zeros_frozen(self):
        assert bessel_zero(0.0, 1) == pytest.approx(J0_ZERO_1, abs=1e-12)
        assert bessel_zero(0.0, 2) == pytest.approx(J0_ZERO_2, abs=1e-12)

    def test_against_series_oracle(self):
        for nu, j in ((0.0, 1), (0.2, 1), (1.8, 3), (4.6, 2)):
            assert bessel_zero(nu, j) == pytest.approx(zero_by_bisection(nu, j), abs=1e-12)

    def test_half_integer_zeros_are_multiples_of_pi(self):
        for j in range(1, 9):
            assert bessel_zero(0.5, j) == pytest.approx(j * math.pi, abs=1e-12)

    def test_residual_small(self):
        for nu in (0.0, 0.35, 2.2, 7.0):
            for j in (1, 2, 7, 40):
                theta = bessel_zero(nu, j)
                assert abs(bessel_j(nu, theta)) <= 1e-12

    def test_interlacing(self):
        # zeros of consecutive orders interlace: z(nu,j) < z(nu+1,j) < z(nu,j+1)
        for nu in np.arange(0.0, 5.01, 0.1):
            nu = round(float(nu), 10)
            for j in range(1, 6):
                a = bessel_zero(nu, j)
                b = bessel_zero(nu + 1.0, j)
                c = bessel_zero(nu, j + 1)
                assert a < b < c, (nu, j)

    def test_monotone_in_order(self):
        grid = [round(float(v), 10) for v in np.arange(0.0, 5.01, 0.1)]
        for j in range(1, 6):
            zs = [bessel_zero(nu, j) for nu in grid]
            assert all(z2 > z1 for z1, z2 in zip(zs, zs[1:])), j

    def test_newton_stops_at_the_root(self, monkeypatch):
        # Newton reaches this root at its first iteration; a loop that then
        # bisects away from it made 143 Bessel calls here
        calls = []

        def counted(nu, x):
            calls.append(nu)
            return bessel_j(nu, x)

        bessel_zero.cache_clear()
        monkeypatch.setattr(specfun_mod, "bessel_j", counted)
        theta = bessel_zero(0.25610151875433385, 9)
        assert len(calls) <= 12
        with mp.workdps(30):
            exact = float(mp.besseljzero(mp.mpf(0.25610151875433385), 9))
        assert theta == pytest.approx(exact, rel=1e-14)

    def test_against_mpmath_zeros(self):
        bessel_zero.cache_clear()
        for nu in (0.0, 0.2561, 6.397, 12.653, 19.5):
            for j in range(1, 12):
                with mp.workdps(30):
                    exact = float(mp.besseljzero(mp.mpf(nu), j))
                assert bessel_zero(nu, j) == pytest.approx(exact, rel=1e-14), (nu, j)

    def test_bracket_by_scan_brackets_the_zero(self):
        for nu, j in ((0.0, 1), (0.2561, 9), (12.653, 3), (40.0, 15)):
            lo, hi = _bracket_by_scan(nu, j)
            with mp.workdps(30):
                exact = float(mp.besseljzero(mp.mpf(nu), j))
            assert lo < exact < hi, (nu, j)
            assert hi - lo == pytest.approx(math.pi / 8.0)

    def test_bracket_by_scan_is_bounded(self, monkeypatch):
        points = []

        def no_sign_change(nu, x):
            x = np.asarray(x, dtype=float)
            points.append(x.size)
            return np.ones_like(x)

        monkeypatch.setattr(specfun_mod, "bessel_j", no_sign_change)
        with pytest.raises(ConvergenceError, match="zero scan failed"):
            _bracket_by_scan(3.5, 4)
        # pi/8 steps from the order line to nu + (j + nu/2 + 1) pi
        assert sum(points) <= 8 * (4 + 1.75 + 1) + 2

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_zero(0.0, 0)
        with pytest.raises(DomainError):
            bessel_zero(0.0, -3)
        with pytest.raises(DomainError):
            bessel_zero(0.0, 1.5)
