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
    hankel_pq,
    mcmahon_zero,
    series_cutoff,
    _MAX_RECURRENCE,
    _j_asymptotic,
    _j_forward,
    _j_miller,
    _j_series,
)

from oracles import bessel_j_prime, besselj_ref, series_j, zero_by_bisection

# frozen from the independent series/bisection oracle (tests below recompute them)
J0_ZERO_1 = 2.404825557695773
J0_ZERO_2 = 5.520078110286311
J1_AT_Z1 = 0.5191474972894667
# orders of the zeros checked against mpmath, j = 1..30 each
MPMATH_ZERO_ORDERS = (0.0, 0.01, 0.3, 0.5, 1.0, 2.5, 6.397, 12.653, 19.5, 30.2, 45.0, 60.0)


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

    @pytest.mark.parametrize("nu", [25.0, 30.0, 40.0, 60.0, 80.0])
    def test_turning_point_at_high_order(self, nu):
        # x = nu, where the ascending series would cancel to 0.64 at nu = 80
        assert bessel_j(nu, nu) == pytest.approx(besselj_ref(nu, nu), abs=1e-13)

    @pytest.mark.parametrize("nu, x", [(150.0, 5.0), (165.0, 20.0)])
    def test_series_at_orders_past_142(self, nu, x):
        # Gamma(nu + 1) is a finite float up to nu = 170.6
        assert bessel_j(nu, x) == pytest.approx(besselj_ref(nu, x), rel=1e-13, abs=0)

    @pytest.mark.parametrize("nu, x", [(171.0, 15.0), (175.0, 10.0), (175.0, 19.5), (250.0, 19.5)])
    def test_series_at_orders_past_gamma_overflow(self, nu, x):
        # past nu = 170.6 the leading term is formed from nu ln(x/2) - lgamma(nu+1)
        assert bessel_j(nu, x) == pytest.approx(besselj_ref(nu, x), rel=1e-12, abs=0)

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
        # the evaluation branches agree where they hand over
        for nu in (0.0, 0.4, 1.7, 5.0, 10.0):
            s = series_cutoff(nu)
            a = asymptotic_cutoff(nu)
            x = np.array([s])
            assert abs(_j_series(nu, x)[0] - _j_miller(nu, x)[0]) <= 1e-12
            x = np.array([a])
            assert abs(_j_miller(nu, x)[0] - _j_asymptotic(nu, x)[0]) <= 1e-12
        # Miller -> forward at max(16, nu), forward -> Hankel at the cutoff
        for nu in (4.2, 7.5, 12.3, 25.0):
            x = np.array([max(16.0, nu)])
            assert abs(_j_miller(nu, x)[0] - _j_forward(nu, x)[0]) <= 1e-12, nu
            x = np.array([asymptotic_cutoff(nu)])
            assert abs(_j_forward(nu, x)[0] - _j_asymptotic(nu, x)[0]) <= 1e-12, nu

    def test_continuity_just_across_crossovers(self):
        for nu in (0.0, 0.8, 3.3, 4.2, 7.5, 12.3, 25.0):
            for cut in (series_cutoff(nu), max(16.0, nu), asymptotic_cutoff(nu)):
                below = bessel_j(nu, cut - 1e-13)
                above = bessel_j(nu, cut + 1e-13)
                assert abs(above - below) <= 1e-12, (nu, cut)

    def test_against_mpmath_up_to_order_60(self):
        # all four branches, with points packed just past the turning point
        # x = nu, where the forward recurrence starts; 3.6e-15 measured
        rng = np.random.default_rng(16)
        for nu in (0.0, 0.6, 1.0, 2.3, 3.0, 4.2, 7.5, 9.0, 12.3, 17.0, 20.5, 25.0, 31.6,
                   44.0, 59.4, 60.0):
            xs = np.concatenate([rng.uniform(0.0, 40.0, 8), np.geomspace(1.0, 2000.0, 10),
                                 nu + 0.3 * nu * rng.random(8)])
            with mp.workdps(30):
                exact = [float(mp.besselj(nu, mp.mpf(float(x)))) for x in xs]
            np.testing.assert_allclose(bessel_j(nu, xs), exact, rtol=0, atol=1e-13, err_msg=str(nu))

    def test_order_160_inside_the_recurrence_bound(self):
        # Miller below the order, forward recurrence past it
        xs = np.array([25.0, 100.0, 160.5, 161.0, 400.0, 3000.0])
        with mp.workdps(30):
            exact = [float(mp.besselj(160.5, mp.mpf(float(x)))) for x in xs]
        np.testing.assert_allclose(bessel_j(160.5, xs), exact, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("nu, x", [(0.0, 11.791534439014281), (0.0, 14.930917708487787),
                                       (0.5, 4.0 * math.pi), (1.0, 13.323691936314223),
                                       (1.19, 12.088240492589039)])
    def test_miller_at_a_zero_of_j_mu(self, nu, x):
        # x is a zero of J_mu (mu the fractional part of nu) or of J_1, so the
        # ratio h_1 = J_{mu+1}/J_mu or h_2 = J_{mu+2}/J_{mu+1} sits next to its
        # pole; at nu = 1.19 the denominator of h_1 rounds to exactly 0, which
        # the guard steps past (nan without it); 3e-16 measured
        with mp.workdps(30):
            exact = float(mp.besselj(nu, mp.mpf(x)))
        assert abs(_j_miller(nu, np.array([x]))[0] - exact) <= 1e-15

    def test_order_5000_below_the_turning_point(self):
        # Miller from 10146 orders up at x = 5000; 2.7e-14 measured. mpmath's
        # series cancels here, and maxprec lets it work at the precision that takes
        xs = np.array([4900.0, 4990.0, 5000.0])
        with mp.workdps(30):
            exact = [float(mp.besselj(5000.5, mp.mpf(x), maxprec=20000)) for x in xs]
        np.testing.assert_allclose(bessel_j(5000.5, xs), exact, rtol=5e-14, atol=0)

    @pytest.mark.parametrize("x", [50.0, 2e5])
    def test_recurrence_past_the_bound_raises(self, x):
        # Miller at x = 50 and forward recurrence at 2e5 would each run past
        # _MAX_RECURRENCE orders; both fail before they allocate
        nu = 1.5 * _MAX_RECURRENCE
        with pytest.raises(ConvergenceError, match=r"^bessel_j: order 150000 "):
            bessel_j(nu, x)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_j(0.0, -1.0)
        with pytest.raises(DomainError):
            bessel_j(-0.5, 1.0)
        with pytest.raises(DomainError):
            bessel_j(0.0, math.nan)
        with pytest.raises(DomainError):
            bessel_j(math.inf, 1.0)


class TestRecurrenceStart:
    # Miller and CF1 start _recurrence_margin orders past the turning point
    # from a zero tail; twice that margin moves no result, and Miller is held
    # to 5e-16 of mpmath, since a start 1e-14 short passes the 1e-13 checks
    # above (the margin 4 x^(1/3) + 8 puts Miller 9.1e-11 off and moves a
    # zero by 961 ulp)

    @staticmethod
    def _double_the_margin(monkeypatch):
        margin = specfun_mod._recurrence_margin
        monkeypatch.setattr(specfun_mod, "_recurrence_margin", lambda x: 2.0 * margin(x))

    def test_miller_start_is_converged(self, monkeypatch):
        # seeded points of Miller's range, series_cutoff(nu) < x <= max(16, nu),
        # one per call, since a batch starts from its largest x; 3.4e-16 measured
        rng = np.random.default_rng(31)
        points = []
        while len(points) < 200:
            nu = float(rng.uniform(0.0, 60.0))
            lo, hi = series_cutoff(nu), max(16.0, nu)
            if hi > lo:
                points.append((nu, hi - (hi - lo) * float(rng.random())))
        shipped = np.array([_j_miller(nu, np.array([x]))[0] for nu, x in points])
        self._double_the_margin(monkeypatch)
        doubled = np.array([_j_miller(nu, np.array([x]))[0] for nu, x in points])
        np.testing.assert_array_max_ulp(shipped, doubled, maxulp=1)
        with mp.workdps(30):
            exact = [float(mp.besselj(nu, mp.mpf(x))) for nu, x in points]
        np.testing.assert_allclose(shipped, exact, rtol=0, atol=5e-16)

    def test_zero_ratio_start_is_converged(self, monkeypatch):
        # CF1 through bessel_zero, at the zeros test_against_mpmath_zeros checks
        pairs = [(nu, j) for nu in MPMATH_ZERO_ORDERS for j in range(1, 31)]
        bessel_zero.cache_clear()
        shipped = np.array([bessel_zero(nu, j) for nu, j in pairs])
        self._double_the_margin(monkeypatch)
        bessel_zero.cache_clear()
        doubled = np.array([bessel_zero(nu, j) for nu, j in pairs])
        bessel_zero.cache_clear()  # leave no zero of the doubled margin cached
        np.testing.assert_array_max_ulp(shipped, doubled, maxulp=1)


class TestHankelPQ:
    @pytest.mark.parametrize("nu", [0.0, 0.2, 1.0, 2.5, 3.7, 10.0, 25.0])
    def test_envelopes_give_j_and_y(self, nu):
        # J = s (P cos w - Q sin w) and Y = s (P sin w + Q cos w) pin both
        # envelopes; the momentum tail takes them for J_L and J_{L+1} past P
        xs = np.geomspace(asymptotic_cutoff(nu), 40.0 * asymptotic_cutoff(nu), 25)
        p, q = hankel_pq(nu, xs)
        w = xs - (0.5 * nu + 0.25) * math.pi
        s = np.sqrt(2.0 / (math.pi * xs))
        with mp.workdps(30):
            j_ref = [float(mp.besselj(nu, mp.mpf(x))) for x in xs]
            y_ref = [float(mp.bessely(nu, mp.mpf(x))) for x in xs]
        np.testing.assert_allclose(s * (p * np.cos(w) - q * np.sin(w)), j_ref, rtol=0, atol=1e-13)
        np.testing.assert_allclose(s * (p * np.sin(w) + q * np.cos(w)), y_ref, rtol=0, atol=1e-13)


    def test_half_integer_orders_end_the_series(self):
        # at nu = 1/2 and 3/2 Hankel's series stops at a zero coefficient:
        # J_{1/2} has P = 1, Q = 0 and J_{3/2} has P = 1, Q = 1/x, exactly
        xs = np.geomspace(16.0, 1e4, 257)
        p, q = hankel_pq(0.5, xs)
        assert np.array_equal(p, np.ones_like(xs)) and np.array_equal(q, np.zeros_like(xs))
        p, q = hankel_pq(1.5, xs)
        assert np.array_equal(p, np.ones_like(xs)) and np.array_equal(q, 1.0 / xs)

    @pytest.mark.parametrize("nu, x", [(160.0, 10156.46), (0.0, 15.9)])
    def test_below_the_cutoff_raises(self, nu, x):
        # below asymptotic_cutoff the series grows from its first term, which
        # alone gave a J_160(10156.46) 6.0e-3 off where |J| <= 7.9e-3
        xs = np.array([x, 2.0 * asymptotic_cutoff(nu)])
        with pytest.raises(ConvergenceError, match=f"x = {x!r} .* at nu={nu}"):
            hankel_pq(nu, xs)


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

    def test_makes_no_bessel_call(self, monkeypatch):
        def no_bessel(nu, x):
            raise AssertionError(f"bessel_j({nu}, {x}) called")

        bessel_zero.cache_clear()
        monkeypatch.setattr(specfun_mod, "bessel_j", no_bessel)
        # McMahon starts, and at nu = 45 the zeros found in turn from nu
        for nu, j in ((0.0, 1), (0.25610151875433385, 9), (12.653, 3), (45.0, 1), (45.0, 4)):
            assert bessel_zero(nu, j) > nu

    def test_against_mpmath_zeros(self):
        bessel_zero.cache_clear()
        for nu in MPMATH_ZERO_ORDERS:
            for j in range(1, 31):
                with mp.workdps(30):
                    exact = float(mp.besseljzero(mp.mpf(nu), j))
                # explicit: pytest.approx would also pass anything within 1e-12
                assert abs(bessel_zero(nu, j) - exact) <= 1e-15 * exact, (nu, j)

    def test_far_zero_on_a_cold_cache(self):
        # McMahon starts it; finding the 2999 zeros below it in turn would
        # overflow the stack if written as recursion
        bessel_zero.cache_clear()
        with mp.workdps(30):
            exact = float(mp.besseljzero(mp.mpf(3.2), 3000))
        assert abs(bessel_zero(3.2, 3000) - exact) <= 1e-15 * exact

    @pytest.mark.parametrize("nu", [0.0, 2.0, 25.0])
    def test_mcmahon_estimates_past_five_orders(self, nu):
        # the momentum tail cuts its panels at these estimates from
        # p r0 = 5 (nu + 20) on; 5.2e-8 measured at nu = 25
        first = math.floor(5.0 * (nu + 20.0) / math.pi - 0.5 * nu + 0.25) + 1
        js = np.array([first, first + 1, first + 50, first + 500])
        estimates = mcmahon_zero(nu, js)[0]
        assert [mcmahon_zero(nu, int(j))[0] for j in js] == estimates.tolist()
        exact = np.array([bessel_zero(nu, int(j)) for j in js])
        assert np.max(np.abs(estimates - exact)) <= 1e-7

    def test_unsettled_ratio_raises(self, monkeypatch):
        bessel_zero.cache_clear()
        monkeypatch.setattr(specfun_mod, "_zero_ratio", lambda nu, x: 1.0)
        with pytest.raises(ConvergenceError, match=r"nu=2\.5, j=3"):
            bessel_zero(2.5, 3)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_zero(0.0, 0)
        with pytest.raises(DomainError):
            bessel_zero(0.0, -3)
        with pytest.raises(DomainError):
            bessel_zero(0.0, 1.5)
        with pytest.raises(DomainError):
            bessel_zero(0.0, True)  # a bool is not taken for index 1
