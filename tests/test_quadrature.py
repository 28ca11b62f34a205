import math
import re

import numpy as np
import pytest

from abtrap.errors import ConvergenceError, DomainError
from abtrap.quadrature import (
    density_integrals,
    integrate_adaptive,
    integrate_oscillatory,
    smoothed_gauss_legendre,
    subdivide,
)
from abtrap.specfun import bessel_j, bessel_zero

from oracles import midpoint, subdivide_linspace

Z1 = bessel_zero(0.0, 1)
Z2 = bessel_zero(0.0, 2)


class TestSmoothedRule:
    """`subdivide`, `smoothed_gauss_legendre` and `density_integrals`: the rule
    behind S_r, the radial grid and S_p."""

    @pytest.mark.parametrize("min_parts", [1, 4])
    def test_subdivide_matches_linspace_per_panel(self, min_parts):
        rng = np.random.default_rng(30 + min_parts)
        for _ in range(200):
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            edges = sorted([0.0, *rng.uniform(0.0, scale, rng.integers(1, 30))])
            at = int(rng.integers(len(edges)))
            edges.insert(at, edges[at])  # a zero-width span
            width = scale * 10.0 ** rng.uniform(-2.5, 0.5)
            got = subdivide(edges, width, min_parts)
            want = subdivide_linspace(edges, width, min_parts)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_weights_sum_to_each_span(self):
        edges = np.array([0.0, 1e-3, 0.4, 1.0, 3.7, 3.7 + 1e-9, 50.0])
        x, w = (a.reshape(-1, 20) for a in smoothed_gauss_legendre(edges))
        assert x.shape == (edges.size - 1, 20)
        np.testing.assert_allclose(w.sum(axis=1), np.diff(edges), rtol=1e-14, atol=0.0)
        assert np.all((x > edges[:-1, None]) & (x < edges[1:, None]))

    @pytest.mark.parametrize("degree", range(13))
    def test_exact_on_monomials(self, degree):
        # x^d after the cubic map times its quadratic derivative has degree 3d + 2,
        # within the 39 that 20 Gauss-Legendre points integrate exactly
        edges = np.array([0.0, 0.3, 1.0, 1.7, 2.5])
        x, w = smoothed_gauss_legendre(edges)
        exact = (edges[-1] ** (degree + 1) - edges[0] ** (degree + 1)) / (degree + 1)
        assert np.sum(w * x**degree) == pytest.approx(exact, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("c", [1e-6, 0.3, 1.0, 2.0])
    def test_constant_density(self, c):
        norm, entropy = density_integrals([0.0, 1.0], lambda x: np.full_like(x, c))
        assert norm == pytest.approx(math.pi * c, rel=1e-14)
        assert entropy == pytest.approx(-math.pi * c * math.log(c), rel=1e-13, abs=1e-15)

    def test_exact_zeros_take_zero_log_zero(self):
        # rho = 0 on [0, 1/2] and 2 on (1/2, 1]; every floating-point warning raises
        with np.errstate(all="raise"):
            norm, entropy = density_integrals([0.0, 0.5, 1.0],
                                              lambda x: np.where(x < 0.5, 0.0, 2.0))
            assert density_integrals([0.0, 1.0], np.zeros_like) == (0.0, 0.0)
        assert norm == pytest.approx(1.5 * math.pi, rel=1e-14)
        assert entropy == pytest.approx(-1.5 * math.pi * math.log(2.0), rel=1e-14)


class TestAdaptive:
    def test_polynomial(self):
        res = integrate_adaptive(lambda x: x * x, 0.0, 1.0, 1e-12)
        assert res.value == pytest.approx(1.0 / 3.0, abs=1e-13)
        assert res.error_estimate >= 0.0
        assert res.evaluations >= 15

    def test_endpoint_log_singularity(self):
        # entropy-style integrand; interior Kronrod nodes never hit x = 0
        res = integrate_adaptive(lambda x: x * np.log(x), 0.0, 1.0, 1e-12)
        assert res.value == pytest.approx(-0.25, abs=1e-11)

    def test_lommel_identity(self):
        # int_0^Z1 J_0(x)^2 x dx = (Z1^2/2) J_1(Z1)^2 when Z1 is a J_0 zero
        res = integrate_adaptive(lambda x: bessel_j(0.0, x) ** 2 * x, 0.0, Z1, 1e-12)
        closed = Z1 * Z1 / 2.0 * bessel_j(1.0, Z1) ** 2
        assert closed == pytest.approx(0.7793251491983969, abs=1e-12)
        assert res.value == pytest.approx(closed, abs=1e-11)

    def test_linearity(self):
        rng = np.random.default_rng(42)
        tol = 1e-10
        for _ in range(5):
            c = rng.normal(size=4)
            alpha, beta_c = rng.normal(size=2)
            f = lambda x: c[0] + c[1] * x + c[2] * np.sin(3.0 * x)  # noqa: E731
            g = lambda x: c[3] * np.exp(-x) + x * x  # noqa: E731
            combo = lambda x: alpha * f(x) + beta_c * g(x)  # noqa: E731
            lhs = integrate_adaptive(combo, 0.0, 2.0, tol).value
            rhs = alpha * integrate_adaptive(f, 0.0, 2.0, tol).value
            rhs += beta_c * integrate_adaptive(g, 0.0, 2.0, tol).value
            assert lhs == pytest.approx(rhs, abs=2.0 * tol)

    def test_interval_additivity(self):
        f = lambda x: np.cos(5.0 * x) * np.exp(-0.3 * x)  # noqa: E731
        tol = 1e-11
        whole = integrate_adaptive(f, 0.0, 3.0, tol).value
        split = (
            integrate_adaptive(f, 0.0, 1.1, tol).value
            + integrate_adaptive(f, 1.1, 3.0, tol).value
        )
        assert whole == pytest.approx(split, abs=2.0 * tol)

    def test_budget_exhaustion_names_its_estimate(self):
        with pytest.raises(ConvergenceError) as err:
            integrate_adaptive(lambda x: np.sin(50.0 * x), 0.0, 20.0, 1e-13, max_intervals=4)
        found = re.fullmatch(
            r"subdivision budget of 4 intervals exhausted at (\S+) "
            r"\(error estimate \S+, (\d+) evaluations\)",
            str(err.value),
        )
        assert found is not None, str(err.value)
        assert math.isfinite(float(found[1]))
        assert int(found[2]) >= 15

    def test_nonfinite_integrand(self):
        with np.errstate(divide="ignore"), pytest.raises(DomainError):
            integrate_adaptive(lambda x: 1.0 / (x - 0.5), 0.0, 1.0, 1e-9)

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            integrate_adaptive(lambda x: x, 1.0, 0.0, 1e-9)
        with pytest.raises(DomainError):
            integrate_adaptive(lambda x: x, 0.0, 1.0, -1e-9)


class TestOscillatory:
    def test_sine_with_breakpoint(self):
        res = integrate_oscillatory(np.sin, 0.0, 2.0 * math.pi, [math.pi], 1e-10)
        assert res.value == pytest.approx(0.0, abs=1e-10)

    def test_consistency_with_unbroken(self):
        tol = 1e-10
        broken = integrate_oscillatory(lambda x: bessel_j(0.0, x), 0.0, Z2, [Z1], tol)
        plain = integrate_adaptive(lambda x: bessel_j(0.0, x), 0.0, Z2, tol)
        assert broken.value == pytest.approx(plain.value, abs=2.0 * tol)

    def test_bessel_product_vs_riemann_oracle(self):
        # transform-kernel integrand at p = 1, r0 = 1
        f = lambda r: bessel_j(0.0, Z1 * r) * bessel_j(0.0, 2.0 * math.pi * r) * r  # noqa: E731
        pts = [z / (2.0 * math.pi) for z in (bessel_zero(0.0, 1), bessel_zero(0.0, 2))
               if z / (2.0 * math.pi) < 1.0]
        res = integrate_oscillatory(f, 0.0, 1.0, pts, 1e-10)
        brute = midpoint(f, 0.0, 1.0, 10**6)
        assert res.value == pytest.approx(brute, abs=1e-6)

    def test_breakpoint_validation(self):
        with pytest.raises(DomainError):
            integrate_oscillatory(np.sin, 0.0, 1.0, [2.0], 1e-9)
        with pytest.raises(DomainError):
            integrate_oscillatory(np.sin, 0.0, 1.0, [0.7, 0.3], 1e-9)

    def test_error_estimates_add(self):
        res = integrate_oscillatory(np.sin, 0.0, 2.0, [0.5, 1.0], 1e-8)
        assert res.error_estimate >= 0.0
        assert res.evaluations >= 45


class TestRiemannOracle:
    """The midpoint oracle of tests/oracles.py."""

    def test_linear(self):
        assert midpoint(lambda x: x, 0.0, 1.0, 10**6) == pytest.approx(0.5, abs=1e-9)

    def test_quadratic(self):
        v = midpoint(lambda x: x * x, 0.0, 1.0, 10**6)
        assert v == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_scalar_path_matches_vectorized(self):
        # chunk=1 evaluates the integrand one abscissa at a time
        f = lambda x: np.sin(x) + 0.2 * x  # noqa: E731
        a = midpoint(f, 0.0, 2.0, 5000, chunk=1)
        b = midpoint(f, 0.0, 2.0, 5000)
        assert a == pytest.approx(b, abs=1e-12)

    def test_matches_reference_midpoint(self):
        # the midpoint sum of exp(c x), c = -1 + 3i, is a geometric series
        f = lambda x: np.exp(-x) * np.cos(3.0 * x)  # noqa: E731
        c, a, b, n = complex(-1.0, 3.0), 0.0, 2.0, 10**5
        h = (b - a) / n
        exact = (h * np.exp(c * (a + 0.5 * h)) * np.expm1(c * n * h) / np.expm1(c * h)).real
        assert midpoint(f, a, b, n) == pytest.approx(exact, abs=1e-13)

    def test_panel_validation(self):
        with pytest.raises(ValueError):
            midpoint(lambda x: x, 0.0, 1.0, 0)
