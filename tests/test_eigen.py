import math

import numpy as np
import pytest

from abtrap.entropy import report
from abtrap.eigen import Eigenstate, QuantumNumbers, SystemParams, _normalize, solve
from abtrap.errors import ConvergenceError, DomainError
from abtrap.reference import TABLE_BETAS, default_grid_points
from abtrap.specfun import bessel_zero

from oracles import midpoint, radial_norm_adaptive, zero_by_bisection

# ground-state constants frozen from the series/bisection oracle
Z1 = 2.404825557695773
E_GROUND = 2.8915929814733925  # Z1^2 / 2
A0_GROUND = 1.0867616361312726  # (2 pi J_1(Z1)^2 / 2)^(-1/2)


class TestParams:
    def test_defaults_valid(self):
        p = SystemParams()
        assert p.beta == 0.0 and p.m == 1.0 and p.r0 == 1.0 and p.lz == 1.0

    def test_beta_constraint(self):
        SystemParams(beta=0.0)  # defect-free reference accepted
        SystemParams(beta=0.999)
        for bad in (1.0, 1.5, -0.1):
            with pytest.raises(DomainError, match="0<beta<1"):
                SystemParams(beta=bad)

    def test_positivity(self):
        # each bound's exact message; an int is shown as the float it becomes
        for kwargs, message in [
            ({"m": 0}, "m (mass) must be > 0, got 0.0"),
            ({"m": -1.0}, "m (mass) must be > 0, got -1.0"),
            ({"r0": 0.0}, "r0 (wall radius) must be > 0, got 0.0"),
            ({"r0": -1}, "r0 (wall radius) must be > 0, got -1.0"),
            ({"lz": 0}, "lz (z-box length) must be > 0, got 0.0"),
            ({"lz": -1.0}, "lz (z-box length) must be > 0, got -1.0"),
            ({"lz": -2.0}, "lz (z-box length) must be > 0, got -2.0"),
        ]:
            with pytest.raises(DomainError) as err:
                SystemParams(**kwargs)
            assert str(err.value) == message

    def test_quantum_number_validation(self):
        QuantumNumbers(0, -3, 2.5)
        with pytest.raises(DomainError):
            QuantumNumbers(-1, 0, 1.0)
        with pytest.raises(DomainError):
            QuantumNumbers(0.5, 0, 1.0)
        with pytest.raises(DomainError):
            QuantumNumbers(0, 1.5, 1.0)
        with pytest.raises(DomainError):
            QuantumNumbers(0, 0, math.inf)

    def test_integers_past_the_float_range_rejected(self):
        big = 10**400
        for kwargs in ({"m": big}, {"r0": big}, {"lz": -big}):
            with pytest.raises(DomainError, match="finite number"):
                SystemParams(**kwargs)
        for n, l, k in ((big, 0, 1.0), (0, big, 1.0), (0, -big, 1.0), (0, 0, big)):
            with pytest.raises(DomainError):
                QuantumNumbers(n, l, k)

    @pytest.mark.parametrize("build", [
        lambda big: QuantumNumbers(big, 0),
        lambda big: QuantumNumbers(-big, 0),
        lambda big: QuantumNumbers(0, big),
        lambda big: QuantumNumbers(0, 0, k=big),
        lambda big: SystemParams(m=big),
    ], ids=["n", "-n", "l", "k", "m"])
    def test_integers_past_the_digit_limit_named_by_size(self, build):
        # repr of an int past 4300 digits raises ValueError, so the message
        # gives the value's size in bits
        with pytest.raises(DomainError, match=r"got (a negative|an) integer of 16610 bits$"):
            build(10**5000)

    def test_numpy_integers_accepted(self):
        qn = QuantumNumbers(np.int64(2), np.int64(-1))
        assert (qn.n, qn.l) == (2, -1)
        state = solve(SystemParams(beta=0.2), qn)
        assert state.theta == solve(SystemParams(beta=0.2), QuantumNumbers(2, -1)).theta

    @pytest.mark.parametrize("field, value, same", [
        ("k", np.int64(2), 2.0), ("k", np.float32(-1.5), -1.5),
        ("beta", np.float32(0.5), 0.5), ("r0", np.int64(2), 2.0),
        ("r0", np.float32(0.25), 0.25), ("lz", np.int64(3), 3.0),
    ])
    def test_numpy_reals_report_as_the_equal_float(self, field, value, same):
        def entropies(v):
            if field == "k":
                return report(SystemParams(beta=0.2), QuantumNumbers(0, 1, v))
            return report(SystemParams(**{"beta": 0.2, field: v}), QuantumNumbers(0, 1))

        assert entropies(value) == entropies(same)
        with pytest.raises(DomainError, match="got True$"):
            entropies(np.bool_(True))

    def test_bools_rejected_and_numbers_stored_as_float(self):
        for kwargs in ({"m": True}, {"beta": False}, {"r0": True}, {"lz": True}):
            with pytest.raises(DomainError, match="finite number"):
                SystemParams(**kwargs)
        with pytest.raises(DomainError, match="wavenumber k"):
            QuantumNumbers(0, 0, True)
        params = SystemParams(m=2, beta=0, r0=3, lz=4)
        assert all(type(getattr(params, f)) is float for f in ("m", "beta", "r0", "lz"))
        assert type(QuantumNumbers(0, 0, 2).k) is float


class TestEffectiveOrder:
    @staticmethod
    def nu(l, beta, k):
        return solve(SystemParams(beta=beta), QuantumNumbers(0, l, k)).nu

    def test_arithmetic(self):
        assert self.nu(0, 0.4, 1.0) == pytest.approx(0.4, abs=0)
        assert self.nu(-1, 0.2, 1.0) == pytest.approx(1.2, abs=0)

    def test_defect_free_limit(self):
        for l in (-3, -1, 0, 2, 5):
            assert self.nu(l, 0.0, 7.3) == abs(l)


class TestSolve:
    def test_ground_state_energy(self):
        st = solve(SystemParams(beta=0.0), QuantumNumbers(0, 0, 0.0))
        assert st.theta == pytest.approx(Z1, abs=1e-12)
        assert st.energy == pytest.approx(E_GROUND, abs=1e-11)

    def test_k_term_is_additive(self):
        st0 = solve(SystemParams(beta=0.0), QuantumNumbers(0, 0, 0.0))
        st2 = solve(SystemParams(beta=0.0), QuantumNumbers(0, 0, 2.0))
        assert st2.energy - st0.energy == pytest.approx(2.0, abs=1e-12)

    def test_r0_scaling(self):
        st1 = solve(SystemParams(beta=0.0), QuantumNumbers(0, 0, 0.7))
        st2 = solve(SystemParams(beta=0.0, r0=2.0), QuantumNumbers(0, 0, 0.7))
        conf1 = st1.energy - 0.7**2 / 2.0
        conf2 = st2.energy - 0.7**2 / 2.0
        assert conf2 == pytest.approx(conf1 / 4.0, rel=1e-12, abs=0)

    def test_zero_index_mapping(self):
        # n = 0 maps to the first positive zero
        st = solve(SystemParams(beta=0.2), QuantumNumbers(2, 1, 1.0))
        assert st.theta == pytest.approx(bessel_zero(st.nu, 3), abs=0)

    def test_spectral_ordering_in_n(self):
        params = SystemParams(beta=0.3)
        energies = [solve(params, QuantumNumbers(n, 1, 1.0)).energy for n in range(4)]
        assert all(b > a for a, b in zip(energies, energies[1:]))

    def test_spectral_ordering_in_order(self):
        # energy strictly increases with |l - beta k| at fixed n
        params = SystemParams(beta=0.25)
        states = [solve(params, QuantumNumbers(1, l, 1.0)) for l in (0, 1, -1, 2, -2)]
        states.sort(key=lambda s: s.nu)
        energies = [s.energy for s in states]
        assert all(b > a for a, b in zip(energies, energies[1:]))

    def test_ab_type_asymmetry(self):
        params = SystemParams(beta=0.8)
        e_plus = solve(params, QuantumNumbers(0, 2, 1.0)).energy
        e_minus = solve(params, QuantumNumbers(0, -2, 1.0)).energy
        assert e_plus != e_minus

    def test_defect_free_symmetry_exact(self):
        params = SystemParams(beta=0.0)
        for l in (1, 2):
            e_plus = solve(params, QuantumNumbers(1, l, 1.0)).energy
            e_minus = solve(params, QuantumNumbers(1, -l, 1.0)).energy
            assert e_plus == e_minus

    def test_energy_at_least_longitudinal(self):
        st = solve(SystemParams(beta=0.6), QuantumNumbers(0, 0, 3.0))
        assert st.energy >= 3.0**2 / 2.0

    @pytest.mark.parametrize("params, qn, energy", [
        (SystemParams(r0=1e-160), QuantumNumbers(0, 1), math.inf),
        (SystemParams(), QuantumNumbers(0, 0, 1e200), math.inf),
        (SystemParams(beta=0.2, r0=1.7, m=2.0), QuantumNumbers(1, 1, 0.7), 4.1379023512974875),
    ], ids=["r0=1e-160", "k=1e200", "finite"])
    def test_energy_is_inf_past_the_float_range(self, params, qn, energy):
        # the squares are products: a float ** 2 raised OverflowError there;
        # a finite energy keeps every bit it had
        assert solve(params, qn).energy == energy


class TestNormalization:
    def test_closed_form_ground_value(self):
        a0 = _normalize(0.0, Z1)
        assert a0 == pytest.approx(A0_GROUND, abs=1e-12)
        assert a0 == pytest.approx(1.08676, abs=5e-6)

    def test_closed_form_vs_adaptive(self):
        for (n, l, beta) in ((0, 0, 0.2), (1, -1, 0.4), (2, 2, 0.8)):
            st = solve(SystemParams(beta=beta), QuantumNumbers(n, l, 1.0))
            assert radial_norm_adaptive(st, tol=1e-12) == pytest.approx(1.0, abs=1e-10)

    def test_vanishing_j_nu_plus_1_raises(self):
        # J_1(0) = 0: Theta = 0 is no zero of J_0
        with pytest.raises(ConvergenceError, match="normalize"):
            _normalize(0.0, 0.0)

    def test_box_leaves_the_unit_state_unchanged(self):
        # the state lives on the unit cylinder; r0 and lz enter the energy only
        qn = QuantumNumbers(2, 1, 1.0)
        unit = solve(SystemParams(beta=0.3), qn)
        xs = np.linspace(0.0, 1.0, 101)
        for r0, lz in ((1.7, 3.5), (1e-300, 1e300), (1e300, 5e-324)):
            st = solve(SystemParams(beta=0.3, r0=r0, lz=lz), qn)
            assert (st.theta, st.a0, st.radial_nodes()) == (unit.theta, unit.a0, unit.radial_nodes())
            assert np.array_equal(st.position_density(xs), unit.position_density(xs))

    def test_full_norm_on_default_grid(self):
        for n, l in default_grid_points():
            for beta in TABLE_BETAS:
                st = solve(SystemParams(beta=beta), QuantumNumbers(n, l, 1.0))
                assert radial_norm_adaptive(st) == pytest.approx(1.0, abs=1e-8), (n, l, beta)


class TestPositionDensity:
    def test_zero_at_wall(self):
        # the wall is at x = r / r0 = 1
        st = solve(SystemParams(beta=0.2), QuantumNumbers(0, 0, 1.0))
        assert st.position_density(1.0) == 0.0
        assert abs(st.radial_wavefunction(1.0)) <= 1e-12 * abs(st.a0)
        # just inside the wall the residual is set by the zero-finder accuracy
        assert abs(st.radial_wavefunction(1.0 - 1e-14)) <= 1e-12 * abs(st.a0)

    def test_zero_outside_wall(self):
        st = solve(SystemParams(beta=0.2), QuantumNumbers(0, 0, 1.0))
        assert st.position_density(1.7) == 0.0

    def test_nan_raises(self):
        st = solve(SystemParams(beta=0.2), QuantumNumbers(0, 0, 1.0))
        with pytest.raises(DomainError):
            st.radial_wavefunction(math.nan)
        with pytest.raises(DomainError):
            st.position_density(np.array([0.5, math.nan]))

    def test_scalar_matches_one_element_array(self):
        st = solve(SystemParams(beta=0.4), QuantumNumbers(1, -1, 1.0))
        for x in (0.0, 0.3, 0.999, 1.0, 2.5):
            value = st.radial_wavefunction(x)
            assert isinstance(value, float)
            assert value == st.radial_wavefunction(np.array([x]))[0]

    def test_array_keeps_its_shape(self):
        st = solve(SystemParams(beta=0.2), QuantumNumbers(0, 1, 1.0))
        xs = np.linspace(0.0, 1.5, 12).reshape(3, 4)
        dens = st.position_density(xs)
        assert dens.shape == (3, 4)
        assert np.array_equal(dens.ravel(), st.position_density(xs.ravel()))

    def test_zero_at_origin_for_nonzero_order(self):
        st = solve(SystemParams(beta=0.2), QuantumNumbers(0, 1, 1.0))
        assert st.position_density(0.0) == 0.0

    def test_interior_maximum_matches_sampled_argmax(self):
        # ground state with nu = 0.2: density peaks strictly inside (0, r0)
        st = solve(SystemParams(beta=0.2), QuantumNumbers(0, 0, 1.0))
        rr = np.linspace(0.0, 1.0, 20001)
        dens = st.position_density(rr)
        i = int(np.argmax(dens))
        assert 0 < i < len(rr) - 1
        # cross-check against a coarser independently sampled argmax
        rr2 = np.linspace(0.0, 1.0, 4097)
        i2 = int(np.argmax(st.position_density(rr2)))
        assert abs(rr[i] - rr2[i2]) < 2e-3

    def test_density_matches_brute_force_norm(self):
        st = solve(SystemParams(beta=0.4), QuantumNumbers(1, -1, 1.0))
        norm = 2.0 * math.pi * midpoint(lambda x: st.position_density(x) * x, 0.0, 1.0, 10**6)
        assert norm == pytest.approx(1.0, abs=1e-8)

    def test_theta_is_oracle_zero(self):
        st = solve(SystemParams(beta=0.2), QuantumNumbers(0, 0, 1.0))
        assert st.theta == pytest.approx(zero_by_bisection(0.2, 1), abs=1e-12)
