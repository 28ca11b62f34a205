"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers once its assertions hold."""

import functools
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from abtrap.cli import main as cli_main
from abtrap.eigen import QuantumNumbers, SystemParams, solve
from abtrap.entropy import report, shannon_momentum, shannon_position
from abtrap.errors import ConvergenceError
from abtrap.momentum import _AmplitudeEvaluator, build_profile
from abtrap.reference import _REFERENCE_ROWS, TABLE_BETAS, default_grid_points
from abtrap.specfun import bessel_j, bessel_zero

from conftest import Pipeline
from oracles import midpoint, radial_norm_adaptive, zero_by_bisection

BBM_BOUND = 3.0 * (1.0 + math.log(math.pi))
SLACK = 1e-9
# `abtrap table --compare-reference`, byte for byte, in CSV and with `--format json`
REFERENCE_TABLE = Path(__file__).parent / "data" / "table_compare_reference.csv"
REFERENCE_TABLE_JSON = Path(__file__).parent / "data" / "table_compare_reference.json"
# `abtrap table --betas 0 0.2 0.4 0.8`, byte for byte
FOUR_BETA_TABLE = Path(__file__).parent / "data" / "table_four_betas.csv"
# `abtrap state` rows of wide states, one JSON line each, byte for byte
WIDE_STATES = Path(__file__).parent / "data" / "state_wide.jsonl"
# sha256 of `abtrap density --space momentum --samples 4096` on the bench's six states
DENSITY_HASHES = Path(__file__).parent / "data" / "density_momentum_sha256.json"


def test_criterion_1_bbm_bound(grid_pipelines):
    elapsed = grid_pipelines["elapsed_seconds"]
    totals = {
        key: pl.total for key, pl in grid_pipelines.items() if isinstance(key, tuple)
    }
    assert len(totals) == 27
    violations = {k: t for k, t in totals.items() if t < BBM_BOUND - SLACK}
    assert not violations, violations
    assert elapsed < 300.0, f"grid took {elapsed:.0f}s (target < 5 min)"
    print(
        f"ACCEPTANCE 1 PASS: BBM bound met on all 27 states "
        f"(min total {min(totals.values()):.5f} >= 6.43419; grid in {elapsed:.0f}s)"
    )


def test_criterion_2_trends(grid_pipelines):
    # reference anchors embedded verbatim
    assert _REFERENCE_ROWS[(0, 0, 0.2)][1] == 0.06678
    assert _REFERENCE_ROWS[(0, 0, 0.8)][1] == 0.12158
    assert _REFERENCE_ROWS[(0, 0, 0.2)][2] == 9.81309
    assert _REFERENCE_ROWS[(0, 0, 0.8)][2] == 9.86199

    for n, l in default_grid_points():
        sp = [grid_pipelines[(n, l, b)].s_p for b in TABLE_BETAS]
        tot = [grid_pipelines[(n, l, b)].total for b in TABLE_BETAS]
        assert sp[0] < sp[1] < sp[2], (n, l, sp)
        assert tot[0] < tot[1] < tot[2], (n, l, tot)
    for b in TABLE_BETAS:
        assert grid_pipelines[(2, 2, b)].total > grid_pipelines[(0, 0, b)].total, b
    print(
        "ACCEPTANCE 2 PASS: S_p and totals strictly increase over beta for every "
        "(n, l); totals grow from (0,0) to (2,2) at each beta"
    )


def test_criterion_3_special_functions():
    for x in np.linspace(0.1, 50.0, 500):
        x = float(x)
        closed = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
        assert abs(bessel_j(0.5, x) - closed) <= 1e-12, x

    oracle_z1 = zero_by_bisection(0.0, 1)
    oracle_z2 = zero_by_bisection(0.0, 2)
    assert oracle_z1 == pytest.approx(2.404825557695773, abs=1e-13)
    assert oracle_z2 == pytest.approx(5.520078110286311, abs=1e-13)
    assert bessel_zero(0.0, 1) == pytest.approx(oracle_z1, abs=1e-12)
    assert bessel_zero(0.0, 2) == pytest.approx(oracle_z2, abs=1e-12)

    for nu in np.arange(0.0, 5.01, 0.2):
        nu = round(float(nu), 10)
        for j in range(1, 6):
            assert bessel_zero(nu, j) < bessel_zero(nu + 1.0, j) < bessel_zero(nu, j + 1)
    print(
        "ACCEPTANCE 3 PASS: half-integer closed form <= 1e-12; first two J_0 zeros "
        "match the bisection oracle to 1e-12; interlacing holds on the order grid"
    )


def test_criterion_4_normalization_and_parseval(grid_pipelines):
    worst_pos = worst_mom = worst_lommel = 0.0
    for key, pl in grid_pipelines.items():
        if not isinstance(key, tuple):
            continue
        pos = radial_norm_adaptive(pl.state, tol=1e-12)
        worst_pos = max(worst_pos, abs(pos - 1.0))
        worst_lommel = max(worst_lommel, abs(pos - 1.0))
        mom = pl.profile.captured_norm + pl.profile.tail_norm
        worst_mom = max(worst_mom, abs(mom - 1.0))
    assert worst_pos <= 1e-8
    assert worst_mom <= 1e-7
    assert worst_lommel <= 1e-10  # closed-form (Lommel) norm vs adaptive quadrature
    print(
        f"ACCEPTANCE 4 PASS: position norm off by <= {worst_pos:.1e} (tol 1e-8, "
        f"Lommel vs adaptive <= 1e-10), momentum norm off by <= {worst_mom:.1e} (tol 1e-7)"
    )


def test_criterion_5_scale_invariance(grid_pipelines):
    shift = 2.0 * math.log(2.0)
    for n, l in ((0, 0), (1, -1), (2, 2)):
        base = grid_pipelines[(n, l, 0.2)]
        scaled = Pipeline(n, l, 0.2, r0=2.0)
        d_sr = scaled.s_r - base.s_r
        d_sp = scaled.s_p - base.s_p
        assert d_sr == pytest.approx(shift, abs=1e-12), (n, l)
        assert d_sp == pytest.approx(-shift, abs=1e-12), (n, l)
        assert scaled.total == pytest.approx(base.total, abs=1e-12), (n, l)
    print(
        "ACCEPTANCE 5 PASS: r0 -> 2 r0 shifts S_r by +2 ln 2 and S_p by -2 ln 2; "
        "the sum is invariant within 1e-12 on (0,0), (1,-1), (2,2)"
    )


def test_criterion_6_oracle_equivalence(grid_pipelines):
    from scipy.interpolate import CubicSpline

    representative = [
        (0, 0, 0.2),
        (1, -1, 0.4),
        (1, 1, 0.8),
        (2, 0, 0.4),
        (2, 2, 0.8),
    ]
    worst_r = worst_p = 0.0
    for key in representative:
        pl = grid_pipelines[key]
        st, prof = pl.state, pl.profile

        def pos_integrand(x):
            rho = st.position_density(x)
            return np.where(rho > 1e-300, rho * np.log(np.maximum(rho, 1e-300)), 0.0) * x

        s_r_oracle = -2.0 * math.pi * midpoint(pos_integrand, 0.0, 1.0, 10**6)
        worst_r = max(worst_r, abs(s_r_oracle - pl.s_r))

        # the exact radial sum, not the plan's table: the oracle does not use
        # the interpolant it checks
        dense = np.linspace(0.0, prof.p_max, 40001)
        spline = CubicSpline(dense, _AmplitudeEvaluator(st)._block(dense))

        def mom_integrand(p):
            rho = spline(p) ** 2
            return np.where(rho > 1e-300, rho * np.log(np.maximum(rho, 1e-300)), 0.0) * p

        # the midpoint rule covers [0, p_max]; the modelled tail comes from the
        # profile, and S_z of the unit box is ln 2 pi + 2 (1 - gamma)
        s_p_oracle = (
            -2.0 * math.pi * midpoint(mom_integrand, 0.0, prof.p_max, 10**6)
            + prof.tail_entropy
            + math.log(2.0 * math.pi) + 2.0 * (1.0 - float(np.euler_gamma))
        )
        worst_p = max(worst_p, abs(s_p_oracle - pl.s_p))

    assert worst_r <= 1e-5
    assert worst_p <= 1e-5
    print(
        f"ACCEPTANCE 6 PASS: midpoint-oracle recomputation (10^6 panels) matches "
        f"S_r within {worst_r:.1e} and S_p within {worst_p:.1e} on 5 states (tol 1e-5)"
    )


def test_criterion_7_defect_free_limit(grid_pipelines):
    params0 = SystemParams(beta=0.0)
    for l in (1, 2):
        e_plus = solve(params0, QuantumNumbers(0, l, 1.0)).energy
        e_minus = solve(params0, QuantumNumbers(0, -l, 1.0)).energy
        assert e_plus == e_minus, l

    plus = Pipeline(0, 1, 0.0)
    minus = Pipeline(0, -1, 0.0)
    assert abs(plus.s_p - minus.s_p) <= 1e-6

    hi_plus = grid_pipelines[(2, 2, 0.8)]
    hi_minus = grid_pipelines[(2, -2, 0.8)]
    assert abs(hi_plus.s_p - hi_minus.s_p) > 1e-3
    assert abs(hi_plus.total - hi_minus.total) > 1e-3
    print(
        "ACCEPTANCE 7 PASS: beta=0 gives exact l -> -l degeneracy and equal S_p; "
        "beta=0.8, k=1 splits the l = +/-2 reports"
    )


class TestCriterion8CLI:
    def test_full_reference_table(self, capsys, monkeypatch):
        # both formats print rows of the same 27 reports, each computed once
        monkeypatch.setattr("abtrap.cli.report", functools.lru_cache(maxsize=None)(report))
        code = cli_main(["table", "--compare-reference"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 28
        assert lines[0].endswith(",ref_S_r,ref_S_p,ref_total,trend_agree")
        # all 27 embedded reference rows appear, 5-decimal formatted
        for (n, l, beta), (sr, sp, tot) in _REFERENCE_ROWS.items():
            matching = [
                ln for ln in lines[1:] if ln.startswith(f"{n},{l},{beta:.5f},")
            ]
            assert len(matching) == 1, (n, l, beta)
            assert f",{sr:.5f},{sp:.5f},{tot:.5f}," in matching[0]
        # reference S_p for (0,0,0.2) printed as 0.06678
        assert ",9.74631,0.06678,9.81309," in lines[1]
        # computed rows all satisfy the bound
        assert all(",true," in ln for ln in lines[1:])
        # and every printed byte is pinned, in both formats
        assert out.encode("utf-8") == REFERENCE_TABLE.read_bytes()
        code = cli_main(["table", "--compare-reference", "--format", "json"])
        assert code == 0
        assert capsys.readouterr().out.encode("utf-8") == REFERENCE_TABLE_JSON.read_bytes()
        print("ACCEPTANCE 8a PASS: table --compare-reference emits all 27 reference rows")

    def test_four_beta_table_pinned(self, capsys):
        # all 36 rows the momentum path prints at the table's betas, 27 of
        # them at beta > 0, where no closed form checks S_p
        code = cli_main(["table", "--betas", "0", "0.2", "0.4", "0.8"])
        out = capsys.readouterr().out
        assert code == 0
        assert len(out.splitlines()) == 37
        assert out.encode("utf-8") == FOUR_BETA_TABLE.read_bytes()
        print("ACCEPTANCE 8d PASS: table --betas 0 0.2 0.4 0.8 prints the pinned 36 rows")

    def test_wide_state_rows_pinned(self, capsys):
        # states past the pinned tables' grid: large n, nu near 0, and large |l|,
        # where p_max lies below Hankel's cutoff for J_{L+1} and the tail runs
        # bessel_j, or |c| = |L^2 - nu^2| reaches 280 in the wall terms
        rows = WIDE_STATES.read_text(encoding="utf-8").splitlines(keepends=True)
        for row in rows:
            state = json.loads(row)
            argv = ["state"]
            for key in ("n", "l", "k", "beta"):
                argv += [f"--{key}", repr(state[key])]
            code = cli_main(argv)
            assert (code, capsys.readouterr().out) == (0, row)
        print(f"ACCEPTANCE 8e PASS: {len(rows)} wide state rows print the pinned bytes")

    def test_momentum_densities_pinned(self, capsys):
        # the printed CSV moves if p_max, and so the table's nodes, moves by an ulp
        pins = json.loads(DENSITY_HASHES.read_text(encoding="utf-8"))
        for pin in pins:
            code = cli_main(["density", "--space", "momentum", "--n", str(pin["n"]),
                             "--l", str(pin["l"]), "--beta", repr(pin["beta"]), "--samples", "4096"])
            digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
            assert (code, digest) == (0, pin["sha256"]), pin
        print(f"ACCEPTANCE 8f PASS: {len(pins)} momentum density CSVs hash as pinned")

    def test_byte_stability(self, capsys):
        code1 = cli_main(["table", "--betas", "0.2", "--compare-reference"])
        out1 = capsys.readouterr().out
        code2 = cli_main(["table", "--betas", "0.2", "--compare-reference"])
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2
        print("ACCEPTANCE 8b PASS: repeated runs are byte-identical")

    def test_exit_codes(self, capsys, monkeypatch):
        code_ok = cli_main(
            ["state", "--n", "0", "--l", "0", "--k", "1", "--beta", "0.2"]
        )
        capsys.readouterr()
        assert code_ok == 0

        code_bad = cli_main(["state", "--n", "0", "--l", "0", "--beta", "1.5"])
        capsys.readouterr()
        assert code_bad == 2

        import abtrap.cli as cli_mod

        def boom(*args, **kwargs):
            raise ConvergenceError("synthetic failure")

        monkeypatch.setattr(cli_mod, "report", boom)
        code_fail = cli_main(["state", "--n", "0", "--l", "0", "--beta", "0.2"])
        capsys.readouterr()
        assert code_fail == 3
        print("ACCEPTANCE 8c PASS: exit codes 0/2/3 verified under error injection")
