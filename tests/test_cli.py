import argparse
import json
import math
import os
import subprocess
import sys
import time
import warnings
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

import abtrap.cli as cli_mod
import abtrap.entropy as entropy_mod
from abtrap.cli import _report_payload, _settings, build_parser, main
from abtrap.entropy import EntropyReport, report
from abtrap.eigen import QuantumNumbers, SystemParams
from abtrap.errors import ConvergenceError, DomainError
from abtrap.reference import _REFERENCE_ROWS


# an integer past the float range, about 1.8e308
HUGE_INT = "1" + "0" * 400


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def settings(argv):
    """The settings `main` would run `argv` with."""
    return _settings(build_parser().parse_args(argv))


def run_cli_warned(capsys, argv):
    """`run_cli`, with the messages of the warnings raised on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, argv)
    return code, out, err, [str(w.message) for w in caught]


def fake_report(fail=None):
    """A fast stand-in for `report` whose S_p rises with beta; state `fail` raises."""

    def fake(params, qn):
        if (qn.n, qn.l, params.beta) == fail:
            raise ConvergenceError("synthetic failure")
        return EntropyReport(params, qn, 1.0 + qn.n, 6.0 + params.beta)

    return fake


class TestStateCommand:
    def test_ground_state_json(self, capsys):
        code, out, _ = run_cli(
            capsys, ["state", "--n", "0", "--l", "0", "--k", "1", "--beta", "0.2"]
        )
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == [
            "n", "l", "k", "beta", "r0", "lz",
            "S_r", "S_p", "total", "bbm_bound", "satisfied",
        ]
        assert payload["satisfied"] is True
        assert payload["bbm_bound"] == 6.43419

    def test_numpy_entropies_print_as_json(self, capsys, monkeypatch):
        # a stage that hands back np.float64 made `satisfied` an np.bool_, which
        # json cannot dump: `state` ended in a traceback and exit 1
        rep = EntropyReport(SystemParams(), QuantumNumbers(0, 0), np.float64(1.0), np.float64(6.0))
        assert type(rep.satisfied) is bool
        assert json.loads(json.dumps(_report_payload(rep)))["satisfied"] is True
        monkeypatch.setattr(entropy_mod, "shannon_position", lambda state: np.float64(1.5))
        rep = entropy_mod.report(SystemParams(beta=0.2), QuantumNumbers(0, 0))
        assert type(rep.s_r) is float and type(rep.s_p) is float
        code, out, _ = run_cli(capsys, ["state", "--n", "0", "--l", "0", "--beta", "0.2"])
        assert code == 0 and json.loads(out)["S_r"] == 1.5

    def test_norm_defect_exits_3(self, capsys, monkeypatch):
        # a tail norm 1e-6 off leaves the norm short of 1 by that much; the
        # profile refuses it rather than print a wrong S_p
        import abtrap.momentum as momentum_mod

        tail_integrals = momentum_mod._Tail.integrals

        def off(tail, p_max):
            norm, entropy = tail_integrals(tail, p_max)
            return norm - 1e-6, entropy

        monkeypatch.setattr(momentum_mod._Tail, "integrals", off)
        code, out, err = run_cli(capsys, ["state", "--n", "0", "--l", "0", "--beta", "0.2"])
        assert code == 3
        assert out == ""
        assert err.startswith("error: momentum-profile: momentum norm misses 1 by 1.0e-06")

    @pytest.mark.parametrize("command, r0", [
        ("state", "1e-75"),
        ("state", "1e75"),
        ("state", "1e-90"),
        ("state", "1e-100"),
        ("state", "1e100"),
        ("state", "1e-160"),  # (Theta / r0)^2 would overflow; solve does not form it
        ("state", "1e200"),  # so would r0^2; the shift is 2 ln r0
        ("state", "1e-300"),
        ("state", "1e300"),
        ("density", "1e-160"),
        ("density", "1e200"),
    ])
    def test_extreme_r0_prints_the_unit_state(self, capsys, command, r0):
        # the state is solved on the unit cylinder, so any r0 only shifts S_r by
        # 2 ln r0 and S_p by -2 ln r0; nothing overflows, and numpy warns of nothing
        argv = [command, "--n", "0", "--l", "1", "--beta", "0.4", "--r0", r0]
        if command == "density":
            argv += ["--space", "position"]
        code, out, err, warned = run_cli_warned(capsys, argv)
        assert (code, err, warned) == (0, "", [])
        if command == "density":
            rows = np.array([[float(v) for v in line.split(",")] for line in out.splitlines()[1:]])
            assert rows.shape == (512, 2) and np.all(np.isfinite(rows))
            return
        assert out.count("\n") == 1
        row = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} printed"))
        unit = report(SystemParams(beta=0.4), QuantumNumbers(0, 1, 1.0))
        shift = 2.0 * math.log(float(r0))
        assert row["S_r"] - shift == pytest.approx(unit.s_r, abs=1e-5)
        assert row["S_p"] + shift == pytest.approx(unit.s_p, abs=1e-5)

    def test_tiny_lz_prints_finite_values(self, capsys):
        # ln(2 pi / lz) overflowed here, and S_r + S_p printed NaN: the shift
        # ln lz is taken alone now
        argv = ["state", "--n", "1", "--l", "1", "--beta", "0.8", "--lz", "1e-309"]
        code, out, err, warned = run_cli_warned(capsys, argv)
        assert (code, err, warned) == (0, "", [])
        row = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} printed"))
        unit = report(SystemParams(beta=0.8), QuantumNumbers(1, 1, 1.0))
        assert row["S_r"] - math.log(1e-309) == pytest.approx(unit.s_r, abs=1e-5)
        assert row["total"] == round(unit.total, 5) == 9.11542

    @pytest.mark.parametrize("space", ["momentum", "position"])
    def test_density_past_the_float_range_exits_3(self, capsys, space):
        # p = x / r0, or 2 pi rho(x) x / r0, leaves the floats at r0 = 1e-310:
        # one error line, and no inf or nan printed
        argv = ["density", "--space", space, "--n", "0", "--l", "1", "--beta", "0.4"]
        code, out, err, warned = run_cli_warned(capsys, [*argv, "--r0", "1e-310"])
        assert (code, out, warned) == (3, "", [])
        assert err == "error: density: r0 = 1e-310 overflows the profile\n"

    @pytest.mark.parametrize("flags", [["--l", "1", "--k", "1e300"], ["--l", "1" + "0" * 40]])
    def test_huge_order_exits_3(self, capsys, flags):
        # McMahon's estimate is not finite past nu = 1e38; the zero search
        # fails at once rather than raise on a NaN or run CF1 for 1e14 steps
        code, out, err = run_cli(capsys, ["state", "--n", "0", "--beta", "0.4", *flags])
        assert (code, out) == (3, "")
        assert err.startswith("error: solve: bessel_zero: ")

    @pytest.mark.parametrize("l", ["1000000000", "1000000000000000"])
    def test_order_past_the_recurrence_bound_exits_3(self, capsys, l):
        # _normalize's J_{nu+1}(Theta) would recur through l orders; bessel_j
        # refuses that before it allocates or loops
        start = time.perf_counter()
        code, out, err = run_cli(capsys, ["state", "--n", "0", "--beta", "0.4", "--l", l])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err.startswith("error: solve: bessel_j: ")

    @pytest.mark.parametrize("flags, row", [
        (["--n", "4", "--l", "20", "--beta", "0.3"],
         '{"n": 4, "l": 20, "k": 1.0, "beta": 0.3, "r0": 1.0, "lz": 1.0, '
         '"S_r": 0.56559, "S_p": 10.29106, "total": 10.85666, "bbm_bound": 6.43419, '
         '"satisfied": true}'),
        (["--n", "0", "--l", "20", "--beta", "0.5"],
         '{"n": 0, "l": 20, "k": 1.0, "beta": 0.5, "r0": 1.0, "lz": 1.0, '
         '"S_r": 0.26705, "S_p": 9.92296, "total": 10.19, "bbm_bound": 6.43419, '
         '"satisfied": true}'),
    ], ids=["4,20,0.3", "0,20,0.5"])
    def test_wide_states_print_frozen_rows(self, capsys, flags, row):
        # |l| = 20 runs the forward recurrence in the radial wavefunction, the
        # amplitude and the momentum tail; no bench workload reaches it
        code, out, err = run_cli(capsys, ["state", *flags])
        assert (code, out, err) == (0, row + "\n", "")

    @pytest.mark.parametrize("n, l, k, beta", [
        (1, 1, 1.0, 0.8),
        (2, -2, 3.0, 0.4),
        (0, 2, 3.0, 0.5),
        (1, 0, 0.5, 0.6),  # nu = 0.3 at l = 0: the small-nu first panel of the amplitude
    ])
    def test_reversed_l_and_k_print_the_same_entropies(self, capsys, n, l, k, beta):
        # the dislocation enters only through nu = |l - beta k|, which (l, k) -> (-l, -k) keeps
        rows = []
        for sign in (1, -1):
            argv = ["state", "--n", str(n), "--l", str(sign * l), "--k", repr(sign * k),
                    "--beta", repr(beta)]
            code, out, err = run_cli(capsys, argv)
            assert (code, err) == (0, "")
            payload = json.loads(out)
            rows.append({key: payload[key] for key in ("S_r", "S_p", "total", "satisfied")})
        assert rows[0] == rows[1]

    def test_beta_out_of_range_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["state", "--n", "0", "--l", "0", "--beta", "1.5"])
        assert code == 2
        assert "--beta" in err and "0<beta<1" in err

    def test_negative_n_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["state", "--n", "-1", "--l", "0", "--beta", "0.2"])
        assert code == 2
        assert "--n" in err

    @pytest.mark.parametrize("flag, value", [
        ("--n", HUGE_INT), ("--l", HUGE_INT), ("--l", "-" + HUGE_INT),
    ], ids=["n", "l", "-l"])
    def test_integer_past_the_float_range_exits_2(self, capsys, flag, value):
        # such an int once reached solve and exited 3 on its OverflowError
        argv = {"--n": "1", "--l": "0", flag: value}
        code, out, err = run_cli(capsys, ["state", *(a for kv in argv.items() for a in kv)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {flag}: {flag[2:]} must lie within the float range, got ")

    def test_missing_flag_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["state", "--l", "0", "--beta", "0.2"])
        assert code == 2
        assert "--n" in err

    def test_runs_as_module(self):
        # python -m abtrap.cli needs the __main__ guard to do anything at all
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "abtrap.cli", "state", "--n", "0", "--l", "0"],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["satisfied"] is True

    def test_unknown_flag_exits_2(self, capsys):
        code = main(["state", "--n", "0", "--l", "0", "--whatever", "1"])
        capsys.readouterr()
        assert code == 2

    def test_mass_flag_is_rejected(self, capsys):
        # the entropies do not depend on the mass, and the package works in units m = 1
        code, out, err = run_cli(capsys, ["state", "--n", "0", "--l", "0", "--m", "2"])
        assert (code, out) == (2, "")
        assert "--m" in err

    def test_tol_flag_is_rejected(self, capsys):
        # S_r has a fixed rule, so there is no tolerance to set
        code, _, err = run_cli(
            capsys, ["state", "--n", "0", "--l", "0", "--beta", "0.2", "--tol", "1e-7"]
        )
        assert code == 2
        assert "--tol" in err


class TestTableCommand:
    def test_single_beta_sweep(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, ["table", "--betas", "0.4", "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "n,l,beta,S_r,S_p,total,bbm_bound,satisfied"
        assert len(lines) == 10  # header + 9 grid rows
        assert all(line.endswith(",true") for line in lines[1:])

    def test_round_trip_matches_reports(self, capsys):
        code, out, _ = run_cli(capsys, ["table", "--betas", "0.4"])
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        # spot-check two rows against independently recomputed reports
        for row in (rows[0], rows[4]):
            n, l, beta = int(row[0]), int(row[1]), float(row[2])
            rep = report(SystemParams(beta=beta), QuantumNumbers(n, l, 1.0))
            assert row[3] == f"{rep.s_r:.5f}"
            assert row[4] == f"{rep.s_p:.5f}"
            assert row[5] == f"{rep.total:.5f}"
            assert row[7] == ("true" if rep.satisfied else "false")

    def test_bad_beta_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["table", "--betas", "1.2"])
        assert code == 2
        assert "0<beta<1" in err

    def test_convergence_failure_exits_3(self, capsys, monkeypatch):
        import abtrap.cli as cli_mod

        def boom(*args, **kwargs):
            raise ConvergenceError("synthetic failure")

        monkeypatch.setattr(cli_mod, "report", boom)
        code, out, _ = run_cli(capsys, ["table", "--betas", "0.4"])
        assert code == 3
        assert sum(1 for line in out.splitlines() if line.endswith(",failed")) == 9

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--beta", "0.5"], "--beta"),  # table takes its betas from --betas only
            (["--k", "nan"], "--k"),
        ],
    )
    def test_bad_flag_exits_2_before_the_sweep(self, capsys, monkeypatch, flags, named):
        calls = []

        def counted(*args):
            calls.append(args)
            return report(*args)

        monkeypatch.setattr("abtrap.cli.report", counted)
        code, _, err = run_cli(capsys, ["table", *flags, "--betas", "0.2"])
        assert code == 2
        assert named in err
        assert calls == []

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, ["table", "--betas", "0.4", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 9
        assert all(entry["satisfied"] for entry in payload)

    def test_json_reference_values_without_trend(self, capsys, monkeypatch):
        monkeypatch.setattr("abtrap.cli.report", fake_report())
        code, out, _ = run_cli(capsys, ["table", "--compare-reference", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == len(_REFERENCE_ROWS)
        for entry in payload:
            ref = _REFERENCE_ROWS[(entry["n"], entry["l"], entry["beta"])]
            assert (entry["ref_S_r"], entry["ref_S_p"], entry["ref_total"]) == ref
            assert "trend_agree" not in entry

    def test_failed_row_resets_the_trend(self, capsys, monkeypatch):
        monkeypatch.setattr("abtrap.cli.report", fake_report(fail=(1, 0, 0.4)))
        code, out, _ = run_cli(capsys, ["table", "--compare-reference"])
        assert code == 3
        rows = {tuple(line.split(",")[:3]): line for line in out.splitlines()[1:]}
        assert rows[("1", "0", "0.40000")] == "1,0,0.40000,,,,6.43419,failed,,,,"
        # the next beta of (1, 0) has no previous row to compare with; (1, 1) does
        assert rows[("1", "0", "0.80000")].endswith(",")
        assert rows[("1", "1", "0.80000")].endswith(",yes")

    def test_failed_row_is_an_error_entry_in_json(self, capsys, monkeypatch):
        monkeypatch.setattr("abtrap.cli.report", fake_report(fail=(1, 0, 0.4)))
        code, out, _ = run_cli(capsys, ["table", "--compare-reference", "--format", "json"])
        assert code == 3
        failed = [entry for entry in json.loads(out) if "error" in entry]
        assert len(failed) == 1
        assert list(failed[0]) == ["n", "l", "beta", "error"]  # the key order is printed
        assert (failed[0]["n"], failed[0]["l"], failed[0]["beta"]) == (1, 0, 0.4)


class TestDispatch:
    STATE = ["state", "--n", "0", "--l", "0", "--beta", "0.2"]

    def test_one_parser_serves_every_call(self, capsys, monkeypatch):
        # the parser and its three subparsers are built once per process, not per call
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        monkeypatch.setattr("abtrap.cli.report", fake_report())
        for argv in (self.STATE, ["table", "--betas", "0.4"],
                     ["density", "--space", "position", "--n", "0", "--l", "0", "--samples", "64"]):
            code, _, err = run_cli(capsys, argv)
            assert (code, err) == (0, "")
        assert len(built) <= 4, built

    def test_command_is_looked_up_when_called(self, capsys, monkeypatch, bench_tracer):
        # the parser is built before the tracer rebinds cli.cmd_state, and the
        # rebound command still runs
        monkeypatch.setattr("abtrap.cli.report", fake_report())
        run_cli(capsys, self.STATE)
        bench_tracer.install()
        try:
            code, _, err = run_cli(capsys, self.STATE)
        finally:
            bench_tracer.uninstall()
        assert (code, err) == (0, "")
        assert bench_tracer.calls()["cli.cmd_state"] == 1


class TestDensityCommand:
    def test_position_profile(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["density", "--space", "position", "--n", "0", "--l", "0", "--beta", "0.2"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "coordinate,density"
        assert len(lines) == 513
        assert lines[-1] == "1.00000,0.00000"  # hard wall
        data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.all(data[:, 1] >= 0.0)
        assert np.trapezoid(data[:, 1], data[:, 0]) == pytest.approx(1.0, abs=1e-3)

    def test_momentum_profile_ridges(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["density", "--space", "momentum", "--n", "2", "--l", "-2", "--beta", "0.2"],
        )
        assert code == 0
        data = np.array(
            [[float(v) for v in line.split(",")] for line in out.strip().split("\n")[1:]]
        )
        assert np.all(data[:, 1] >= 0.0)
        assert np.trapezoid(data[:, 1], data[:, 0]) == pytest.approx(1.0, abs=1e-3)
        dens = data[:, 1]
        maxima = sum(
            1
            for i in range(1, len(dens) - 1)
            if dens[i] > dens[i - 1] and dens[i] >= dens[i + 1] and dens[i] >= 0.01 * dens.max()
        )
        assert maxima >= 3

    def test_beta_shifts_position_peak(self, capsys):
        argmaxes = []
        for beta in ("0.2", "0.4", "0.8"):
            _, out, _ = run_cli(
                capsys,
                ["density", "--space", "position", "--n", "0", "--l", "0", "--beta", beta],
            )
            data = np.array(
                [[float(v) for v in line.split(",")] for line in out.strip().split("\n")[1:]]
            )
            argmaxes.append(float(data[np.argmax(data[:, 1]), 0]))
        assert argmaxes[0] != argmaxes[1] != argmaxes[2]

    @pytest.mark.parametrize("space", ["position", "momentum"])
    def test_solve_failure_names_its_stage(self, capsys, monkeypatch, space):
        # as `state` does through report(): exit 3, and the message names the stage
        def boom(*args, **kwargs):
            raise ConvergenceError("bessel_zero: no root")

        monkeypatch.setattr("abtrap.cli.solve", boom)
        code, out, err = run_cli(
            capsys, ["density", "--space", space, "--n", "0", "--l", "0", "--beta", "0.2"]
        )
        assert code == 3
        assert out == ""
        assert err == "error: solve: bessel_zero: no root\n"

    @pytest.mark.parametrize("error", [ConvergenceError, OverflowError])
    @pytest.mark.parametrize("space", ["position", "momentum"])
    def test_sampling_failure_names_its_stage(self, capsys, monkeypatch, space, error):
        # the sampling after solve is the `density` stage, in either space
        def boom(*args, **kwargs):
            raise error("bessel_j: no convergence")

        if space == "position":
            monkeypatch.setattr("abtrap.eigen.Eigenstate.position_density", boom)
        else:
            monkeypatch.setattr("abtrap.cli.sample_profile", boom)
        code, out, err = run_cli(
            capsys, ["density", "--space", space, "--n", "0", "--l", "0", "--beta", "0.2"]
        )
        assert (code, out, err) == (3, "", "error: density: bessel_j: no convergence\n")

    def test_order_past_the_recurrence_bound_names_the_density_stage(self, capsys):
        # `state` names this failure `momentum-profile`; `density` runs no profile
        code, out, err = run_cli(
            capsys,
            ["density", "--space", "momentum", "--n", "0", "--l", "60000", "--beta", "0.4",
             "--samples", "64"],
        )
        assert (code, out) == (3, "")
        assert err == (
            "error: density: bessel_j: order 59999.599999999999 needs a recurrence of "
            "120322 steps, more than 100000\n"
        )

    @pytest.mark.parametrize("space", ["position", "momentum"])
    def test_blocked_output_equals_the_joined_text(self, capsys, monkeypatch, tmp_path, space):
        # rows are formatted and written a block at a time: 512 rows, one block
        # at the default size, are six blocks of 100, with the same bytes on
        # stdout and in --out
        argv = ["density", "--space", space, "--n", "1", "--l", "1", "--beta", "0.8"]
        blocks = []
        emit = cli_mod._emit

        def counting(chunks, cfg):
            chunks = list(chunks)
            blocks.append(len(chunks))
            emit(chunks, cfg)

        monkeypatch.setattr(cli_mod, "_emit", counting)
        code, joined, _ = run_cli(capsys, argv)
        assert code == 0 and blocks == [1] and joined.count("\n") == 513
        monkeypatch.setattr(cli_mod, "_CSV_BLOCK", 100)
        assert run_cli(capsys, argv) == (0, joined, "")
        out = tmp_path / "density.csv"
        assert run_cli(capsys, [*argv, "--out", str(out)]) == (0, "", "")
        assert out.read_bytes() == joined.encode() and blocks == [1, 6, 6]

    def test_block_format_equals_the_per_row_format(self, capsys, monkeypatch):
        # each block is one "%.5f,%.5f\n" * rows % (...) call, which prints the
        # bytes of f"{x:.5f},{y:.5f}\n" per row: at the rounding ties 1/64 and
        # 3/64, at zero, past 1e6, and across the block boundaries of blocks of 4.
        # With rho = 1 / (2 pi) at r0 = 1 the printed density is the coordinate
        xs = np.array([0.0, 1 / 64, 3 / 64, 5 / 64, 0.000125, 2.5e-6, 5e-6, 1 / 3, 0.0,
                       1234567.891235, 1e6 + 2.0**-7, 2.0**40 + 0.5, 98765432.123455])
        rows = np.column_stack([xs, np.full(xs.size, 1.0 / (2.0 * math.pi))])
        monkeypatch.setattr(cli_mod, "sample_profile", lambda state, count: rows)
        monkeypatch.setattr(cli_mod, "_CSV_BLOCK", 4)
        argv = ["density", "--space", "momentum", "--n", "0", "--l", "0", "--samples", "64"]
        code, out, err = run_cli(capsys, argv)
        dens = 2.0 * math.pi * rows[:, 1] * xs
        assert np.array_equal(dens, xs)
        expected = "".join(f"{x:.5f},{y:.5f}\n" for x, y in zip(xs.tolist(), dens.tolist()))
        assert (code, out, err) == (0, "coordinate,density\n" + expected, "")
        assert "\n0.01562,0.01562\n0.04688,0.04688\n0.07812,0.07812\n" in out
        assert "\n1000000.00781,1000000.00781\n" in out

    @pytest.mark.parametrize("space", ["position", "momentum"])
    def test_small_sample_count_exits_2(self, capsys, space):
        code, _, err = run_cli(
            capsys,
            ["density", "--space", space, "--n", "0", "--l", "0", "--samples", "16"],
        )
        assert code == 2
        assert "--samples" in err

    @pytest.mark.parametrize("space", ["position", "momentum"])
    def test_huge_sample_count_exits_2(self, capsys, space):
        # 10^12 samples once reached numpy and ended in a memory-error traceback;
        # the bound is checked before the state is solved or an array allocated
        argv = ["density", "--space", space, "--n", "0", "--l", "0", "--samples", str(10**12)]
        assert run_cli(capsys, argv) == (
            2, "", "error: --samples must lie in [64, 1000000], got 1000000000000\n"
        )


class TestConfig:
    def test_empty_object_gives_defaults(self, tmp_path):
        from abtrap.reference import default_grid_points

        path = tmp_path / "cfg.json"
        path.write_text("{}")
        cfg = settings(["table", "--config", str(path)])
        assert cfg.params == SystemParams(beta=0.0, r0=1.0, lz=1.0)
        assert cfg.k == 1.0
        assert cfg.betas == [0.2, 0.4, 0.8]
        assert cfg.grid == default_grid_points()
        assert cfg.fmt == "csv" and cfg.out is None

    def test_betas_from_file(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"betas": [0.4], "grid": [{"n": 0, "l": 0}]}')
        code, out, _ = run_cli(capsys, ["table", "--config", str(path)])
        assert code == 0
        assert len(out.strip().split("\n")) == 2

    def test_flags_override_file(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"params": {"beta": 0.4}}')
        code, out, _ = run_cli(
            capsys, ["state", "--n", "0", "--l", "0", "--beta", "0.2", "--config", str(path)]
        )
        assert code == 0
        assert json.loads(out)["beta"] == 0.2

    def test_params_from_file(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"params": {"beta": 0}}')
        code, out, _ = run_cli(capsys, ["state", "--n", "0", "--l", "0", "--config", str(path)])
        assert code == 0
        assert json.loads(out)["beta"] == 0.0

    def test_integer_params_print_as_floats(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"params": {"r0": 2, "k": 1}, "betas": [0], "grid": [{"n": 0, "l": 0}]}')
        code, out, _ = run_cli(capsys, ["table", "--config", str(path), "--format", "json"])
        assert code == 0
        assert '"r0": 2.0' in out and '"k": 1.0' in out and '"beta": 0.0' in out

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"betas": [0.2,]}')
        code, _, err = run_cli(capsys, ["table", "--config", str(path)])
        assert code == 2
        assert "line" in err and "column" in err

    @pytest.mark.parametrize("content, key", [
        ('{"params": {"beta": 0.2}, "params": {"r0": 2}}', "params"),
        ('{"params": {"beta": 0.2, "beta": 0.3}}', "beta"),
        ('{"grid": [{"n": 0, "l": 0, "n": 1}]}', "n"),
    ], ids=["top-level", "in-params", "in-a-grid-entry"])
    def test_repeated_key_exits_2(self, capsys, tmp_path, content, key):
        # json.load keeps the last value of a repeated key: the first file would
        # run at beta = 0 and exit 0
        path = tmp_path / "cfg.json"
        path.write_text(content)
        code, out, err = run_cli(capsys, ["state", "--n", "0", "--l", "0", "--config", str(path)])
        assert (code, out) == (2, "")
        assert err == f"error: --config: repeated key {key!r} in {str(path)!r}\n", err

    @pytest.mark.parametrize("content", [
        b"\xff\xfe{}", b'{"params": {"r0": 1' + b"0" * 5000 + b"}}",
    ], ids=["not-utf-8", "past-the-int-digit-limit"])
    def test_undecodable_file_exits_2(self, capsys, tmp_path, content):
        # json.load raises a ValueError other than JSONDecodeError on both
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, ["state", "--n", "0", "--l", "0", "--config", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: --config: cannot read {str(path)!r}: "), err

    def test_unknown_field_exits_2(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"betaz": [0.2]}')
        with pytest.raises(DomainError, match="betaz"):
            settings(["table", "--config", str(path)])

    def test_mass_key_exits_2(self, capsys, tmp_path):
        # no printed value depends on the mass (units m = 1), so the file cannot set it
        path = tmp_path / "cfg.json"
        path.write_text('{"params": {"m": 1.0}}')
        code, out, err = run_cli(capsys, ["state", "--n", "0", "--l", "0", "--config", str(path)])
        assert (code, out) == (2, "")
        assert "unknown field(s) ['params.m']" in err

    def test_tol_key_exits_2(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"tol": 1e-7}')
        code, _, err = run_cli(capsys, ["state", "--n", "0", "--l", "0", "--config", str(path)])
        assert code == 2
        assert "unknown field" in err and "tol" in err

    def test_unwritable_out_exits_2_before_the_sweep(self, capsys, monkeypatch, tmp_path):
        calls = []

        def counted(*args):
            calls.append(args)
            return report(*args)

        monkeypatch.setattr("abtrap.cli.report", counted)
        out = tmp_path / "missing" / "x.csv"
        code, _, err = run_cli(capsys, ["table", "--betas", "0.2", "--out", str(out)])
        assert code == 2
        assert "--out" in err
        assert calls == []

    def test_unwritable_config_path_names_the_field(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        Path("cfg.json").write_text('{"output": {"path": "missing/x.csv"}}')
        code, out, err = run_cli(capsys, ["state", "--n", "0", "--l", "0", "--config", "cfg.json"])
        assert (code, out) == (2, "")
        assert err.startswith("error: --config: output.path: cannot write 'missing/x.csv': "), err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["table", "--config", "/nonexistent/cfg.json"])
        assert code == 2
        assert "--config" in err

    @pytest.mark.parametrize(
        "config, field",
        [
            ('{"params": {"m": "abc"}}', "params.m"),  # an unknown field
            ('{"params": {"k": false}}', "params.k"),
            ('{"betas": [true]}', "betas"),
            ('{"grid": [{"n": "a", "l": 0}]}', "grid n"),
            ('{"grid": [{"n": 1.7, "l": 0}]}', "grid n"),
            ('{"betas": ["x"]}', "betas"),
            ('{"output": {"path": 7}}', "output.path"),
            ('{"grid": [{"n": 0, "l": 1, "k": 5}]}', "grid field(s) ['k']"),
            ('{"params": {"k": NaN}}', "params.k"),
            ('{"grid": [{"n": -1, "l": 0}]}', "grid n"),
            ('{"betas": [1.5]}', "betas"),
            ("{}", "--out"),  # written to a directory that does not exist
            ('{"output": {"formt": "json"}}', "output.formt"),
            ('{"params.beta": 0.3}', "params.beta"),  # a dotted top-level key
            ("[0.2]", "top level"),
            ('{"params": 3}', "'params' must be an object"),
            ('{"betas": []}', "'betas' must be a non-empty list"),
            ('{"grid": [{"n": 0}]}', "entries need 'n' and 'l'"),
            # an int past the float range once exited 3 on an OverflowError
            pytest.param(f'{{"params": {{"k": {HUGE_INT}}}}}', "params.k", id="huge-k"),
            pytest.param(f'{{"betas": [{HUGE_INT}]}}', "betas", id="huge-beta"),
            pytest.param(f'{{"grid": [{{"n": {HUGE_INT}, "l": 0}}]}}', "grid n", id="huge-n"),
            pytest.param(f'{{"grid": [{{"n": 0, "l": -{HUGE_INT}}}]}}', "grid l", id="huge-l"),
        ],
    )
    def test_bad_value_exits_2_naming_the_field(self, capsys, tmp_path, config, field):
        path = tmp_path / "cfg.json"
        path.write_text(config)
        argv = ["state", "--n", "0", "--l", "0", "--config", str(path)]
        code, _, err = run_cli(capsys, [*argv, "--out", str(tmp_path / "missing" / "x.json")])
        assert code == 2
        assert field in err


Setting = namedtuple("Setting", "field command good flag flag_value bad named held")

SETTINGS = [
    Setting("params.beta", "state", 0.4, "--beta", 0.3, 1.5, "--config: params.beta: ",
            lambda c: c.params.beta),
    Setting("params.r0", "state", 1.5, "--r0", 2.0, -1, "--config: params.r0: ",
            lambda c: c.params.r0),
    Setting("params.lz", "state", 3, "--lz", 4.0, 0, "--config: params.lz: ",
            lambda c: c.params.lz),
    Setting("params.k", "state", -1.5, "--k", 2.0, "x", "--config: params.k: ", lambda c: c.k),
    Setting("betas", "table", [0.1], "--betas", [0.3, 0.5], [1.5], "--config: betas: ",
            lambda c: c.betas),
    Setting("output.format", "table", "json", "--format", "csv", "xml",
            "--config: output.format ", lambda c: c.fmt),
    Setting("output.path", "table", "a.csv", "--out", "b.csv", 7, "--config: output.path ",
            lambda c: c.out),
]


@pytest.mark.parametrize("s", SETTINGS, ids=[s.field for s in SETTINGS])
class TestSettingsMatrix:
    """Each setting: the file value applies, its flag wins, and a bad file value
    exits 2 naming its field (`s.named`) even when the flag replaces it."""

    @pytest.fixture(autouse=True)
    def _in_tmp(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)  # output.path and --out are relative

    @staticmethod
    def argv(s, file_value, flag=True):
        section, _, key = s.field.rpartition(".")
        config = {section: {key: file_value}} if section else {key: file_value}
        Path("cfg.json").write_text(json.dumps(config))
        argv = [s.command, "--config", "cfg.json"]
        if s.command == "state":
            argv += ["--n", "0", "--l", "0"]
        if flag:
            values = s.flag_value if isinstance(s.flag_value, list) else [s.flag_value]
            argv += [s.flag, *map(str, values)]
        return argv

    def test_file_value_applies(self, s):
        assert s.held(settings(self.argv(s, s.good, flag=False))) == s.good

    def test_flag_wins(self, s):
        assert s.held(settings(self.argv(s, s.good))) == s.flag_value

    def test_bad_file_value_exits_2_under_a_good_flag(self, capsys, monkeypatch, s):
        monkeypatch.setattr("abtrap.cli.report", lambda *a: pytest.fail("a state was computed"))
        code, out, err = run_cli(capsys, self.argv(s, s.bad))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {s.named}"), err
