import json

import numpy as np
import pytest

from abtrap.cli import load_config, main
from abtrap.entropy import report
from abtrap.eigen import QuantumNumbers, SystemParams
from abtrap.errors import ConvergenceError, DomainError


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStateCommand:
    def test_ground_state_json(self, capsys):
        code, out, _ = run_cli(
            capsys, ["state", "--n", "0", "--l", "0", "--k", "1", "--beta", "0.2"]
        )
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == [
            "n", "l", "k", "beta", "m", "r0", "lz",
            "S_r", "S_p", "total", "bbm_bound", "satisfied",
        ]
        assert payload["satisfied"] is True
        assert payload["bbm_bound"] == 6.43419

    def test_beta_out_of_range_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["state", "--n", "0", "--l", "0", "--beta", "1.5"])
        assert code == 2
        assert "--beta" in err and "0<beta<1" in err

    def test_negative_n_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["state", "--n", "-1", "--l", "0", "--beta", "0.2"])
        assert code == 2
        assert "--n" in err

    def test_missing_flag_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["state", "--l", "0", "--beta", "0.2"])
        assert code == 2
        assert "--n" in err

    def test_unknown_flag_exits_2(self, capsys):
        code = main(["state", "--n", "0", "--l", "0", "--whatever", "1"])
        capsys.readouterr()
        assert code == 2

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
            raise ConvergenceError("synthetic failure", stage="momentum-profile")

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
    def test_small_sample_count_exits_2(self, capsys, space):
        code, _, err = run_cli(
            capsys,
            ["density", "--space", space, "--n", "0", "--l", "0", "--samples", "16"],
        )
        assert code == 2
        assert "--samples" in err


class TestConfig:
    def test_empty_object_gives_defaults(self, tmp_path):
        from abtrap.reference import default_grid_points

        path = tmp_path / "cfg.json"
        path.write_text("{}")
        cfg = load_config(str(path))
        assert cfg.params == SystemParams(m=1.0, beta=0.0, r0=1.0, lz=1.0)
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
        path.write_text('{"params": {"m": 2, "k": 1}, "betas": [0], "grid": [{"n": 0, "l": 0}]}')
        code, out, _ = run_cli(capsys, ["table", "--config", str(path), "--format", "json"])
        assert code == 0
        assert '"m": 2.0' in out and '"k": 1.0' in out and '"beta": 0.0' in out

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"betas": [0.2,]}')
        code, _, err = run_cli(capsys, ["table", "--config", str(path)])
        assert code == 2
        assert "line" in err and "column" in err

    def test_unknown_field_exits_2(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"betaz": [0.2]}')
        with pytest.raises(DomainError, match="betaz"):
            load_config(str(path))

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

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["table", "--config", "/nonexistent/cfg.json"])
        assert code == 2
        assert "--config" in err

    @pytest.mark.parametrize(
        "config, field",
        [
            ('{"params": {"m": "abc"}}', "params.m"),
            ('{"params": {"m": null}}', "params.m"),
            ('{"params": {"m": true}}', "params.m"),
            ('{"params": {"k": false}}', "params.k"),
            ('{"betas": [true]}', "betas"),
            ('{"grid": [{"n": "a", "l": 0}]}', "grid n"),
            ('{"grid": [{"n": 1.7, "l": 0}]}', "grid n"),
            ('{"betas": ["x"]}', "betas"),
            ('{"output": {"path": 7}}', "output.path"),
            ('{"grid": [{"n": 0, "l": 1, "k": 5}]}', "grid field(s) ['k']"),
            ('{"params": {"m": -1}}', "params.m"),
            ('{"params": {"k": NaN}}', "params.k"),
            ('{"grid": [{"n": -1, "l": 0}]}', "grid n"),
            ('{"betas": [1.5]}', "betas"),
            ("{}", "--out"),  # written to a directory that does not exist
        ],
    )
    def test_bad_value_exits_2_naming_the_field(self, capsys, tmp_path, config, field):
        path = tmp_path / "cfg.json"
        path.write_text(config)
        argv = ["state", "--n", "0", "--l", "0", "--config", str(path)]
        code, _, err = run_cli(capsys, [*argv, "--out", str(tmp_path / "missing" / "x.json")])
        assert code == 2
        assert field in err
