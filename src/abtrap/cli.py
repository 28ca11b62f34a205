"""Batch command-line interface.

Subcommands:
  state    one (n, l, k, beta) report as JSON
  table    sweep over the default or configured grid, CSV or JSON
  density  position- or momentum-space density profile as CSV

Exit codes: 0 success, 2 validation/configuration error, 3 convergence
failure. All numeric output is fixed at 5 decimals; CSV uses LF line
endings, so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .eigen import QuantumNumbers, SystemParams, solve
from .entropy import BBM_BOUND, report
from .errors import ConvergenceError, DomainError, EvaluationError
from .momentum import sample_profile
from .reference import TABLE_BETAS, default_grid_points, reference_row

__all__ = ["RunConfig", "load_config", "main", "entrypoint"]


@dataclass
class RunConfig:
    """Validated run configuration; flags override these values."""

    params: SystemParams = field(default_factory=SystemParams)
    grid: list[tuple[int, int]] = field(default_factory=default_grid_points)
    betas: list[float] = field(default_factory=lambda: list(TABLE_BETAS))
    k: float = 1.0
    fmt: str = "csv"
    out: str | None = None


_CONFIG_KEYS = {"params", "grid", "betas", "output"}
_PARAM_KEYS = {"m", "beta", "r0", "lz", "k"}


def _read_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise DomainError(f"--config: cannot read {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(
            f"--config: malformed JSON in {path!r}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise DomainError(f"--config: top level of {path!r} must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise DomainError(f"--config: unknown field(s) {sorted(unknown)} in {path!r}")
    return raw


def _named(source: str, build, *args, **kwargs):
    """Call `build`; a DomainError it raises is re-raised prefixed with `source`."""
    try:
        return build(*args, **kwargs)
    except DomainError as exc:
        raise DomainError(f"{source}: {exc}") from exc


def load_config(path: str | None) -> RunConfig:
    """Parse a JSON config file into a RunConfig with defaults filled in.

    A missing path yields the pure-default configuration (m=1, r0=1, lz=1,
    k=1, the standard grid and betas).
    """
    cfg = RunConfig()
    if path is None:
        return cfg
    raw = _read_config(path)

    params_raw = raw.get("params", {})
    if not isinstance(params_raw, dict):
        raise DomainError("--config: 'params' must be an object")
    bad = set(params_raw) - _PARAM_KEYS
    if bad:
        raise DomainError(f"--config: unknown params field(s) {sorted(bad)}")
    for key, value in params_raw.items():
        source = f"--config: params.{key}"
        if key == "k":
            cfg.k = _named(source, QuantumNumbers, 0, 0, value).k
        else:
            cfg.params = _named(source, replace, cfg.params, **{key: value})

    if "grid" in raw:
        if not isinstance(raw["grid"], list) or not raw["grid"]:
            raise DomainError("--config: 'grid' must be a non-empty list")
        grid = []
        for item in raw["grid"]:
            if not isinstance(item, dict) or not {"n", "l"} <= set(item):
                raise DomainError(f"--config: grid entries need 'n' and 'l', got {item!r}")
            extra = set(item) - {"n", "l"}
            if extra:
                # every row runs with params.k; a per-row key would be dropped
                raise DomainError(f"--config: unknown grid field(s) {sorted(extra)} in {item!r}")
            n = _named("--config: grid n", QuantumNumbers, item["n"], 0).n
            l = _named("--config: grid l", QuantumNumbers, 0, item["l"]).l
            grid.append((n, l))
        cfg.grid = grid

    if "betas" in raw:
        if not isinstance(raw["betas"], list) or not raw["betas"]:
            raise DomainError("--config: 'betas' must be a non-empty list")
        cfg.betas = [
            _named("--config: betas", replace, cfg.params, beta=b).beta for b in raw["betas"]
        ]

    output = raw.get("output", {})
    if not isinstance(output, dict):
        raise DomainError("--config: 'output' must be an object")
    cfg.fmt = str(output.get("format", cfg.fmt))
    if cfg.fmt not in ("csv", "json"):
        raise DomainError(f"--config: output format must be csv or json, got {cfg.fmt!r}")
    cfg.out = output.get("path", cfg.out)
    if cfg.out is not None and not isinstance(cfg.out, str):
        raise DomainError(f"--config: output.path must be a string, got {cfg.out!r}")
    return cfg


def _apply_flags(cfg: RunConfig, args) -> RunConfig:
    """Command-line flags override the config-file values; --out is checked here."""
    for name in ("m", "beta", "r0", "lz"):
        value = getattr(args, name, None)
        if value is not None:
            cfg.params = _named(f"--{name}", replace, cfg.params, **{name: value})
    if args.k is not None:
        cfg.k = _named("--k", QuantumNumbers, 0, 0, args.k).k
    if getattr(args, "betas", None) is not None:
        cfg.betas = [_named("--betas", replace, cfg.params, beta=b).beta for b in args.betas]
    if getattr(args, "format", None) is not None:
        cfg.fmt = args.format
    if getattr(args, "out", None) is not None:
        cfg.out = args.out
    if cfg.out:
        _check_writable(cfg.out)
    return cfg


def _check_writable(out_path: str) -> None:
    """Open `out_path` for appending and close it, leaving no new file behind."""
    existed = os.path.exists(out_path)
    try:
        open(out_path, "a").close()
    except OSError as exc:
        raise DomainError(f"--out: cannot write {out_path!r}: {exc.strerror or exc}") from exc
    if not existed:
        os.remove(out_path)


def _one_state(args) -> tuple[RunConfig, QuantumNumbers]:
    """Configuration and quantum numbers of `state` and `density`."""
    cfg = _apply_flags(load_config(args.config), args)
    # argparse makes --l an integer and k is already checked, so only --n can fail
    return cfg, _named("--n", QuantumNumbers, args.n, args.l, cfg.k)


def _fmt(x: float) -> str:
    return f"{x:.5f}"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"--out: cannot write {out_path!r}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _report_payload(rep) -> dict:
    qn, params = rep.qn, rep.params
    return {
        "n": qn.n,
        "l": qn.l,
        "k": qn.k,
        "beta": params.beta,
        "m": params.m,
        "r0": params.r0,
        "lz": params.lz,
        "S_r": round(rep.s_r, 5),
        "S_p": round(rep.s_p, 5),
        "total": round(rep.total, 5),
        "bbm_bound": round(rep.bbm_bound, 5),
        "satisfied": rep.satisfied,
    }


def cmd_state(args) -> int:
    cfg, qn = _one_state(args)
    rep = report(cfg.params, qn)
    _emit(json.dumps(_report_payload(rep)) + "\n", cfg.out)
    return 0


def cmd_table(args) -> int:
    cfg = _apply_flags(load_config(args.config), args)
    rows = []
    failed = False
    for n, l in cfg.grid:
        for beta in cfg.betas:
            params = replace(cfg.params, beta=beta)
            qn = QuantumNumbers(n, l, cfg.k)
            try:
                rows.append((n, l, beta, report(params, qn)))
            except (ConvergenceError, EvaluationError) as exc:
                rows.append((n, l, beta, exc))
                failed = True

    if cfg.fmt == "json":
        payload = []
        for n, l, beta, rep in rows:
            if isinstance(rep, Exception):
                payload.append({"n": n, "l": l, "beta": beta, "error": str(rep)})
                continue
            entry = _report_payload(rep)
            if args.compare_reference:
                ref = reference_row(n, l, beta)
                if ref:
                    entry["ref_S_r"], entry["ref_S_p"], entry["ref_total"] = ref
            payload.append(entry)
        _emit(json.dumps(payload, indent=2) + "\n", cfg.out)
        return 3 if failed else 0

    header = "n,l,beta,S_r,S_p,total,bbm_bound,satisfied"
    if args.compare_reference:
        header += ",ref_S_r,ref_S_p,ref_total,trend_agree"
    lines = [header]
    prev: dict[tuple[int, int], tuple] = {}
    for n, l, beta, rep in rows:
        if isinstance(rep, Exception):
            line = f"{n},{l},{_fmt(beta)},,,,{_fmt(BBM_BOUND)},failed"
            if args.compare_reference:
                line += ",,,,"
            lines.append(line)
            prev.pop((n, l), None)
            continue
        line = (
            f"{n},{l},{_fmt(beta)},{_fmt(rep.s_r)},{_fmt(rep.s_p)},"
            f"{_fmt(rep.total)},{_fmt(rep.bbm_bound)},{'true' if rep.satisfied else 'false'}"
        )
        if args.compare_reference:
            ref = reference_row(n, l, beta)
            if ref is None:
                line += ",,,,"
            else:
                agree = ""
                if (n, l) in prev:
                    p_rep, p_ref = prev[(n, l)]
                    same_sp = (rep.s_p - p_rep.s_p > 0) == (ref[1] - p_ref[1] > 0)
                    same_tot = (rep.total - p_rep.total > 0) == (ref[2] - p_ref[2] > 0)
                    agree = "yes" if (same_sp and same_tot) else "no"
                line += f",{_fmt(ref[0])},{_fmt(ref[1])},{_fmt(ref[2])},{agree}"
                prev[(n, l)] = (rep, ref)
        lines.append(line)
    _emit("\n".join(lines) + "\n", cfg.out)
    return 3 if failed else 0


def cmd_density(args) -> int:
    cfg, qn = _one_state(args)
    if args.samples < 64:
        raise DomainError(f"--samples must be >= 64, got {args.samples}")
    state = solve(cfg.params, qn)
    lines = ["coordinate,density"]
    if args.space == "position":
        # marginal radial density 2 pi Lz rho(r) r, trapezoid-normalized to 1
        rr = np.linspace(0.0, cfg.params.r0, args.samples)
        dens = 2.0 * math.pi * cfg.params.lz * state.position_density(rr) * rr
        for r, d in zip(rr, dens):
            lines.append(f"{_fmt(r)},{_fmt(d)}")
    else:
        rows = sample_profile(state, args.samples)
        ps = rows[:, 0]
        dens = 2.0 * math.pi * rows[:, 2] * ps
        for p, d in zip(ps, dens):
            lines.append(f"{_fmt(p)},{_fmt(d)}")
    _emit("\n".join(lines) + "\n", cfg.out)
    return 0


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--out", help="output path (default: stdout)")
    sub.add_argument("--m", type=float, help="mass (default 1)")
    sub.add_argument("--r0", type=float, help="hard-wall radius (default 1)")
    sub.add_argument("--lz", type=float, help="z-box length (default 1)")
    sub.add_argument("--k", type=float, help="longitudinal wavenumber (default 1)")


def _add_one_state(sub):
    sub.add_argument("--n", type=int, required=True, help="radial index (>= 0)")
    sub.add_argument("--l", type=int, required=True, help="angular momentum integer")
    sub.add_argument("--beta", type=float, help="dislocation parameter in [0, 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abtrap",
        description="Hard-wall dislocation eigenstates and their Shannon entropies.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_state = subs.add_parser("state", help="single-state entropy report (JSON)")
    _add_one_state(p_state)
    _add_common(p_state)
    p_state.set_defaults(func=cmd_state)

    # whole flag names only, so that --beta is not taken for --betas
    p_table = subs.add_parser("table", help="grid sweep (CSV or JSON)", allow_abbrev=False)
    p_table.add_argument("--betas", type=float, nargs="+", help="beta values of the sweep")
    p_table.add_argument(
        "--compare-reference",
        action="store_true",
        help="append published reference values and a trend-agreement column",
    )
    p_table.add_argument("--format", choices=("csv", "json"), help="output format")
    _add_common(p_table)
    p_table.set_defaults(func=cmd_table)

    p_dens = subs.add_parser("density", help="density profile emission (CSV)")
    p_dens.add_argument("--space", choices=("position", "momentum"), required=True)
    _add_one_state(p_dens)
    p_dens.add_argument("--samples", type=int, default=512, help="grid size (default 512)")
    _add_common(p_dens)
    p_dens.set_defaults(func=cmd_density)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, EvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    raise SystemExit(main())
