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
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .eigen import QuantumNumbers, SystemParams, solve
from .entropy import BBM_BOUND, report
from .errors import ConvergenceError, DomainError, named
from .momentum import sample_profile
from .reference import TABLE_BETAS, default_grid_points, reference_row

__all__ = ["main", "entrypoint"]

_CSV_BLOCK = 65_536  # rows per write of the density CSV, about 1.3 MB of text


@dataclass
class RunConfig:
    """Settings of one run: the defaults, then the config file, then the flags."""

    params: SystemParams = field(default_factory=SystemParams)
    grid: list[tuple[int, int]] = field(default_factory=default_grid_points)
    betas: list[float] = field(default_factory=lambda: list(TABLE_BETAS))
    k: float = 1.0
    fmt: str = "csv"
    out: str | None = None
    out_source: str = "--out"  # the flag or config field that set `out`


# every config field, in the order it is applied, and the flag that overrides it
_FIELDS = {
    "grid": None,
    "params.beta": "--beta",
    "params.r0": "--r0",
    "params.lz": "--lz",
    "params.k": "--k",
    "betas": "--betas",
    "output.format": "--format",
    "output.path": "--out",
}


def _read_config(path: str) -> dict:
    """The config file as a dict of dotted field names (`params.beta`), each known."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DomainError(
            f"--config: malformed JSON in {path!r}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (OSError, ValueError) as exc:  # also not UTF-8, or an int past Python's digit limit
        raise DomainError(f"--config: cannot read {path!r}: {exc}") from exc
    if not isinstance(raw, dict):
        raise DomainError(f"--config: top level of {path!r} must be a JSON object")
    flat = {key: value for key, value in raw.items() if key not in ("params", "output")}
    for key in ("params", "output"):
        if not isinstance(raw.get(key, {}), dict):
            raise DomainError(f"--config: '{key}' must be an object")
        flat.update((f"{key}.{name}", value) for name, value in raw.get(key, {}).items())
    unknown = set(flat) - set(_FIELDS) | set(raw) - {"grid", "betas", "params", "output"}
    if unknown:
        raise DomainError(f"--config: unknown field(s) {sorted(unknown)} in {path!r}")
    for key in ("grid", "betas"):
        if key in flat and (not isinstance(flat[key], list) or not flat[key]):
            raise DomainError(f"--config: '{key}' must be a non-empty list")
    return flat


def _set(cfg: RunConfig, source: str, key: str, value) -> None:
    """Check the value of config field `key` and store it in `cfg`; an error names `source`."""
    if key == "grid":
        cfg.grid = []
        for item in value:
            if not isinstance(item, dict) or not {"n", "l"} <= set(item):
                raise DomainError(f"{source} entries need 'n' and 'l', got {item!r}")
            extra = set(item) - {"n", "l"}
            if extra:
                # every row runs with params.k; a per-row key would be dropped
                raise DomainError(f"--config: unknown grid field(s) {sorted(extra)} in {item!r}")
            n = named(f"{source} n", QuantumNumbers, item["n"], 0).n
            cfg.grid.append((n, named(f"{source} l", QuantumNumbers, 0, item["l"]).l))
    elif key == "params.k":
        cfg.k = named(source, QuantumNumbers, 0, 0, value).k
    elif key == "betas":
        cfg.betas = [named(source, SystemParams, beta=b).beta for b in value]
    elif key == "output.format":
        cfg.fmt = str(value)
        if cfg.fmt not in ("csv", "json"):
            raise DomainError(f"{source} must be csv or json, got {cfg.fmt!r}")
    elif key == "output.path":
        if value is not None and not isinstance(value, str):
            raise DomainError(f"{source} must be a string, got {value!r}")
        cfg.out, cfg.out_source = value, source
    else:
        cfg.params = named(source, replace, cfg.params, **{key.removeprefix("params."): value})


def _settings(args) -> RunConfig:
    """Defaults, then the --config file, then the flags; the output path is checked here.

    Every value goes through `_set`, so a file value is checked even when a
    flag replaces it, and a flag, set last, wins.
    """
    cfg = RunConfig()
    flat = {} if args.config is None else _read_config(args.config)
    for key in _FIELDS:
        if key in flat:
            _set(cfg, f"--config: {key}", key, flat[key])
    for key, flag in _FIELDS.items():
        if flag and getattr(args, flag[2:], None) is not None:
            _set(cfg, flag, key, getattr(args, flag[2:]))
    if cfg.out:
        named(cfg.out_source, _write, cfg.out)
    return cfg


def _write(path: str, chunks=None) -> None:
    """Write the strings `chunks` to `path`; with none, check it can be written and add no file."""
    existed = os.path.exists(path)
    try:
        with open(path, "a" if chunks is None else "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks or ())
    except OSError as exc:
        raise DomainError(f"cannot write {path!r}: {exc.strerror or exc}") from exc
    if chunks is None and not existed:
        os.remove(path)


def _one_state(args) -> tuple[RunConfig, QuantumNumbers]:
    """Configuration and quantum numbers of `state` and `density`."""
    cfg = _settings(args)
    # k is already checked, and n by the first call, so the second can fail only on --l
    named("--n", QuantumNumbers, args.n, 0)
    return cfg, named("--l", QuantumNumbers, args.n, args.l, cfg.k)


def _emit(chunks, cfg: RunConfig) -> None:
    if cfg.out:
        named(cfg.out_source, _write, cfg.out, chunks)
    else:
        sys.stdout.writelines(chunks)


def _cell(value) -> str:
    """One CSV cell: a float to 5 decimals, a bool as true or false, a missing value empty."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.5f}"
    return "" if value is None else str(value)


def _report_payload(rep) -> dict:
    qn, params = rep.qn, rep.params
    return {
        "n": qn.n,
        "l": qn.l,
        "k": qn.k,
        "beta": params.beta,
        "r0": params.r0,
        "lz": params.lz,
        "S_r": round(rep.s_r, 5),
        "S_p": round(rep.s_p, 5),
        "total": round(rep.total, 5),
        "bbm_bound": round(BBM_BOUND, 5),
        "satisfied": rep.satisfied,
    }


def cmd_state(args) -> int:
    cfg, qn = _one_state(args)
    rep = report(cfg.params, qn)
    _emit([json.dumps(_report_payload(rep)) + "\n"], cfg)
    return 0


def cmd_table(args) -> int:
    """One pass over grid x betas; each row is one record, its JSON entry and its CSV line.

    A record is the state's payload with its --compare-reference values, or an error
    entry; trend_agree and a failed row's bbm_bound and `failed` are CSV cells only.
    """
    cfg = _settings(args)
    columns = ["n", "l", "beta", "S_r", "S_p", "total", "bbm_bound", "satisfied"]
    if args.compare_reference:
        columns += ["ref_S_r", "ref_S_p", "ref_total", "trend_agree"]
    lines, entries = [",".join(columns)], []
    # (n, l) -> (S_p, total, ref_S_p, ref_total) of its last row with a reference
    prev: dict[tuple[int, int], tuple] = {}
    failed = False
    for n, l in cfg.grid:
        for beta in cfg.betas:
            try:
                rep = report(replace(cfg.params, beta=beta), QuantumNumbers(n, l, cfg.k))
            except ConvergenceError as exc:
                failed = True
                entry = {"n": n, "l": l, "beta": beta, "error": str(exc)}
                csv_only = {"bbm_bound": BBM_BOUND, "satisfied": "failed"}
                prev.pop((n, l), None)
            else:
                entry, csv_only = _report_payload(rep), {}
                ref = reference_row(n, l, beta) if args.compare_reference else None
                if ref is not None:
                    entry["ref_S_r"], entry["ref_S_p"], entry["ref_total"] = ref
                    now = (rep.s_p, rep.total, ref[1], ref[2])
                    if (n, l) in prev:
                        # the trends agree if S_p and total rise where the reference's do
                        rises = [b - a > 0 for a, b in zip(prev[(n, l)], now)]
                        csv_only["trend_agree"] = "yes" if rises[:2] == rises[2:] else "no"
                    prev[(n, l)] = now
            entries.append(entry)
            row = {**entry, **csv_only}
            lines.append(",".join(_cell(row.get(column)) for column in columns))
    text = json.dumps(entries, indent=2) if cfg.fmt == "json" else "\n".join(lines)
    _emit([text + "\n"], cfg)
    return 3 if failed else 0


def cmd_density(args) -> int:
    cfg, qn = _one_state(args)
    if not 64 <= args.samples <= 1_000_000:  # checked before any array is allocated
        raise DomainError(f"--samples must lie in [64, 1000000], got {args.samples}")
    state = named("solve", solve, cfg.params, qn)
    # radial marginals from the unit cylinder, trapezoid-normalized to 1: 2 pi Lz rho(r) r
    # = 2 pi rho(x) x / r0 at r = r0 x, and 2 pi rho(p) p = r0 2 pi rho(x) x at p = x / r0
    r0 = cfg.params.r0
    with np.errstate(over="ignore"):  # an overflow is refused below
        if args.space == "position":
            xs = np.linspace(0.0, 1.0, args.samples)
            rho = named("density", state.position_density, xs)
            coords, dens = r0 * xs, 2.0 * math.pi * rho * xs / r0
        else:
            xs, rho = named("density", sample_profile, state, args.samples).T
            coords, dens = xs / r0, r0 * (2.0 * math.pi * rho * xs)
    if not (np.isfinite(coords).all() and np.isfinite(dens).all()):
        raise ConvergenceError(f"density: r0 = {r0!r} overflows the profile")
    # formatted and written _CSV_BLOCK rows at a time by one % call, the header with the
    # first; the columns are interleaved per block, not for the whole array
    blocks = (np.column_stack([coords[i:i + _CSV_BLOCK], dens[i:i + _CSV_BLOCK]])
              for i in range(0, coords.size, _CSV_BLOCK))
    _emit((("" if i else "coordinate,density\n") + "%.5f,%.5f\n" * len(block)
           % tuple(block.ravel().tolist()) for i, block in enumerate(blocks)), cfg)
    return 0


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--out", help="output path (default: stdout)")
    sub.add_argument("--r0", type=float, help="hard-wall radius (default 1)")
    sub.add_argument("--lz", type=float, help="z-box length (default 1)")
    sub.add_argument("--k", type=float, help="longitudinal wavenumber (default 1)")


def _add_one_state(sub):
    sub.add_argument("--n", type=int, required=True, help="radial index (>= 0)")
    sub.add_argument("--l", type=int, required=True, help="angular momentum integer")
    sub.add_argument("--beta", type=float, help="dislocation parameter in [0, 1)")


@functools.cache  # one parser serves every call; it holds no handler
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abtrap",
        description="Hard-wall dislocation eigenstates and their Shannon entropies.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_state = subs.add_parser("state", help="single-state entropy report (JSON)")
    _add_one_state(p_state)
    _add_common(p_state)

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

    p_dens = subs.add_parser("density", help="density profile emission (CSV)")
    p_dens.add_argument("--space", choices=("position", "momentum"), required=True)
    _add_one_state(p_dens)
    p_dens.add_argument("--samples", type=int, default=512, help="grid size (default 512)")
    _add_common(p_dens)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        # the command is looked up when called, so that a tracer can rebind it
        return globals()[f"cmd_{args.command}"](args)
    except (DomainError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, DomainError) else 3


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
