"""Layered benchmark of the abtrap pipeline.

    python3 bench/run.py --workload table --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; abtrap is imported from ./src.
Workloads (see workloads.py and README.md):

  table     11 fixed `report()` calls from `abtrap table --betas 0 0.2 0.4 0.8`
  spectrum  a seeded, stratified draw of 110 states through solve + shannon_position
  density   `abtrap density --space momentum --samples 4096` via cli.main on 6 states

A run repeats passes over its inputs while another pass fits in --seconds
(at least one pass), starting each invocation with a cold bessel_zero cache.
Untraced times are wall times scaled to the host's nominal speed by a probe
sampled during the pass (see HostSpeed); the wall times are kept in the
detail line. Every output is checked against bench/data. The last stdout
line is the result: with --trace 0 the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run. The line before it holds the environment,
the accuracy breakdown and the raw timings.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP pools before numpy loads: one process, one thread
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from workloads import (
    DENSITY_SAMPLES,
    DENSITY_STATES,
    TABLE_STATES,
    spectrum_draw,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("table", "spectrum", "density")
SETUP_REPEATS = 9
SETUP_CODE = "import abtrap.cli; abtrap.cli.build_parser()"
# host-speed probe: a fixed numpy kernel timed every PROBE_INTERVAL_S; its
# time in the host's fast phase (2-vCPU Xeon) is PROBE_NOMINAL_S
PROBE_INTERVAL_S = 0.1
PROBE_WINDOW_S = 0.5
PROBE_NOMINAL_S = 0.0013

# a state fails its check beyond these errors
THETA_REL_TOL = 1e-12
SR_TOL = 5e-6           # half the printed ulp
SP_TOL = 5e-5           # admits the planned ~1.6e-5 tail correction plus rounding
DENSITY_TOL = 5e-5
DENSITY_NORM_TOL = 1e-3
DIGITS_FLOOR = 1e-17    # error floor so that an exact match scores 17 digits
TAIL_WARNING = "truncated momentum tail"


def digits(err: float) -> float:
    return -math.log10(max(err, DIGITS_FLOOR))


def tail_stat(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with at
    least ten samples beyond it; the maximum when there are fewer than 21
    samples, where that percentile would not lie above the median."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


# -- environment -------------------------------------------------------------


def load_abtrap():
    if not (SRC / "abtrap" / "__init__.py").is_file():
        raise SystemExit(f"error: no abtrap sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import abtrap
    import abtrap.cli  # noqa: F401  (not imported by the package itself)

    if Path(abtrap.__file__).resolve().parent != (SRC / "abtrap").resolve():
        raise SystemExit(f"error: imported abtrap from {abtrap.__file__}, not {SRC}")
    return abtrap


def environment(workload: str, seed: int, states: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "abtrap").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "blas_threads": BLAS_THREADS,
        "workload": workload,
        "seed": seed,
        "states": states,
    }


def _probe_kernel() -> None:
    a, b = np.linspace(0.0, 1.0, 16), np.zeros(16)
    for _ in range(40):  # small-array recurrence, like the Miller and GK15 loops
        a, b = np.cos(a) + 0.5 * b, a
    big = np.linspace(0.0, 100.0, 20_000)
    for _ in range(3):  # larger-array elementwise work, like the momentum outer products
        np.cos(big) * np.sqrt(big + 1.0)


def host_slowdown(repeats: int = 5) -> float:
    """Median probe time now over its nominal time (> 1: the host is slow)."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _probe_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / PROBE_NOMINAL_S


class HostSpeed:
    """Samples the host's speed from a SIGALRM timer while a pass runs.

    Co-tenants of a shared host slow this process by up to 2x, in phases of
    seconds. Each sample times the probe kernel in the main thread. A state's
    wall time, minus the time spent sampling, is divided by the mean slowdown
    of the samples taken within PROBE_WINDOW_S of it.
    """

    def __init__(self):
        self.at: list[float] = []
        self.slowdowns: list[float] = []
        self.spent = 0.0

    def _sample(self, *_):
        t0 = time.perf_counter()
        _probe_kernel()
        t1 = time.perf_counter()
        self.at.append(t1)
        self.slowdowns.append((t1 - t0) / PROBE_NOMINAL_S)
        self.spent += t1 - t0

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def scaled(self, spans: list[tuple[float, float, float, float]]) -> list[float]:
        """Scaled seconds of (start, end, sampling seconds at start, at end) spans."""
        at = np.asarray(self.at)
        slowdowns = np.asarray(self.slowdowns)
        out = []
        for t0, t1, spent0, spent1 in spans:
            near = (at >= t0 - PROBE_WINDOW_S) & (at <= t1 + PROBE_WINDOW_S)
            out.append((t1 - t0 - (spent1 - spent0)) / float(np.mean(slowdowns[near])))
        return out


def measure_setup() -> float:
    """Median time for a fresh interpreter to import abtrap.cli and build the parser."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    cmd = [sys.executable, "-c", SETUP_CODE]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # warm the bytecode cache
    times = []
    before = host_slowdown()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        elapsed = time.perf_counter() - t0
        after = host_slowdown()
        times.append(elapsed / (0.5 * (before + after)))
        before = after
    return statistics.median(times)


# -- workloads ---------------------------------------------------------------


class Runner:
    """Runs one workload's passes; outputs of the last pass are kept for checking."""

    def __init__(self, abtrap, workload: str, states: list[dict], tracer=None):
        self.abtrap = abtrap
        self.workload = workload
        self.states = states
        self.tracer = tracer
        self.bessel_zero = abtrap.specfun.bessel_zero  # the lru_cache object itself
        self.cache_hits = 0
        self.cache_misses = 0
        self.tail_warnings = 0

    def cold_cache(self) -> None:
        info = self.bessel_zero.cache_info()
        self.cache_hits += info.hits
        self.cache_misses += info.misses
        self.bessel_zero.cache_clear()

    def call(self, state: dict):
        """The timed unit of work for one state; looks names up at call time."""
        a = self.abtrap
        params = a.eigen.SystemParams(beta=state["beta"])
        qn = a.eigen.QuantumNumbers(state["n"], state["l"], state["k"])
        if self.workload == "table":
            return a.entropy.report(params, qn)
        if self.workload == "spectrum":
            eig = a.eigen.solve(params, qn)
            return eig.theta, a.entropy.shannon_position(eig)
        self.cold_cache()  # each `abtrap density` is its own invocation
        argv = [
            "density", "--space", "momentum", "--n", str(state["n"]), "--l", str(state["l"]),
            "--beta", repr(state["beta"]), "--samples", str(DENSITY_SAMPLES),
        ]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = a.cli.main(argv)
        return code, buf.getvalue()

    def one_pass(self) -> tuple[list[float], list[float], list]:
        """Wall and host-speed-scaled seconds per state, and the outputs.

        Traced passes are not scaled: the probe would run inside the spans.
        """
        outputs, spans = [], []
        self.cold_cache()
        probe = HostSpeed() if self.tracer is None else None
        with probe or contextlib.nullcontext(), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for i, state in enumerate(self.states):
                seen = len(caught)
                scope = self.tracer.root(i) if self.tracer else contextlib.nullcontext()
                spent0 = probe.spent if probe else 0.0
                t0 = time.perf_counter()
                with scope:
                    try:
                        out = self.call(state)
                    except Exception as exc:  # a failing state is counted, not fatal
                        out = exc
                t1 = time.perf_counter()
                spans.append((t0, t1, spent0, probe.spent if probe else 0.0))
                outputs.append(out)
                self.tail_warnings += any(TAIL_WARNING in str(w.message) for w in caught[seen:])
        self.cold_cache()
        wall = [t1 - t0 for t0, t1, _, _ in spans]
        return wall, probe.scaled(spans) if probe else wall, outputs

    def run(self, seconds: float) -> dict:
        """Passes while another one fits in `seconds` (at least one); per-state medians."""
        wall, scaled, outputs = [], [], None
        t_start = time.perf_counter()
        while True:
            w, sc, outputs = self.one_pass()
            wall.append(w)
            scaled.append(sc)
            pass_s = statistics.median(sum(p) for p in wall)
            if time.perf_counter() - t_start + pass_s > seconds:
                break
        return {
            "wall_pass_s": [sum(p) for p in wall],
            "pass_s": [sum(p) for p in scaled],
            "state_s": [statistics.median(col) for col in zip(*scaled)],
            "outputs": outputs,
        }


# -- checks ------------------------------------------------------------------


def seed_table_sp() -> dict[tuple[int, int, float], float]:
    with open(BENCH / "data" / "seed_table.csv", newline="") as fh:
        return {
            (int(r["n"]), int(r["l"]), float(r["beta"])): float(r["S_p"])
            for r in csv.DictReader(fh)
        }


def ref_key(s: dict) -> tuple:
    return (s["n"], s["l"], s["beta"], s["k"])


def parse_density(text: str) -> np.ndarray | None:
    """(coordinate, density) rows of `abtrap density` output, or None if malformed."""
    lines = text.splitlines()
    if not lines or lines[0] != "coordinate,density" or len(lines) <= DENSITY_SAMPLES // 2:
        return None
    try:
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    except ValueError:
        return None
    return rows if rows.ndim == 2 and rows.shape[1] == 2 else None


def check(abtrap, workload: str, states: list[dict], outputs: list, refs: dict) -> tuple[list, dict]:
    """Per-state failure reasons and the accuracy breakdown of the workload."""
    from lommel import printed_density  # scipy: imported after the timed passes

    ref_of = {ref_key(r): r for r in refs[workload if workload != "spectrum" else "spectrum_pool"]}
    gate = seed_table_sp() if workload == "table" else {}
    errs = {"theta": [], "s_r": [], "s_p": [], "density": [], "s_p_gate": []}
    failures = []
    for state, out in zip(states, outputs):
        ref = ref_of[ref_key(state)]
        reasons = []
        if isinstance(out, Exception):
            failures.append((state, f"raised {out!r}"))
            continue
        params = abtrap.eigen.SystemParams(beta=state["beta"])
        qn = abtrap.eigen.QuantumNumbers(state["n"], state["l"], state["k"])
        if workload == "table":
            theta, s_r = abtrap.eigen.solve(params, qn).theta, out.s_r
            if not out.satisfied:
                reasons.append("BBM bound reported unsatisfied")
            if state["beta"] == 0.0:
                err = abs(out.s_p - ref["s_p"])
                errs["s_p"].append(err)
            else:
                err = abs(out.s_p - gate[(state["n"], state["l"], state["beta"])])
                errs["s_p_gate"].append(err)
            if err > SP_TOL:
                reasons.append(f"S_p off by {err:.2e}")
        elif workload == "spectrum":
            theta, s_r = out
        else:
            theta = s_r = None
            code, text = out
            rows = parse_density(text) if code == 0 else None
            if rows is None:
                reasons.append(f"exit code {code} or malformed output")
            else:
                p, dens = rows[:, 0], rows[:, 1]
                if np.any(np.diff(p) <= 0.0) or np.any(dens < 0.0):
                    reasons.append("coordinates not increasing or negative density")
                norm = float(np.sum(0.5 * (dens[1:] + dens[:-1]) * np.diff(p)))
                if abs(norm - 1.0) > DENSITY_NORM_TOL:
                    reasons.append(f"density integrates to {norm:.6f}")
                if state["beta"] == 0.0:
                    err = float(np.max(np.abs(dens - printed_density(p, abs(state["l"]), ref["theta"]))))
                    errs["density"].append(err)
                    if err > DENSITY_TOL:
                        reasons.append(f"density off by {err:.2e}")
        if theta is not None:
            rel = abs(theta - ref["theta"]) / ref["theta"]
            errs["theta"].append(rel)
            if rel > THETA_REL_TOL:
                reasons.append(f"Theta off by {rel:.2e} relative")
            err = abs(s_r - ref["s_r"])
            errs["s_r"].append(err)
            if err > SR_TOL:
                reasons.append(f"S_r off by {err:.2e}")
        if reasons:
            failures.append((state, "; ".join(reasons)))
    accuracy = {
        f"{name}_digits": digits(max(values))
        for name, values in (("theta", errs["theta"]), ("sr", errs["s_r"]),
                             ("sp", errs["s_p"]), ("density", errs["density"]))
        if values
    }
    if errs["s_p_gate"]:
        accuracy["sp_gate_max_err"] = max(errs["s_p_gate"])
    return failures, accuracy


# -- metrics -----------------------------------------------------------------


def layer_metrics(tracer, runner: Runner, result: dict) -> dict:
    """Per-layer metrics, per pass, from the traced run."""
    npass = len(result["pass_s"])
    own = tracer.self_times()
    total = tracer.total_times()
    calls = tracer.calls()
    c = tracer.counts

    def per_pass(value):
        return value / npass

    def self_s(*names):
        return per_pass(sum(own.get(n, 0.0) for n in names))

    def total_s(name):
        return per_pass(total.get(name, 0.0))

    points = c.get("specfun.bessel_j.points", 0.0)
    j_calls = calls.get("specfun.bessel_j", 0)
    j_self = own.get("specfun.bessel_j", 0.0)
    lookups = runner.cache_hits + runner.cache_misses
    p_max = [p for p, _ in tracer.profiles]
    deficits = [1.0 - norm for _, norm in tracer.profiles]
    layers = [n for n in own if not n.startswith("bench.")]
    m = {
        "specfun.bessel_j.calls": (per_pass(j_calls), "count"),
        "specfun.bessel_j.points": (per_pass(points), "count"),
        "specfun.bessel_j.points_series": (per_pass(c.get("specfun.bessel_j.points_series", 0.0)), "count"),
        "specfun.bessel_j.points_miller": (per_pass(c.get("specfun.bessel_j.points_miller", 0.0)), "count"),
        "specfun.bessel_j.points_hankel": (per_pass(c.get("specfun.bessel_j.points_hankel", 0.0)), "count"),
        "specfun.bessel_j.points_per_call": (points / j_calls if j_calls else 0.0, "points/call"),
        "specfun.bessel_j.self_s": (self_s("specfun.bessel_j"), "s"),
        "specfun.bessel_j.ns_per_point": (1e9 * j_self / points if points else 0.0, "ns/point"),
        "specfun.bessel_zero.calls": (per_pass(calls.get("specfun.bessel_zero", 0)), "count"),
        "specfun.bessel_zero.self_s": (self_s("specfun.bessel_zero"), "s"),
        "specfun.bessel_zero.cache_hit_ratio": (runner.cache_hits / lookups if lookups else 0.0, "ratio"),
        "quadrature.integrate_adaptive.calls": (per_pass(calls.get("quadrature.integrate_adaptive", 0)), "count"),
        "quadrature.integrate_adaptive.evaluations": (
            per_pass(c.get("quadrature.integrate_adaptive.evaluations", 0.0)), "count"),
        "quadrature.integrate_adaptive.self_s": (self_s("quadrature.integrate_adaptive"), "s"),
        "quadrature.integrate_adaptive.failed": (per_pass(c.get("quadrature.integrate_adaptive.failed", 0.0)), "count"),
        "quadrature.integrate_oscillatory.self_s": (self_s("quadrature.integrate_oscillatory"), "s"),
        "eigen.solve.self_s": (self_s("eigen.solve"), "s"),
        "eigen.solve.total_s": (total_s("eigen.solve"), "s"),
        "momentum.build_profile.self_s": (self_s("momentum.build_profile"), "s"),
        "momentum.build_profile.total_s": (total_s("momentum.build_profile"), "s"),
        "momentum.build_profile.bessel_points": (per_pass(c.get("momentum.build_profile.bessel_points", 0.0)), "count"),
        "momentum.p_max_max": (max(p_max, default=0.0), "1/length"),
        "momentum.p_max_mean": (statistics.fmean(p_max) if p_max else 0.0, "1/length"),
        "momentum.norm_deficit_max": (max(deficits, default=0.0), "ratio"),
        "entropy.shannon_position.self_s": (self_s("entropy.shannon_position"), "s"),
        "entropy.shannon_position.total_s": (total_s("entropy.shannon_position"), "s"),
        "entropy.shannon_momentum.self_s": (self_s("entropy.shannon_momentum"), "s"),
        "entropy.shannon_momentum.total_s": (total_s("entropy.shannon_momentum"), "s"),
        "entropy.shannon_momentum.bessel_points": (
            per_pass(c.get("entropy.shannon_momentum.bessel_points", 0.0)), "count"),
        "entropy.report.self_s": (self_s("entropy.report"), "s"),
        "entropy.tail_warnings": (runner.tail_warnings / (npass * len(runner.states)), "ratio"),
        "cli.self_s": (self_s(*(n for n in own if n.startswith("cli."))), "s"),
        "trace.run_s": (statistics.median(result["wall_pass_s"]), "s"),
        "trace.self_sum_s": (self_s(*layers), "s"),
        "trace.harness_self_s": (self_s("bench.state"), "s"),
        "trace.spans": (per_pass(len(tracer.kind)), "count"),
        "trace.overhead_s": (per_pass(tracer.overhead_estimate()), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    abtrap = load_abtrap()
    refs = json.loads((BENCH / "data" / "references.json").read_text())
    if args.workload == "table":
        states = TABLE_STATES
    elif args.workload == "density":
        states = DENSITY_STATES
    else:
        states = spectrum_draw(refs["spectrum_pool"], args.seed)

    setup_s = None if args.trace else measure_setup()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer(abtrap)
    runner = Runner(abtrap, args.workload, states, tracer)  # before install: keeps the lru object
    if tracer:
        tracer.install()
    try:
        result = runner.run(args.seconds)
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures, accuracy = check(abtrap, args.workload, states, result["outputs"], refs)
    p50 = statistics.median(result["state_s"])
    tail, percentile, beyond = tail_stat(result["state_s"])
    detail = {
        "env": environment(args.workload, args.seed, len(states)),
        "pass_s": result["pass_s"],
        "wall_pass_s": result["wall_pass_s"],
        "state_s_tail": {"percentile": percentile, "samples_beyond": beyond, "samples": len(states)},
        "accuracy": accuracy,
        "tail_warning_share": runner.tail_warnings / (len(result["pass_s"]) * len(states)),
        "failures": [{"state": s, "reason": r} for s, r in failures],
    }
    if tracer:
        metrics = layer_metrics(tracer, runner, result)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.npz"
        tracer.save(trace_path)
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        min_digits = min((v for k, v in accuracy.items() if k.endswith("_digits")), default=0.0)
        metrics = {
            "run_s": {"value": statistics.median(result["pass_s"]), "unit": "s"},
            "state_s_p50": {"value": p50, "unit": "s"},
            "state_s_tail": {"value": tail, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "min_digits": {"value": min_digits, "unit": "digits"},
        }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(states),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
