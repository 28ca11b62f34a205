"""In-memory span tracer that wraps abtrap's public functions from outside.

Each traced function is replaced, in every module that binds it, by one
wrapper that records a span: name, start, end, parent span and state id.
A layer's self time is its spans' duration minus the part its child spans
cover. Counters (Bessel points by branch, quadrature evaluations, profile
truncation) are taken at the same boundaries.
"""

from __future__ import annotations

import contextlib
import math
import time
from array import array
from pathlib import Path

import numpy as np

# defining module -> public functions traced in it
TRACED = {
    "specfun": ("bessel_j", "bessel_zero"),
    "quadrature": ("integrate_adaptive", "integrate_oscillatory"),
    "eigen": ("solve",),
    "momentum": ("build_profile",),
    "entropy": ("shannon_position", "shannon_momentum", "report"),
    "cli": ("main", "cmd_state", "cmd_table", "cmd_density"),
}
# modules whose bindings are rewritten (every module that imports a traced name)
BINDERS = ("specfun", "quadrature", "eigen", "momentum", "entropy", "cli")
# spans whose Bessel points are counted separately
POINT_OWNERS = ("momentum.build_profile", "entropy.shannon_momentum")


def _noop():
    return None


class Tracer:
    """Spans and counters of one traced run of `package` (the imported abtrap)."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.kind = array("i")
        self.parent = array("i")
        self.state = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.depth: list[int] = []
        self.state_id = -1
        self.counts: dict[str, float] = {}
        self.profiles: list[tuple[float, float]] = []
        self._undo: list[tuple[object, str, object]] = []
        self._point_owner_ids: list[int] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.depth.append(0)
        return self.names.index(name)

    def _add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def _open(self, nid: int) -> int:
        idx = len(self.kind)
        self.kind.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.state.append(self.state_id)
        self.end.append(math.nan)
        self.stack.append(idx)
        self.depth[nid] += 1
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, nid: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()
        self.depth[nid] -= 1

    def span(self, name: str, fn, after=None):
        """Wrap fn so that each call records a span; `after(args, result)` runs inside it."""
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            except Exception:
                self._add(name + ".failed", 1)
                raise
            finally:
                self._close(idx, nid)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def root(self, state_id: int):
        """The benchmark's own span around one state."""
        self.state_id = state_id
        nid = self._name_id("bench.state")
        idx = self._open(nid)
        try:
            yield
        finally:
            self._close(idx, nid)

    # -- hooks ---------------------------------------------------------------

    def _bessel_points(self, args, _result):
        nu = float(args[0])
        x = np.asarray(args[1], dtype=float)
        specfun = self.package.specfun
        points = x.size
        series = int(np.count_nonzero(x <= specfun.series_cutoff(nu)))
        hankel = int(np.count_nonzero(x >= specfun.asymptotic_cutoff(nu)))
        self._add("specfun.bessel_j.points", points)
        self._add("specfun.bessel_j.points_series", series)
        self._add("specfun.bessel_j.points_hankel", hankel)
        self._add("specfun.bessel_j.points_miller", points - series - hankel)
        for nid in self._point_owner_ids:
            if self.depth[nid]:
                self._add(self.names[nid] + ".bessel_points", points)

    def _quad_evaluations(self, _args, result):
        self._add("quadrature.integrate_adaptive.evaluations", result.evaluations)

    def _profile(self, _args, profile):
        self.profiles.append((profile.p_max, profile.captured_norm))

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "specfun.bessel_j": self._bessel_points,
            "quadrature.integrate_adaptive": self._quad_evaluations,
            "momentum.build_profile": self._profile,
        }
        modules = [getattr(self.package, m) for m in BINDERS] + [self.package]
        for owner, fnames in TRACED.items():
            for fname in fnames:
                original = getattr(getattr(self.package, owner), fname)
                name = f"{owner}.{fname}"
                wrapper = self.span(name, original, hooks.get(name))
                for module in modules:
                    if getattr(module, fname, None) is original:
                        self._undo.append((module, fname, original))
                        setattr(module, fname, wrapper)
        self._point_owner_ids = [self._name_id(n) for n in POINT_OWNERS]

    def uninstall(self) -> None:
        for module, fname, original in reversed(self._undo):
            setattr(module, fname, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "kind": np.frombuffer(self.kind, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "state": np.frombuffer(self.state, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name: duration minus child spans."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = np.bincount(a["kind"], weights=dur - child, minlength=len(self.names))
        return {name: float(own[i]) for i, name in enumerate(self.names)}

    def total_times(self) -> dict[str, float]:
        """Seconds inside spans of each name, children included (no name nests in itself)."""
        a = self.arrays()
        total = np.bincount(a["kind"], weights=a["end"] - a["start"], minlength=len(self.names))
        return {name: float(total[i]) for i, name in enumerate(self.names)}

    def calls(self) -> dict[str, int]:
        counts = np.bincount(np.frombuffer(self.kind, dtype=np.int32), minlength=len(self.names))
        return {name: int(counts[i]) for i, name in enumerate(self.names)}

    def overhead_estimate(self, calls: int = 20_000) -> float:
        """Seconds the wrappers added to the recorded spans, timed on stand-ins.

        Each span costs one empty wrapper call; each Bessel call also costs
        the branch count on an array of the mean batch size.
        """
        stand_in = Tracer(self.package)
        wrapped = stand_in.span("stand-in", _noop)
        t0 = time.perf_counter()
        for _ in range(calls):
            _noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        per_span = max((t2 - t1) - (t1 - t0), 0.0) / calls
        bessel = self.calls().get("specfun.bessel_j", 0)
        points = self.counts.get("specfun.bessel_j.points", 0.0)
        per_bessel = 0.0
        if bessel:
            args = (0.5, np.linspace(0.0, 50.0, max(1, round(points / bessel))))
            repeats = 200
            t0 = time.perf_counter()
            for _ in range(repeats):
                stand_in._bessel_points(args, None)
            per_bessel = (time.perf_counter() - t0) / repeats
        return len(self.kind) * per_span + bessel * per_bessel

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())
