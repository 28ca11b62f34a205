import importlib.util
from pathlib import Path

import pytest

import abtrap
from abtrap.eigen import QuantumNumbers, SystemParams, solve
from abtrap.entropy import shannon_momentum, shannon_position
from abtrap.momentum import build_profile
from abtrap.reference import TABLE_BETAS, default_grid_points

BENCH_SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


class Pipeline:
    """One fully-solved state: eigenstate, momentum profile, entropies."""

    def __init__(self, n, l, beta, k=1.0, r0=1.0, lz=1.0):
        self.params = SystemParams(beta=beta, r0=r0, lz=lz)
        self.qn = QuantumNumbers(n, l, k)
        self.state = solve(self.params, self.qn)
        self.profile = build_profile(self.state)
        self.s_r = shannon_position(self.state)
        self.s_p = shannon_momentum(self.profile)
        self.total = self.s_r + self.s_p


@pytest.fixture(scope="session")
def ground_pipeline():
    return Pipeline(0, 0, 0.2)


@pytest.fixture(scope="session")
def grid_pipelines():
    """All 27 default-grid states; shared by the acceptance criteria."""
    import time

    t0 = time.perf_counter()
    out = {}
    for n, l in default_grid_points():
        for beta in TABLE_BETAS:
            out[(n, l, beta)] = Pipeline(n, l, beta)
    out_elapsed = time.perf_counter() - t0
    out["elapsed_seconds"] = out_elapsed
    return out


@pytest.fixture
def bench_tracer():
    """The benchmark's tracer over the package, not yet installed."""
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH_SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.Tracer(abtrap)
