"""Generate the benchmark's independent reference data.

    python3 bench/refgen.py            # writes bench/data/references.json

Theta comes from mpmath.besseljzero and S_r from mpmath.quad on the exact
density a0^2 J_nu(Theta r / r0)^2, split at the radial nodes. For beta = 0
states S_p comes from the Lommel closed form in `lommel.py`, integrated with
scipy Bessel values to p = 2e5. Nothing here imports abtrap.

The spectrum pool is drawn once from a fixed generator seed; `run.py` draws
each run's states from it. The pool is stratified by radial index n, the
input that most sets the cost of `solve` + `shannon_position`.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import mpmath as mp
import numpy as np
import scipy

import lommel
from workloads import DENSITY_STATES, SPECTRUM_POOL_PER_N, SPECTRUM_POOL_SEED, TABLE_STATES

DPS = 25
OUT = Path(__file__).resolve().parent / "data" / "references.json"


def theta_and_entropy(nu: float, n: int, r0: float = 1.0, lz: float = 1.0) -> tuple[float, float]:
    """(Theta, S_r) of the state with Bessel order nu and radial index n."""
    with mp.workdps(DPS):
        nu = mp.mpf(nu)
        zeros = [mp.besseljzero(nu, i) for i in range(1, n + 2)]
        theta = zeros[-1]
        j1 = mp.besselj(nu + 1, theta)
        a0_sq = 1 / (2 * mp.pi * lz * (mp.mpf(r0) ** 2 / 2) * j1**2)

        def integrand(r):
            rho = a0_sq * mp.besselj(nu, theta * r / r0) ** 2
            return rho * mp.log(rho) * r if rho > 0 else mp.mpf(0)

        edges = [mp.mpf(0), *[r0 * z / theta for z in zeros[:-1]], mp.mpf(r0)]
        s_r = -2 * mp.pi * lz * mp.quad(integrand, edges)
        return float(theta), float(s_r)


def spectrum_pool() -> list[dict]:
    rng = np.random.default_rng(SPECTRUM_POOL_SEED)
    pool = []
    for n in range(11):
        for _ in range(SPECTRUM_POOL_PER_N):
            pool.append({
                "n": n,
                "l": int(rng.integers(-10, 11)),
                "beta": float(rng.uniform(0.0, 0.95)),
                "k": float(rng.uniform(-10.0, 10.0)),
            })
    return pool


def with_references(state: dict, momentum: bool = False) -> dict:
    nu = abs(state["l"] - state["beta"] * state["k"])
    theta, s_r = theta_and_entropy(nu, state["n"])
    out = {**state, "theta": theta, "s_r": s_r}
    if momentum and state["beta"] == 0.0:
        norm, s_p = lommel.momentum_entropy(abs(state["l"]), theta)
        if abs(norm - 1.0) > 1e-12:
            raise SystemExit(f"Lommel norm {norm!r} for {state} is not 1")
        out["s_p"] = s_p
    return out


def main() -> int:
    t0 = time.perf_counter()
    table = [with_references(s, momentum=True) for s in TABLE_STATES]
    density = [with_references(s) for s in DENSITY_STATES]
    pool = []
    for i, state in enumerate(spectrum_pool()):
        pool.append(with_references(state))
        if i % 50 == 0:
            print(f"pool {i} ({time.perf_counter() - t0:.0f} s)", file=sys.stderr)
    data = {
        "generated_by": "python3 bench/refgen.py",
        "versions": {"mpmath": mp.__version__, "scipy": scipy.__version__, "numpy": np.__version__},
        "mpmath_dps": DPS,
        "table": table,
        "density": density,
        "spectrum_pool": pool,
    }
    OUT.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {OUT} in {time.perf_counter() - t0:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
