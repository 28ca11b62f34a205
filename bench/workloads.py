"""The benchmark's fixed inputs and the seeded spectrum draw.

All states use the CLI defaults m = r0 = lz = 1 and, for table and density,
k = 1. Each list is in the emission order of `abtrap table`.
"""

from __future__ import annotations

import numpy as np


def _state(n: int, l: int, beta: float, k: float = 1.0) -> dict:
    return {"n": n, "l": l, "beta": beta, "k": k}


# An 11-call slice of `abtrap table --betas 0 0.2 0.4 0.8` (36 calls, about
# 65 s on 2 cores): four beta = 0 rows, the only ones with an independent S_p
# reference; the two slowest rows, (1,1,0.8) and (2,1,0.8), with the largest
# p_max; and five typical rows across n and beta.
TABLE_STATES = [
    _state(0, 0, 0.0), _state(0, 0, 0.2),
    _state(1, -1, 0.8), _state(1, 1, 0.0), _state(1, 1, 0.8),
    _state(2, -2, 0.0), _state(2, -2, 0.4), _state(2, 0, 0.0), _state(2, 0, 0.2),
    _state(2, 1, 0.8), _state(2, 2, 0.8),
]

# `abtrap density --space momentum --samples 4096` on three beta = 0 states
# (checked against the Lommel closed form) and three beta > 0 states.
DENSITY_STATES = [
    _state(0, 0, 0.0), _state(0, 0, 0.2), _state(1, 0, 0.4),
    _state(1, 1, 0.0), _state(2, -2, 0.0), _state(2, -2, 0.4),
]
DENSITY_SAMPLES = 4096

# spectrum pool: n in 0..10, l in -10..10, beta in [0, 0.95], k in [-10, 10]
SPECTRUM_POOL_SEED = 2212
SPECTRUM_POOL_PER_N = 48
SPECTRUM_BINS_PER_N = 10


def spectrum_draw(pool: list[dict], seed: int) -> list[dict]:
    """One state from each nu-bin of each n-stratum, picked by `seed`.

    Stratifying on n and the Bessel order nu, the two inputs that set the
    cost of a state, keeps the draw's cost profile close across seeds while
    every seed still runs different states.
    """
    rng = np.random.default_rng(seed)
    draw = []
    for n in sorted({s["n"] for s in pool}):
        stratum = sorted(
            (s for s in pool if s["n"] == n), key=lambda s: abs(s["l"] - s["beta"] * s["k"])
        )
        for part in np.array_split(np.arange(len(stratum)), SPECTRUM_BINS_PER_N):
            draw.append(stratum[int(rng.choice(part))])
    rng.shuffle(draw)
    return draw
