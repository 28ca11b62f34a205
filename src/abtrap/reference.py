"""Embedded reference data for the default sweep.

`_REFERENCE_ROWS` holds published reference values of the two entropies for
the standard (n, l, beta) grid of this system. The absolute values embed a
parameter set (mass, wavenumber, wall radius, z normalization) that is not
part of this package's defaults, so they are used for trend comparison only,
never for absolute assertions. The default sweep is the published grid: its
(n, l) points and betas are read from the keys, in their order.
"""

from __future__ import annotations

__all__ = ["TABLE_BETAS", "default_grid_points", "reference_row"]

# (n, l, beta) -> (S_r, S_p, S_r + S_p), verbatim as published
_REFERENCE_ROWS: dict[tuple[int, int, float], tuple[float, float, float]] = {
    (0, 0, 0.2): (9.74631, 0.06678, 9.81309),
    (0, 0, 0.4): (9.74262, 0.07558, 9.81821),
    (0, 0, 0.8): (9.74040, 0.12158, 9.86199),
    (1, -1, 0.2): (9.74435, 0.05526, 9.79961),
    (1, -1, 0.4): (9.74424, 0.10408, 9.84832),
    (1, -1, 0.8): (9.74387, 0.29596, 10.03984),
    (1, 0, 0.2): (9.74483, 0.00770, 9.75254),
    (1, 0, 0.4): (9.74439, 0.10381, 9.84821),
    (1, 0, 0.8): (9.74353, 0.29641, 10.03991),
    (1, 1, 0.2): (9.74410, 0.01640, 9.76050),
    (1, 1, 0.4): (9.74377, 0.13777, 9.88154),
    (1, 1, 0.8): (9.74312, 0.29938, 10.04251),
    (2, -2, 0.2): (9.74461, 0.02251, 9.76713),
    (2, -2, 0.4): (9.74329, 0.22803, 9.97133),
    (2, -2, 0.8): (9.74277, 0.35949, 10.10231),
    (2, -1, 0.2): (9.74518, 0.02720, 9.77238),
    (2, -1, 0.4): (9.74361, 0.25583, 9.99944),
    (2, -1, 0.8): (9.74301, 0.48609, 10.22910),
    (2, 0, 0.2): (9.74482, 0.04111, 9.78593),
    (2, 0, 0.4): (9.74370, 0.25717, 10.00091),
    (2, 0, 0.8): (9.74317, 0.52424, 10.26742),
    (2, 1, 0.2): (9.74435, 0.04188, 9.78623),
    (2, 1, 0.4): (9.74335, 0.35605, 10.09942),
    (2, 1, 0.8): (9.74291, 0.85920, 10.60214),
    (2, 2, 0.2): (9.74399, 0.07462, 9.81861),
    (2, 2, 0.4): (9.74311, 0.44406, 10.18722),
    (2, 2, 0.8): (9.74272, 0.91082, 10.65351),
}

TABLE_BETAS: tuple[float, ...] = tuple(dict.fromkeys(beta for _, _, beta in _REFERENCE_ROWS))


def reference_row(n: int, l: int, beta: float):
    """Published (S_r, S_p, total) for a grid point, or None if absent."""
    return _REFERENCE_ROWS.get((n, l, round(float(beta), 10)))


def default_grid_points() -> list[tuple[int, int]]:
    """The (n, l) combinations of the default sweep, in emission order."""
    return list(dict.fromkeys((n, l) for n, l, _ in _REFERENCE_ROWS))
