"""Built-in example spaces.

Each builder returns (space, info) where info carries the analysis
parameters that make sense for the geometry: the growth order m, the
smoothness order tau, the ambient regularity dimension n_dim and the name
of the natural kernel.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from .errors import UnknownExample
from .space import MetricMeasureSpace, euclidean_metric


def line_in_plane(n: int = 13) -> tuple:
    """n x n grid in the unit square; mu lives on the middle horizontal
    line (one-dimensional growth inside a two-dimensional ambient space),
    omega is a thin slab around that line."""
    if n < 3 or n % 2 == 0:
        raise ValueError("need an odd grid side of at least 3")
    ticks = np.linspace(0.0, 1.0, n)
    coords = np.stack(np.meshgrid(ticks, ticks), -1).reshape(-1, 2)
    spacing = 1.0 / (n - 1)
    y_mid = ticks[n // 2]
    on_line = np.isclose(coords[:, 1], y_mid)
    mu = np.where(on_line, spacing / 4.0, 0.0)
    nu = np.full(len(coords), spacing ** 2)
    omega = np.abs(coords[:, 1] - y_mid) < 1.5 * spacing
    space = MetricMeasureSpace(rho=euclidean_metric(coords), nu=nu, mu=mu,
                               omega=omega, quasi_const=1.0, coords=coords)
    info = {"m": 1.0, "tau": 1.0, "n_dim": 2.0, "kernel": "power",
            "kappa": 0.5}
    return space, info


def cantor_measure(level: int = 5) -> tuple:
    """Midpoints of the level-``level`` intervals of the middle-thirds
    Cantor set, carrying the natural measure of dimension log2/log3."""
    if level < 0:
        raise ValueError("level must be nonnegative")
    m = math.log(2.0) / math.log(3.0)
    lefts = np.array([0.0])
    width = 1.0
    for _ in range(level):
        width /= 3.0
        lefts = np.concatenate([lefts, lefts + 2.0 * width])
    lefts.sort()
    xs = lefts + width / 2.0
    coords = np.column_stack([xs, np.zeros_like(xs)])
    mass = 0.5 / len(xs)     # half the natural mass, headroom for the gate
    mu = np.full(len(xs), mass)
    omega = np.ones(len(xs), dtype=bool) if level == 0 \
        else np.zeros(len(xs), dtype=bool)
    space = MetricMeasureSpace(rho=euclidean_metric(coords), nu=mu.copy(),
                               mu=mu, omega=omega, quasi_const=1.0,
                               coords=coords)
    info = {"m": m, "tau": m, "n_dim": m, "kernel": "power", "kappa": 0.5}
    return space, info


def bergman_disc_model(n_ring: int = 48, n_cluster: int = 8,
                       n_boundary: int = 24) -> tuple:
    """Points in the closed unit disc: mu sits on a ring near the boundary
    plus a tight cluster (genuine non-Ahlfors balls at small scales, all
    inside omega), the boundary circle carries the complement of omega."""
    pts = [(0.0, 0.0)]
    for radius, count in ((0.3, 8), (0.55, 14)):
        ang = np.linspace(0, 2 * math.pi, count, endpoint=False)
        pts.extend(zip(radius * np.cos(ang), radius * np.sin(ang)))
    n_filler = len(pts)
    ang = np.linspace(0, 2 * math.pi, n_ring, endpoint=False)
    ring = np.column_stack([0.8 * np.cos(ang), 0.8 * np.sin(ang)])
    cl_ang = 0.7 + 0.005 * np.arange(n_cluster)
    cluster = np.column_stack([0.8 * np.cos(cl_ang), 0.8 * np.sin(cl_ang)])
    ang_b = np.linspace(0, 2 * math.pi, n_boundary, endpoint=False)
    boundary = np.column_stack([np.cos(ang_b), np.sin(ang_b)])
    coords = np.vstack([np.array(pts), ring, cluster, boundary])
    n = len(coords)
    mu = np.zeros(n)
    ring_sl = slice(n_filler, n_filler + n_ring)
    cl_sl = slice(n_filler + n_ring, n_filler + n_ring + n_cluster)
    arc = 2 * math.pi * 0.8 / n_ring
    mu[ring_sl] = 0.09 * arc
    mu[cl_sl] = 0.012
    nu = np.full(n, math.pi / n)        # crude area weights for the ambient
    omega = np.sqrt((coords ** 2).sum(axis=1)) < 1.0 - 1e-9
    space = MetricMeasureSpace(rho=euclidean_metric(coords), nu=nu, mu=mu,
                               omega=omega, quasi_const=1.0, coords=coords)
    info = {"m": 1.0, "tau": 1.0, "n_dim": 2.0, "kernel": "bergman",
            "kappa": 0.5}
    return space, info


def uniform_grid(n: int = 9, normalize: bool = False) -> tuple:
    """Ahlfors case: mu = nu on an n x n grid in the unit square.  Default
    masses are spacing^2 / 8 so that mu(B(x,r)) <= r^2 holds with headroom
    at every discrete radius; ``normalize`` rescales to total mass one
    (useful for the averaging operator, at the cost of that gate)."""
    if n < 2:
        raise ValueError("need a grid side of at least 2")
    ticks = np.linspace(0.0, 1.0, n)
    coords = np.stack(np.meshgrid(ticks, ticks), -1).reshape(-1, 2)
    if normalize:
        mu = np.full(len(coords), 1.0 / len(coords))
    else:
        mu = np.full(len(coords), (1.0 / (n - 1)) ** 2 / 8.0)
    omega = np.zeros(len(coords), dtype=bool)
    space = MetricMeasureSpace(rho=euclidean_metric(coords), nu=mu.copy(),
                               mu=mu, omega=omega, quasi_const=1.0,
                               coords=coords)
    info = {"m": 2.0, "tau": 1.0, "n_dim": 2.0, "kernel": "constant",
            "kappa": 0.5}
    return space, info


EXAMPLES = {
    "line_in_plane": line_in_plane,
    "cantor_measure": cantor_measure,
    "bergman_disc_model": bergman_disc_model,
    "uniform_grid": uniform_grid,
}


def generate_example(name: str, **params) -> tuple:
    """Build the example ``name``; each parameter must be one the builder
    takes, of the type of its default."""
    try:
        builder = EXAMPLES[name]
    except KeyError:
        raise UnknownExample(
            f"unknown example {name!r}; choose from {sorted(EXAMPLES)}")
    defaults = {key: p.default for key, p in
                inspect.signature(builder).parameters.items()}
    for key, value in params.items():
        if key not in defaults:
            raise ValueError(f"example {name!r} takes no parameter {key!r}; "
                             f"its parameters are {list(defaults)}")
        kind = type(defaults[key])
        if type(value) is not kind:
            raise ValueError(f"parameter {key!r} of example {name!r} must be "
                             f"{kind.__name__}, got {value!r}")
    return builder(**params)
