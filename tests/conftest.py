"""Shared fixtures: small deterministic spaces and lattices."""

import numpy as np
import pytest

from czkit.examples import generate_example
from czkit.lattice import build_lattice, classify_terminal_transit
from czkit.space import MetricMeasureSpace, space_from_json


def line_space(n: int = 8, omega=(), mu=None) -> MetricMeasureSpace:
    """n collinear points with unit spacing."""
    coords = np.arange(n, dtype=float)
    rho = np.abs(coords[:, None] - coords[None, :])
    if mu is None:
        mu = np.full(n, 1.0 / n)
    return MetricMeasureSpace(
        rho=rho, quasi_const=1.0, nu=np.ones(n), mu=np.asarray(mu, float),
        omega=np.zeros(n, dtype=bool) if not len(omega) else
        np.isin(np.arange(n), list(omega)),
        resolution_h=1.0)


def grid_space(n: int = 8) -> MetricMeasureSpace:
    """n x n unit-spacing planar grid with uniform probability mass."""
    xs, ys = np.meshgrid(np.arange(n, dtype=float), np.arange(n, dtype=float))
    coords = np.column_stack([xs.ravel(), ys.ravel()])
    diff = coords[:, None, :] - coords[None, :, :]
    rho = np.sqrt((diff ** 2).sum(axis=2))
    m = n * n
    return MetricMeasureSpace(
        rho=rho, quasi_const=1.0, nu=np.ones(m), mu=np.full(m, 1.0 / m),
        omega=np.zeros(m, dtype=bool), resolution_h=1.0)


def explicit_space() -> MetricMeasureSpace:
    """36 random points in the plane under an explicit metric that is
    symmetric only to 1e-13, with random probability masses."""
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.0, 8.0, (36, 2))
    rho = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1))
    rho += rng.uniform(0.0, 1e-13, rho.shape) * (rho > 0)
    n = len(pts)
    return space_from_json({
        "points": list(range(n)), "nu": [1.0] * n,
        "mu": rng.dirichlet(np.ones(n)).tolist(),
        "metric": {"type": "explicit", "matrix": rho.tolist()}})


@pytest.fixture(scope="session")
def line8():
    return line_space(8)


@pytest.fixture(scope="session")
def grid8():
    return grid_space(8)


@pytest.fixture(scope="session")
def line_example():
    space, info = generate_example("line_in_plane")
    return space, info


@pytest.fixture(scope="session")
def line_lattice(line_example):
    space, info = line_example
    lat = build_lattice(space, kappa=0.5, seed=1)
    classify_terminal_transit(lat, m=info["m"])
    return lat
