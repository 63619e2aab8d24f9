"""Per-lattice tables against brute force.

The point-to-cube distance table, the cube reductions built on it and the
pair classification read off them must reproduce the per-cube and per-pair
computations exactly: every entry is a min or max over the same entries.
The explicit metric is symmetric only to 1e-12, which a space file allows,
so the orientation of every reduction is checked too."""

import numpy as np
import pytest

from czkit.certify import _good_component_cubes, alpha_param, classify_pairs
from czkit.examples import generate_example
from czkit.lattice import (build_lattice, classify_all_good_bad,
                           classify_good_bad, classify_terminal_transit,
                           cube_dilations, cube_reduce, scale_gap)
from czkit.space import dilate
from conftest import explicit_space

EXAMPLES = ("cantor_measure", "uniform_grid", "line_in_plane",
            "bergman_disc_model")
CASES = [(name, seed) for name in EXAMPLES for seed in (1, 2, 7)] + \
    [("explicit", 1), ("explicit", 2)]
LAMS = (1.2, 1.5, 3.0)


def _space(name):
    space = explicit_space() if name == "explicit" else \
        generate_example(name)[0]
    if name == "explicit":
        assert (space.rho != space.rho.T).any()
    return space


def _lattices(space, seed):
    lat1 = build_lattice(space, 0.5, seed=seed)
    lat2 = build_lattice(space, 0.5, seed=seed + 10)
    return lat1, lat2


@pytest.mark.parametrize("name,seed", CASES)
def test_point_to_cube_table_and_dilations(name, seed):
    space = _space(name)
    rho = space.rho
    lat, _ = _lattices(space, seed)
    masks = cube_dilations(lat, LAMS)
    rows = cube_reduce(lat, rho, list(lat.cubes), axis=0)
    for j, cube in enumerate(lat.cubes.values()):
        assert np.array_equal(lat.dist[:, lat.column[cube.id]],
                              rho[:, cube.members].min(axis=1))
        assert np.array_equal(np.flatnonzero(masks[j, 0]), cube.members)
        for t, lam in enumerate(LAMS, start=1):
            assert np.array_equal(np.flatnonzero(masks[j, t]),
                                  dilate(space, cube.members, lam))
        # the good/bad distance row reduces rows, not columns
        assert np.array_equal(rows[j], rho[cube.members].min(axis=0))


@pytest.mark.parametrize("name,seed", CASES)
def test_cube_pair_distances_and_sups(name, seed):
    space = _space(name)
    lat1, lat2 = _lattices(space, seed)
    rng = np.random.default_rng(seed)
    mat = rng.uniform(0.0, 1.0, space.rho.shape)      # not symmetric
    cubes1, cubes2 = list(lat1.cubes.values()), list(lat2.cubes.values())
    qs = [cubes1[i] for i in rng.choice(len(cubes1), 30)]
    rs = [cubes2[i] for i in rng.choice(len(cubes2), 30)]
    q_ids, r_ids = [q.id for q in qs], [r.id for r in rs]
    dist = cube_reduce(lat1, lat2.dist[:, lat2.column[r_ids]], q_ids, axis=0)
    sup = cube_reduce(lat1, cube_reduce(lat2, mat, r_ids, np.maximum), q_ids,
                      np.maximum, axis=0)
    for a, q in enumerate(qs):
        for b, r in enumerate(rs):
            assert dist[a, b] == space.set_dist(q.members, r.members)
            assert sup[a, b] == mat[np.ix_(q.members, r.members)].max()


def _reference_pairs(space, fine_lat, coarse_lat, r_gap, alpha):
    """The per-pair classification: one set_dist per measured pair."""
    buckets = {"sigma1": [], "sigma2": [], "sigma3_term": [],
               "sigma3_tran": []}
    coarse_cubes = _good_component_cubes(coarse_lat)
    for q in _good_component_cubes(fine_lat):
        for r in coarse_cubes:
            gap = q.generation - r.generation
            if gap < 0:
                continue
            rec = {"q": q.id, "r": r.id, "gap": gap}
            if gap < r_gap or not (
                    coarse_lat.labels[r.generation][q.members] == r.id).any():
                d = rec["dist"] = space.set_dist(q.members, r.members)
                if gap < r_gap and d <= r.size:
                    buckets["sigma1"].append(rec)
                else:
                    rec["far_ok"] = d >= q.size ** alpha * r.size ** (1 - alpha)
                    buckets["sigma2"].append(rec)
                continue
            rec["dist"] = 0.0
            owners = coarse_lat.labels[r.generation + 1][q.members]
            vals, counts = np.unique(owners, return_counts=True)
            rq = coarse_lat.cubes[rec.setdefault("rq",
                                                 int(vals[np.argmax(counts)]))]
            buckets["sigma3_term" if rq.terminal or rq.is_leaf
                    else "sigma3_tran"].append(rec)
    return buckets


@pytest.mark.parametrize("name,seed", CASES)
@pytest.mark.parametrize("s_param", (1, 2))
def test_good_bad_and_pair_classification(name, seed, s_param):
    space = _space(name)
    lat1, lat2 = _lattices(space, seed)
    alpha = alpha_param(1.0, 1.0)
    for lat in (lat1, lat2):
        classify_terminal_transit(lat)
    for lat, other in ((lat1, lat2), (lat2, lat1)):
        classify_all_good_bad(lat, other, alpha, 0.25, s_param)
        for cube in lat.cubes.values():
            good, _ = classify_good_bad(cube, other, alpha, 0.25, s_param)
            assert cube.good == good
    r_gap = scale_gap(0.5, 0.25, s_param)
    for fine, coarse in ((lat1, lat2), (lat2, lat1)):
        got = classify_pairs(fine, coarse, r_gap, alpha)
        assert got == _reference_pairs(space, fine, coarse, r_gap, alpha)
