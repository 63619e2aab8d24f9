"""Per-lattice tables against brute force.

The point-to-cube distance table, the cube reductions built on it and the
pair classification read off them must reproduce the per-cube and per-pair
computations exactly: every entry is a min or max over the same entries.
``cube_reduce`` takes min, max, and and or up the cube tree, and must give
the per-cube reduction."""

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from czkit import lattice as lattice_module
from czkit.certify import _component_rows, alpha_param, classify_pairs
from czkit.examples import generate_example
from czkit.lattice import (TREE_UFUNCS, build_lattice, classify_all_good_bad,
                           classify_good_bad, classify_terminal_transit,
                           cube_dilations, cube_reduce, scale_gap)
from czkit.projections import good_component_ids
from czkit.space import dilate, masked_sums
from conftest import explicit_space

EXAMPLES = ("cantor_measure", "uniform_grid", "line_in_plane",
            "bergman_disc_model")
CASES = [(name, seed) for name in EXAMPLES for seed in (1, 2, 7)] + \
    [("explicit", 1), ("explicit", 2)]
LAMS = (1.2, 1.5, 3.0)


def _space(name):
    return explicit_space() if name == "explicit" else \
        generate_example(name)[0]


def _lattices(space, seed):
    lat1 = build_lattice(space, 0.5, seed=seed)
    lat2 = build_lattice(space, 0.5, seed=seed + 10)
    return lat1, lat2


@pytest.mark.parametrize("name,seed", CASES)
def test_point_to_cube_table_and_dilations(name, seed):
    space = _space(name)
    _assert_point_tables(space, _lattices(space, seed)[0])


def _assert_point_tables(space, lat):
    rho = space.rho
    masks = cube_dilations(lat, LAMS)
    rows = cube_reduce(lat, rho, list(lat.cubes), axis=0)
    members = lat.member_masks(list(lat.cubes))
    for j, cube in enumerate(lat.cubes.values()):
        assert np.array_equal(np.flatnonzero(members[j]), cube.members)
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
            assert dist[a, b] == space.rho[np.ix_(q.members, r.members)].min()
            assert sup[a, b] == mat[np.ix_(q.members, r.members)].max()


def _member_reduce(lat, matrix, ids, ufunc, axis):
    """Slot j along ``axis``: ``ufunc.reduce`` over the members of cube
    ids[j], one cube at a time."""
    return np.stack([ufunc.reduce(np.take(matrix, lat.members(c), axis=axis),
                                  axis=axis) for c in ids],
                    axis=axis).astype(matrix.dtype)


def _assert_reduces_per_cube(lat, matrix, ufunc, axis):
    # == and NaN positions: a min or max over +0.0 and -0.0 may come out as
    # either zero, as numpy's own reductions do, and compares equal
    ids = list(lat.cubes)
    got = cube_reduce(lat, matrix, ids, ufunc, axis)
    want = _member_reduce(lat, matrix, ids, ufunc, axis)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    # any order, repeats included, reads the same rows; the finest cubes
    # hold fewer than N points and are gathered
    for some in (ids[::-3] + ids[:2], ids[-3:]):
        assert np.array_equal(cube_reduce(lat, matrix, some, ufunc, axis),
                              _member_reduce(lat, matrix, some, ufunc, axis),
                              equal_nan=True)


_cached_space = functools.cache(_space)


def _operand(rng, ufunc, shape, special: bool):
    """A random matrix for ``ufunc``: booleans for and/or, else uniform
    floats, and with ``special`` a third of the entries drawn from NaN,
    +-0.0 and +-inf."""
    if ufunc in (np.logical_and, np.logical_or):
        return rng.random(shape) < rng.uniform(0.0, 1.0)
    out = rng.uniform(-1.0, 1.0, shape)
    if special:
        pool = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf])
        hit = rng.random(shape) < 1 / 3
        out[hit] = rng.choice(pool, hit.sum())
    return out


@given(st.sampled_from(EXAMPLES + ("explicit",)), st.integers(0, 2**16),
       st.sampled_from(TREE_UFUNCS), st.sampled_from((0, 1)),
       st.sampled_from(("rho", "random", "special")),
       st.sampled_from((1, 5, 64, 2**18)))
@settings(max_examples=120, deadline=None)
def test_tree_reduce_matches_member_reduce(name, seed, ufunc, axis, kind,
                                           cells):
    # cubes of more than N points in all take the tree; ``cells`` tiles the
    # kept axis down to one column at a time
    space = _cached_space(name)
    lat = build_lattice(space, 0.5, seed=seed)
    assert lat.tree is not None
    rng = np.random.default_rng(seed)
    n = space.n_points
    shape = [n, n]
    shape[1 - axis] = int(rng.choice([1, 3, n]))
    if kind == "rho" and ufunc in (np.minimum, np.maximum):
        matrix = space.rho
    else:
        matrix = _operand(rng, ufunc, shape, kind == "special")
    with mock.patch.object(lattice_module, "REDUCE_CELLS", cells):
        _assert_reduces_per_cube(lat, matrix, ufunc, axis)


def test_masked_sums_are_the_gathered_sums():
    # bit for bit: the pair tables' masses must match per-set np.sum
    rng = np.random.default_rng(4)
    values = rng.uniform(0.0, 1.0, 300) ** 3
    mask = rng.random((60, 300)) < rng.uniform(0.0, 1.0, (60, 1))
    mask[0] = False
    want = [values[np.flatnonzero(row)].sum() for row in mask]
    assert masked_sums(values, mask).tolist() == want


def test_masked_sums_edge_groups():
    # no rows, rows of one count only, and a (k, N) table of values, whose
    # runs of equal counts are read off the sorted counts
    rng = np.random.default_rng(6)
    values = rng.uniform(0.0, 1.0, (3, 40)) ** 3
    assert masked_sums(values[0], np.zeros((0, 40), dtype=bool)).shape == \
        (0,)
    same = np.zeros((7, 40), dtype=bool)
    same[np.arange(7)[:, None], rng.permuted(
        np.tile(np.arange(40), (7, 1)), axis=1)[:, :5]] = True
    mixed = np.concatenate([same, rng.random((9, 40)) < 0.3])
    for mask in (same, mixed):
        want = [[v[np.flatnonzero(row)].sum() for row in mask]
                for v in values]
        assert masked_sums(values, mask).tolist() == want


def _good_cubes(lat):
    return [lat.cubes[c] for c in good_component_ids(lat).tolist()]


def _reference_pairs(space, fine_lat, coarse_lat, r_gap, alpha):
    """The per-pair classification: one distance of member sets per
    measured pair."""
    buckets = {"sigma1": [], "sigma2": [], "sigma3_term": [],
               "sigma3_tran": []}
    coarse_cubes = _good_cubes(coarse_lat)
    for q in _good_cubes(fine_lat):
        for r in coarse_cubes:
            gap = q.generation - r.generation
            if gap < 0:
                continue
            rec = {"q": q.id, "r": r.id, "gap": gap}
            if gap < r_gap or not (
                    coarse_lat.labels[r.generation][q.members] == r.id).any():
                d = rec["dist"] = float(
                    space.rho[np.ix_(q.members, r.members)].min())
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
        rows = [_component_rows(lat) for lat in (fine, coarse)]
        ids = [row.ids for row in rows]
        dist = cube_reduce(fine, coarse.dist, ids[0], axis=0)
        got = {regime: table.records(*ids) for regime, table in
               classify_pairs(*rows, dist, r_gap, alpha).items()}
        assert got == _reference_pairs(space, fine, coarse, r_gap, alpha)


@pytest.mark.parametrize("name,seed", CASES)
def test_component_rows_match_the_cubes(name, seed):
    # every column the sigma split reads of a cube, against the cube
    lat1, lat2 = _lattices(_space(name), seed)
    for lat in (lat1, lat2):
        classify_terminal_transit(lat)
    classify_all_good_bad(lat1, lat2, alpha_param(1.0, 1.0), 0.25, 1)
    rows = _component_rows(lat1)
    cubes = _good_cubes(lat1)
    # rows are in increasing cube id order
    assert rows.ids.tolist() == sorted(c.id for c in cubes)
    assert rows.ids.tolist() == [c.id for c in cubes]
    assert rows.gen.tolist() == [c.generation for c in cubes]
    assert rows.size.tolist() == [c.size for c in cubes]
    assert rows.mass.tolist() == [lat1.space.mu[c.members].sum()
                                  for c in cubes]
    assert rows.center.tolist() == [c.center for c in cubes]
    children = [lat1.cubes[ch] for c in cubes for ch in c.children]
    assert list(rows.piece) == [ch.id for ch in children]
    assert rows.piece_mass.tolist() == [lat1.space.mu_mass(ch.members)
                                        for ch in children]
    assert rows.piece_stop.tolist() == [bool(ch.terminal or ch.is_leaf)
                                        for ch in children]
    for i, cube in enumerate(cubes):
        assert np.array_equal(np.flatnonzero(rows.inside[i]), cube.members)
