"""Work on supp mu only, and only what the certificate reads.

Every mu-weighted pairing of the certificate reads the kernel on
supp mu x supp mu alone: the power iteration, the testing constant A, the
sums of the sigma split and the products of the transit checks.  With K set
to NaN everywhere else they must come out the same, bit for bit, and
finite.  The kernel sups of the pair geometry run over all N points on
purpose, so the geometry is built from the finite kernel.

Two rewrites keep their bits: the pair norm's index compaction and the
one pass that builds ``lat.dist`` and ``lat.diam``."""

import copy
import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from czkit.certify import (_compact, alpha_param, certify, pair_geometry,
                           short_range_transit_bound, split_bilinear)
from czkit.harness import make_scenario
from czkit.kernels import check_T1, operator_norm, power_kernel
from czkit.lattice import (build_lattice, classify_all_good_bad,
                           classify_terminal_transit, cube_reduce, scale_gap)
from czkit.projections import decompose
from czkit.space import MetricMeasureSpace
from test_probe_batch import _cloud, split_fields

lattice_module = importlib.import_module("czkit.lattice")
BERGMAN_64 = {"n_ring": 64, "n_cluster": 8, "n_boundary": 32}


def _nan_off_support(kernel, space):
    """The kernel with NaN at every entry off supp mu x supp mu."""
    bad = copy.copy(kernel)
    on = space.mu > 0
    bad.matrix = np.where(on[:, None] & on[None, :], kernel.matrix, np.nan)
    return bad


def _bits(x) -> list:
    return [float(v).hex() for v in np.atleast_1d(x)]


def _assert_reads_supp_only(kernel, space, seeds, s_param, n_probes=3):
    assert (space.mu == 0).any()
    bad = _nan_off_support(kernel, space)
    norm = operator_norm(kernel, space, seed=7)
    assert operator_norm(bad, space, seed=7) == norm
    assert math.isfinite(norm[0])

    alpha = alpha_param(kernel.m, kernel.tau)
    r_gap = scale_gap(0.5, 0.25, s_param)
    lats = [build_lattice(space, 0.5, seed=s) for s in seeds]
    for lat, other in (lats, lats[::-1]):
        classify_terminal_transit(lat)
        classify_all_good_bad(lat, other, alpha, 0.25, s_param)
    a_t1 = 0.0
    for lat in lats:
        t1 = check_T1(kernel, space, lat)
        assert check_T1(bad, space, lat).per_cube == t1.per_cube
        assert math.isfinite(t1.A)
        a_t1 = max(a_t1, t1.A)

    geometry = pair_geometry(kernel, space, *lats, r_gap, alpha, a_t1)
    rng = np.random.default_rng(seeds[0])
    f, g = rng.standard_normal((2, n_probes, space.n_points))
    split, bad_split = (
        split_bilinear(k, space, decompose(lats[0], f),
                       decompose(lats[1], g), f, g, geometry)
        for k in (kernel, bad))
    bad_fields = split_fields(bad_split)
    for name, value in split_fields(split).items():
        assert np.isfinite(value).all(), name
        assert _bits(bad_fields[name]) == _bits(value), name
    for hi in (0, 1):
        for want, got in zip(short_range_transit_bound(split, hi)[0],
                             short_range_transit_bound(bad_split, hi)[0]):
            for a, b in zip(want, got):
                assert math.isfinite(a.measured) and math.isfinite(a.bound)
                assert (b.measured, b.bound) == (a.measured, a.bound)


@pytest.mark.parametrize("name,params", [("line_in_plane", {"n": 21}),
                                         ("bergman_disc_model", BERGMAN_64)])
def test_products_read_the_kernel_on_supp_mu_only(name, params):
    sc = make_scenario(name, example_params=params)
    _assert_reads_supp_only(sc.kernel, sc.space, (1, 2), 2)


def _sparse_cloud(rng, n: int) -> MetricMeasureSpace:
    """``_cloud`` with mu zero on at least one point."""
    space = _cloud(rng, n)
    mu = space.mu.copy()
    mu[1 + rng.integers(n - 1)] = 0.0
    space.mu = mu / mu.sum()
    return space


@given(st.integers(4, 30), st.integers(1, 2), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_products_read_the_kernel_on_supp_mu_only_random(n, s_param, seed):
    space = _sparse_cloud(np.random.default_rng(seed), n)
    kernel = power_kernel(space, m=1.0, tau=1.0)
    _assert_reads_supp_only(kernel, space, (seed % 1000, seed % 1000 + 7),
                            s_param, n_probes=2)


def test_t1_sets_are_told_apart_on_supp_mu():
    # on the line the cubes off the line carry no mass, and many dilations
    # meet the line in the same points: one test each
    sc = make_scenario("line_in_plane", example_params={"n": 13})
    lat = build_lattice(sc.space, 0.5, seed=1)
    rep = check_T1(sc.kernel, sc.space, lat)
    supp = sc.space.mu > 0
    masks = lattice_module.cube_dilations(lat, (1.2, 1.4, 1.5, 3.0))
    on_supp = {m.tobytes() for m in masks.reshape(-1, supp.size)[:, supp]}
    assert len(rep.per_cube) == len(on_supp) - 1      # less the empty set
    assert len(rep.per_cube) < len({m.tobytes() for m in
                                    masks.reshape(-1, supp.size)})


def test_certify_without_probes():
    # four planar points whose seed-295 lattice is a root and one child
    # holding all four: neither lattice has a cube with 0 < members < N to
    # make an indicator probe, so with no random probe there is none
    seed = 4294967295
    space = _cloud(np.random.default_rng(seed), 4)
    kernel = power_kernel(space, m=1.0, tau=1.0)
    args = dict(s_param=1, seeds=(295, 302), master_seed=seed)
    rep = certify(kernel, space, n_probes=0, **args)
    assert [c.name for c in rep.lemmas] == ["sigma_regrouping"]
    assert rep.verdict
    # the constants depend on the lattice pair only
    assert rep.constants == certify(kernel, space, n_probes=1,
                                    **args).constants


@given(st.lists(st.integers(0, 40), min_size=1, max_size=60))
def test_compact_is_the_unique_inverse(at):
    at = np.array(at)
    assert np.array_equal(_compact(at), np.unique(at, return_inverse=True)[1])


@pytest.mark.parametrize("name,params", [("line_in_plane", {"n": 13}),
                                         ("cantor_measure", {"level": 5}),
                                         ("bergman_disc_model", {})])
def test_dist_and_diam_from_one_pass(name, params):
    # the min and max tables of one pass against two reductions of their
    # own
    space = make_scenario(name, example_params=params).space
    rho = space.rho
    for seed in (1, 2):
        lat = build_lattice(space, 0.5, seed=seed)
        assert np.array_equal(lat.dist, cube_reduce(
            lat, rho, lat.column_cubes()))
        assert lat.dist.flags.c_contiguous
        big = lat.ids[lat.n_members[lat.ids] > 1]
        want = np.zeros(lat.gen.size)
        want[big] = [rho[np.ix_(lat.members(c), lat.members(c))].max()
                     for c in big.tolist()]
        assert np.array_equal(lat.diam, want)
