"""The calibration ensemble drawn along the skeleton points, against the
full draw it replaced.

``ensemble_gaps`` reads a lattice only through the skeleton marks of its
near-pair points, so it chains those points from the finest generation up,
one net and one chain step at a time, and stops a lattice once its near
pairs share their centers.  The scorer below is the earlier form, kept as
the reference: every lattice of the ensemble drawn in full by
``_draw_batch`` (every generation's net, every point's chain of centers),
its marks read off all N points.  Gaps must be the same bit for bit."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from czkit import lattice
from czkit.certify import alpha_param
from czkit.errors import DegenerateScale
from czkit.examples import generate_example
from czkit.lattice import (_candidates, _coarsest_hits, _draw_batch,
                           _ensemble_keys, _generation_range, _skeleton_marks,
                           build_lattice, ensemble_gaps)
from czkit.space import MetricMeasureSpace
from conftest import ensemble_orders

MASTER_SEEDS = (0, 3, 402)


def _gaps_full_draw(members, generations, space, kappa, alpha,
                    ensemble_size, master_seed=0):
    """Every lattice drawn in full, then scored on the marks of all N
    points."""
    gens, orders = ensemble_orders(space, kappa, ensemble_size, master_seed)
    k_min, k_max = gens[0], gens[-1]
    dists = np.array([space.rho[q].min(axis=0) for q in members]).reshape(
        len(members), space.n_points)
    gen_q = np.array(generations, dtype=int).reshape(len(members))
    ks = list(range(k_min, min(gen_q.max(initial=k_min), k_max)))
    ctr = _draw_batch(space, kappa, orders, gens,
                      _candidates(space, kappa, gens))[1]
    marks = _skeleton_marks(ctr[1:len(ks) + 1], space.near_pairs)
    hits = _coarsest_hits(marks, ks, dists, [kappa ** g for g in gen_q],
                          gen_q - 1, kappa, alpha)
    return np.where(hits < 0, 0, gen_q - k_min - hits)


def _probes(lat, gens=None):
    """(members, generations) of probe cubes: at every generation below the
    root, or in ``gens``, the middle cube and the cube that holds the first
    near-pair point, whose gap is nonzero wherever that point is marked."""
    near = lat.space.near_pairs[0][:1].tolist()
    cubes = [c for k, ids in lat.by_gen.items()
             if k > lat.k_min and (gens is None or k in gens)
             for c in [ids[len(ids) // 2]] + lat.labels[k][near].tolist()]
    return [lat.members(c) for c in cubes], lat.gen[cubes]


def _assert_gaps_match(space, kappa, alpha, size, master_seed, probes):
    got = ensemble_gaps(*probes, space, kappa, alpha, size, master_seed)
    want = _gaps_full_draw(*probes, space, kappa, alpha, size, master_seed)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    return got


def _cloud(rng, n, resolution):
    """n random points in the plane; mu is zero on about a third of the
    points."""
    pts = rng.uniform(0.0, 4.0, (n, 2))
    rho = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1))
    mu = rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.67)
    off = rho[~np.eye(n, dtype=bool)]
    return MetricMeasureSpace(
        rho=rho, nu=np.ones(n), mu=mu / max(mu.sum(), 1e-300),
        omega=np.zeros(n, dtype=bool),
        resolution_h=resolution * off.min(initial=1.0))


@given(st.integers(2, 30), st.sampled_from([0.3, 0.5, 0.6]),
       st.integers(0, 2**32 - 1), st.integers(1, 2**12))
@settings(max_examples=60, deadline=None)
def test_gaps_match_full_draw_on_random_clouds(n, kappa, seed, cells):
    # a resolution from 1x to 10x the smallest distance, a small alpha so
    # that many gaps are nonzero, chunks of a random cell budget
    rng = np.random.default_rng(seed)
    space = _cloud(rng, n, rng.uniform(1.0, 10.0))
    alpha = float(rng.uniform(0.01, 0.1))
    size = int(rng.integers(1, 40))
    try:
        probes = _probes(build_lattice(space, kappa, seed=seed))
    except DegenerateScale:
        with pytest.raises(DegenerateScale):
            ensemble_gaps([], [], space, kappa, alpha, size, seed)
        return
    with mock.patch.object(lattice, "ENSEMBLE_CELLS", cells):
        _assert_gaps_match(space, kappa, alpha, size, seed, probes)


@given(st.integers(5, 24), st.integers(2, 5), st.sampled_from([0.3, 0.5]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_gaps_match_full_draw_with_separate_near_pairs(n, pairs, kappa,
                                                       seed):
    # scattered points and a few tight pairs far apart: only the pairs are
    # near, the finest generations are drawn one at a time, and the pairs
    # of one lattice come to share their centers at different generations
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 8.0, (n, 2))
    twins = pts[:pairs] + rng.uniform(-1.0, 1.0, (pairs, 2)) * 0.01
    pts = np.concatenate([pts, twins])
    rho = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1))
    m = len(pts)
    h = max(np.diagonal(rho[:pairs, n:]))
    space = MetricMeasureSpace(rho=rho, nu=np.ones(m), mu=np.full(m, 1 / m),
                               omega=np.zeros(m, dtype=bool), resolution_h=h)
    alpha = float(rng.uniform(0.01, 0.1))
    try:
        probes = _probes(build_lattice(space, kappa, seed=seed))
    except DegenerateScale:
        return
    _assert_gaps_match(space, kappa, alpha, 40, seed, probes)


BUILT_INS = {
    "uniform_grid": ("uniform_grid", {}),
    "line_in_plane": ("line_in_plane", {}),
    "cantor_measure": ("cantor_measure", {}),
    "bergman_disc_model": ("bergman_disc_model", {}),
    "line_n21": ("line_in_plane", {"n": 21}),
    "cantor_level6": ("cantor_measure", {"level": 6}),
    "bergman_64": ("bergman_disc_model",
                   {"n_ring": 64, "n_cluster": 8, "n_boundary": 32}),
}


@pytest.mark.parametrize("master_seed", MASTER_SEEDS)
@pytest.mark.parametrize("name", sorted(BUILT_INS))
def test_gaps_match_full_draw_on_built_ins(name, master_seed):
    example, params = BUILT_INS[name]
    space, info = generate_example(example, **params)
    kappa, alpha = info["kappa"], alpha_param(info["m"], info["tau"])
    probes = _probes(build_lattice(space, kappa, seed=master_seed))
    for a in (alpha, 0.05):
        _assert_gaps_match(space, kappa, a, 60, master_seed, probes)
    # probes one generation below the root read the marks of generation
    # k_min only, off the longest chains
    lat = build_lattice(space, kappa, seed=master_seed)
    top = _probes(lat, {lat.k_min + 1})
    assert set(top[1].tolist()) == {lat.k_min + 1}
    _assert_gaps_match(space, kappa, 0.05, 60, master_seed, top)


@pytest.mark.parametrize("name", ("bergman_64", "line_n21"))
def test_comparisons_see_nonzero_gaps(name):
    # the comparisons above must see lattices that score nonzero gaps: on
    # bergman only the lattices whose two near-pair points keep two finest
    # centers, on the line nearly all of them
    example, params = BUILT_INS[name]
    space, info = generate_example(example, **params)
    kappa, alpha = info["kappa"], alpha_param(info["m"], info["tau"])
    probes = _probes(build_lattice(space, kappa, seed=0))
    gaps = _assert_gaps_match(space, kappa, alpha, 150, 0, probes)
    scored = int((gaps > 0).any(axis=1).sum())
    assert 0 < scored < 50 if name == "bergman_64" else scored > 100


def test_space_without_near_pairs_scores_zero():
    # a resolution below every distance leaves no near pair, so no lattice
    # has a skeleton point
    rng = np.random.default_rng(11)
    space = _cloud(rng, 20, 0.5)
    assert space.near_pairs[0].size == 0
    probes = _probes(build_lattice(space, 0.5, seed=1))
    gaps = _assert_gaps_match(space, 0.5, 0.05, 30, 1, probes)
    assert not gaps.any()


def test_two_generation_range():
    # diam 1.5 and resolution 1 at kappa 1/2: generations -1 and 0, so the
    # finest generation is the only one below the root
    coords = np.array([0.0, 1.0, 1.5, 0.25])
    rho = np.abs(coords[:, None] - coords[None, :])
    space = MetricMeasureSpace(rho=rho, nu=np.ones(4), mu=np.full(4, 0.25),
                               omega=np.zeros(4, dtype=bool),
                               resolution_h=1.0)
    assert _generation_range(space, 0.5, None) == (-1, 0)
    assert space.near_pairs[0].size
    gaps = []
    for seed in MASTER_SEEDS:
        probes = _probes(build_lattice(space, 0.5, seed=seed))
        gaps.append(_assert_gaps_match(space, 0.5, 0.01, 40, seed, probes))
    assert np.concatenate(gaps).any()


def test_merged_lattices_skip_their_coarse_nets(monkeypatch):
    # bergman 64/8/32, as the benchmark calibrates it: most lattices have
    # their two near-pair points under one finest center, and the others
    # a few generations up, so the greedy passes run over at most a third
    # of the (lattice, generation) rows of the full draw
    space, info = generate_example("bergman_disc_model", n_ring=64,
                                   n_cluster=8, n_boundary=32)
    kappa, alpha = info["kappa"], alpha_param(info["m"], info["tau"])
    lat = build_lattice(space, kappa, seed=0)
    # the probes of ``calibrate_S``
    cubes = [ids[len(ids) // 2] for k, ids in lat.by_gen.items()
             if k > lat.k_min][:3]
    probes, generations = [lat.members(c) for c in cubes], lat.gen[cubes]
    rows = []
    real = lattice._greedy_nets

    def counted(rho, nearest, scale, orders):
        rows.append(orders.shape[0] * orders.shape[1])
        return real(rho, nearest, scale, orders)

    monkeypatch.setattr(lattice, "_greedy_nets", counted)
    gaps = ensemble_gaps(probes, generations, space, kappa, alpha, 150, 0)
    monkeypatch.undo()
    full = 150 * (lat.k_max - lat.k_min + 1)
    assert 0 < 3 * sum(rows) <= full
    assert gaps.tobytes() == _gaps_full_draw(
        probes, generations, space, kappa, alpha, 150, 0).tobytes()


# ---------------------------------------------------------------------------
# the key stream


@pytest.mark.parametrize("name", ("line_n13", "grid_n9", "bergman_64"))
def test_gaps_do_not_depend_on_the_chunking(name):
    example, params = {"line_n13": ("line_in_plane", {"n": 13}),
                       "grid_n9": ("uniform_grid", {"n": 9}),
                       "bergman_64": BUILT_INS["bergman_64"]}[name]
    space, info = generate_example(example, **params)
    kappa, alpha = info["kappa"], alpha_param(info["m"], info["tau"])
    probes = _probes(build_lattice(space, kappa, seed=0))
    gaps = []
    for cells in (2 ** 12, 2 ** 16, 2 ** 20):
        with mock.patch.object(lattice, "ENSEMBLE_CELLS", cells):
            gaps.append(ensemble_gaps(*probes, space, kappa, alpha, 150, 7))
    assert gaps[0].any()
    assert gaps[0].tobytes() == gaps[1].tobytes() == gaps[2].tobytes()


def test_lattice_orders_depend_on_seed_lattice_and_generation_only():
    # lattice i reads keys i G N to (i + 1) G N - 1 of its master seed's
    # stream, whatever the ensemble size or chunks; another master seed or
    # another lattice or generation reads other keys
    space, info = generate_example("line_in_plane", n=13)
    kappa = info["kappa"]
    gens, orders = ensemble_orders(space, kappa, 9, 3)
    assert orders.shape == (9, len(gens), space.n_points)
    assert (np.sort(orders, axis=-1) == np.arange(space.n_points)).all()
    assert ensemble_orders(space, kappa, 4, 3)[1].tobytes() == \
        orders[:4].tobytes()
    stream = _ensemble_keys(3)
    chunks = [stream.random((k, len(gens), space.n_points)) for k in (2, 7)]
    assert np.concatenate(chunks).argsort().tobytes() == orders.tobytes()
    rows = orders.reshape(-1, space.n_points)
    assert len({r.tobytes() for r in rows}) == len(rows)
    other = ensemble_orders(space, kappa, 9, 4)[1]
    assert (other != orders).any(axis=-1).all()
    # so the gaps of a smaller ensemble are the first rows of a larger one
    probes = _probes(build_lattice(space, kappa, seed=3))
    alpha = alpha_param(info["m"], info["tau"])
    small, large = (ensemble_gaps(*probes, space, kappa, alpha, size, 3)
                    for size in (5, 40))
    assert small.tobytes() == large[:5].tobytes()


@pytest.mark.parametrize("master_seed", MASTER_SEEDS)
def test_ensemble_keys_are_apart_from_the_master_stream(master_seed):
    # the probes, phi and the power iteration read default_rng(master_seed);
    # the ensemble reads a child stream, which shares none of its outputs
    keys = _ensemble_keys(master_seed).bit_generator.random_raw(4096)
    master = np.random.default_rng(master_seed).bit_generator.random_raw(4096)
    assert np.intersect1d(keys, master).size == 0
    assert _ensemble_keys(master_seed).random(8).tobytes() != \
        np.random.default_rng(master_seed).random(8).tobytes()
