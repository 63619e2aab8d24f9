"""The batched calibration ensemble against the per-lattice code it replaced.

``ensemble_gaps`` draws, labels and scores a chunk of lattices with array
operations; ``build_lattice`` draws through the same ``_draw_batch``, and
``classify_good_bad``, ``classify_all_good_bad`` and
``skeleton_by_generation`` use its skeleton and coarsest-hit helpers with a
batch of one.  The code below is the earlier form, kept as the reference:
one lattice at a time, its labels chained generation by generation through
nearest-center argmins over its own nets (``_draw_nets_reference``), its
skeletons read off the near pairs whose child labels differ, each probe
scanned from the coarsest generation up, and the bad flags of a whole
lattice tested generation by generation.  Labels, skeletons, witnesses,
flags and gaps must be the same bit for bit, over several chunkings of the
ensemble."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from czkit import lattice
from czkit.certify import alpha_param
from czkit.errors import DegenerateScale
from czkit.examples import generate_example
from czkit.lattice import (_default_k_range, build_lattice,
                           classify_all_good_bad, classify_good_bad,
                           ensemble_gaps, estimate_bad_probability,
                           scale_gap, skeleton_by_generation)
from czkit.space import MetricMeasureSpace
from conftest import ensemble_orders, explicit_space, probe_args
from test_lattice import _assert_draws_match, _draw_nets_reference

SEEDS = (2476693647, 1295026582, 3813294786)


def _space(name):
    if name == "explicit":
        return explicit_space(), 0.5, 0.25
    example, params = {
        "line_n21": ("line_in_plane", {"n": 21}),
        "grid_n25": ("uniform_grid", {"n": 25}),
        "bergman_64": ("bergman_disc_model",
                       {"n_ring": 64, "n_cluster": 8, "n_boundary": 32}),
    }.get(name, (name, {}))
    space, info = generate_example(example, **params)
    return space, info["kappa"], alpha_param(info["m"], info["tau"])


SPACES = ("uniform_grid", "line_in_plane", "cantor_measure",
          "bergman_disc_model", "line_n21", "grid_n25", "bergman_64",
          "explicit")


# ---------------------------------------------------------------------------
# the per-lattice reference


def _near_pairs_reference(space):
    return np.nonzero((space.rho <= space.resolution_h)
                      & ~np.eye(space.n_points, dtype=bool))


def _skeletons_reference(labels, near):
    i, j = near
    leave = {k: np.flatnonzero(np.bincount(i[labels[k + 1][i]
                                               != labels[k + 1][j]]))
             for k in labels if k + 1 in labels}
    return {k: (pts, labels[k][pts]) for k, pts in leave.items()}


def _coarsest_hit_reference(dist_q, sq, k_last, kappa, alpha, skeletons):
    for k in sorted(skeletons):
        if k > k_last:
            break
        pts, owners = skeletons[k]
        threshold = sq ** alpha * (kappa ** k) ** (1 - alpha)
        d = dist_q[pts]
        if (d < threshold).any():
            return k, int(owners[np.argmin(d)])
    return None, None


def _bad_flags_reference(lat, other, alpha, delta_bad, s_param):
    """The per-generation loop ``classify_all_good_bad`` ran before it
    scored through ``_coarsest_hits``: the bad flag of every cube of ``lat``
    against ``other``, in ``lat.cubes`` order."""
    skel = _skeletons_reference(other.labels,
                                _near_pairs_reference(other.space))
    r_gap = scale_gap(other.kappa, delta_bad, s_param)
    bad = {}
    for k_q, ids in lat.by_gen.items():
        rows = np.array([other.space.rho[lat.cubes[cid].members].min(axis=0)
                         for cid in ids])
        s_alpha = np.array([lat.cubes[cid].size ** alpha for cid in ids])
        hit = np.zeros(len(ids), dtype=bool)
        for k in [k for k in skel if k <= k_q - r_gap]:
            hit |= (rows[:, skel[k][0]] < s_alpha[:, None] *
                    (other.kappa ** k) ** (1 - alpha)).any(axis=1)
        bad.update(zip(ids, hit.tolist()))
    return np.array([bad[cid] for cid in lat.cubes])


def _assert_flags_match(lat, other, alpha, s_param):
    """``classify_all_good_bad`` flags the cubes of ``lat`` against
    ``other`` as the reference does."""
    want = _bad_flags_reference(lat, other, alpha, 0.25, s_param)
    classify_all_good_bad(lat, other, alpha, 0.25, s_param)
    got = np.array([not c.good for c in lat.cubes.values()])
    assert got.tobytes() == want.tobytes()


def _gaps_reference(probes, space, kappa, alpha, ensemble_size, master_seed):
    near, nearest = _near_pairs_reference(space), space.nearest_other
    gaps = np.zeros((ensemble_size, len(probes)), dtype=int)
    _, orders = ensemble_orders(space, kappa, ensemble_size, master_seed)
    for i in range(ensemble_size):
        labels = _draw_nets_reference(space, kappa, None, None, nearest,
                                      orders[i])[2]
        skel = _skeletons_reference(labels, near)
        for j, q in enumerate(probes):
            k, _ = _coarsest_hit_reference(space.rho[q.members].min(axis=0),
                                           q.size, q.generation - 1, kappa,
                                           alpha, skel)
            if k is not None:
                gaps[i, j] = q.generation - k
    return gaps


def _probes(space, kappa, seed):
    """The middle cube of every generation below the root."""
    lat = build_lattice(space, kappa, seed=seed)
    return [lat.cubes[ids[len(ids) // 2]] for k, ids in lat.by_gen.items()
            if k > lat.k_min]


def _chunk(space, kappa):
    k_min, k_max = _default_k_range(space, kappa)
    return max(1, lattice.ENSEMBLE_CELLS //
               ((k_max - k_min + 1) * space.n_points))


# ---------------------------------------------------------------------------
# gaps, labels, skeletons and witnesses


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", SPACES)
def test_gaps_match_per_lattice_reference(name, seed):
    space, kappa, alpha = _space(name)
    probes = _probes(space, kappa, seed)
    chunk = _chunk(space, kappa)
    want = _gaps_reference(probes, space, kappa, alpha, chunk + 1, seed)
    for size in sorted({1, max(1, chunk - 1), chunk, chunk + 1}):
        got = ensemble_gaps(*probe_args(probes), space, kappa, alpha, size,
                            seed)
        assert got.dtype == want.dtype
        assert got.tobytes() == want[:size].tobytes()


@pytest.mark.parametrize("name", SPACES)
def test_labels_match_per_lattice_reference(name):
    # a batch of one (no candidate lists) and a batch of several
    space, kappa, _ = _space(name)
    for batch in ([SEEDS[0]], list(SEEDS)):
        _assert_draws_match(space, kappa, batch)


@pytest.mark.parametrize("name", SPACES)
def test_skeletons_and_witnesses_match_reference(name):
    space, kappa, alpha = _space(name)
    near = _near_pairs_reference(space)
    lat1 = build_lattice(space, kappa, seed=SEEDS[0])
    lat2 = build_lattice(space, kappa, seed=SEEDS[1])
    skel = skeleton_by_generation(lat2)
    ref = _skeletons_reference(lat2.labels, near)
    assert sorted(skel) == sorted(ref)
    for k, (pts, owners) in ref.items():
        assert skel[k][0].tobytes() == pts.tobytes()
        assert skel[k][1].tobytes() == owners.tobytes()
    for s_param in (1, 2):
        r_gap = scale_gap(kappa, 0.25, s_param)
        for cube in lat1.cubes.values():
            k, witness = _coarsest_hit_reference(
                space.rho[cube.members].min(axis=0), cube.size,
                cube.generation - r_gap, kappa, alpha, ref)
            assert classify_good_bad(cube, lat2, alpha, 0.25, s_param) == \
                (k is None, witness)


# the default lattice pair of the golden run reports, a small other pair,
# and the pair of the calibrated bergman run report
PAIRS = ((1, 2), (7, 3), (2476693647, 1295026582))


@pytest.mark.parametrize("name", SPACES)
def test_bad_flags_match_per_generation_reference(name):
    space, kappa, alpha = _space(name)
    for a, b in PAIRS:
        lats = [build_lattice(space, kappa, seed=s) for s in (a, b)]
        for (lat, other), alpha_q, s_param in itertools.product(
                (lats, lats[::-1]),
                sorted({alpha, 0.1, 0.25, 0.4}), (1, 2, 4)):
            _assert_flags_match(lat, other, alpha_q, s_param)


@given(st.integers(2, 30), st.floats(0.2, 0.8), st.integers(0, 2**32 - 1),
       st.integers(1, 2**12))
@settings(max_examples=25, deadline=None)
def test_gaps_match_reference_on_random_spaces(n, kappa, seed, cells):
    # random clouds with a resolution from 1x to 10x the smallest distance,
    # drawn in chunks of a random cell budget
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 4.0, (n, 2))
    rho = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1))
    space = MetricMeasureSpace(
        rho=rho, nu=np.ones(n), mu=np.full(n, 1 / n),
        omega=np.zeros(n, dtype=bool),
        resolution_h=rng.uniform(1.0, 10.0) *
        rho[~np.eye(n, dtype=bool)].min())
    alpha = float(rng.uniform(0.05, 0.5))
    size = int(rng.integers(1, 20))
    try:
        probes = _probes(space, kappa, seed)
    except DegenerateScale:
        with pytest.raises(DegenerateScale):
            ensemble_gaps([], [], space, kappa, alpha, size, seed)
        return
    with mock.patch.object(lattice, "ENSEMBLE_CELLS", cells):
        got = ensemble_gaps(*probe_args(probes), space, kappa, alpha, size,
                            seed)
    assert got.tobytes() == _gaps_reference(probes, space, kappa, alpha,
                                            size, seed).tobytes()


@given(st.integers(1, 30), st.floats(0.2, 0.8), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_bad_flags_match_reference_on_random_spaces(n, kappa, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 4.0, (n, 2))
    rho = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1))
    space = MetricMeasureSpace(
        rho=rho, nu=np.ones(n), mu=np.full(n, 1 / n),
        omega=np.zeros(n, dtype=bool),
        resolution_h=rng.uniform(1.0, 10.0) *
        rho[~np.eye(n, dtype=bool)].min(initial=1.0))
    try:
        lats = [build_lattice(space, kappa, seed=int(s))
                for s in rng.integers(0, 2**32, 2)]
    except DegenerateScale:
        return
    alpha = float(rng.uniform(0.05, 0.5))
    for (lat, other), s_param in itertools.product((lats, lats[::-1]),
                                                   (1, 2, 4)):
        _assert_flags_match(lat, other, alpha, s_param)


@pytest.mark.parametrize("size", (0, -3))
def test_empty_ensemble_is_rejected(size):
    space, kappa, alpha = _space("uniform_grid")
    probe = _probes(space, kappa, 1)[0]
    with pytest.raises(ValueError, match=f"ensemble size .* got {size}"):
        ensemble_gaps(*probe_args([probe]), space, kappa, alpha, size)
    with pytest.raises(ValueError, match=f"ensemble size .* got {size}"):
        estimate_bad_probability(probe.members, probe.generation, space,
                                 kappa, alpha, 0.25, 1, size)
