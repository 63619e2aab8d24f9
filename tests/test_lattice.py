"""Dyadic lattice construction, skeletons and good/bad classification."""

import dataclasses
import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from czkit.errors import DegenerateScale, LeafCube, RootTerminal
from czkit.examples import generate_example
from czkit.lattice import (_candidates, _default_k_range, _draw_batch,
                           _draw_orders, build_lattice, classify_all_good_bad,
                           classify_good_bad, classify_terminal_transit,
                           ensemble_gaps, estimate_bad_probability,
                           lattice_to_json, scale_gap, skeleton,
                           skeleton_by_generation, verify_lattice_properties)
from czkit.space import MetricMeasureSpace
from conftest import (edited_lattice, ensemble_lattices, explicit_space,
                      grid_space, line_space, probe_args)

ALPHA_11 = 0.25     # goodness exponent for tau = m = 1


# ---------------------------------------------------------------------------
# construction


def test_single_point_space():
    space = MetricMeasureSpace(rho=np.zeros((1, 1)), nu=np.ones(1),
                               mu=np.ones(1), omega=np.zeros(1, dtype=bool),
                               resolution_h=1.0)
    lat = build_lattice(space, kappa=0.5, seed=0, k_range=(0, 2))
    for k in lat.generations():
        assert len(lat.by_gen[k]) == 1
        cid = lat.by_gen[k][0]
        assert lat.cubes[cid].members.tolist() == [0]


def test_coarse_scale_gives_single_root():
    space = line_space(4)
    lat = build_lattice(space, kappa=0.5, seed=3, k_range=(-3, -3))
    assert len(lat.by_gen[-3]) == 1
    assert sorted(lat.root.members.tolist()) == [0, 1, 2, 3]


def test_two_seeds_both_valid_but_different():
    space = grid_space(8)
    lat1 = build_lattice(space, kappa=0.5, seed=1)
    lat2 = build_lattice(space, kappa=0.5, seed=2)
    assert verify_lattice_properties(lat1).passed
    assert verify_lattice_properties(lat2).passed
    same = all(
        (lat1.labels[k] == lat2.labels[k]).all()
        for k in lat1.generations() if k in lat2.labels)
    assert not same


def test_asymmetric_metric_is_refused_before_any_lattice():
    # build_lattice and the calibration ensemble share their entry
    space = grid_space(4)
    space.rho = space.rho.copy()
    space.rho[0, 5] = np.nextafter(space.rho[0, 5], 0.0)
    with pytest.raises(ValueError, match="symmetric metric"):
        build_lattice(space, kappa=0.5, seed=1)
    with pytest.raises(ValueError, match="symmetric metric"):
        ensemble_gaps([np.arange(4)], [1], space, 0.5, ALPHA_11, 4)


def test_degenerate_scale_raises():
    space = line_space(4)
    with pytest.raises(DegenerateScale):
        build_lattice(space, kappa=0.5, seed=0, k_range=(8, 9))


def test_build_deterministic_given_seed():
    space = grid_space(6)
    a = build_lattice(space, kappa=0.5, seed=11)
    b = build_lattice(space, kappa=0.5, seed=11)
    for k in a.generations():
        assert (a.labels[k] == b.labels[k]).all()


# sha256 of json.dumps(lattice_to_json(lat), sort_keys=True), captured from
# the point-by-point membership construction this one replaced
GOLDEN_LATTICES = {
    ("bergman_disc_model", 1):
        "b0fe07426678f2c0bfe557586dd3e3a61d6c43328d0c2a4dc7d8adeb7246bfde",
    ("bergman_disc_model", 2):
        "49fb6c0c87a6e55b397a83d09dfd3f9854be0a6933f29c999cc5f67230b0277e",
    ("bergman_disc_model", 2476693647):
        "8eb62d69140f21bbf8c2d4f692a105047e647c10211191573e9803aebaa2c6a7",
    ("cantor_measure", 1):
        "6cc03ea8a0631fd8175ec5022cfa65583386199a27b7dda7735c89a2a85b7485",
    ("cantor_measure", 2):
        "2ce8ee7a7405ca151d7e79c577a61c13f5c93d2fd339d251a5739e305899957c",
    ("cantor_measure", 2476693647):
        "653157892282cff0aae8612bf981379a94de16234dbf93b68eec7e5c42ac60d5",
    ("line_in_plane", 1):
        "caa31cdf2b635d09f17b801f1142c31698cb7a0fef2b3b05358a8effd08b1e73",
    ("line_in_plane", 2):
        "f05ee4cb891d5289010be3c9b91ec11f3b170caaab611d4fc015a08cfd7197cb",
    ("line_in_plane", 2476693647):
        "79e9dc628ce6ac91ca2dbd571efe06eddf537176e1cd4b6bb325af6f34325c8f",
}
GOLDEN_PARAMS = {
    "bergman_disc_model": {"n_ring": 64, "n_cluster": 8, "n_boundary": 32},
    "cantor_measure": {"level": 6},
    "line_in_plane": {"n": 13},
}


@pytest.mark.parametrize("name,seed", sorted(GOLDEN_LATTICES))
def test_golden_lattice_fingerprint(name, seed):
    space, info = generate_example(name, **GOLDEN_PARAMS[name])
    lat = build_lattice(space, info["kappa"], seed=seed)
    doc = json.dumps(lattice_to_json(lat), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == \
        GOLDEN_LATTICES[(name, seed)]
    for k in lat.generations():
        for cid in lat.by_gen[k]:
            assert (lat.labels[k][lat.cubes[cid].members] == cid).all()
        assert sum(lat.cubes[c].members.size for c in lat.by_gen[k]) == \
            space.n_points


# sha256 of json.dumps(lattice_to_json(lat), sort_keys=True) after
# classify_terminal_transit and classify_all_good_bad against the pair's
# other lattice (the example's alpha, delta_bad = 1/4, S = 1), captured from
# the lattices that stored one mutable Cube per cube id
GOLDEN_CLASSIFIED = {
    ("bergman_disc_model", 1):
        "f2449bda70bc53f7ef9cfbd70afe36f9348c456ec386c888b526b3e6342b038c",
    ("bergman_disc_model", 2):
        "c61732697aa6a7712dcb53929bc4fa37acea12b9f40fcbcc32d858ae45be810a",
    ("bergman_disc_model", 2476693647):
        "5946469d3b58442cb4ab1a5cbf776024ce778be9a32e140cc6fa0d32d762a7dc",
    ("cantor_measure", 1):
        "448a11596ea3c56c12dd9a95ed0d5925bf67e2b7f03ffb91ca72369858907a34",
    ("cantor_measure", 2):
        "dffe4d1503a08b618ab30a8fa051df605ed6b4946cd034737cd4add335dbbbc1",
    ("cantor_measure", 2476693647):
        "e2c263ddb89cc4b8c174937f5f3c0df95729b05fed8226fa597210798ae8ad03",
    ("line_in_plane", 1):
        "5fcdfdcaa021d243b43784f10fb3e491911323875892741eaaeedd97d98cc21c",
    ("line_in_plane", 2):
        "3749282b9d539eff11f1f8fadae2664deb3c6c37bff21666d18db186596262a0",
    ("line_in_plane", 2476693647):
        "7a05f8be38a1893ae7d20fe98caf93e9245ac5594cc43262debaeb591995a12e",
}
GOLDEN_PAIR = {1: 2, 2: 1, 2476693647: 1295026582}


@pytest.mark.parametrize("name,seed", sorted(GOLDEN_CLASSIFIED))
def test_golden_classified_lattice_fingerprint(name, seed):
    from czkit.certify import alpha_param
    space, info = generate_example(name, **GOLDEN_PARAMS[name])
    lat = build_lattice(space, info["kappa"], seed=seed)
    other = build_lattice(space, info["kappa"], seed=GOLDEN_PAIR[seed])
    classify_terminal_transit(lat)
    classify_all_good_bad(lat, other, alpha_param(info["m"], info["tau"]),
                          0.25, 1)
    doc = lattice_to_json(lat)
    assert all(type(c[flag]) is bool for gen in doc["generations"]
               for c in gen["cubes"] for flag in ("terminal", "good"))
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode())
    assert digest.hexdigest() == GOLDEN_CLASSIFIED[(name, seed)]


# ---------------------------------------------------------------------------
# batched net draws against the per-lattice greedy loop they replaced


def _draw_nets_reference(space, kappa, seed, k_range, nearest, orders=None):
    """One lattice's nets and labels, one greedy Python loop per generation
    and one nearest-center argmin over all points per generation; the
    orders are seed ``seed``'s permutations, or the (generations, N)
    ``orders`` where given."""
    n = space.n_points
    rho = space.rho
    if k_range is None:
        k_min, k_max = _default_k_range(space, kappa)
    else:
        k_min, k_max = k_range
    if k_max < k_min:
        raise DegenerateScale(f"empty generation range {k_min}..{k_max}")
    if kappa ** k_max < space.resolution_h / 2 and k_range is not None:
        if kappa ** k_min < space.resolution_h:
            raise DegenerateScale("all scales below resolution_h")
    rng = np.random.default_rng(seed)
    centers_by_gen = {}
    raw_label = {}
    for k in range(k_min, k_max + 1):
        scale = kappa ** k
        order = rng.permutation(n) if orders is None else orders[k - k_min]
        isolated = nearest >= scale
        selected = np.flatnonzero(isolated).tolist()
        mindist = np.full(n, np.inf)
        for p in order[~isolated[order]].tolist():
            if mindist[p] >= scale:
                selected.append(p)
                np.minimum(mindist, rho[p], out=mindist)
        selected.sort()
        centers = np.array(selected)
        raw_label[k] = np.argmin(rho[:, centers], axis=1)
        centers_by_gen[k] = centers
    if len(centers_by_gen[k_min]) != 1:
        centers_by_gen[k_min] = centers_by_gen[k_min][:1]
        raw_label[k_min] = np.zeros(n, dtype=int)
    gens = range(k_min, k_max + 1)
    offset = dict(zip(gens, np.cumsum([0] + [len(centers_by_gen[k])
                                             for k in gens])))
    labels = {k_max: raw_label[k_max] + offset[k_max]}
    for k in range(k_max, k_min, -1):
        parent_id = raw_label[k - 1][centers_by_gen[k]] + offset[k - 1]
        labels[k - 1] = parent_id[labels[k] - offset[k]]
    return k_min, k_max, labels, centers_by_gen, offset


# the lattice seeds of the golden fingerprints and of the benchmark's seed-402
# certificate first, then the seeds the calibration ensemble drew from before
# its one key stream
DRAW_SEEDS = [1, 2, 7, 2476693647, 1295026582] + \
    [hash((0, i)) % 2**32 for i in range(145)]


def _assert_draws_match(space, kappa, seeds, k_range=None):
    """A batch of ``seeds`` drawn with candidate lists gives each seed the
    nets and centers of a batch of that seed alone without them; a batch of
    one draws the reference's nets, and ``build_lattice`` labels as the
    reference does, bit for bit, or raises ``DegenerateScale`` where it
    does."""
    nearest = space.nearest_other
    try:
        k_min, k_max = _draw_nets_reference(space, kappa, seeds[0], k_range,
                                            nearest)[:2]
    except DegenerateScale:
        with pytest.raises(DegenerateScale):
            build_lattice(space, kappa, seeds[0], k_range)
        return
    gens = range(k_min, k_max + 1)
    batch = _draw_batch(space, kappa,
                        _draw_orders(seeds, len(gens), space.n_points), gens,
                        _candidates(space, kappa, gens))
    for s, seed in enumerate(seeds):
        alone = _draw_batch(space, kappa,
                            _draw_orders([seed], len(gens), space.n_points),
                            gens)
        for got, want in zip(batch, alone):
            assert got.dtype == want.dtype
            assert got[:, s].tobytes() == want[:, 0].tobytes()
        _, _, labels, centers, _ = _draw_nets_reference(space, kappa, seed,
                                                        k_range, nearest)
        for t, k in enumerate(gens):
            net = alone[0][t, 0].nonzero()[0]
            assert net[:1 if k == k_min else None].tolist() == \
                centers[k].tolist()
        lat = build_lattice(space, kappa, seed, k_range)
        assert (lat.k_min, lat.k_max) == (k_min, k_max)
        assert list(lat.labels) == list(labels)
        for k, want in labels.items():
            assert lat.labels[k].dtype == want.dtype
            assert lat.labels[k].tobytes() == want.tobytes()


@pytest.mark.parametrize("batch", (1, 2, 16, 150))
@pytest.mark.parametrize("name", ("uniform_grid", "line_in_plane",
                                  "cantor_measure", "bergman_disc_model",
                                  "explicit"))
def test_batched_draw_matches_per_lattice_reference(name, batch):
    if name == "explicit":
        space, kappa = explicit_space(), 0.5
    else:
        space, info = generate_example(name)
        kappa = info["kappa"]
    _assert_draws_match(space, kappa, DRAW_SEEDS[:batch])


@given(st.integers(1, 30), st.floats(0.2, 0.8), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_batched_draw_matches_reference_on_random_spaces(n, kappa, seed):
    # random clouds with a resolution from 1x to 10x the smallest distance,
    # so that isolated points and shared nets both occur
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 4.0, (n, 2))
    rho = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1))
    off = rho[~np.eye(n, dtype=bool)]
    space = MetricMeasureSpace(
        rho=rho, nu=np.ones(n), mu=np.full(n, 1 / n),
        omega=np.zeros(n, dtype=bool),
        resolution_h=rng.uniform(1.0, 10.0) * off.min() if n > 1 else 1.0)
    seeds = rng.integers(0, 2**32, int(rng.integers(1, 20))).tolist()
    _assert_draws_match(space, kappa, seeds)


@pytest.mark.parametrize("batch", (1, 2, 16))
@pytest.mark.parametrize("k_range", ((-2, 3), (0, 0), (0, 3), (-4, -3)))
def test_batched_draw_matches_reference_on_explicit_k_range(k_range, batch):
    # (0, 3) reaches below the unit resolution of both spaces at its fine end
    _assert_draws_match(line_space(9), 0.5, DRAW_SEEDS[:batch], k_range)
    _assert_draws_match(grid_space(5), 0.5, DRAW_SEEDS[:batch], k_range)


@pytest.mark.parametrize("k_range", ((8, 9), (3, 2)))
def test_batched_draw_degenerate_scales_raise_as_reference(k_range):
    with pytest.raises(DegenerateScale):
        _draw_nets_reference(line_space(4), 0.5, 1, k_range,
                             line_space(4).nearest_other)
    _assert_draws_match(line_space(4), 0.5, DRAW_SEEDS[:2], k_range)


# ---------------------------------------------------------------------------
# property verification


def test_partition_and_nesting_on_grid():
    space = grid_space(8)
    lat = build_lattice(space, kappa=0.5, seed=5)
    rep = verify_lattice_properties(lat)
    assert rep.partition_ok and rep.nesting_ok and rep.unique_ancestor_ok
    # independent partition check per generation
    for k in lat.generations():
        seen = np.zeros(space.n_points, dtype=int)
        for cid in lat.by_gen[k]:
            seen[lat.cubes[cid].members] += 1
        assert (seen == 1).all()


def test_hand_built_overlap_detected():
    space = line_space(4)
    lat = build_lattice(space, kappa=0.5, seed=0)
    k = lat.k_max
    if len(lat.by_gen[k]) > 1:
        a, b = lat.by_gen[k][:2]
        lat = edited_lattice(lat, {a: {"members": np.union1d(
            lat.members(a), lat.members(b))}})
        rep = verify_lattice_properties(lat)
        assert not rep.partition_ok or not rep.nesting_ok


def test_sizes_follow_kappa_powers():
    space = line_space(8)
    lat = build_lattice(space, kappa=0.5, seed=1)
    for cube in lat.cubes.values():
        assert cube.size == pytest.approx(0.5 ** cube.generation)


# ---------------------------------------------------------------------------
# skeleton


def _integer_line_lattice():
    """0..7 with a root split into {0..3} and {4..7}."""
    space = line_space(8)
    lat = build_lattice(space, kappa=0.5, seed=0, k_range=(-3, -2))
    return space, lat


def test_skeleton_integer_line_split():
    space = line_space(8)
    # choose the seed that splits the root into two blocks of four
    for seed in range(60):
        lat = build_lattice(space, kappa=0.5, seed=seed, k_range=(-3, -2))
        kids = [sorted(lat.cubes[c].members.tolist())
                for c in lat.root.children]
        if sorted(kids) == [[0, 1, 2, 3], [4, 5, 6, 7]]:
            got = sorted(skeleton(lat, lat.root).tolist())
            assert got == [3, 4]
            return
    pytest.skip("no seed produced the balanced split")


def test_skeleton_leaf_raises():
    space, lat = _integer_line_lattice()
    leaf = lat.cubes[lat.by_gen[lat.k_max][0]]
    with pytest.raises(LeafCube):
        skeleton(lat, leaf)


def test_skeleton_by_generation_matches_per_cube():
    space = grid_space(6)
    lat = build_lattice(space, kappa=0.5, seed=2)
    table = skeleton_by_generation(lat)
    for k, (pts, owners) in table.items():
        union = set()
        for cid in lat.by_gen[k]:
            cube = lat.cubes[cid]
            if not cube.is_leaf:
                union |= set(skeleton(lat, cube).tolist())
        assert set(pts.tolist()) == union


# ---------------------------------------------------------------------------
# terminal / transit


def test_all_transit_without_omega():
    space = grid_space(6)
    lat = build_lattice(space, kappa=0.5, seed=1)
    classify_terminal_transit(lat)
    assert all(not c.terminal for c in lat.cubes.values())


def test_parent_in_omega_means_terminal(line_lattice):
    space = line_lattice.space
    for cube in line_lattice.cubes.values():
        if cube.parent is None:
            continue
        parent = line_lattice.cubes[cube.parent]
        if space.omega[parent.members].all():
            assert cube.terminal


def test_terminal_matches_brute_force(line_lattice):
    space = line_lattice.space
    for cube in line_lattice.cubes.values():
        if cube.parent is None:
            expect = space.mu[cube.members].sum() <= 0
        else:
            parent = line_lattice.cubes[cube.parent]
            expect = (space.omega[parent.members].all()
                      or space.mu[cube.members].sum() <= 0)
        assert cube.terminal == expect


def test_root_terminal_raises():
    # mu carries no mass, so the root has none
    lat = build_lattice(line_space(4, mu=np.zeros(4)), kappa=0.5, seed=0)
    with pytest.raises(RootTerminal):
        classify_terminal_transit(lat)


def test_omega_everywhere_keeps_root_transit():
    space = line_space(4, omega=range(4))
    lat = build_lattice(space, kappa=0.5, seed=0)
    classify_terminal_transit(lat)
    assert not lat.root.terminal
    for cube in lat.cubes.values():
        if cube.parent is not None:
            assert cube.terminal


# ---------------------------------------------------------------------------
# scale gap and good/bad


def test_scale_gap_smallest_power():
    # kappa = 1/2, delta = 1/4, S = 2: need (1/2)^r <= (1/16) -> r = 4
    assert scale_gap(0.5, 0.25, 2) == 4
    assert scale_gap(0.5, 0.25, 1) == 2
    assert scale_gap(0.25, 0.25, 3) == 3


def test_alpha_value_for_tau_equals_m():
    from czkit.certify import alpha_param
    assert alpha_param(1.0, 1.0) == pytest.approx(0.25)


def test_good_bad_brute_force_agreement():
    space = grid_space(6)
    lat1 = build_lattice(space, kappa=0.5, seed=1)
    lat2 = build_lattice(space, kappa=0.5, seed=2)
    s_param = 1
    r_gap = scale_gap(0.5, 0.25, s_param)
    skel = skeleton_by_generation(lat2)
    for cube in lat1.cubes.values():
        good, witness = classify_good_bad(cube, lat2, ALPHA_11, 0.25, s_param)
        # brute force double loop
        expect = True
        for other in lat2.cubes.values():
            if other.generation > cube.generation - r_gap:
                continue
            if other.generation not in skel:
                continue
            pts, owners = skel[other.generation]
            own = pts[owners == other.id]
            if own.size == 0:
                continue
            d = space.rho[np.ix_(cube.members, own)].min()
            if d < cube.size ** ALPHA_11 * other.size ** (1 - ALPHA_11):
                expect = False
                break
        assert good == expect
        if not good:
            assert witness is not None


def test_good_bad_monotone_in_scale_gap():
    space = grid_space(6)
    lat1 = build_lattice(space, kappa=0.5, seed=1)
    lat2 = build_lattice(space, kappa=0.5, seed=2)
    for cube in lat1.cubes.values():
        good1, _ = classify_good_bad(cube, lat2, ALPHA_11, 0.25, 1)
        good2, _ = classify_good_bad(cube, lat2, ALPHA_11, 0.25, 2)
        if good1:
            assert good2       # larger gap can only improve the verdict


def test_no_candidates_means_good():
    space = line_space(4)
    lat1 = build_lattice(space, kappa=0.5, seed=1, k_range=(-2, -1))
    lat2 = build_lattice(space, kappa=0.5, seed=2, k_range=(-2, -1))
    # gap exceeds the lattice depth: nothing is r generations coarser
    for cube in lat1.cubes.values():
        good, witness = classify_good_bad(cube, lat2, ALPHA_11, 0.25, 8)
        assert good and witness is None


def test_bad_probability_no_candidates():
    space = line_space(8)
    lat = build_lattice(space, kappa=0.5, seed=1)
    cube = lat.cubes[lat.by_gen[lat.k_max][0]]
    p_hat, stderr, low = estimate_bad_probability(
        cube.members, cube.generation, space, 0.5, ALPHA_11, 0.25,
        s_param=40, ensemble_size=4)
    assert p_hat == 0.0
    assert low          # tiny ensemble flagged low-confidence


def test_bad_probability_small_ensemble_flag(line_lattice):
    space = line_lattice.space
    cube = line_lattice.cubes[line_lattice.by_gen[line_lattice.k_max][0]]
    _, _, low = estimate_bad_probability(
        cube.members, cube.generation, space, 0.5, ALPHA_11, 0.25,
        s_param=1, ensemble_size=1)
    assert low


@pytest.mark.parametrize("name", ["uniform_grid", "line_in_plane"])
def test_ensemble_gaps_agree_with_classify_good_bad(name):
    space, _ = generate_example(name)
    base = build_lattice(space, kappa=0.5, seed=0)
    rng = np.random.default_rng(4)
    ids = [cid for cid in base.cubes if base.cubes[cid].generation > base.k_min]
    probes = [base.cubes[cid] for cid in rng.choice(ids, 6, replace=False)]
    gaps = ensemble_gaps(*probe_args(probes), space, 0.5, 0.1, 5,
                         master_seed=9)
    outcomes = set()
    for i, lat2 in enumerate(ensemble_lattices(space, 0.5, 5, 9)):
        for j, cube in enumerate(probes):
            for delta, s_param in itertools.product((0.25, 0.7), (1, 2, 4)):
                bad = gaps[i, j] >= scale_gap(0.5, delta, s_param)
                good, _ = classify_good_bad(cube, lat2, 0.1, delta, s_param)
                assert bad == (not good)
                outcomes.add(bool(bad))
    assert outcomes == {True, False}


# sha256 of the int64 bytes of ensemble_gaps(...) for the probes calibrate_S
# draws (ensemble 150 for bergman, 100 otherwise), and the number of nonzero
# gaps; line and grid captured from the ensemble's key stream and checked
# against the per-lattice reference of test_ensemble_reference (the bergman
# gaps are all zero under the hashed seeds of before and the stream alike)
GOLDEN_GAPS = {
    ("bergman_disc_model", 0):
        ("967eedb2dc77a95e6270119ece23d9f47ca97c3b18ffa7d391d34e461b284f4c", 0),
    ("bergman_disc_model", 5):
        ("967eedb2dc77a95e6270119ece23d9f47ca97c3b18ffa7d391d34e461b284f4c", 0),
    ("bergman_disc_model", 3813294786):
        ("967eedb2dc77a95e6270119ece23d9f47ca97c3b18ffa7d391d34e461b284f4c", 0),
    ("line_in_plane", 0):
        ("259453b10d3dd384696439a154abce97d0d76a2c0e9a7553432387f6e821f344",
         271),
    ("line_in_plane", 5):
        ("2cd094a8619e0cd1e44b62f8fbcd5c8065d5dcadfec3886244652352fbb0bfa1",
         266),
    ("uniform_grid", 0):
        ("1d6c49920c82e8c05acca5d55460c56cf0d0ee4bc8c6a3f168236e435887d5dd",
         266),
    ("uniform_grid", 5):
        ("5ac3c354a0917284a929d70ece36f97bc519f7b7bd2b82f9cf2414f59c653b29",
         270),
}
GOLDEN_GAP_PARAMS = {**GOLDEN_PARAMS, "uniform_grid": {"n": 9}}


@pytest.mark.parametrize("name,seed", sorted(GOLDEN_GAPS))
def test_golden_ensemble_gaps(name, seed):
    from czkit.certify import alpha_param
    space, info = generate_example(name, **GOLDEN_GAP_PARAMS[name])
    lat = build_lattice(space, info["kappa"], seed=seed)
    probes = [lat.cubes[ids[len(ids) // 2]] for k, ids in lat.by_gen.items()
              if ids and k > lat.k_min][:3]
    ensemble = 150 if name == "bergman_disc_model" else 100
    gaps = ensemble_gaps(*probe_args(probes), space, info["kappa"],
                         alpha_param(info["m"], info["tau"]), ensemble,
                         master_seed=seed)
    assert gaps.shape == (ensemble, 3)
    digest = hashlib.sha256(gaps.astype(np.int64).tobytes()).hexdigest()
    assert (digest, int((gaps > 0).sum())) == GOLDEN_GAPS[(name, seed)]


def _random_space(n, seed, h_factor):
    rng = np.random.default_rng(seed)
    coords = rng.random((n, 2))
    rho = np.sqrt(((coords[:, None] - coords[None]) ** 2).sum(axis=-1))
    smallest = rho[~np.eye(n, dtype=bool)].min()
    return MetricMeasureSpace(rho=rho, nu=np.ones(n), mu=np.full(n, 1 / n),
                              omega=np.zeros(n, dtype=bool),
                              resolution_h=h_factor * smallest)


@pytest.mark.parametrize("space", [grid_space(6), line_space(9),
                                   _random_space(40, 1, 1.0),
                                   _random_space(40, 2, 4.0),
                                   _random_space(60, 3, 10.0)])
def test_skeleton_by_generation_matches_n_by_n_scan(space):
    h = space.resolution_h
    for seed in range(4):
        lat = build_lattice(space, kappa=0.5, seed=seed)
        table = skeleton_by_generation(lat)
        assert set(table) == set(lat.generations()) - {lat.k_max}
        for k, (pts, owners) in table.items():
            child_lab = lat.labels[k + 1]
            same = child_lab[:, None] == child_lab[None, :]
            d_other = np.where(same, np.inf, space.rho).min(axis=1)
            expect = np.flatnonzero(d_other <= h)
            assert pts.tolist() == expect.tolist()
            assert owners.tolist() == lat.labels[k][expect].tolist()
            for cid in lat.by_gen[k]:
                own = [p for c in lat.cubes[cid].children
                       for p in lat.cubes[c].members if d_other[p] <= h]
                assert skeleton(lat, lat.cubes[cid]).tolist() == sorted(own)


# ---------------------------------------------------------------------------
# serialization


def test_cube_views_are_read_only():
    lat = build_lattice(line_space(8), kappa=0.5, seed=1)
    classify_terminal_transit(lat)
    cube = lat.cubes[lat.root_id]
    for name, value in (("members", np.array([0])), ("parent", 3),
                        ("children", ()), ("terminal", True), ("good", False)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cube, name, value)
    with pytest.raises(ValueError):
        cube.members[0] = 5                  # a read-only view of the CSR
    with pytest.raises(TypeError):
        lat.cubes[lat.root_id] = cube
    assert lat.cubes[lat.root_id].members.tolist() == list(range(8))
    assert type(lat.root.terminal) is bool and lat.root.good is None


def test_classify_all_needs_one_space():
    space = grid_space(5)
    lat = build_lattice(space, kappa=0.5, seed=1)
    other = build_lattice(dataclasses.replace(space), kappa=0.5, seed=2)
    with pytest.raises(ValueError, match="different spaces"):
        classify_all_good_bad(lat, other, ALPHA_11, 0.25, 1)


def test_classify_all_sets_flags():
    space = grid_space(5)
    lat1 = build_lattice(space, kappa=0.5, seed=1)
    lat2 = build_lattice(space, kappa=0.5, seed=2)
    classify_all_good_bad(lat1, lat2, ALPHA_11, 0.25, 1)
    assert all(c.good is not None for c in lat1.cubes.values())
