"""The lattice-wide passes against the per-cube code they replaced.

``verify_lattice_properties``, ``classify_terminal_transit`` and
``carleson_embedding_check`` run one array pass per generation and read
mu(Q) from ``lat.mass``.  The code below is the earlier form, kept as the
reference: one Python step per cube, with mu(Q) summed from its members.
Every field of the reports must be the same, the failures in the same
order and the Carleson constant the same float bit for bit, on the
built-in examples and spaces with cubes of zero nu- or mu-mass; on
hand-broken lattices the properties and failures must be the same."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from czkit.certify import carleson_embedding_check
from czkit.errors import RootTerminal
from czkit.examples import generate_example
from czkit.lattice import (build_lattice, classify_terminal_transit,
                           verify_lattice_properties)
from czkit.space import MetricMeasureSpace
from conftest import (broken_lattice, edited_lattice, explicit_space,
                      line_space, per_cube)

SEEDS = (1, 2, 2476693647)
# the four built-ins (line_in_plane has n = 13), the benchmark's line and
# Bergman spaces, and random masses under an explicit metric
EXAMPLES = {
    "uniform_grid": ("uniform_grid", {}),
    "line_in_plane": ("line_in_plane", {}),
    "cantor_measure": ("cantor_measure", {}),
    "bergman_disc_model": ("bergman_disc_model", {}),
    "line_n21": ("line_in_plane", {"n": 21}),
    "bergman_64": ("bergman_disc_model",
                   {"n_ring": 64, "n_cluster": 8, "n_boundary": 32}),
    "explicit": (None, {}),
}


def ref_verify_lattice_properties(lat):
    space = lat.space
    failures = []
    n = space.n_points

    partition_ok = True
    for k in lat.generations():
        if (lat.labels[k] < 0).any():
            partition_ok = False
            failures.append(("partition", k, "uncovered points"))
        seen = np.bincount(np.concatenate(
            [lat.cubes[cid].members for cid in lat.by_gen[k]]), minlength=n)
        if (seen > 1).any():
            partition_ok = False
            failures.append(("disjointness", k, "overlapping cubes"))

    nesting_ok = True
    unique_ancestor_ok = True
    for cid, cube in lat.cubes.items():
        if cube.parent is not None:
            pm = set(lat.cubes[cube.parent].members.tolist())
            if not set(cube.members.tolist()) <= pm:
                nesting_ok = False
                failures.append(("nesting", cid, cube.parent))
        if cube.generation > lat.k_min:
            anc = lat.labels[cube.generation - 1][cube.members]
            if np.unique(anc).size != 1:
                unique_ancestor_ok = False
                failures.append(("unique_ancestor", cid, None))

    return partition_ok, nesting_ok, unique_ancestor_ok, failures


def ref_classify_terminal_transit(lat):
    """The terminal flag per cube id, which is left out of ``lat``."""
    space = lat.space
    omega = space.omega
    flags = {}
    for cube in lat.cubes.values():
        in_omega = cube.parent is not None and \
            bool(omega[lat.cubes[cube.parent].members].all())
        flags[cube.id] = in_omega or float(space.mu[cube.members].sum()) <= 0.0
    if flags[lat.root_id]:
        raise RootTerminal("root cube is terminal; mu carries no mass")
    return flags


def ref_carleson_embedding_check(a, lattice):
    subtree = {}
    for k in sorted(lattice.by_gen, reverse=True):
        for cid in lattice.by_gen[k]:
            cube = lattice.cubes[cid]
            total = a.get(cid, 0.0)
            for ch in cube.children:
                total += subtree.get(ch, 0.0)
            subtree[cid] = total
    fitted = 0.0
    worst = None
    skipped = []
    for cid, cube in lattice.cubes.items():
        mass = float(lattice.space.mu[cube.members].sum())
        if mass <= 0:
            if subtree.get(cid, 0.0) > 0:
                skipped.append(cid)
            continue
        ratio = subtree[cid] / mass
        if ratio > fitted:
            fitted = ratio
            worst = cid
    return {"fitted": fitted, "worst_cube": worst,
            "zero_mass_skipped": skipped}


def _hex(x):
    return float(x).hex()


def assert_same_properties(lat):
    """The properties and failures against the reference."""
    rep = verify_lattice_properties(lat)
    ok_p, ok_n, ok_u, failures = ref_verify_lattice_properties(lat)
    assert (rep.partition_ok, rep.nesting_ok, rep.unique_ancestor_ok) == \
        (ok_p, ok_n, ok_u)
    assert rep.failures == failures
    return rep


def assert_same_flags(lat):
    """Terminal flags against the reference; returns the flags by cube
    id."""
    try:
        want_flags = ref_classify_terminal_transit(lat)
    except RootTerminal:
        with pytest.raises(RootTerminal):
            classify_terminal_transit(lat)
        return None
    classify_terminal_transit(lat)
    flags = {cid: c.terminal for cid, c in lat.cubes.items()}
    assert flags == want_flags
    assert all(type(f) is bool for f in flags.values())
    return flags


def assert_same_carleson(lat, a):
    got = carleson_embedding_check(per_cube(a, lat), lat)
    want = ref_carleson_embedding_check(a, lat)
    assert _hex(got["fitted"]) == _hex(want["fitted"])
    assert (got["worst_cube"], got["zero_mass_skipped"]) == \
        (want["worst_cube"], want["zero_mass_skipped"])
    return got


def _weights(lat, seed):
    """Random Carleson weights on about two thirds of the cubes."""
    rng = np.random.default_rng(seed)
    return {cid: float(rng.uniform(0.0, 1.0) ** 3) for cid in lat.cubes
            if rng.random() < 0.67}


def _example(name):
    builder, params = EXAMPLES[name]
    if builder is None:
        return explicit_space(), {"kappa": 0.5, "m": 1.0}
    return generate_example(builder, **params)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_passes_match_per_cube_reference(name, seed):
    space, info = _example(name)
    lat = build_lattice(space, info["kappa"], seed=seed)
    assert assert_same_properties(lat).passed
    assert_same_flags(lat)
    assert_same_carleson(lat, _weights(lat, seed))
    assert_same_carleson(lat, {})
    # equal weights on the finest cubes: ties for the worst cube
    assert_same_carleson(lat, dict.fromkeys(lat.by_gen[lat.k_max], 1.0))


@pytest.mark.parametrize("kind,fails", [
    ("overlap", {"disjointness", "nesting", "unique_ancestor"}),
    ("wrong_parent", {"nesting"}),
    ("straddle", {"nesting", "unique_ancestor"}),
    ("uncovered", {"partition", "nesting"}),
])
def test_passes_match_reference_on_broken_lattices(kind, fails):
    lat = broken_lattice(kind)
    rep = assert_same_properties(lat)
    assert not rep.passed
    assert {f[0] for f in rep.failures} == fails
    assert_same_flags(lat)
    assert_same_carleson(lat, _weights(lat, 3))


@given(st.sampled_from(["line_n21", "uniform_grid", "cantor_measure"]),
       st.integers(0, 2**16), st.sampled_from(["drop", "merge", "move"]))
@settings(max_examples=60, deadline=None)
def test_property_pass_matches_reference_on_edited_members(name, seed, kind):
    # a point left out of every cube of its generation, or put in two, makes
    # the complement of a cube more than the other cubes: the boundary
    # layers must still read it off the labels
    space, info = _example(name)
    lat = build_lattice(space, info["kappa"], seed=seed % 7)
    rng = np.random.default_rng(seed)
    k = int(rng.choice(sorted(lat.by_gen)[1:]))
    a, b = (lat.cubes[c] for c in rng.choice(lat.by_gen[k], 2))
    if kind == "drop" and a.members.size > 1:
        edits = {a.id: {"members": np.delete(
            a.members, rng.integers(a.members.size))}}
    elif kind == "merge":
        edits = {a.id: {"members": np.union1d(a.members, b.members)}}
    else:
        x = b.members[rng.integers(b.members.size)]
        edits = {a.id: {"members": np.union1d(a.members, [x])},
                 b.id: {"members": np.setdiff1d(b.members, [x])}}
    assert_same_properties(edited_lattice(lat, edits))


def test_passes_match_reference_with_zero_mass_cubes():
    # nu vanishes on the left third and mu on the left half: cubes there
    # are flagged terminal and left out of the Carleson ratios
    n = 12
    space = dataclasses.replace(
        line_space(n, mu=[0.0] * 6 + [1 / 6] * 6),
        nu=np.r_[np.zeros(4), np.ones(n - 4)])
    for seed in SEEDS:
        lat = build_lattice(space, 0.5, seed=seed)
        nu_q = [space.nu[c.members].sum() for c in lat.cubes.values()]
        assert min(nu_q) == 0.0
        assert_same_properties(lat)
        flags = assert_same_flags(lat)
        assert any(flags.values())
        rep = assert_same_carleson(lat, {cid: 1.0 for cid in lat.cubes})
        assert rep["zero_mass_skipped"]


def test_passes_match_reference_when_every_cube_is_full():
    # one point: every cube holds the whole space, whose diameter 0 lies
    # below the resolution
    space = MetricMeasureSpace(rho=np.zeros((1, 1)), nu=np.ones(1),
                               mu=np.ones(1), omega=np.zeros(1, dtype=bool),
                               resolution_h=1.0)
    lat = build_lattice(space, kappa=0.5, seed=0, k_range=(0, 2))
    assert assert_same_properties(lat).passed
    assert_same_flags(lat)
    assert_same_carleson(lat, {lat.root_id: 1.0})


def test_root_terminal_matches_reference():
    lat = build_lattice(line_space(4, mu=np.zeros(4)), kappa=0.5, seed=0)
    assert assert_same_flags(lat) is None


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_mass_is_the_member_sum(name):
    space, info = _example(name)
    for seed in SEEDS:
        lat = build_lattice(space, info["kappa"], seed=seed)
        assert [_hex(lat.mass[cid]) for cid in lat.cubes] == \
            [_hex(space.mu[c.members].sum()) for c in lat.cubes.values()]


def test_mass_honours_members_edited_before_first_use():
    space = line_space(8, mu=np.arange(8.0))
    lat = build_lattice(space, kappa=0.5, seed=1)
    leaf = lat.by_gen[lat.k_max][0]
    lat = edited_lattice(lat, {lat.root_id: {"members": [0, 5, 6]},
                               leaf: {"members": [7]}})
    assert lat.mass[lat.root_id] == 11.0
    assert lat.mass[leaf] == 7.0


def test_property_and_terminal_passes_memory_peak():
    # each generation's (cubes x N) masks and one N x N distance table at
    # a time; the per-cube passes peaked at 6.3 MB here
    space, info = generate_example("uniform_grid", n=25)
    lat = build_lattice(space, info["kappa"], seed=1)
    small = build_lattice(line_space(8), 0.5, seed=1)
    verify_lattice_properties(small)
    classify_terminal_transit(small)
    tracemalloc.start()
    try:
        verify_lattice_properties(lat)
        classify_terminal_transit(lat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6
