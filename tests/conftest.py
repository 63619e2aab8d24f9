"""Shared fixtures: small deterministic spaces and lattices."""

import inspect
import os
import types

# Pin BLAS to one thread before numpy is imported. OpenBLAS splits a large
# product across threads and sums its pieces in a thread-dependent order, so
# the golden run reports, pinned byte for byte, would depend on the core
# count; on line_in_plane(n=21) they do. The benchmark pins it the same way.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest

from czkit.certify import long_range_entry
from czkit.examples import generate_example
from czkit.kernels import on_support
from czkit.lattice import DyadicLattice, _ensemble_keys, _generation_range, \
    _lattice_of_orders, build_lattice, classify_terminal_transit
from czkit.projections import good_component_ids, split_good_bad
from czkit.space import MetricMeasureSpace, space_from_json


# the five built-in runs: (example, its parameters, scenario overrides)
BERGMAN_64 = {"n_ring": 64, "n_cluster": 8, "n_boundary": 32}
RUNS = (("uniform_grid", {"n": 9}, {}), ("line_in_plane", {"n": 13}, {}),
        ("cantor_measure", {"level": 6}, {}), ("bergman_disc_model", {}, {}),
        ("bergman_disc_model", BERGMAN_64, {"s_param": None,
                                            "ensemble": 150}))


def _defined_functions(path) -> dict:
    """(first line, name) -> qualified name of every function and method
    defined in the source file ``path``, nested ones included."""
    out = {}

    def walk(code, outer):
        for const in code.co_consts:
            if isinstance(const, types.CodeType) and \
                    not const.co_name.startswith("<"):
                name = outer + const.co_name
                if const.co_flags & inspect.CO_NEWLOCALS:   # not a class
                    out[const.co_firstlineno, const.co_name] = name
                walk(const, name + ".")

    with open(path) as fh:
        walk(compile(fh.read(), path, "exec"), "")
    return out


def regrouping(kernel, space, dec_f, dec_g, split) -> tuple:
    """(direct, error) per probe of a split: direct = <T f_good, g_good>_mu,
    and error = |Lambda part + every regime sum of both halves - direct|
    over what those terms can round to, (F mu)^T |K| (G mu) on supp mu,
    F = |Lambda f| + sum_Q |Delta_Q f| over the good components and G the
    same of g.  The Lambda part pairs the constant parts of f and g against
    everything else."""
    supp, k = on_support(kernel, space)
    mu = space.mu[supp]

    def pair(u, v, k=k):
        # <T u, v>_mu; a trailing unit axis keeps one GEMV per probe
        return ((k @ (u[..., supp] * mu)[..., None])[..., 0] *
                v[..., supp] * mu).sum(axis=-1)

    def magnitude(dec):
        ids = good_component_ids(dec.lattice).tolist()
        return np.abs(dec.constant()) + np.abs(dec.dense(ids)).sum(axis=-2)

    (f_good, _), (g_good, _) = split_good_bad(dec_f), split_good_bad(dec_g)
    lam_f, lam_g = dec_f.constant(), dec_g.constant()
    direct = pair(f_good, g_good)
    total = pair(lam_f, g_good) + pair(f_good - lam_f, lam_g) + sum(
        values.sum(axis=-1) for half in split.halves
        for values in half.values.values())
    scale = pair(magnitude(dec_f), magnitude(dec_g), np.abs(k))
    return direct, np.abs(total - direct) / np.maximum(
        scale, np.finfo(float).tiny)


def kernel_doc(kernel) -> dict:
    """The JSON document of a kernel, as ``kernel_from_json`` reads it."""
    doc = {"type": kernel.name, "m": kernel.m, "tau": kernel.tau,
           "C_CZ": kernel.C_CZ, "delta_CZ": kernel.delta_CZ,
           "diagonal_policy": kernel.diagonal_policy}
    if kernel.name == "explicit":
        doc["matrix"] = kernel.matrix.tolist()
    else:
        doc["params"] = kernel.params
    return doc


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
    """36 random points in the plane under an explicit metric, their
    distances moved by up to 1e-13 (the same both ways), with random
    probability masses."""
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.0, 8.0, (36, 2))
    rho = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1))
    rho = np.triu(rho + rng.uniform(0.0, 1e-13, rho.shape), 1)
    rho += rho.T
    n = len(pts)
    return space_from_json({
        "points": list(range(n)), "nu": [1.0] * n,
        "mu": rng.dirichlet(np.ones(n)).tolist(),
        "metric": {"type": "explicit", "matrix": rho.tolist()}})


def edited_lattice(lat, edits: dict):
    """A ``DyadicLattice`` built by hand as ``lat`` with the members or
    parent of cube c replaced by edits[c] (a dict); a point listed in two
    cubes of a generation takes the label of the later one.  Such a lattice
    may break the preconditions of the lattice code, which
    ``verify_lattice_properties`` checks."""
    ids, n = lat.ids, lat.space.n_points
    parent = lat.parent.copy()
    members = []
    for cid in ids.tolist():
        edit = edits.get(cid, {})
        parent[cid] = edit.get("parent", parent[cid])
        members.append(np.asarray(edit.get("members", lat.members(cid)),
                                  dtype=int))
    labels = {k: np.full(n, -1) for k in lat.labels}
    for cid, m in zip(ids.tolist(), members):
        labels[int(lat.gen[cid])][m] = cid
    return DyadicLattice(lat.space, lat.kappa, lat.seed, ids, lat.gen, parent,
                         lat.center, np.repeat(ids, [m.size for m in members]),
                         np.concatenate(members), labels)


def broken_lattice(kind: str):
    """A grid lattice broken by hand: two cubes merged (``"overlap"``), a
    cube hung under the parent of a cousin (``"wrong_parent"``), or a point
    of that cousin moved into the cube, which then straddles two parents
    (``"straddle"``), or left out of every cube of its generation
    (``"uncovered"``)."""
    space, info = generate_example("uniform_grid")
    lat = build_lattice(space, info["kappa"], seed=1)
    for k in sorted(lat.by_gen, reverse=True):
        a, *rest = (lat.cubes[c] for c in lat.by_gen[k])
        cousins = [b for b in rest
                   if b.parent != a.parent and b.members.size > 1]
        if cousins:
            break
    b = cousins[0]
    if kind == "overlap":
        edits = {a.id: {"members": np.union1d(a.members, b.members)}}
    elif kind == "wrong_parent":
        edits = {a.id: {"parent": b.parent}}
    elif kind == "straddle":
        edits = {a.id: {"members": np.union1d(a.members, b.members[:1])},
                 b.id: {"members": b.members[1:]}}
    else:
        edits = {b.id: {"members": b.members[1:]}}
    return edited_lattice(lat, edits)


def probe_args(cubes) -> tuple:
    """(members, generations) of the probe cubes, as ``ensemble_gaps``
    takes them."""
    return [c.members for c in cubes], [c.generation for c in cubes]


def ensemble_orders(space, kappa, size: int, master_seed: int) -> tuple:
    """(gens, orders): the generations of the calibration ensemble of
    ``master_seed`` and the greedy orders of its lattices 0 .. size - 1,
    (lattices, generations, N), every key row sorted; ``ensemble_gaps``
    reads the same key stream."""
    k_min, k_max = _generation_range(space, kappa, None)
    keys = _ensemble_keys(master_seed).random(
        (size, k_max - k_min + 1, space.n_points))
    return range(k_min, k_max + 1), keys.argsort()


def ensemble_lattices(space, kappa, size: int, master_seed: int) -> list:
    """Lattices 0 .. size - 1 of the calibration ensemble of
    ``master_seed``, each drawn in full from its orders."""
    gens, orders = ensemble_orders(space, kappa, size, master_seed)
    return [_lattice_of_orders(space, kappa, master_seed, gens, o)
            for o in orders]


def random_interaction(rng, nq, nr, q_gen_stop, skip) -> np.ndarray:
    """A random (nq, nr) long range matrix: per fine slot a generation 2 to
    q_gen_stop - 1, per coarse slot one 0 to 2, each with size 0.5^gen and a
    mass; random center distances; and the long range entry of every pair
    with gap >= 0, each left out with probability ``skip``.  The entries are
    scalar Python arithmetic."""
    slots = []
    for n, gens in ((nq, (2, q_gen_stop)), (nr, (0, 3))):
        drawn = [(int(rng.integers(*gens)), float(rng.uniform(0.01, 1.0)))
                 for _ in range(n)]
        slots.append(([g for g, _ in drawn], [0.5 ** g for g, _ in drawn],
                      [mass for _, mass in drawn]))
    (qg, qs, qm), (rg, rs, rm) = slots
    rho_c = rng.uniform(0.0, 4.0, size=(nq, nr))
    entries = np.zeros((nq, nr))
    for i in range(nq):
        for j in range(nr):
            if qg[i] < rg[j] or rng.random() < skip:
                continue
            entries[i, j] = long_range_entry(qs[i], rs[j], qm[i], rm[j],
                                             rho_c[i, j], 1.0, 1.0)
    return entries


def random_blocks(rng, n_coarse) -> tuple:
    """Random block lemma entries ((q, r, k, mu_q, mu_parent), a, b): per
    coarse key r and gap k (1 up to a random 1 to 3 per r), a parent mass
    split in part among 1 to 4 new fine keys q; a and b are random weights
    per key."""
    rows, a, b = [], [], []
    for r_key in range(n_coarse):
        b.append(float(rng.uniform(0, 1)))
        for k in range(1, int(rng.integers(2, 5))):
            mu_parent = float(rng.uniform(0.1, 1.0))
            fracs = rng.dirichlet(np.ones(int(rng.integers(1, 5)))) * \
                rng.uniform(0.2, 1.0)
            for frac in fracs.tolist():
                rows.append((len(a), r_key, k, mu_parent * frac, mu_parent))
                a.append(float(rng.uniform(0, 1)))
    return tuple(map(np.array, zip(*rows))), np.array(a), np.array(b)


def criterion7_instances():
    """The random instances of acceptance criterion 7: (entries, a, b)."""
    rng = np.random.default_rng(77)
    for _ in range(50):
        nq, nr = int(rng.integers(2, 200)), int(rng.integers(2, 20))
        entries = random_interaction(rng, nq, nr, 6, 0.4)
        yield entries, rng.uniform(0, 1, nq), rng.uniform(0, 1, nr)


def criterion8_instances():
    """The random instances of acceptance criterion 8: (entries, a, b)."""
    rng = np.random.default_rng(88)
    for _ in range(50):
        yield random_blocks(rng, int(rng.integers(2, 6)))


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
    lat = build_lattice(line_example[0], kappa=0.5, seed=1)
    classify_terminal_transit(lat)
    return lat
