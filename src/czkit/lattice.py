"""Christ-type dyadic lattices on a finite space.

Construction is a greedy net hierarchy: at each generation a maximal
separated net is chosen in seeded random order, every point joins its
nearest net center, and each generation's regions attach to the region of
their center one generation up.  Effective labels are rebuilt bottom-up,
each coarser label the parent region of the finer one, which makes nesting
exact by construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateScale, LeafCube, RootTerminal
from .space import MetricMeasureSpace


@dataclass
class Cube:
    id: int
    generation: int
    members: np.ndarray            # sorted point indices
    center: int
    parent: int | None
    children: list = field(default_factory=list)
    size: float = 0.0              # kappa ** generation
    terminal: bool | None = None   # None until classified
    good: bool | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass
class DyadicLattice:
    space: MetricMeasureSpace
    kappa: float
    seed: int
    k_min: int
    k_max: int
    cubes: dict                    # id -> Cube
    by_gen: dict                   # generation -> list of cube ids
    labels: dict                   # generation -> (N,) array of cube ids
    root_id: int
    eta: float = 1.0

    @property
    def root(self) -> Cube:
        return self.cubes[self.root_id]

    def generations(self):
        return range(self.k_min, self.k_max + 1)

    def cube_mu(self, cube: Cube) -> float:
        return float(self.space.mu[cube.members].sum())

    def transit_ids(self):
        return [cid for cid, c in self.cubes.items() if c.terminal is False]

    @cached_property
    def column(self) -> np.ndarray:
        """Column of each cube id in the per-lattice tables; -1 for ids
        that name no cube.  A cube with one child holds the child's points
        and shares its column."""
        col = np.full(max(self.cubes) + 1, -1)
        n_cols = 0
        for k in sorted(self.by_gen, reverse=True):
            for cid in self.by_gen[k]:
                children = self.cubes[cid].children
                if len(children) == 1:
                    col[cid] = col[children[0]]
                else:
                    col[cid], n_cols = n_cols, n_cols + 1
        return col

    def column_cubes(self) -> list:
        """One cube id per table column."""
        ids = list(self.cubes)
        reps = np.empty(self.column.max() + 1, dtype=int)
        reps[self.column[ids]] = ids
        return reps.tolist()

    @cached_property
    def dist(self) -> np.ndarray:
        """(N, columns) point-to-cube distances, built once per lattice:
        ``dist[x, column[c]]`` is min over y in cube c of rho(x, y)."""
        return cube_reduce(self, self.space.rho, self.column_cubes())

    @cached_property
    def plan(self):
        """The ``projections.DecompositionPlan``, built on first use."""
        from .projections import DecompositionPlan
        return DecompositionPlan(self)


def cube_reduce(lat: DyadicLattice, matrix: np.ndarray, ids,
                ufunc=np.minimum, axis: int = 1) -> np.ndarray:
    """Reduce ``matrix`` over the members of each cube of ``lat`` named in
    ``ids``: slot j along ``axis`` of the result is ``ufunc`` over the
    columns (axis 1) or rows (axis 0) of cube ``ids[j]``.  The rows to
    reduce are gathered once per generation, whose cubes are disjoint, so
    no gathered block is taller than N; each cube then reduces a contiguous
    slice of it."""
    src = np.asarray(matrix)
    if axis == 1:
        src = np.ascontiguousarray(src.T)
    cubes = [lat.cubes[cid] for cid in ids]
    gens = np.array([c.generation for c in cubes], dtype=int)
    out = np.empty((len(cubes), src.shape[1]), dtype=src.dtype)
    for k in np.unique(gens):
        slots = np.flatnonzero(gens == k)
        members = [cubes[j].members for j in slots]
        sizes = np.array([m.size for m in members])
        starts = np.cumsum(sizes) - sizes
        block = src[np.concatenate(members)]
        one = sizes == 1
        out[slots[one]] = block[starts[one]]
        for j, a, size in zip(slots[~one], starts[~one], sizes[~one]):
            out[j] = ufunc.reduce(block[a:a + size], axis=0)
    return np.ascontiguousarray(out.T) if axis == 1 else out


def cube_dilations(lat: DyadicLattice, lams) -> np.ndarray:
    """(cubes, 1 + len(lams), N) point masks: each cube of ``lat`` in
    ``cubes`` order, then its dilations lambda Q = Q union {x : dist(x, Q)
    <= (lambda - 1) diam(Q)} (``space.dilate``), read off ``lat.dist``."""
    if any(lam < 1.0 for lam in lams):
        raise ValueError("dilation parameter must be >= 1")
    reps = lat.column_cubes()
    n, cubes = lat.space.n_points, [lat.cubes[c] for c in reps]
    reach = cube_reduce(lat, lat.space.rho, reps, np.maximum, axis=0)
    diam = np.array([row[c.members].max() if c.members.size > 1 else 0.0
                     for row, c in zip(reach, cubes)])
    inside = np.zeros((len(cubes), n), dtype=bool)
    inside[np.repeat(np.arange(len(cubes)), [c.members.size for c in cubes]),
           np.concatenate([c.members for c in cubes])] = True
    out = np.empty((len(cubes), 1 + len(lams), n), dtype=bool)
    out[:, 0] = inside
    for t, lam in enumerate(lams, start=1):
        out[:, t] = (lat.dist <= (lam - 1.0) * diam).T | inside
    return out[lat.column[list(lat.cubes)]]


def _default_k_range(space: MetricMeasureSpace, kappa: float):
    diam = space.diam()
    h = space.resolution_h
    if diam <= 0:
        return 0, 1
    # coarsest scale strictly above diam, finest scale not below resolution
    k_min = int(math.floor(math.log(diam) / math.log(kappa)))
    while kappa ** k_min <= diam:
        k_min -= 1
    k_max = int(math.floor(math.log(h) / math.log(kappa)))
    while kappa ** k_max < h:
        k_max -= 1
    return k_min, k_max


def _nearest_other(space: MetricMeasureSpace) -> np.ndarray:
    """min over y != x of min(rho(x, y), rho(y, x)), for every point x."""
    off = space.rho + np.diag(np.full(space.n_points, np.inf))
    return np.minimum(off.min(axis=0), off.min(axis=1))


def _draw_nets(space: MetricMeasureSpace, kappa: float, seed: int,
               k_range: tuple | None, nearest: np.ndarray):
    """Seeded nets and labels of ``build_lattice``, without cubes: (k_min,
    k_max, labels, centers, offset), labels[k] the cube id of each point at
    generation k, centers[k] its net, offset[k] the id of its first region;
    ``nearest`` is ``_nearest_other(space)``."""
    if not 0.0 < kappa < 1.0:
        raise ValueError("kappa must lie in (0,1)")
    n = space.n_points
    rho = space.rho
    if k_range is None:
        k_min, k_max = _default_k_range(space, kappa)
    else:
        k_min, k_max = k_range
    if k_max < k_min:
        raise DegenerateScale(f"empty generation range {k_min}..{k_max}")
    if kappa ** k_max < space.resolution_h / 2 and k_range is not None:
        # user asked for scales below the resolution; only complain when the
        # whole range is degenerate
        if kappa ** k_min < space.resolution_h:
            raise DegenerateScale("all scales below resolution_h")

    rng = np.random.default_rng(seed)

    # Per-generation nets and nearest-center labels (raw regions).  A point
    # one scale or more from every other point is always selected and blocks
    # no other point, so the greedy pass visits only the rest, in order.
    centers_by_gen = {}
    raw_label = {}     # generation -> (N,) index into centers list
    for k in range(k_min, k_max + 1):
        scale = kappa ** k
        order = rng.permutation(n)
        isolated = nearest >= scale
        selected = np.flatnonzero(isolated).tolist()
        mindist = np.full(n, np.inf)
        for p in order[~isolated[order]].tolist():
            if mindist[p] >= scale:
                selected.append(p)
                np.minimum(mindist, rho[p], out=mindist)
        selected.sort()                      # ties in argmin -> lowest id
        centers = np.array(selected)
        raw_label[k] = np.argmin(rho[:, centers], axis=1)
        centers_by_gen[k] = centers

    if len(centers_by_gen[k_min]) != 1:
        # force a single root region at the coarsest generation
        centers_by_gen[k_min] = centers_by_gen[k_min][:1]
        raw_label[k_min] = np.zeros(n, dtype=int)

    # Cube ids number the regions generation by generation.  A region
    # attaches to the raw region of its center one generation up; effective
    # labels run bottom-up from the nearest-center cells, a coarser label
    # being the parent region of the finer one, which makes nesting exact.
    gens = range(k_min, k_max + 1)
    offset = dict(zip(gens, np.cumsum([0] + [len(centers_by_gen[k])
                                             for k in gens])))
    labels = {k_max: raw_label[k_max] + offset[k_max]}
    for k in range(k_max, k_min, -1):
        parent_id = raw_label[k - 1][centers_by_gen[k]] + offset[k - 1]
        labels[k - 1] = parent_id[labels[k] - offset[k]]
    return k_min, k_max, labels, centers_by_gen, offset


def build_lattice(space: MetricMeasureSpace, kappa: float, seed: int = 0,
                  k_range: tuple | None = None) -> DyadicLattice:
    """Greedy net-based lattice construction (properties (i)-(v) by design):
    one ``Cube`` per region of ``_draw_nets`` that some finest cell chains
    into."""
    k_min, k_max, labels, centers_by_gen, offset = _draw_nets(
        space, kappa, seed, k_range, _nearest_other(space))
    cubes = {}
    by_gen = {}
    for k in range(k_min, k_max + 1):
        order = np.argsort(labels[k], kind="stable")   # sorted members
        ids, starts = np.unique(labels[k][order], return_index=True)
        by_gen[k] = ids.tolist()
        bounds = starts.tolist() + [space.n_points]
        centers = centers_by_gen[k][ids - offset[k]].tolist()
        parents = labels[k - 1][order[starts]].tolist() if k > k_min \
            else [None] * len(ids)
        for cid, a, b, center, parent in zip(by_gen[k], bounds, bounds[1:],
                                             centers, parents):
            cubes[cid] = Cube(id=cid, generation=k, members=order[a:b],
                              center=center, parent=parent, size=kappa ** k)
            if parent is not None:
                cubes[parent].children.append(cid)

    return DyadicLattice(space=space, kappa=kappa, seed=seed, k_min=k_min,
                         k_max=k_max, cubes=cubes, by_gen=by_gen,
                         labels=labels, root_id=by_gen[k_min][0])


# ---------------------------------------------------------------------------
# property verification


@dataclass
class LatticePropertyReport:
    partition_ok: bool
    nesting_ok: bool
    unique_ancestor_ok: bool
    c_diam: float
    a0: float
    c_boundary: float          # fitted constant of the small-boundary bound
    eta: float
    failures: list

    @property
    def passed(self) -> bool:
        return self.partition_ok and self.nesting_ok and self.unique_ancestor_ok


def verify_lattice_properties(lat: DyadicLattice, eta: float = 1.0,
                              ts=None) -> LatticePropertyReport:
    """Check Christ-cube properties (i)-(v) exactly and fit the constant of
    the small-boundary inequality (vi) on a few relative thicknesses."""
    space = lat.space
    failures = []
    n = space.n_points

    partition_ok = True
    for k in lat.generations():
        lab = lat.labels[k]
        if (lab < 0).any():
            partition_ok = False
            failures.append(("partition", k, "uncovered points"))
        seen = np.zeros(n, dtype=int)
        for cid in lat.by_gen[k]:
            seen[lat.cubes[cid].members] += 1
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

    # (vi): nu{x in Q : dist(x, X \ Q) <= t * s(Q)} <= C t^eta nu(Q).
    # The complement of a cube is read off the labels of its generation.
    if ts is None:
        ts = [lat.kappa, lat.kappa ** 2, lat.kappa ** 3]
    c_diam, a0, c_boundary = 0.0, math.inf, 0.0
    for k in lat.generations():
        lab = lat.labels[k]
        # distance from each point to the complement of its cube
        d_out = np.where(lab[:, None] == lab[None, :], np.inf,
                         space.rho).min(axis=1)
        for cid in lat.by_gen[k]:
            cube = lat.cubes[cid]
            c_diam = max(c_diam, space.set_diam(cube.members) / cube.size)
            if cube.members.size == n:
                a0 = min(a0, max(space.diam(), space.resolution_h) / cube.size)
                continue
            a0 = min(a0, float(space.rho[cube.center, lab != cid].min())
                     / cube.size)
            nu_q = space.nu[cube.members].sum()
            if nu_q <= 0:
                continue
            dist_out = d_out[cube.members]
            for t in ts:
                layer = space.nu[cube.members[dist_out <= t * cube.size]].sum()
                c_boundary = max(c_boundary, layer / (t ** eta * nu_q))

    return LatticePropertyReport(partition_ok, nesting_ok, unique_ancestor_ok,
                                 c_diam, float(a0), c_boundary, eta, failures)


# ---------------------------------------------------------------------------
# skeletons, terminal/transit, good/bad


def skeleton(lat: DyadicLattice, cube: Cube) -> np.ndarray:
    """Discrete skeleton: points of a child within one resolution step of
    leaving that child."""
    if cube.is_leaf:
        raise LeafCube(f"cube {cube.id} has no children")
    pts, owners = skeleton_by_generation(lat)[cube.generation]
    return pts[owners == cube.id]


def _near_pairs(space: MetricMeasureSpace):
    """Ordered pairs (i, j), i != j, with rho(i, j) <= resolution_h."""
    return np.nonzero((space.rho <= space.resolution_h)
                      & ~np.eye(space.n_points, dtype=bool))


def _skeletons(labels: dict, near) -> dict:
    i, j = near
    leave = {k: np.flatnonzero(np.bincount(i[labels[k + 1][i]
                                               != labels[k + 1][j]]))
             for k in labels if k + 1 in labels}
    return {k: (pts, labels[k][pts]) for k, pts in leave.items()}


def skeleton_by_generation(lat: DyadicLattice) -> dict:
    """generation k -> (points, cube_ids): skeleton points of all cubes at
    generation k together with the id of the cube they belong to, read off
    the near pairs (within one resolution step) whose generation-(k+1)
    labels differ."""
    return _skeletons(lat.labels, _near_pairs(lat.space))


def classify_terminal_transit(lat: DyadicLattice, m: float | None = None,
                              radii=None):
    """Flag every cube terminal or transit; the root must come out transit.

    Returns the fitted growth constant of the transit-cube estimate
    mu(B(center, r)) <= C r^m for r >= s(Q) (only when m is given)."""
    space = lat.space
    omega = space.omega
    for cube in lat.cubes.values():
        in_omega = cube.parent is not None and \
            bool(omega[lat.cubes[cube.parent].members].all())
        cube.terminal = in_omega or lat.cube_mu(cube) <= 0.0
    if lat.root.terminal:
        raise RootTerminal("root cube is terminal; mu carries no mass")

    c_fit = 0.0
    if m is not None:
        diam = space.diam()
        for cid in lat.transit_ids():
            cube = lat.cubes[cid]
            r = cube.size
            while r <= max(diam, cube.size):
                mass = space.mu_mass(space.ball_mask(cube.center, r))
                c_fit = max(c_fit, mass / r ** m)
                r *= 2.0
    return c_fit


def scale_gap(kappa: float, delta_bad: float, s_param: int) -> int:
    """Smallest positive integer r with kappa^r <= delta_bad^S."""
    r = 1
    target = delta_bad ** s_param
    while kappa ** r > target:
        r += 1
    return r


def _coarsest_hit(dist_q: np.ndarray, sq: float, k_last: int, kappa: float,
                  alpha: float, skeletons: dict):
    """Coarsest generation k <= k_last of the lattice of ``skeletons`` (its
    ``skeleton_by_generation``) with a cube R such that dist(Q, sk R) <
    s(Q)^alpha s(R)^(1-alpha), and R as the witness; ``dist_q`` holds the
    distance from Q to every point.  (None, None) when none qualifies."""
    for k in sorted(skeletons):
        if k > k_last:
            break
        pts, owners = skeletons[k]
        threshold = sq ** alpha * (kappa ** k) ** (1 - alpha)
        d = dist_q[pts]
        if (d < threshold).any():
            return k, int(owners[np.argmin(d)])
    return None, None


def classify_good_bad(cube: Cube, other: DyadicLattice, alpha: float,
                      delta_bad: float, s_param: int):
    """Good/bad classification of a cube against a second lattice.

    Bad iff some cube R of the other lattice, at least r generations coarser,
    has dist(Q, sk R) < s(Q)^alpha s(R)^(1-alpha).  Returns (is_good, witness).
    """
    r_gap = scale_gap(other.kappa, delta_bad, s_param)
    dist_q = other.space.rho[cube.members].min(axis=0)
    k, witness = _coarsest_hit(dist_q, cube.size, cube.generation - r_gap,
                               other.kappa, alpha,
                               skeleton_by_generation(other))
    return k is None, witness


def classify_all_good_bad(lat: DyadicLattice, other: DyadicLattice,
                          alpha: float, delta_bad: float, s_param: int):
    """Set the good flag on every cube of ``lat`` against ``other``, as
    ``classify_good_bad`` does: per generation, one reduction of the rows of
    rho, then one test per skeleton generation, thresholds by scalar ``**``."""
    skel = skeleton_by_generation(other)
    r_gap = scale_gap(other.kappa, delta_bad, s_param)
    for k_q, ids in lat.by_gen.items():
        rows = cube_reduce(lat, other.space.rho, ids, axis=0)
        s_alpha = np.array([lat.cubes[cid].size ** alpha for cid in ids])
        bad = np.zeros(len(ids), dtype=bool)
        for k in [k for k in skel if k <= k_q - r_gap]:
            bad |= (rows[:, skel[k][0]] < s_alpha[:, None] *
                    (other.kappa ** k) ** (1 - alpha)).any(axis=1)
        for cid, is_bad in zip(ids, bad.tolist()):
            lat.cubes[cid].good = not is_bad


def ensemble_gaps(probes: list, space: MetricMeasureSpace, kappa: float,
                  alpha: float, ensemble_size: int,
                  master_seed: int = 0) -> np.ndarray:
    """Generation gaps of probe cubes against a seeded random ensemble.

    Entry (i, j) is gen(Q) - k for the coarsest generation k < gen(Q) at
    which probe Q = ``probes[j]`` comes close to the skeleton of a cube of
    lattice i (see ``classify_good_bad``), 0 when none does.  Q is bad at
    separation S iff its gap is at least ``scale_gap(kappa, delta_bad, S)``,
    so one pass answers every S.  Lattice i has seed ``hash((master_seed,
    i)) % 2**32``, is drawn as label arrays only (no ``Cube``) and is
    dropped once scored."""
    dists = [space.rho[q.members].min(axis=0) for q in probes]
    nearest, near = _nearest_other(space), _near_pairs(space)
    gaps = np.zeros((ensemble_size, len(probes)), dtype=int)
    for i in range(ensemble_size):
        labels = _draw_nets(space, kappa, hash((master_seed, i)) % 2**32,
                            None, nearest)[2]
        skel = _skeletons(labels, near)
        for j, (q, dist_q) in enumerate(zip(probes, dists)):
            k, _ = _coarsest_hit(dist_q, q.size, q.generation - 1, kappa,
                                 alpha, skel)
            if k is not None:
                gaps[i, j] = q.generation - k
    return gaps


def bad_fraction(bad: int, ensemble_size: int):
    """(p_hat, stderr) of ``bad`` bad draws out of ``ensemble_size``."""
    p_hat = bad / ensemble_size
    return p_hat, math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / ensemble_size)


def estimate_bad_probability(cube_members: np.ndarray, cube_generation: int,
                             space: MetricMeasureSpace, kappa: float,
                             alpha: float, delta_bad: float, s_param: int,
                             ensemble_size: int, master_seed: int = 0):
    """Monte Carlo estimate of P{Q is bad} over random second lattices.

    Returns (p_hat, stderr, low_confidence)."""
    probe = Cube(id=-1, generation=cube_generation, members=cube_members,
                 center=int(cube_members[0]), parent=None,
                 size=kappa ** cube_generation)
    gaps = ensemble_gaps([probe], space, kappa, alpha, ensemble_size,
                         master_seed)
    bad = int((gaps >= scale_gap(kappa, delta_bad, s_param)).sum())
    return (*bad_fraction(bad, ensemble_size), ensemble_size < 100)


# ---------------------------------------------------------------------------
# JSON dump


def lattice_to_json(lat: DyadicLattice) -> dict:
    gens = []
    for k in lat.generations():
        gens.append({
            "k": k,
            "cubes": [{
                "id": cid,
                "center": lat.cubes[cid].center,
                "members": lat.cubes[cid].members.tolist(),
                "parent": lat.cubes[cid].parent,
                "terminal": lat.cubes[cid].terminal,
                "good": lat.cubes[cid].good,
            } for cid in lat.by_gen[k]],
        })
    return {"kappa": lat.kappa, "seed": lat.seed, "generations": gens}


def save_lattice(lat: DyadicLattice, path) -> None:
    with open(path, "w") as fh:
        json.dump(lattice_to_json(lat), fh)


def lattice_from_json(doc: dict, space: MetricMeasureSpace) -> DyadicLattice:
    kappa = float(doc["kappa"])
    cubes = {}
    by_gen = {}
    for gen in doc["generations"]:
        k = int(gen["k"])
        by_gen[k] = []
        for c in gen["cubes"]:
            cube = Cube(id=int(c["id"]), generation=k,
                        members=np.asarray(c["members"], dtype=int),
                        center=int(c["center"]),
                        parent=None if c["parent"] is None else int(c["parent"]),
                        size=kappa ** k,
                        terminal=c.get("terminal"), good=c.get("good"))
            cubes[cube.id] = cube
            by_gen[k].append(cube.id)
    for cube in cubes.values():
        if cube.parent is not None:
            cubes[cube.parent].children.append(cube.id)
    k_min = min(by_gen)
    k_max = max(by_gen)
    labels = {}
    for k, cids in by_gen.items():
        lab = np.full(space.n_points, -1, dtype=int)
        for cid in cids:
            lab[cubes[cid].members] = cid
        labels[k] = lab
    return DyadicLattice(space=space, kappa=kappa, seed=int(doc.get("seed", 0)),
                         k_min=k_min, k_max=k_max, cubes=cubes, by_gen=by_gen,
                         labels=labels, root_id=by_gen[k_min][0])
