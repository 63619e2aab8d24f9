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

# Cells (seed x generation x point) per ``_draw_batch`` call of
# ``ensemble_gaps``; bounds its memory.
ENSEMBLE_CELLS = 2 ** 16


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

    @property
    def root(self) -> Cube:
        return self.cubes[self.root_id]

    def generations(self):
        return range(self.k_min, self.k_max + 1)

    @cached_property
    def mass(self) -> np.ndarray:
        """mu(Q) per cube id (0 off the cubes), from the members at first
        use; cubes sum by member count, each as ``mu[Q.members].sum()``."""
        ids = np.fromiter(self.cubes, dtype=int)
        out = np.zeros(ids.max() + 1)
        for slots, rows in member_rows(list(self.cubes.values())):
            out[ids[slots]] = self.space.mu[rows].sum(axis=1)
        return out

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

    def member_masks(self, ids) -> np.ndarray:
        """(len(ids), N) member masks of the cubes ``ids``."""
        members = [self.cubes[c].members for c in np.asarray(ids).tolist()]
        mask = np.zeros((len(members), self.space.n_points), dtype=bool)
        mask[np.repeat(np.arange(len(members)), [m.size for m in members]),
             np.concatenate([np.zeros(0, dtype=int)] + members)] = True
        return mask

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


def member_rows(cubes: list, key=0):
    """(slots, rows) per member count of ``cubes`` and per value of the
    integer ``key`` (one per cube): rows[i] holds cubes[slots[i]].members."""
    count = np.array([c.members.size for c in cubes], dtype=int)
    group = np.asarray(key) * (count.max(initial=0) + 1) + count
    for g in np.unique(group).tolist():
        slots = np.flatnonzero(group == g)
        yield slots, np.array([cubes[j].members for j in slots.tolist()])


def masked_sums(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``values`` summed over the entries of each row of ``mask``, bit for
    bit ``values[np.flatnonzero(row)].sum()``: rows sum by entry count."""
    count = mask.sum(axis=1)
    cols = np.nonzero(mask)[1]
    start = np.cumsum(count) - count
    out = np.zeros(len(mask))
    for c in np.unique(count[count > 0]).tolist():
        rows = np.flatnonzero(count == c)
        out[rows] = values[cols[start[rows, None] + np.arange(c)]].sum(axis=1)
    return out


def cube_reduce(lat: DyadicLattice, matrix: np.ndarray, ids,
                ufunc=np.minimum, axis: int = 1) -> np.ndarray:
    """Reduce ``matrix`` over the members of each cube of ``lat`` named in
    ``ids``: slot j along ``axis`` of the result is ``ufunc`` over the
    columns (axis 1) or rows (axis 0) of cube ``ids[j]``.  The cubes of one
    generation and member count reduce together, one gather of their rows
    each; a generation's cubes are disjoint, so no gather is taller than N.
    (``ufunc.reduceat`` over a generation's rows is exact as well, but it
    reduces along the rows without SIMD, several times slower on large
    cubes.)"""
    src = np.asarray(matrix)
    if axis == 1:
        src = np.ascontiguousarray(src.T)
    cubes = [lat.cubes[cid] for cid in ids]
    out = np.empty((len(cubes), src.shape[1]), dtype=src.dtype)
    for slots, rows in member_rows(cubes, [c.generation for c in cubes]):
        out[slots] = ufunc.reduce(src[rows], axis=1)
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
    inside = lat.member_masks(reps)
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
    off = space.rho.copy()
    np.fill_diagonal(off, np.inf)
    return np.minimum(off.min(axis=0), off.min(axis=1))


def _generation_range(space: MetricMeasureSpace, kappa: float,
                      k_range: tuple | None):
    """(k_min, k_max) of ``build_lattice``: ``k_range``, or the scales from
    above diam(X) down to resolution_h."""
    if not 0.0 < kappa < 1.0:
        raise ValueError("kappa must lie in (0,1)")
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
    return k_min, k_max


def _candidates(space: MetricMeasureSpace, kappa: float, gens: range):
    """Per generation, (table, count): table[x] lists the ids y with rho(x,
    y) below the scale, nearest first (ties to the lower id), count[x] of
    them, padded with x; None where some list would hold more than half the
    points, or none would hold any."""
    n = space.n_points
    cands = []
    for k in gens:
        close = space.rho < kappa ** k
        count = close.sum(axis=1)
        width = count.max(initial=0)
        if not 0 < 2 * width <= n:
            cands.append(None)
            continue
        rows, cols = np.nonzero(close)
        table = np.repeat(np.arange(n)[:, None], width, 1)
        table[rows, np.arange(rows.size) -
              np.repeat(np.cumsum(count) - count, count)] = cols
        dist = np.where(np.arange(width) < count[:, None],
                        space.rho[np.arange(n)[:, None], table], np.inf)
        cands.append((np.take_along_axis(
            table, dist.argsort(axis=1, kind="stable"), axis=1), count))
    return cands


def _first_listed(net: np.ndarray, si: np.ndarray, xi: np.ndarray, cand):
    """(near, missed): for each (row si, point xi), the first center of
    ``net[si]`` in the candidate list of xi (``cand``, see ``_candidates``),
    and whether the list holds none."""
    table, count = cand
    cols = table[xi]
    hit = net[si[:, None], cols]
    first = hit.argmax(axis=1)
    at = np.arange(xi.size)
    return cols[at, first], ~hit[at, first] | (first >= count[xi])


def _nearest_in_nets(rho: np.ndarray, net: np.ndarray, si: np.ndarray,
                     xi: np.ndarray) -> np.ndarray:
    """For each (row si, point xi): the center of ``net[si]`` nearest to xi,
    ties to the lowest id, over the columns of every center of ``net``."""
    cols = net.any(axis=0).nonzero()[0]
    # gather rows or columns first, whichever keeps less
    d = rho[xi][:, cols] if xi.size < cols.size else rho[:, cols][xi]
    d[~net[:, cols][si]] = np.inf
    return cols[d.argmin(axis=1)]


def _nearest_centers(rho: np.ndarray, nets: np.ndarray, ti: np.ndarray,
                     si: np.ndarray, xi: np.ndarray, cands) -> np.ndarray:
    """For each (generation ti, seed si, point xi), sorted by generation:
    the center c of the net ``nets[ti, si]`` with the least rho(xi, c), ties
    to the lowest id.  At a generation with candidate lists (``cands``) only
    they are searched, since a nearest center below the scale is among
    them.  The points whose candidates hold no center, and the generations
    without lists, search the columns of every center of the generation,
    masked to their own net."""
    near = np.empty(xi.size, dtype=int)
    bounds = np.searchsorted(ti, np.arange(len(nets) + 1)).tolist()
    for t, net in enumerate(nets):
        at = np.arange(bounds[t], bounds[t + 1])
        if at.size and cands and cands[t] is not None:
            near[at], missed = _first_listed(net, si[at], xi[at], cands[t])
            at = at[missed]
        if at.size:
            near[at] = _nearest_in_nets(rho, net, si[at], xi[at])
    return near


def _draw_batch(space: MetricMeasureSpace, kappa: float, seeds, gens: range,
                nearest: np.ndarray, cands=None):
    """Seeded nets of ``build_lattice`` for all ``seeds`` at once, without
    labels or cubes: (picked, ctr), each (generations, seeds, N).
    picked[t, s] is the net of ``seeds[s]`` at generation gens[t], ctr[t, s,
    x] the center of the region of point x there.  ``nearest`` is
    ``_nearest_other``, ``cands`` the ``_candidates`` of ``gens`` or None."""
    n, rho, n_gens, n_seeds = space.n_points, space.rho, len(gens), len(seeds)
    scale = [kappa ** k for k in gens]

    # One greedy net per (seed, generation) row, all rows in one pass over
    # the positions of their orders (a seed's successive permutations).  A
    # row picks a point unless a center it picked lies within one scale of
    # it; ``free`` holds the points no center blocks yet.  A point one scale
    # or more from every other point is always picked and blocks no other
    # point: it is picked up front and never free.
    ids = np.broadcast_to(np.arange(n), (n_gens, n))
    slots = np.empty((n, n_seeds * n_gens), dtype=int)
    for s, seed in enumerate(seeds):
        np.random.default_rng(seed).permuted(
            ids, axis=1, out=slots[:, s * n_gens:(s + 1) * n_gens].T)
    slots += np.arange(0, slots.size, n)   # row * N + point
    picked = np.empty((n_seeds * n_gens, n), dtype=bool)
    picked.reshape(n_seeds, n_gens, n)[:] = nearest >= np.array(scale)[:, None]
    free = ~picked
    row_scale = np.array(scale * n_seeds)[:, None]
    free_at, picked_at = free.ravel(), picked.ravel()
    for slot in slots:
        grow = free_at[slot].nonzero()[0]
        if grow.size:
            slot = slot[grow]
            picked_at[slot] = True
            free[grow] &= rho.take(slot, axis=0, mode="wrap") >= \
                row_scale[grow]
    del slots, free
    picked = picked.reshape(n_seeds, n_gens, n).transpose(1, 0, 2)

    # Every point joins its nearest finest center, and a center of
    # generation k + 1 joins its nearest center at k; the region of a point
    # at k is the one its chain of centers reaches, which makes nesting
    # exact.  The coarsest generation keeps its first center only.  A center
    # nearer to itself than to any other point is its own nearest center.
    ask = np.ones(picked.shape, dtype=bool)
    ask[0] = False
    ask[1:-1] = picked[2:]
    ask &= ~(picked & (np.diagonal(rho) < nearest))
    ti, si, xi = np.nonzero(ask)
    del ask
    ctr = np.empty(picked.shape, dtype=np.int32)
    ctr[:] = np.arange(n, dtype=np.int32)
    ctr[ti, si, xi] = _nearest_centers(rho, picked, ti, si, xi, cands)
    seed_col = np.arange(n_seeds)[:, None]
    for t in range(n_gens - 2, 0, -1):
        ctr[t] = ctr[t, seed_col, ctr[t + 1]]
    ctr[0] = picked[0].argmax(axis=1)[:, None]
    return picked, ctr


def build_lattice(space: MetricMeasureSpace, kappa: float, seed: int = 0,
                  k_range: tuple | None = None) -> DyadicLattice:
    """Greedy net-based lattice construction (properties (i)-(v) by design):
    one ``Cube`` per region of ``_draw_batch`` that some finest cell chains
    into.  Cube ids number the regions generation by generation, one root
    region at k_min, each region in the order of its center."""
    k_min, k_max = _generation_range(space, kappa, k_range)
    gens = range(k_min, k_max + 1)
    picked, ctr = (a[:, 0] for a in _draw_batch(
        space, kappa, [seed], gens, _nearest_other(space)))
    count = picked.sum(axis=1)
    count[0] = 1
    ids = np.take_along_axis(np.cumsum(picked, axis=1) - 1, ctr, axis=1) + \
        (np.cumsum(count) - count)[:, None]
    labels = {k: ids[k - k_min] for k in reversed(gens)}
    cubes = {}
    by_gen = {}
    for k in gens:
        order = np.argsort(labels[k], kind="stable")   # sorted members
        lab = labels[k][order]
        first = np.ones(lab.size, dtype=bool)
        np.not_equal(lab[1:], lab[:-1], out=first[1:])
        starts = first.nonzero()[0]
        by_gen[k] = lab[starts].tolist()
        bounds = starts.tolist() + [space.n_points]
        centers = ctr[k - k_min, order[starts]].tolist()
        parents = labels[k - 1][order[starts]].tolist() if k > k_min \
            else [None] * len(starts)
        size = kappa ** k
        for cid, a, b, center, parent in zip(by_gen[k], bounds, bounds[1:],
                                             centers, parents):
            cubes[cid] = Cube(cid, k, order[a:b], center, parent, size=size)
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
    failures: list

    @property
    def passed(self) -> bool:
        return self.partition_ok and self.nesting_ok and self.unique_ancestor_ok


def verify_lattice_properties(lat: DyadicLattice) -> LatticePropertyReport:
    """Check Christ-cube properties (i)-(v) exactly and fit the constant of
    the small-boundary inequality (vi), exponent 1, at the relative
    thicknesses kappa, kappa^2 and kappa^3.  One pass per generation over
    its cubes' member masks (members, not labels, so hand-edited cubes are
    checked as they stand); the complement of a cube is read off labels."""
    space, n, failures = lat.space, lat.space.n_points, []
    # per cube id: not nested in its parent, not under exactly one label
    nest_bad, lone_bad = np.zeros((2, max(lat.cubes) + 1), dtype=bool)
    top = max(space.diam(), space.resolution_h)
    c_diam, a0, c_boundary = 0.0, math.inf, 0.0
    for k in lat.generations():
        ids, lab = np.array(lat.by_gen[k], dtype=int), lat.labels[k]
        cubes = [lat.cubes[cid] for cid in ids.tolist()]
        if (lab < 0).any():
            failures.append(("partition", k, "uncovered points"))
        if (np.bincount(np.concatenate([c.members for c in cubes]),
                        minlength=n) > 1).any():
            failures.append(("disjointness", k, "overlapping cubes"))
        inside = lat.member_masks(ids)
        # a cube without a parent is checked against itself
        nest_bad[ids] = (inside & ~lat.member_masks(
            [c.id if c.parent is None else c.parent for c in cubes])).any(1)
        if k > lat.k_min:
            up = lat.labels[k - 1]
            lone_bad[ids] = ~inside.any(axis=1) | (inside & (
                up != up[inside.argmax(axis=1), None])).any(axis=1)

        # diameters, one gather of rho per member count
        size = np.array([c.size for c in cubes])
        diam = np.zeros(len(cubes))
        for slots, rows in member_rows(cubes):
            if rows.shape[1] > 1:
                diam[slots] = space.rho[rows[:, :, None],
                                        rows[:, None, :]].max(axis=(1, 2))
        c_diam = max(c_diam, float((diam / size).max()))
        # a0: each center to its cube's complement; a full cube: diam(X)
        full = np.array([c.members.size == n for c in cubes], dtype=bool)
        near = space.rho[[c.center for c in cubes]]
        near[lab == ids[:, None]] = np.inf
        a0 = min(a0, float((np.where(full, top, near.min(axis=1)) /
                            size).min()))
        # (vi): nu{x in Q : dist(x, X \ Q) <= t * s(Q)} <= C t nu(Q)
        d_out = np.where(lab[:, None] == lab[None, :], np.inf,
                         space.rho).min(axis=1)
        nu_q = masked_sums(space.nu, inside)
        keep = ~full & (nu_q > 0)
        for t in (lat.kappa, lat.kappa ** 2, lat.kappa ** 3):
            layer = masked_sums(space.nu, inside[keep] &
                                (d_out <= t * size[keep, None]))
            c_boundary = max(c_boundary, float(
                (layer / (t * nu_q[keep])).max(initial=0.0)))

    partition_ok = not failures
    ids = np.fromiter(lat.cubes, dtype=int)
    for cid in ids[(nest_bad | lone_bad)[ids]].tolist():
        if nest_bad[cid]:
            failures.append(("nesting", cid, lat.cubes[cid].parent))
        if lone_bad[cid]:
            failures.append(("unique_ancestor", cid, None))
    return LatticePropertyReport(partition_ok, not nest_bad.any(),
                                 not lone_bad.any(), c_diam, a0, c_boundary,
                                 failures)


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
    """Ordered pairs (i, j), i != j, with rho(i, j) <= resolution_h, sorted
    by i; with the distinct i and the start of each one's run of pairs."""
    i, j = np.nonzero((space.rho <= space.resolution_h)
                      & ~np.eye(space.n_points, dtype=bool))
    return (i, j, *np.unique(i, return_index=True))


def _skeleton_marks(labels: np.ndarray, near) -> np.ndarray:
    """(..., N) skeleton marks of the (..., N) child labels ``labels``: the
    points with a near pair (``_near_pairs``) whose labels differ."""
    i, j, pts, starts = near
    marks = np.zeros(labels.shape, dtype=bool)
    if i.size:
        marks[..., pts] = np.logical_or.reduceat(
            labels[..., i] != labels[..., j], starts, axis=-1)
    return marks


def _lattice_marks(lat: DyadicLattice):
    """(ks, marks): the generations k of ``lat`` with a generation k + 1
    below, ascending, and the (generations, N) skeleton marks of their
    children."""
    ks = sorted(k for k in lat.labels if k + 1 in lat.labels)
    child = np.array([lat.labels[k + 1] for k in ks]).reshape(
        len(ks), lat.space.n_points)
    return ks, _skeleton_marks(child, _near_pairs(lat.space))


def skeleton_by_generation(lat: DyadicLattice) -> dict:
    """generation k -> (points, cube_ids): skeleton points of all cubes at
    generation k together with the id of the cube they belong to, read off
    the near pairs (within one resolution step) whose generation-(k+1)
    labels differ."""
    ks, marks = _lattice_marks(lat)
    return {k: (p, lat.labels[k][p])
            for k, p in zip(ks, map(np.flatnonzero, marks))}


def classify_terminal_transit(lat: DyadicLattice, m: float | None = None):
    """Flag every cube terminal or transit; the root must come out transit.

    Returns the fitted growth constant of the transit-cube estimate
    mu(B(center, r)) <= C r^m for r >= s(Q) (only when m is given)."""
    space, cubes = lat.space, list(lat.cubes.values())
    # parent inside omega: one reduction of omega over all parents
    up = sorted({c.parent for c in cubes} - {None})
    in_omega = dict(zip(up, cube_reduce(lat, space.omega[None, :], up,
                                        np.logical_and)[0].tolist()))
    for cube in cubes:
        cube.terminal = in_omega.get(cube.parent, False) or \
            bool(lat.mass[cube.id] <= 0.0)
    if lat.root.terminal:
        raise RootTerminal("root cube is terminal; mu carries no mass")

    c_fit = 0.0
    if m is not None:
        diam = space.diam()
        for cube in (c for c in cubes if not c.terminal):
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


def _coarsest_hits(marks: np.ndarray, ks: list, dists: np.ndarray, sizes,
                   k_last, kappa: float, alpha: float) -> np.ndarray:
    """(rows, probes) slot t of the coarsest generation ks[t] <= k_last[j]
    at which a skeleton point of row s, marked in marks[t, s], lies within
    s(Q)^alpha s(R)^(1-alpha) of probe Q = j, strictly; -1 where none does.
    ``dists[j]`` holds the distance from probe j to every point, ``sizes``
    the s(Q); s(Q)^alpha and s(R)^(1-alpha) are scalar ``**``.  Generations
    run fine to coarse so that the coarsest hit is the one kept, each over
    the points some row marks."""
    hits = np.full((marks.shape[1], len(sizes)), -1)
    s_alpha = np.array([s ** alpha for s in sizes])
    k_last = np.asarray(k_last)
    for t in range(len(ks) - 1, -1, -1):
        live = np.flatnonzero(ks[t] <= k_last)
        cols = marks[t].any(axis=0).nonzero()[0]
        if live.size and cols.size:
            reach = s_alpha[live] * (kappa ** ks[t]) ** (1 - alpha)
            got = (marks[t][:, None, cols] &
                   (dists[live[:, None], cols] < reach[:, None])).any(axis=-1)
            hits[:, live] = np.where(got, t, hits[:, live])
    return hits


def classify_good_bad(cube: Cube, other: DyadicLattice, alpha: float,
                      delta_bad: float, s_param: int):
    """Good/bad classification of a cube against a second lattice.

    Bad iff some cube R of the other lattice, at least r generations coarser,
    has dist(Q, sk R) < s(Q)^alpha s(R)^(1-alpha).  Returns (is_good, witness),
    the witness the cube of the skeleton point nearest to Q at the coarsest
    such generation.
    """
    r_gap = scale_gap(other.kappa, delta_bad, s_param)
    dist_q = other.space.rho[cube.members].min(axis=0)
    ks, marks = _lattice_marks(other)
    t = int(_coarsest_hits(marks[:, None], ks, dist_q[None], [cube.size],
                           [cube.generation - r_gap], other.kappa, alpha)[0, 0])
    if t < 0:
        return True, None
    return False, int(other.labels[ks[t]][
        np.where(marks[t], dist_q, np.inf).argmin()])


def classify_all_good_bad(lat: DyadicLattice, other: DyadicLattice,
                          alpha: float, delta_bad: float, s_param: int):
    """Set the good flag on every cube of ``lat`` against ``other``, as
    ``classify_good_bad`` does: every cube of ``lat`` one probe, scored in
    one ``_coarsest_hits`` call."""
    r_gap = scale_gap(other.kappa, delta_bad, s_param)
    ks, marks = _lattice_marks(other)
    cubes = list(lat.cubes.values())
    dists = cube_reduce(lat, other.space.rho, list(lat.cubes), axis=0)
    hits = _coarsest_hits(marks[:, None], ks, dists, [c.size for c in cubes],
                          [c.generation - r_gap for c in cubes], other.kappa,
                          alpha)[0]
    for cube, hit in zip(cubes, hits.tolist()):
        cube.good = hit < 0


def ensemble_gaps(probes: list, space: MetricMeasureSpace, kappa: float,
                  alpha: float, ensemble_size: int,
                  master_seed: int = 0) -> np.ndarray:
    """Generation gaps of probe cubes against a seeded random ensemble.

    Entry (i, j) is gen(Q) - k for the coarsest generation k < gen(Q) at
    which probe Q = ``probes[j]`` comes close to the skeleton of a cube of
    lattice i (see ``classify_good_bad``), 0 when none does.  Q is bad at
    separation S iff its gap is at least ``scale_gap(kappa, delta_bad, S)``,
    so one pass answers every S.  Lattice i has seed ``hash((master_seed,
    i)) % 2**32``.  Lattices are drawn in chunks of at most
    ``ENSEMBLE_CELLS`` (seed, generation, point) cells, as nets and centers
    only (no labels, no ``Cube``), and each chunk is scored as arrays, for
    the generations a probe can reach, before the next is drawn."""
    if ensemble_size < 1:
        raise ValueError(f"ensemble size must be at least 1, "
                         f"got {ensemble_size}")
    n = space.n_points
    k_min, k_max = _generation_range(space, kappa, None)
    gens = range(k_min, k_max + 1)
    nearest, cands = _nearest_other(space), _candidates(space, kappa, gens)
    near = _near_pairs(space)
    dists = np.array([space.rho[q.members].min(axis=0)
                      for q in probes]).reshape(len(probes), n)
    gen_q = np.array([q.generation for q in probes], dtype=int)
    # skeletons of the generations k < min(gen(Q), k_max)
    ks = list(range(k_min, min(gen_q.max(initial=k_min), k_max)))
    seeds = [hash((master_seed, i)) % 2**32 for i in range(ensemble_size)]
    chunks = -(-ensemble_size // max(1, ENSEMBLE_CELLS // (len(gens) * n)))
    size = -(-ensemble_size // chunks)
    gaps = np.zeros((ensemble_size, len(probes)), dtype=int)
    for c in range(0, ensemble_size, size):
        # skeletons from the child centers; the chunk's draw is dropped here
        ctr = _draw_batch(space, kappa, seeds[c:c + size], gens, nearest,
                          cands)[1]
        marks = _skeleton_marks(ctr[1:len(ks) + 1], near)
        del ctr
        hits = _coarsest_hits(marks, ks, dists, [q.size for q in probes],
                              gen_q - 1, kappa, alpha)
        gaps[c:c + size] = np.where(hits < 0, 0, gen_q - k_min - hits)
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
    labels = {k: np.full(space.n_points, -1, dtype=int) for k in by_gen}
    for cube in cubes.values():
        labels[cube.generation][cube.members] = cube.id
        if cube.parent is not None:
            cubes[cube.parent].children.append(cube.id)
    k_min = min(by_gen)
    k_max = max(by_gen)
    return DyadicLattice(space=space, kappa=kappa, seed=int(doc.get("seed", 0)),
                         k_min=k_min, k_max=k_max, cubes=cubes, by_gen=by_gen,
                         labels=labels, root_id=by_gen[k_min][0])
