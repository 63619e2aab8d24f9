"""Christ-type dyadic lattices on a finite space.

Construction is a greedy net hierarchy: at each generation a maximal
separated net is chosen in seeded random order, every point joins its
nearest net center, and each generation's regions attach to the region of
their center one generation up.  Effective labels are rebuilt bottom-up,
each coarser label the parent region of the finer one, which makes nesting
exact by construction.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateScale, LeafCube, RootTerminal
from .space import MetricMeasureSpace, masked_sums

# Keys (lattice x generation x point) per chunk of ``ensemble_gaps``; bounds
# its memory.  Lattice i's keys do not depend on it.
ENSEMBLE_CELLS = 2 ** 16
# Matrix cells per tile of ``cube_reduce`` on the cube tree (2 MB of
# float64); bounds its temporaries.
REDUCE_CELLS = 2 ** 18
# The ufuncs ``cube_reduce`` takes up the cube tree: exact and idempotent,
# so a cube's value is its children's, whichever points they share.
TREE_UFUNCS = (np.minimum, np.maximum, np.logical_and, np.logical_or)
UNSET = -1        # terminal/good flag of a cube not yet classified
MAX_GENERATIONS = 64  # of a lattice: a certificate's tables grow with them


@dataclass(frozen=True)
class Cube:
    """One cube as a value, built on its own or by ``lat.cubes[cid]``."""
    id: int
    generation: int
    members: np.ndarray            # sorted point indices
    center: int
    parent: int | None
    children: tuple = ()
    size: float = 0.0              # kappa ** generation
    terminal: bool | None = None   # None until classified
    good: bool | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.children


class CubeTable(Mapping):
    """Read-only id -> ``Cube`` view of a lattice, in cube order."""

    def __init__(self, lat: DyadicLattice):
        self._lat, self._ids = lat, dict.fromkeys(lat.ids.tolist())

    def __getitem__(self, cid) -> Cube:
        if cid not in self._ids:
            raise KeyError(cid)
        lat, start = self._lat, self._lat.child_start
        parent = int(lat.parent[cid])
        terminal, good = (None if f == UNSET else bool(f)
                          for f in (lat.terminal[cid], lat.good[cid]))
        return Cube(int(cid), int(lat.gen[cid]), lat.members(cid),
                    int(lat.center[cid]), None if parent < 0 else parent,
                    tuple(lat.child_ids[start[cid]:start[cid + 1]].tolist()),
                    float(lat.size[cid]), terminal, good)

    def __iter__(self):
        return iter(self._ids)

    def __len__(self) -> int:
        return len(self._ids)


class DyadicLattice:
    """A lattice as arrays, one entry per cube id up to the largest: ``gen``,
    ``parent`` (-1: none), ``center``, ``size`` (kappa ** gen) and the flags
    ``terminal`` and ``good`` (``UNSET``, 0 or 1).  Cube c has the
    ``n_members[c]`` points ``points[offsets[c]:offsets[c + 1]]``, ascending
    (input point pts[i] lies in cube owner[i]), and the ``n_children[c]``
    children ``child_ids[child_start[c]:child_start[c + 1]]``.  ``ids``
    lists the cubes in cube order, and children follow it; ``by_gen[k]``
    lists the cubes of generation k and ``labels[k]`` the cube of each point
    there.

    Preconditions, as ``build_lattice`` makes every lattice: each
    generation partitions the points into cubes that have points, each cube
    with children holds exactly their points, each child is one generation
    finer than its parent, and rho equals its transpose.  Only
    ``verify_lattice_properties`` reads a lattice that breaks them."""

    def __init__(self, space: MetricMeasureSpace, kappa: float, seed: int,
                 ids, gen, parent, center, owner, pts, labels: dict):
        self.space, self.kappa, self.seed, self.labels = \
            space, kappa, seed, labels
        self.ids, self.gen, self.parent, self.center = ids, gen, parent, center
        self.terminal, self.good = np.full((2, gen.size), UNSET)
        self.by_gen = {k: ids[gen[ids] == k].tolist()
                       for k in dict.fromkeys(gen[ids].tolist())}
        self.k_min, self.k_max = min(self.by_gen), max(self.by_gen)
        self.root_id = self.by_gen[self.k_min][0]
        self.size = np.zeros(gen.size)
        for k, at in self.by_gen.items():
            self.size[at] = kappa ** k
        self.n_members = np.bincount(owner, minlength=gen.size)
        self.offsets = np.append(0, np.cumsum(self.n_members))
        self.points = pts[np.lexsort((pts, owner))]
        self.points.setflags(write=False)      # cubes hand out views
        kids = ids[parent[ids] >= 0]
        self.n_children = np.bincount(parent[kids], minlength=gen.size)
        self.child_start = np.append(0, np.cumsum(self.n_children))
        self.child_ids = kids[np.argsort(parent[kids], kind="stable")]

    @cached_property
    def cubes(self) -> CubeTable:
        return CubeTable(self)

    @property
    def root(self) -> Cube:
        return self.cubes[self.root_id]

    def generations(self):
        return range(self.k_min, self.k_max + 1)

    def members(self, cid: int) -> np.ndarray:
        return self.points[self.offsets[cid]:self.offsets[cid + 1]]

    def member_entries(self, ids):
        """(slot, point) per member of the cubes ``ids``, cube by cube."""
        ids = np.asarray(ids, dtype=int)
        slot, at = _ranges(self.offsets[ids], self.n_members[ids])
        return slot, self.points[at]

    @cached_property
    def mass(self) -> np.ndarray:
        """mu(Q) per cube id (0 off the cubes), from one ``cube_reduce``:
        each as ``mu[members].sum()``."""
        out = np.zeros(self.gen.size)
        out[self.ids] = cube_reduce(self, self.space.mu[None, :], self.ids,
                                    np.add)[0]
        return out

    @cached_property
    def column(self) -> np.ndarray:
        """Column of each cube id in the per-lattice tables; -1 for ids
        that name no cube.  A cube with one child holds the child's points
        and shares its column."""
        col = np.full(self.gen.size, -1)
        for k in sorted(self.by_gen, reverse=True):
            ids = np.array(self.by_gen[k], dtype=int)
            one = self.n_children[ids] == 1
            col[ids[one]] = col[self.child_ids[self.child_start[ids[one]]]]
            col[ids[~one]] = col.max() + 1 + np.arange((~one).sum())
        return col

    @cached_property
    def tree(self) -> tuple:
        """The plan ``cube_reduce`` follows up the cube tree: (leaves,
        steps).  ``leaves`` holds (columns, member rows) per member count of
        the childless cubes; ``steps`` holds (columns, child columns) per
        generation, fine to coarse, and child count of the cubes with two
        children or more."""
        ids = self.ids
        count = self.n_children[ids]
        col, leaf, multi = self.column, ids[count == 0], ids[count > 1]
        return ([(col[leaf[slots]], rows)
                 for slots, rows in member_rows(self, leaf)],
                [(col[multi[slots]], col[kids]) for slots, kids in _grouped(
                    self.child_start[multi], self.n_children[multi],
                    self.child_ids, self.k_max - self.gen[multi])])

    def column_cubes(self) -> list:
        """One cube id per table column."""
        reps = np.empty(self.column.max() + 1, dtype=int)
        reps[self.column[self.ids]] = self.ids
        return reps.tolist()

    def member_masks(self, ids) -> np.ndarray:
        """(len(ids), N) member masks of the cubes ``ids``."""
        mask = np.zeros((len(ids), self.space.n_points), dtype=bool)
        mask[self.member_entries(ids)] = True
        return mask

    @cached_property
    def dist(self) -> np.ndarray:
        """(N, columns) point-to-cube distances, built once per lattice:
        ``dist[x, column[c]]`` is min over y in cube c of rho(x, y)."""
        return self._dist_diam[0]

    @cached_property
    def diam(self) -> np.ndarray:
        """diam(Q) per cube id: the max of rho over the pairs of its
        points, 0 off the cubes and on cubes of at most one point."""
        return self._dist_diam[1]

    @cached_property
    def _dist_diam(self) -> tuple:
        """``dist`` and ``diam`` from one pass up the cube tree over the rows
        of rho, which takes no transposed copy of rho as its columns do:
        rho is symmetric, so the min table is ``dist``.  The max table at a
        cube's own points covers the ordered pairs of its points, so diam(Q)
        is their max."""
        low, high = cube_reduce(self, self.space.rho, self.column_cubes(),
                                (np.minimum, np.maximum), axis=0)
        diam = np.zeros(self.gen.size)
        big = self.ids[self.n_members[self.ids] > 1]
        if big.size:
            slot, pts = self.member_entries(big)
            count = self.n_members[big]
            diam[big] = np.maximum.reduceat(
                high[self.column[big][slot], pts], np.cumsum(count) - count)
        del high
        return np.ascontiguousarray(low.T), diam

    @cached_property
    def plan(self):
        """The ``projections.DecompositionPlan``, built on first use."""
        from .projections import DecompositionPlan
        return DecompositionPlan(self)


def _ranges(start: np.ndarray, count: np.ndarray) -> tuple:
    """(owner, index): the ranges start[i]:start[i] + count[i] one after
    the other, and the i of each entry."""
    owner = np.repeat(np.arange(count.size), count)
    offset = np.arange(owner.size) - np.repeat(np.cumsum(count) - count, count)
    return owner, np.repeat(start, count) + offset


def _grouped(start: np.ndarray, count: np.ndarray, values: np.ndarray,
             key=0):
    """(slots, rows) per value of ``count`` and of the integer ``key`` (one
    per entry), ascending in key: rows[i] holds the count[s] values from
    values[start[s]] on, s = slots[i]."""
    group = np.asarray(key) * (count.max(initial=0) + 1) + count
    for g in sorted(set(group.tolist())):
        slots = np.flatnonzero(group == g)
        yield slots, values[start[slots, None] + np.arange(count[slots[0]])]


def member_rows(lat: DyadicLattice, ids, key=0):
    """(slots, rows) per member count of the cubes ``ids`` and per value of
    the integer ``key`` (one per cube): rows[i] holds the members of cube
    ids[slots[i]]."""
    ids = np.asarray(ids, dtype=int)
    return _grouped(lat.offsets[ids], lat.n_members[ids], lat.points, key)


def cube_reduce(lat: DyadicLattice, matrix: np.ndarray, ids,
                ufunc=np.minimum, axis: int = 1):
    """Reduce ``matrix`` over the members of each cube of ``lat`` named in
    ``ids``: slot j along ``axis`` of the result is ``ufunc`` over the
    columns (axis 1) or rows (axis 0) of cube ``ids[j]``.  A tuple of
    ufuncs gives a tuple of results from one pass over ``matrix``.

    The ufuncs of ``TREE_UFUNCS`` (min, max, and, or) go up the cube tree
    (``lat.tree``) when the cubes ``ids`` hold more than N points in all: a
    table with one row per column (``lat.column``) is filled at the
    childless cubes from their members, then at the cubes of each
    generation, fine to coarse, from their children's rows, and the rows of
    ``ids`` are read off it, in tiles of
    ``REDUCE_CELLS`` matrix cells.  These ufuncs are exact, so every entry
    is the member reduction's, bit for bit, but for the sign of a zero: a
    min or max over +0.0 and -0.0 may give either, as numpy's own
    reductions do.  Otherwise the members of each cube are gathered: for
    cubes of at most N points in all, which is fewer rows than the tree's
    childless cubes alone; and for sums (``np.add``: mu(Q), nu(Q)), so that
    each keeps the bits of ``matrix[members].sum()``.  The gather takes the
    cubes of one generation and member count together, one gather of their
    rows each; a generation's cubes are disjoint, so no gather is taller
    than N."""
    ufuncs = ufunc if isinstance(ufunc, tuple) else (ufunc,)
    src = np.asarray(matrix)
    ids = np.asarray(ids, dtype=int)
    if not all(u in TREE_UFUNCS for u in ufuncs) or \
            lat.n_members[ids].sum() <= lat.space.n_points:
        if axis == 1:
            src = np.ascontiguousarray(src.T)
        outs = [np.empty((ids.size, src.shape[1]), dtype=src.dtype)
                for _ in ufuncs]
        for slots, rows in member_rows(lat, ids, lat.gen[ids]):
            block = src[rows]
            for out, u in zip(outs, ufuncs):
                out[slots] = u.reduce(block, axis=1)
        outs = [np.ascontiguousarray(out.T) if axis == 1 else out
                for out in outs]
    else:
        leaves, steps = lat.tree
        view = src if axis == 0 else src.T    # members along the rows
        n_cols, cols = lat.column.max() + 1, lat.column[ids]
        outs = [np.empty((ids.size, view.shape[1]) if axis == 0 else
                         (view.shape[1], ids.size), dtype=src.dtype)
                for _ in ufuncs]
        width = max(1, REDUCE_CELLS // max(1, view.shape[0]))
        for a in range(0, view.shape[1], width):
            part = np.ascontiguousarray(view[:, a:a + width])
            tables = [np.empty((n_cols, part.shape[1]), dtype=src.dtype)
                      for _ in ufuncs]
            for at, rows in leaves:
                block = part[rows]
                for table, u in zip(tables, ufuncs):
                    table[at] = u.reduce(block, axis=1)
            for table, u, out in zip(tables, ufuncs, outs):
                for at, kids in steps:
                    table[at] = u.reduce(table[kids], axis=1)
                (out if axis == 0 else out.T)[:, a:a + width] = table[cols]
    return tuple(outs) if isinstance(ufunc, tuple) else outs[0]


def cube_dilations(lat: DyadicLattice, lams, points=None) -> np.ndarray:
    """(cubes, 1 + len(lams), points) point masks: each cube of ``lat`` in
    ``ids`` order, then its dilations lambda Q = Q union {x : dist(x, Q)
    <= (lambda - 1) diam(Q)} (``space.dilate``), read off ``lat.dist`` and
    ``lat.diam``, at the given ``points`` only (default: all N)."""
    if any(lam < 1.0 for lam in lams):
        raise ValueError("dilation parameter must be >= 1")
    points = slice(None) if points is None else points
    reps = lat.column_cubes()
    diam = lat.diam[reps]
    inside = lat.member_masks(reps)[:, points]
    dist = lat.dist[points]
    out = np.empty((len(reps), 1 + len(lams), inside.shape[1]), dtype=bool)
    out[:, 0] = inside
    for t, lam in enumerate(lams, start=1):
        out[:, t] = (dist <= (lam - 1.0) * diam).T | inside
    return out[lat.column[lat.ids]]


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


def _generation_range(space: MetricMeasureSpace, kappa: float,
                      k_range: tuple | None):
    """(k_min, k_max) of ``build_lattice``: ``k_range``, or the scales from
    above diam(X) down to resolution_h.  The entry of every lattice build,
    where a rho that is not symmetric is refused."""
    if not 0.0 < kappa < 1.0:
        raise ValueError("kappa must lie in (0,1)")
    if not space.symmetric:
        raise ValueError("lattices need a symmetric metric: rho differs "
                         "from its transpose")
    if k_range is None:
        k_min, k_max = _default_k_range(space, kappa)
    else:
        k_min, k_max = k_range
    if k_max < k_min:
        raise DegenerateScale(f"empty generation range {k_min}..{k_max}")
    if k_max - k_min >= MAX_GENERATIONS:
        raise ValueError(f"diam {space.diam():g} down to resolution_h "
                         f"{space.resolution_h:g} is {k_max - k_min + 1} "
                         f"generations, more than {MAX_GENERATIONS}")
    if kappa ** k_max < space.resolution_h / 2 and k_range is not None:
        # user asked for scales below the resolution; only complain when the
        # whole range is degenerate
        if kappa ** k_min < space.resolution_h:
            raise DegenerateScale("all scales below resolution_h")
    return k_min, k_max


def _candidates(space: MetricMeasureSpace, kappa: float, gens: range):
    """Per generation, a table: table[x] lists the ids y with rho(x, y)
    below the scale, nearest first (ties to the lower id), padded with x;
    None where some list would hold more than half the points, or none
    would hold any."""
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
        cands.append(np.take_along_axis(
            table, dist.argsort(axis=1, kind="stable"), axis=1))
    return cands


def _first_listed(net: np.ndarray, si: np.ndarray, xi: np.ndarray, cand):
    """For each (row si, point xi), the first center of ``net[si]`` in the
    candidate list of xi (``cand``, see ``_candidates``).  The list holds
    one: a greedy net leaves no point a scale or more from every center,
    and rho is symmetric, so a center blocking xi is below the scale from
    it."""
    cols = cand[xi]
    return cols[np.arange(xi.size), net[si[:, None], cols].argmax(axis=1)]


def _nearest_in_nets(rho: np.ndarray, net: np.ndarray, si: np.ndarray,
                     xi: np.ndarray) -> np.ndarray:
    """For each (row si, point xi): the center of ``net[si]`` nearest to xi,
    ties to the lowest id, over the columns of every center of ``net``."""
    cols = net.any(axis=0).nonzero()[0]
    # gather rows or columns first, whichever keeps less
    d = rho[xi][:, cols] if xi.size < cols.size else rho[:, cols][xi]
    d[~net[:, cols][si]] = np.inf
    return cols[d.argmin(axis=1)]


def _draw_orders(seeds, n_gens: int, n: int) -> np.ndarray:
    """(seeds, generations, N) orders of the greedy net passes: for each
    seed, ``n_gens`` successive permutations of range(N) from its own
    stream, coarse to fine."""
    orders = np.empty((len(seeds), n_gens, n), dtype=int)
    ids = np.broadcast_to(np.arange(n), (n_gens, n))
    for s, seed in enumerate(seeds):
        np.random.default_rng(seed).permuted(ids, axis=1, out=orders[s])
    return orders


def _ensemble_keys(master_seed: int) -> np.random.Generator:
    """The key stream of the calibration ensemble: a child of
    ``SeedSequence(master_seed)``, apart from the ``default_rng(master_seed)``
    stream of the probes, phi and the power iteration.  It fills a
    (lattices, generations, N) block of ``random()`` keys in lattice order;
    the order of lattice i at generation t is the argsort of its key row."""
    child = np.random.SeedSequence(master_seed).spawn(1)[0]
    return np.random.default_rng(child)


def _greedy_nets(rho: np.ndarray, nearest: np.ndarray, scale,
                 orders: np.ndarray) -> np.ndarray:
    """(generations, seeds, N) greedy nets of the orders ``orders`` (seeds,
    generations, N), generation t at scale scale[t], every (seed,
    generation) row in one pass over the positions of their orders.  A row
    picks a point unless a center it picked lies within one scale of it;
    ``free`` holds the points no center blocks yet.  A point one scale or
    more from every other point (``space.nearest_other``) is
    always picked and blocks no other point: it is picked up front and
    never free.  So when every row has such points, each row visits its
    other points first, in order, and the pass ends after the most any row
    has."""
    n_seeds, n_gens, n = orders.shape
    orders = orders.reshape(-1, n)
    scale = np.tile(scale, n_seeds)[:, None]
    picked = nearest >= scale
    free = ~picked
    width = n - picked.sum(axis=1).min(initial=n)
    if width < n:
        rows = np.arange(len(orders))[:, None]
        lone = picked[rows, orders]
        orders = orders[rows, lone.argsort(axis=1, kind="stable")[:, :width]]
    slots = orders.T.copy()
    slots += np.arange(0, len(orders) * n, n)         # row * N + point
    free_at, picked_at = free.ravel(), picked.ravel()
    for slot in slots:
        grow = free_at[slot].nonzero()[0]
        if grow.size:
            slot = slot[grow]
            picked_at[slot] = True
            free[grow] &= rho.take(slot, axis=0, mode="wrap") >= scale[grow]
    return picked.reshape(n_seeds, n_gens, n).transpose(1, 0, 2)


def _chain_centers(rho: np.ndarray, nearest: np.ndarray, nets: np.ndarray,
                   heads: np.ndarray, cands=None) -> np.ndarray:
    """(generations, seeds, P) region centers of the points ``heads`` (seeds,
    P) in the nets ``nets`` (generations, seeds, N), coarse to fine: at the
    finest generation the center c with the least rho(x, c) to the point x,
    ties to the lowest id, one generation up the center nearest to that
    center, and so on, so that regions nest.  Each step searches once per
    distinct (seed, center): over its candidate list ``cands[t]`` where
    given (see ``_candidates``; the nearest center is among them), else
    over the columns of every center of the generation, masked to its own
    net.  A center nearer to itself than to any other point is its own
    nearest center."""
    n_gens, n_seeds, n = nets.shape
    ctr = np.empty((n_gens,) + heads.shape, dtype=np.int32)
    own = np.diagonal(rho) < nearest
    seed_col = np.arange(n_seeds)[:, None]
    ids = np.broadcast_to(np.arange(n), (n_seeds, n))
    for t in range(n_gens - 1, -1, -1):
        ask = np.zeros((n_seeds, n), dtype=bool)
        ask[seed_col, heads] = True
        ask &= ~(nets[t] & own)
        si, xi = np.nonzero(ask)
        near = ids.copy()
        if xi.size:
            near[si, xi] = _first_listed(nets[t], si, xi, cands[t]) \
                if cands and cands[t] is not None else \
                _nearest_in_nets(rho, nets[t], si, xi)
        heads = ctr[t] = near[seed_col, heads]
    return ctr


def _draw_batch(space: MetricMeasureSpace, kappa: float, orders: np.ndarray,
                gens: range, cands=None):
    """The nets of ``build_lattice`` for all (lattices, generations, N)
    ``orders`` at once, without labels or cubes: (picked, ctr), each
    (generations, lattices, N).  picked[t, s] is the net of lattice s at
    generation gens[t], ctr[t, s, x] the center of the region of point x
    there; the coarsest generation keeps its first center only.  ``cands``
    is the ``_candidates`` of ``gens`` or None."""
    n, n_seeds, nearest = space.n_points, len(orders), space.nearest_other
    picked = _greedy_nets(space.rho, nearest, [kappa ** k for k in gens],
                          orders)
    ctr = np.empty(picked.shape, dtype=np.int32)
    ctr[1:] = _chain_centers(space.rho, nearest, picked[1:],
                             np.broadcast_to(np.arange(n), (n_seeds, n)),
                             cands and cands[1:])
    ctr[0] = picked[0].argmax(axis=1)[:, None]
    return picked, ctr


def build_lattice(space: MetricMeasureSpace, kappa: float, seed: int = 0,
                  k_range: tuple | None = None) -> DyadicLattice:
    """Greedy net-based lattice construction (properties (i)-(v) by design):
    one cube per region of ``_draw_batch`` that some finest cell chains
    into.  Cube ids number the regions generation by generation, one root
    region at k_min, each region in the order of its center."""
    k_min, k_max = _generation_range(space, kappa, k_range)
    gens = range(k_min, k_max + 1)
    return _lattice_of_orders(space, kappa, seed, gens, _draw_orders(
        [seed], len(gens), space.n_points)[0])


def _lattice_of_orders(space: MetricMeasureSpace, kappa: float, seed: int,
                       gens: range, orders: np.ndarray) -> DyadicLattice:
    """The lattice of ``build_lattice`` drawn from the (generations, N)
    greedy orders ``orders`` (an ensemble lattice's, say), as seed ``seed``."""
    k_min = gens[0]
    picked, ctr = (a[:, 0] for a in _draw_batch(space, kappa, orders[None],
                                                 gens))
    count = picked.sum(axis=1)
    count[0] = 1
    lab = np.take_along_axis(np.cumsum(picked, axis=1) - 1, ctr, axis=1) + \
        (np.cumsum(count) - count)[:, None]
    # the points of a region share its generation, center and parent
    gen, center, parent = np.full((3, lab.max() + 1), -1)
    gen[lab] = np.array(gens)[:, None]
    center[lab] = ctr
    parent[lab[1:]] = lab[:-1]
    owner = lab.ravel()
    ids = np.flatnonzero(np.bincount(owner))        # the regions with points
    return DyadicLattice(space, kappa, seed, ids, gen, parent, center, owner,
                         np.tile(np.arange(space.n_points), len(gens)),
                         {k: lab[k - k_min] for k in reversed(gens)})


# ---------------------------------------------------------------------------
# property verification


@dataclass
class LatticePropertyReport:
    """The exact properties of a lattice, checked when the report is made,
    and the fitted constants, each fitted on first read
    (``fit_lattice_constants``): a caller that reads ``passed`` only does
    not pay for the boundary layers.  A lattice that did not pass has no
    constants: reading one raises ``ValueError``."""
    lattice: DyadicLattice
    partition_ok: bool
    nesting_ok: bool
    unique_ancestor_ok: bool
    failures: list

    @property
    def passed(self) -> bool:
        return self.partition_ok and self.nesting_ok and self.unique_ancestor_ok

    @cached_property
    def _constants(self) -> tuple:
        if not self.passed:
            raise ValueError("no lattice constants: the lattice fails "
                             f"{self.failures[0][0]}")
        return fit_lattice_constants(self.lattice)

    c_diam = property(lambda self: self._constants[0])
    a0 = property(lambda self: self._constants[1])
    c_boundary = property(lambda self: self._constants[2])  # small boundary


def verify_lattice_properties(lat: DyadicLattice) -> LatticePropertyReport:
    """Check Christ-cube properties (i)-(v) exactly: every generation
    partitions the points (covered, disjoint), every cube nests in its
    parent and lies under exactly one cube of the generation above.  One
    pass per generation over its cubes' member masks (members, not labels,
    so a lattice built with broken members is checked as it stands).  The
    constants c_diam, a0 and c_boundary are fitted when the report's
    fields are first read, on a lattice that passed."""
    n, failures = lat.space.n_points, []
    # per cube id: not nested in its parent, not under exactly one label
    nest_bad, lone_bad = np.zeros((2, lat.gen.size), dtype=bool)
    for k in lat.generations():
        ids, lab = np.array(lat.by_gen[k], dtype=int), lat.labels[k]
        if (lab < 0).any():
            failures.append(("partition", k, "uncovered points"))
        if (np.bincount(lat.member_entries(ids)[1], minlength=n) > 1).any():
            failures.append(("disjointness", k, "overlapping cubes"))
        inside = lat.member_masks(ids)
        # a cube without a parent is checked against itself
        par = lat.parent[ids]
        nest_bad[ids] = (inside & ~lat.member_masks(
            np.where(par < 0, ids, par))).any(1)
        if k > lat.k_min:
            up = lat.labels[k - 1]
            lone_bad[ids] = ~inside.any(axis=1) | (inside & (
                up != up[inside.argmax(axis=1), None])).any(axis=1)

    partition_ok = not failures
    for cid in lat.ids[(nest_bad | lone_bad)[lat.ids]].tolist():
        if nest_bad[cid]:
            failures.append(("nesting", cid, int(lat.parent[cid])))
        if lone_bad[cid]:
            failures.append(("unique_ancestor", cid, None))
    return LatticePropertyReport(lat, partition_ok, not nest_bad.any(),
                                 not lone_bad.any(), failures)


def fit_lattice_constants(lat: DyadicLattice) -> tuple:
    """(c_diam, a0, c_boundary): diam(Q) <= c_diam s(Q), each center at
    least a0 s(Q) from its cube's complement (diam(X) for a full cube), and
    the small-boundary inequality (vi), exponent 1, at the relative
    thicknesses kappa, kappa^2 and kappa^3, on a lattice whose generations
    partition the points.  Complements are read off labels, distances to
    them off ``lat.dist``; nu(Q) from one sum over all cubes, and the
    boundary layers of every generation and thickness from one
    ``masked_sums``."""
    space, n = lat.space, lat.space.n_points
    top = max(space.diam(), space.resolution_h)
    c_diam, a0 = 0.0, math.inf
    nu_mass = np.zeros(lat.gen.size)
    nu_mass[lat.ids] = cube_reduce(lat, space.nu[None, :], lat.ids, np.add)[0]
    layers, t_nu = [], []       # (vi) per generation and thickness
    for k in lat.generations():
        ids, lab = np.array(lat.by_gen[k], dtype=int), lat.labels[k]
        slot, pts = lat.member_entries(ids)
        size = lat.size[ids]
        c_diam = max(c_diam, float((lat.diam[ids] / size).max()))
        # a0: each center to its cube's complement; a full cube: diam(X)
        full = lat.n_members[ids] == n
        near = space.rho[lat.center[ids]]
        near[lab == ids[:, None]] = np.inf
        a0 = min(a0, float((np.where(full, top, near.min(axis=1)) /
                            size).min()))
        # (vi): nu{x in Q : dist(x, X \ Q) <= t * s(Q)} <= C t nu(Q), X \ Q
        # the union of the other cubes of k
        d_out = lat.dist[:, lat.column[ids]]
        d_out[pts, slot] = np.inf
        d_out = d_out.min(axis=1)
        keep = ~full & (nu_mass[ids] > 0)
        inside = lat.member_masks(ids[keep])
        for t in (lat.kappa, lat.kappa ** 2, lat.kappa ** 3):
            layers.append(inside & (d_out <= t * size[keep, None]))
            t_nu.append(t * nu_mass[ids[keep]])

    layer = masked_sums(space.nu, np.concatenate(layers))
    return c_diam, a0, float((layer / np.concatenate(t_nu)).max(initial=0.0))


# ---------------------------------------------------------------------------
# skeletons, terminal/transit, good/bad


def skeleton(lat: DyadicLattice, cube: Cube) -> np.ndarray:
    """Discrete skeleton: points of a child within one resolution step of
    leaving that child."""
    if cube.is_leaf:
        raise LeafCube(f"cube {cube.id} has no children")
    pts, owners = skeleton_by_generation(lat)[cube.generation]
    return pts[owners == cube.id]


def _skeleton_marks(labels: np.ndarray, near) -> np.ndarray:
    """(..., N) skeleton marks of the (..., N) child labels ``labels``: the
    points with a near pair (``space.near_pairs``) whose labels differ."""
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
    return ks, _skeleton_marks(child, lat.space.near_pairs)


def skeleton_by_generation(lat: DyadicLattice) -> dict:
    """generation k -> (points, cube_ids): skeleton points of all cubes at
    generation k together with the id of the cube they belong to, read off
    the near pairs (within one resolution step) whose generation-(k+1)
    labels differ."""
    ks, marks = _lattice_marks(lat)
    return {k: (p, lat.labels[k][p])
            for k, p in zip(ks, map(np.flatnonzero, marks))}


def classify_terminal_transit(lat: DyadicLattice) -> None:
    """Flag every cube terminal or transit; the root must come out transit."""
    space, ids = lat.space, lat.ids
    # parent inside omega: one reduction of omega over all cubes; slot -1
    # (no parent) stays False
    in_omega = np.zeros(lat.gen.size + 1, dtype=bool)
    in_omega[ids] = cube_reduce(lat, space.omega[None, :], ids,
                                np.logical_and)[0]
    lat.terminal[ids] = in_omega[lat.parent[ids]] | (lat.mass[ids] <= 0.0)
    if lat.terminal[lat.root_id]:
        raise RootTerminal("root cube is terminal; mu carries no mass")


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
    ``classify_good_bad`` does.  Each generation of skeleton marks is
    scored once per column of ``lat.dist``, as the min over the marked
    points (NaN skipped): it lies below a cube's reach exactly when some
    marked point does.  Both lattices lie on one space."""
    if lat.space is not other.space:
        raise ValueError("the two lattices lie on different spaces")
    r_gap = scale_gap(other.kappa, delta_bad, s_param)
    ks, marks = _lattice_marks(other)
    ids = lat.ids
    table, column = lat.dist, lat.column[ids]
    s_alpha = np.array([s ** alpha for s in lat.size[ids].tolist()])
    k_last, bad = lat.gen[ids] - r_gap, np.zeros(ids.size, dtype=bool)
    for k, mark in zip(ks, marks):
        near = np.fmin.reduce(table[mark], axis=0, initial=np.inf)[column]
        bad |= (k <= k_last) & (near < s_alpha *
                                (other.kappa ** k) ** (1 - alpha))
    lat.good[ids] = ~bad


def ensemble_gaps(members: list, generations, space: MetricMeasureSpace,
                  kappa: float, alpha: float, ensemble_size: int,
                  master_seed: int = 0) -> np.ndarray:
    """Generation gaps of probe cubes against a seeded random ensemble.

    Entry (i, j) is gen(Q) - k for the coarsest generation k < gen(Q) at
    which probe Q (points ``members[j]``, generation ``generations[j]``)
    comes close to the skeleton of a cube of lattice i (see
    ``classify_good_bad``), 0 when none does.  Q is bad at
    separation S iff its gap is at least ``scale_gap(kappa, delta_bad, S)``,
    so one pass answers every S.  Lattice i reads the keys from i G N on
    of ``_ensemble_keys(master_seed)`` (G generations): its greedy order at
    generation t is the argsort of its key row t.

    A lattice is read only through its skeleton marks, the near-pair points
    (``space.near_pairs``) whose child labels differ, so only the chains of
    centers of those points are drawn (``_chain_centers``), with the nets
    and nearest-center rule of ``build_lattice``.  Lattices are drawn in
    chunks of at most ``ENSEMBLE_CELLS`` keys, and a chunk draws the keys of
    every generation of its lattices, which keeps lattice i's keys whatever
    the chunking; a key row is sorted into an order only where a greedy
    pass reads it.  Then, from the finest generation up, a lattice
    draws one net and its near-pair points take one chain step, until its
    near pairs all share their centers.  A center shared at one generation
    is shared at every coarser one, since each coarser center is the one
    nearest to it, so no generation from there up marks a point, exactly as
    in the full draw.  These steps run one generation at a time while their
    greedy passes together visit at most half as many points as one pass
    over every generation below the root; the lattices still split after
    them draw their remaining nets in that one pass (the root's net holds no
    mark).  Each chunk's marks are scored as arrays, for the generations a
    probe can reach, before the next chunk is drawn."""
    if ensemble_size < 1:
        raise ValueError(f"ensemble size must be at least 1, "
                         f"got {ensemble_size}")
    n = space.n_points
    k_min, k_max = _generation_range(space, kappa, None)
    gens = range(k_min, k_max + 1)
    gen_q = np.array(generations, dtype=int).reshape(len(members))
    # skeletons of the generations k < min(gen(Q), k_max)
    ks = list(range(k_min, min(gen_q.max(initial=k_min), k_max)))
    gaps = np.zeros((ensemble_size, len(members)), dtype=int)
    x, y, pts, starts = space.near_pairs
    if not (ks and x.size):
        return gaps
    # the points of the near pairs (rho is symmetric, so each pair's second
    # point is the first of another), and the pairs as positions among them
    chain = pts
    near = (*np.searchsorted(chain, [x, y]), np.arange(chain.size), starts)
    rho, nearest = space.rho, space.nearest_other
    scale = [kappa ** k for k in gens]
    # candidate lists, per generation on first use
    cand = functools.cache(
        lambda t: _candidates(space, kappa, gens[t:t + 1])[0])
    dists = np.array([rho[q].min(axis=0)
                      for q in members]).reshape(len(members), n)[:, chain]
    sizes = [kappa ** g for g in gen_q.tolist()]
    stream = _ensemble_keys(master_seed)
    chunks = -(-ensemble_size // max(1, ENSEMBLE_CELLS // (len(gens) * n)))
    size = -(-ensemble_size // chunks)
    # a greedy pass visits the points within one scale of another point: the
    # finest generations go one at a time while their passes together visit
    # at most half as many as one pass over every generation below the root;
    # the generations from 1 to ``split`` go in one pass
    wide = np.array([(nearest < s).sum() for s in scale])
    split = len(gens) - 1 - int((np.cumsum(wide[:0:-1]) <= wide[1] / 2).sum())
    for c in range(0, ensemble_size, size):
        keys = stream.random((min(size, ensemble_size - c), len(gens), n))
        # the centers of the near-pair points at each generation; the row
        # past the finest holds the points themselves
        ctr = np.empty((len(gens) + 1, len(keys), chain.size), np.int32)
        ctr[-1] = chain
        live = np.arange(len(keys))
        for t in range(len(gens) - 1, split, -1):
            ctr[t, live] = _chain_centers(rho, nearest, _greedy_nets(
                rho, nearest, scale[t:t + 1], keys[live, t:t + 1].argsort()),
                ctr[t + 1, live], [cand(t)])[0]
            # shared here, shared at every coarser generation
            ctr[1:t, live] = ctr[t, live]
            live = live[(ctr[t, live][:, near[0]] !=
                         ctr[t, live][:, near[1]]).any(axis=1)]
        if live.size and split:
            ctr[1:split + 1, live] = _chain_centers(rho, nearest, _greedy_nets(
                rho, nearest, scale[1:split + 1],
                keys[live, 1:split + 1].argsort()),
                ctr[split + 1, live], list(map(cand, range(1, split + 1))))
        hits = _coarsest_hits(_skeleton_marks(ctr[1:len(ks) + 1], near), ks,
                              dists, sizes, gen_q - 1, kappa, alpha)
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
    gaps = ensemble_gaps([cube_members], [cube_generation], space, kappa,
                         alpha, ensemble_size, master_seed)
    bad = int((gaps >= scale_gap(kappa, delta_bad, s_param)).sum())
    return (*bad_fraction(bad, ensemble_size), ensemble_size < 100)


# ---------------------------------------------------------------------------
# JSON dump


def lattice_to_json(lat: DyadicLattice) -> dict:
    gens = [{"k": k, "cubes": [{
        "id": c.id, "center": c.center, "members": c.members.tolist(),
        "parent": c.parent, "terminal": c.terminal, "good": c.good,
    } for c in map(lat.cubes.__getitem__, lat.by_gen[k])]}
        for k in lat.generations()]
    return {"kappa": lat.kappa, "seed": lat.seed, "generations": gens}


def save_lattice(lat: DyadicLattice, path) -> None:
    with open(path, "w") as fh:
        json.dump(lattice_to_json(lat), fh)

