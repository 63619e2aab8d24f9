"""Averaging projection, martingale differences, and good/bad splits.

Functions are plain numpy vectors aligned with the space's point order.
Decompositions on a lattice run on its ``DecompositionPlan`` (``lat.plan``),
so each is a few gathers and row sums, linear in the number of cubes.

On a finite space the decomposition stops at the finest generation: a child
that is terminal *or a leaf* receives the raw increment ``phi - <phi>_Q``,
which makes the reconstruction exact (no truncation error) while keeping
every component zero-mean and the family mutually orthogonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ClassificationMissing, ZeroMass
from .lattice import Cube, DyadicLattice, build_lattice, classify_all_good_bad, \
    classify_terminal_transit
from .space import MetricMeasureSpace


class DecompositionPlan:
    """Index arrays of the decomposition on one lattice, from its flags:
    slot i < len(ids) is component cube ids[i] (transit, not a leaf, in cube
    order), then the other transit cubes and a terminal root; ``groups``
    holds (slots, members, mu, mass) per member count.  Component i owns
    entries start[i]:start[i + 1] of the flat arrays, child by child: point
    ``pt``, ``owner`` i and the child's slot ``child`` (-1: raw increment)."""

    def __init__(self, lat: DyadicLattice):
        if lat.root.terminal is None:
            raise ClassificationMissing("classify terminal/transit first")
        transit = [c for c in lat.cubes.values() if c.terminal is False]
        comps = [c for c in transit if not c.is_leaf]
        cubes = comps + [c for c in transit if c.is_leaf] + \
            [lat.root] * bool(lat.root.terminal)
        self.ids = [c.id for c in comps]
        self.slot = {c.id: i for i, c in enumerate(cubes)}
        self.root_slot = self.slot[lat.root_id]
        parts = [(i, lat.cubes[c]) for i, q in enumerate(comps)
                 for c in q.children]
        if any(ch.terminal is None for _, ch in parts):
            raise ClassificationMissing("terminal/transit flags missing")
        sizes = [ch.members.size for _, ch in parts]
        self.pt = np.concatenate([ch.members for _, ch in parts] +
                                 [np.zeros(0, dtype=int)])
        self.pt.setflags(write=False)        # components hand out views
        self.owner = np.repeat(np.array([i for i, _ in parts], dtype=int),
                               sizes)
        self.child = np.repeat(np.array(
            [-1 if ch.terminal or ch.is_leaf else self.slot[ch.id]
             for _, ch in parts], dtype=int), sizes)
        self.start = np.searchsorted(self.owner, np.arange(len(comps) + 1))
        self.level = np.array([c.generation for c in cubes]) - lat.k_min
        self.by_level = [np.flatnonzero(self.level[self.owner] == k)
                         for k in range(lat.k_max - lat.k_min + 1)]
        count = np.array([c.members.size for c in cubes])
        self.groups = []
        for size in np.unique(count):
            slots = np.flatnonzero(count == size)
            members = np.array([cubes[s].members for s in slots.tolist()])
            weight = lat.space.mu[members]
            self.groups.append((slots, members, weight, weight.sum(axis=1)))
        if any((mass <= 0).any() for *_, mass in self.groups):
            raise ZeroMass("average over a cube of zero mu-mass")

    def means(self, phi: np.ndarray, rows: np.ndarray | None = None):
        """mu-average of phi over each slot's cube; with ``rows``, slot s
        averages row rows[s] of the matrix phi."""
        out = np.empty(len(self.slot))
        for slots, members, weight, mass in self.groups:
            vals = phi[members] if rows is None else \
                phi[rows[slots][:, None], members]
            out[slots] = (vals * weight).sum(axis=1) / mass
        return out


@dataclass
class MartingaleDecomposition:
    lattice: DyadicLattice
    lambda_part: float
    values: np.ndarray             # at the entries of lattice.plan

    @cached_property
    def components(self) -> dict:
        """cube id -> (idx, values), views into the flat arrays."""
        plan = self.lattice.plan
        return {cid: (plan.pt[a:b], self.values[a:b]) for cid, a, b in
                zip(plan.ids, plan.start.tolist(), plan.start[1:].tolist())
                if b > a}

    def component_vector(self, cid: int) -> np.ndarray:
        return self.dense([cid])[0]

    def component_norm_sq(self, cid: int) -> float:
        idx, vals = self.components[cid]
        return float(np.sum(vals ** 2 * self.lattice.space.mu[idx]))

    def dense(self, ids) -> np.ndarray:
        """(len(ids), N): row i is the component of cube ids[i], or zero."""
        plan = self.lattice.plan
        row = np.full(len(plan.slot) + 1, len(ids))   # the rest: spare row
        row[[plan.slot.get(cid, -1) for cid in ids]] = np.arange(len(ids))
        out = np.zeros((len(ids) + 1, self.lattice.space.n_points))
        out[row[plan.owner], plan.pt] = self.values
        return out[:-1]

    def add_to(self, out: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """Add into ``out`` each component times its ``weight`` (0 leaves
        it out), in cube order at each point."""
        plan = self.lattice.plan
        for sel in plan.by_level:
            sel = sel[weight[plan.owner[sel]] != 0]
            out[plan.pt[sel]] += self.values[sel] * weight[plan.owner[sel]]
        return out

    def reconstruct(self) -> np.ndarray:
        n, ids = self.lattice.space.n_points, self.lattice.plan.ids
        return self.add_to(np.full(n, self.lambda_part), np.ones(len(ids)))

    def norms_sq(self) -> dict:
        return {cid: self.component_norm_sq(cid) for cid in self.components}


def delta_proj(lat: DyadicLattice, phi: np.ndarray, cube: Cube) -> np.ndarray:
    """Dense Delta_Q phi (zero off Q)."""
    if cube.terminal is not False:
        raise ClassificationMissing("delta projection requires a transit cube")
    return decompose(lat, phi).dense([cube.id])[0]


def decompose(lat: DyadicLattice, phi: np.ndarray) -> MartingaleDecomposition:
    """phi = Lambda phi + sum over transit cubes of Delta_Q phi, exactly."""
    plan = lat.plan
    avg = plan.means(phi)
    values = np.where(plan.child < 0, phi[plan.pt], avg[plan.child]) - \
        avg[plan.owner]
    return MartingaleDecomposition(lat, float(avg[plan.root_slot]), values)


@dataclass
class ProjectionReport:
    idempotence_err: float
    zero_mean_err: float
    mutual_orthogonality_err: float
    lambda_orthogonality_err: float
    tol: float = 1e-10

    @property
    def passed(self) -> bool:
        return max(self.idempotence_err, self.zero_mean_err,
                   self.mutual_orthogonality_err,
                   self.lambda_orthogonality_err) <= self.tol


def properties_check(dec: MartingaleDecomposition, phi: np.ndarray,
                     tol: float = 1e-10) -> ProjectionReport:
    """Numerical check of the projection algebra: idempotence, zero mean,
    mutual orthogonality, orthogonality to the constant part.

    Row k + 1 of ``by_gen`` sums the components of generation k (disjoint
    cubes).  Delta_Q reads Q only, so Q's row gives Delta_Q(Delta_Q phi);
    disjoint components are orthogonal, so each meets only coarser rows."""
    space, plan, vals = dec.lattice.space, dec.lattice.plan, dec.values
    scale = max(space.l2_norm(phi) ** 2, 1.0)
    by_gen = np.zeros((len(plan.by_level) + 1, space.n_points))
    by_gen[plan.level[plan.owner] + 1, plan.pt] = vals
    own, up = (plan.means(by_gen, plan.level + k) for k in (1, 0))
    twice = np.where(plan.child < 0, vals, up[plan.child]) - own[plan.owner]
    idem = float(np.abs(twice - vals).max(initial=0.0))
    zmean = lam_orth = ortho = 0.0
    lengths = np.diff(plan.start)
    for size in np.unique(lengths[lengths > 0]):
        comps = np.flatnonzero(lengths == size)
        flat = plan.start[comps][:, None] + np.arange(size)
        pts, gens = plan.pt[flat], plan.level[comps]
        sums = (vals[flat] * space.mu[pts]).sum(axis=1)
        zmean = max(zmean, float(np.abs(sums).max()))
        lam_orth = max(lam_orth, float(np.abs(dec.lambda_part * sums).max()))
        # one C-ordered gather, so each row sums as np.sum sums it
        rows = by_gen[np.arange(1, gens.max() + 1)[:, None, None], pts]
        pair = ((rows * vals[flat]) * space.mu[pts]).reshape(-1, size)
        above = (np.arange(gens.max())[:, None] < gens).ravel()
        ortho = max(ortho, float(np.abs(pair.sum(axis=1)[above])
                                 .max(initial=0.0)))
    return ProjectionReport(idem / scale, zmean / scale, ortho / scale,
                            lam_orth / scale, tol)


def split_good_bad(dec: MartingaleDecomposition):
    """(f_good, f_bad): Lambda part plus good-cube components vs the rest."""
    lat = dec.lattice
    good = [lat.cubes[cid].good for cid in lat.plan.ids]
    if None in good:
        raise ClassificationMissing("good/bad flags missing")
    good = np.array(good, dtype=float)
    return (dec.add_to(np.full(lat.space.n_points, dec.lambda_part), good),
            dec.add_to(np.zeros(lat.space.n_points), 1.0 - good))


def expected_bad_norm(space: MetricMeasureSpace, f: np.ndarray, kappa: float,
                      alpha: float, delta_bad: float, s_param: int,
                      ensemble: int, master_seed: int = 0):
    """Monte Carlo mean of ||f_bad|| over random lattice pairs.

    Returns (mean, stderr, check) where check compares the mean against
    delta_bad * ||f|| + 3 * stderr."""
    norms = []
    for i in range(ensemble):
        lat1 = build_lattice(space, kappa, seed=hash((master_seed, i, 1)) % 2**32)
        lat2 = build_lattice(space, kappa, seed=hash((master_seed, i, 2)) % 2**32)
        classify_terminal_transit(lat1)
        classify_all_good_bad(lat1, lat2, alpha, delta_bad, s_param)
        norms.append(space.l2_norm(split_good_bad(decompose(lat1, f))[1]))
    norms = np.array(norms)
    mean = float(norms.mean())
    stderr = float(norms.std(ddof=1) / np.sqrt(ensemble)) if ensemble > 1 else 0.0
    check = mean <= delta_bad * space.l2_norm(f) + 3 * stderr
    return mean, stderr, check
