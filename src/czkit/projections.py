"""Averaging projection, martingale differences, and good/bad splits.

Functions are plain numpy vectors aligned with the space's point order; a
(P, N) stack of them, one probe per row, decomposes and splits in one pass,
each row bit for bit as on its own (every sum runs along the last axis).
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
from .lattice import UNSET, DyadicLattice, _ranges, build_lattice, \
    classify_all_good_bad, classify_terminal_transit, member_rows
from .space import MetricMeasureSpace


class DecompositionPlan:
    """Index arrays of the decomposition on one lattice, from its flags:
    slot i < len(ids) is component cube ids[i] (transit, not a leaf, in cube
    order), then the other transit cubes and a terminal root (``slot`` per
    cube id, -1 off the plan); ``groups`` holds (slots, members, mu, mass)
    per member count.  Component i owns entries start[i]:start[i + 1] of the
    flat arrays, child by child: point ``pt``, ``owner`` i and the child's
    slot ``child`` (-1: raw increment)."""

    def __init__(self, lat: DyadicLattice):
        if lat.terminal[lat.root_id] == UNSET:
            raise ClassificationMissing("classify terminal/transit first")
        transit = lat.ids[lat.terminal[lat.ids] == 0]
        leaf = lat.n_children[transit] == 0
        comps = transit[~leaf]
        cubes = np.concatenate([comps, transit[leaf], [lat.root_id] *
                                int(lat.terminal[lat.root_id])]).astype(int)
        self.ids, self.n_slots = comps, cubes.size
        self.slot = np.full(lat.gen.size, -1)
        self.slot[cubes] = np.arange(cubes.size)
        part_owner, at = _ranges(lat.child_start[comps], lat.n_children[comps])
        parts = lat.child_ids[at]
        if (lat.terminal[parts] == UNSET).any():
            raise ClassificationMissing("terminal/transit flags missing")
        stop = (lat.terminal[parts] == 1) | (lat.n_children[parts] == 0)
        entry, self.pt = lat.member_entries(parts)
        self.pt.setflags(write=False)        # components hand out views
        self.owner = part_owner[entry]
        self.child = np.where(stop, -1, self.slot[parts])[entry]
        self.start = np.searchsorted(self.owner, np.arange(len(comps) + 1))
        self.level = lat.gen[cubes] - lat.k_min
        self.by_level = [np.flatnonzero(self.level[self.owner] == k)
                         for k in range(lat.k_max - lat.k_min + 1)]
        mass = lat.mass[cubes]
        self.groups = [(slots, members, lat.space.mu[members], mass[slots])
                       for slots, members in member_rows(lat, cubes)]
        if (mass <= 0).any():
            raise ZeroMass("average over a cube of zero mu-mass")

    def means(self, phi: np.ndarray, rows: np.ndarray | None = None):
        """mu-average of phi over each slot's cube, per row of a stack phi;
        with ``rows``, slot s averages row rows[s] of the matrix phi."""
        lead = phi.shape[:-1] if rows is None else ()
        out = np.empty(lead + (self.n_slots,))
        for slots, members, weight, mass in self.groups:
            vals = phi.take(members, -1) if rows is None else \
                phi[rows[slots][:, None], members]
            # out.T takes a plain index, where out[..., slots] costs
            # several times more on one function (dense and add_to too)
            out.T[slots] = ((vals * weight).sum(axis=-1) / mass).T
        return out


@dataclass
class MartingaleDecomposition:
    """The decomposition of one function, or of a (P, N) stack of them:
    then ``lambda_part`` is (P,) and ``values`` (P, entries)."""
    lattice: DyadicLattice
    lambda_part: float
    values: np.ndarray             # at the entries of lattice.plan

    @cached_property
    def components(self) -> dict:
        """cube id -> (idx, values), views into the flat arrays."""
        plan, start = self.lattice.plan, self.lattice.plan.start.tolist()
        return {cid: (plan.pt[a:b], self.values[a:b]) for cid, a, b in
                zip(plan.ids.tolist(), start, start[1:]) if b > a}

    def dense(self, ids) -> np.ndarray:
        """(len(ids), N), per probe: row i is the component of cube ids[i],
        or zero."""
        plan = self.lattice.plan
        row = np.full(plan.n_slots + 1, len(ids))   # the rest: spare row
        row[plan.slot[ids]] = np.arange(len(ids))
        out = np.zeros(self.values.shape[:-1] +
                       (len(ids) + 1, self.lattice.space.n_points))
        out.T[plan.pt, row[plan.owner]] = self.values.T
        return out[..., :-1, :]

    def constant(self) -> np.ndarray:
        """Lambda phi as a function, per probe."""
        return np.full(self.values.shape[:-1] + (self.lattice.space.n_points,),
                       np.asarray(self.lambda_part)[..., None])

    def add_to(self, out: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """Add into ``out`` each component times its ``weight`` (0 leaves
        it out), in cube order at each point."""
        plan = self.lattice.plan
        for sel in plan.by_level:
            sel = sel[weight[plan.owner[sel]] != 0]
            out.T[plan.pt[sel]] += (self.values.take(sel, -1) *
                                    weight[plan.owner[sel]]).T
        return out

    def reconstruct(self) -> np.ndarray:
        ids = self.lattice.plan.ids
        return self.add_to(self.constant(), np.ones(len(ids)))


def decompose(lat: DyadicLattice, phi: np.ndarray) -> MartingaleDecomposition:
    """phi = Lambda phi + sum over transit cubes of Delta_Q phi, exactly;
    phi is one function or a (P, N) stack of probes."""
    plan = lat.plan
    avg = plan.means(phi)
    values = np.where(plan.child < 0, phi.take(plan.pt, -1),
                      avg.take(plan.child, -1)) - avg.take(plan.owner, -1)
    lam = avg[..., plan.slot[lat.root_id]]
    return MartingaleDecomposition(lat, float(lam) if lam.ndim == 0 else lam,
                                   values)


@dataclass
class ProjectionReport:
    idempotence_err: float
    zero_mean_err: float
    mutual_orthogonality_err: float
    lambda_orthogonality_err: float

    @property
    def passed(self) -> bool:
        return max(self.idempotence_err, self.zero_mean_err,
                   self.mutual_orthogonality_err,
                   self.lambda_orthogonality_err) <= 1e-10


def properties_check(dec: MartingaleDecomposition,
                     phi: np.ndarray) -> ProjectionReport:
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
                            lam_orth / scale)


def good_component_ids(lat: DyadicLattice) -> np.ndarray:
    """The good cubes among the components ``lat.plan.ids``, in order."""
    ids = lat.plan.ids
    if (lat.good[ids] == UNSET).any():
        raise ClassificationMissing("good/bad flags missing")
    return ids[lat.good[ids] == 1]


def split_good_bad(dec: MartingaleDecomposition):
    """(f_good, f_bad): Lambda part plus good-cube components vs the rest,
    per probe."""
    lat = dec.lattice
    good = np.isin(lat.plan.ids, good_component_ids(lat)).astype(float)
    return (dec.add_to(dec.constant(), good),
            dec.add_to(np.zeros_like(dec.constant()), 1.0 - good))


def expected_bad_norm(space: MetricMeasureSpace, f: np.ndarray, kappa: float,
                      alpha: float, delta_bad: float, s_param: int,
                      ensemble: int, master_seed: int = 0):
    """Monte Carlo mean of ||f_bad|| over random lattice pairs, their seeds
    drawn in pairs from ``SeedSequence(master_seed)``.

    Returns (mean, stderr, check) where check compares the mean against
    delta_bad * ||f|| + 3 * stderr."""
    norms = []
    seeds = np.random.SeedSequence(master_seed).generate_state(2 * ensemble)
    for seed1, seed2 in seeds.reshape(ensemble, 2).tolist():
        lat1 = build_lattice(space, kappa, seed=seed1)
        lat2 = build_lattice(space, kappa, seed=seed2)
        classify_terminal_transit(lat1)
        classify_all_good_bad(lat1, lat2, alpha, delta_bad, s_param)
        norms.append(space.l2_norm(split_good_bad(decompose(lat1, f))[1]))
    norms = np.array(norms)
    mean = float(norms.mean())
    stderr = float(norms.std(ddof=1) / np.sqrt(ensemble)) if ensemble > 1 else 0.0
    check = mean <= delta_bad * space.l2_norm(f) + 3 * stderr
    return mean, stderr, check
