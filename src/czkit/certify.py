"""Certified L2 bound assembly.

The bilinear form of the operator against two good decompositions is split
exactly into a diagonal part, a long range part and a short range part (plus
the symmetric half with the roles of the lattices swapped).  Each part is
bounded by an inequality chain whose every step is checked numerically on
the instance, and the chain constants are assembled into a certified bound
on the operator norm.

Conventions.  A pair always contributes value(Q, R) = <T Delta_Q f,
Delta_R g>_mu.  In the primary half the cube from the f-lattice is the finer
one and the adjoint kernel plays the operator role; in the symmetric half
the roles swap.  The scale-comparison conditions are generation arithmetic:
"gap" below is gen(fine) - gen(coarse) >= 0.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import HypothesisViolated, MultipleParents, NonTransitEntry, \
    ZeroMassCube
from .kernels import KernelSpec
from .lattice import Cube, DyadicLattice, cube_reduce
from .projections import MartingaleDecomposition, decompose, split_good_bad
from .space import MetricMeasureSpace, dilate


def alpha_param(m: float, tau: float) -> float:
    """The goodness exponent tau / (2 (tau + m))."""
    return tau / (2.0 * (tau + m))


def dqr_distance(space: MetricMeasureSpace, q: Cube, r: Cube) -> float:
    """Long-range distance scale s(Q) + s(R) + dist(Q, R)."""
    return q.size + r.size + space.set_dist(q.members, r.members)


@dataclass
class LemmaCheck:
    name: str
    measured: float
    bound: float
    passed: bool
    ref: str = ""


def _lemma(name: str, measured: float, bound: float, ref: str) -> LemmaCheck:
    """A lemma check that passes when measured <= bound up to rounding."""
    return LemmaCheck(name, measured, bound,
                      measured <= bound * (1 + 1e-9) + 1e-15, ref)


# ---------------------------------------------------------------------------
# pair classification and exact regrouping


def _good_component_cubes(lat: DyadicLattice):
    cubes = [lat.cubes[cid] for cid in lat.plan.ids]
    if any(cube.good is None for cube in cubes):
        raise HypothesisViolated("good/bad flags missing on a lattice")
    return [cube for cube in cubes if cube.good]


def classify_pairs(fine_lat: DyadicLattice, coarse_lat: DyadicLattice,
                   r_gap: int, alpha: float) -> dict:
    """Sort all (fine, coarse) good transit pairs with gap >= 0 into the
    diagonal, long range and short range regimes.

    Records are dicts with the pair ids, generation gap, cube distance and,
    for short range pairs, the coarse child holding the fine cube: the
    cube of the next generation with the most of its points, the lowest id
    on ties.  The distances are the coarse lattice's point-to-cube table
    reduced over the fine cubes' rows; the shared points are counted one
    coarse generation at a time."""
    fine = _good_component_cubes(fine_lat)
    coarse = _good_component_cubes(coarse_lat)
    q_ids = np.array([q.id for q in fine], dtype=int)
    r_ids = np.array([r.id for r in coarse], dtype=int)
    qg = np.array([q.generation for q in fine], dtype=int)
    rg = np.array([r.generation for r in coarse], dtype=int)
    k_min = coarse_lat.k_min
    dist = cube_reduce(fine_lat, coarse_lat.dist[:, coarse_lat.column[r_ids]],
                       q_ids, axis=0)
    meets = np.zeros(dist.shape, dtype=bool)
    # holder[i, k - k_min]: the generation-k coarse cube holding most of Q_i
    holder = np.zeros((len(fine), coarse_lat.k_max - k_min + 1), dtype=int)
    points = np.concatenate([q.members for q in fine] + [np.zeros(0, int)])
    row = np.repeat(np.arange(len(fine)), [q.members.size for q in fine])
    for k in coarse_lat.generations():
        ids = np.array(sorted(coarse_lat.by_gen[k]))
        at = np.searchsorted(ids, coarse_lat.labels[k][points])
        # shared[i, c]: the points Q_i shares with the c-th cube of k
        shared = np.bincount(row * ids.size + at, minlength=len(fine) *
                             ids.size).reshape(len(fine), ids.size)
        holder[:, k - k_min] = ids[np.argmax(shared, axis=1)]
        meets[:, rg == k] = shared[:, np.searchsorted(ids, r_ids[rg == k])] > 0

    gap_ok = qg[:, None] >= rg[None, :]
    close = qg[:, None] < rg[None, :] + r_gap
    measured = close | ~meets
    near = close & (dist <= np.array([r.size for r in coarse]))
    i1, j1 = np.nonzero(gap_ok & measured & near)
    i2, j2 = np.nonzero(gap_ok & measured & ~near)
    i3, j3 = np.nonzero(gap_ok & ~measured)
    # distance hypothesis of the far-interaction bound
    far_ok = dist[i2, j2] >= (np.array([q.size ** alpha for q in fine])[i2] *
                              np.array([r.size ** (1 - alpha)
                                        for r in coarse])[j2])
    rq = holder[i3, rg[j3] + 1 - k_min]
    stop = ~np.isin(rq, coarse_lat.plan.ids)      # terminal or a leaf

    def records(i, j, **fields):
        # the records share the cubes' id objects
        values = [[fine[a].id for a in i.tolist()],
                  [coarse[b].id for b in j.tolist()], (qg[i] - rg[j]).tolist(),
                  *(v.tolist() for v in fields.values())]
        keys = ["q", "r", "gap", *fields]
        return [dict(zip(keys, vals)) for vals in zip(*values)]

    return {"sigma1": records(i1, j1, dist=dist[i1, j1]),
            "sigma2": records(i2, j2, dist=dist[i2, j2], far_ok=far_ok),
            "sigma3_term": records(i3[stop], j3[stop],
                                   dist=np.zeros(stop.sum()), rq=rq[stop]),
            "sigma3_tran": records(i3[~stop], j3[~stop],
                                   dist=np.zeros((~stop).sum()), rq=rq[~stop])}


@dataclass
class ComponentRows:
    """The good component cubes of one lattice in a fixed row order, and the
    pieces their martingale differences split into: piece ``piece[c]`` is
    the part of Delta_Q on its child c."""
    lattice: DyadicLattice
    row: dict                      # cube id -> row, in row order
    size: np.ndarray               # s(Q) per row
    mass: np.ndarray               # mu(Q) per row
    piece: dict                    # child cube id -> piece
    piece_start: np.ndarray        # pieces of row i: piece_start[i:i + 2]
    point_piece: np.ndarray        # (rows, N) piece of each point of the
                                   # row's cube, len(piece) off the cube


def _component_rows(lat: DyadicLattice) -> ComponentRows:
    cubes = _good_component_cubes(lat)
    point_piece = np.full((len(cubes), lat.space.n_points), -1)
    piece = {}
    piece_start = np.cumsum([0] + [len(c.children) for c in cubes])
    for i, cube in enumerate(cubes):
        for ch in cube.children:
            point_piece[i, lat.cubes[ch].members] = len(piece)
            piece[ch] = len(piece)
    point_piece[point_piece < 0] = len(piece)
    return ComponentRows(
        lattice=lat, row={c.id: i for i, c in enumerate(cubes)},
        size=np.array([c.size for c in cubes]),
        mass=np.array([lat.cube_mu(c) for c in cubes]),
        piece=piece, piece_start=piece_start, point_piece=point_piece)


@dataclass
class Components:
    """The good martingale differences of one probe function on one
    lattice, one row per ComponentRows row, times mu and zero off the
    row's cube."""
    phi: np.ndarray                # (rows, N) Delta_Q phi * mu
    norm_sq: np.ndarray            # ||Delta_Q phi||^2 in L2(mu)
    piece_norm: np.ndarray         # L2(mu) norm of each piece


def _stack_components(rows: ComponentRows,
                      dec: MartingaleDecomposition) -> Components:
    mu = rows.lattice.space.mu
    delta = dec.dense(list(rows.row))
    phi = delta * mu
    sq = delta ** 2 * mu
    piece_sq = np.bincount(rows.point_piece.ravel(), weights=sq.ravel(),
                           minlength=len(rows.piece) + 1)[:-1]
    return Components(phi, sq.sum(axis=1), np.sqrt(piece_sq))


@dataclass
class HalfData:
    """One half of the split: components of the finer lattice against the
    coarser ones, with the operator orientation fixed.

    pair_geometry fills the lattice-only fields once per lattice pair: the
    pair buckets, the fine and coarse rows of every pair per regime, and per
    regime the coefficients of the lemma bounds. split_bilinear copies them
    for each probe and adds the probe fields."""
    fine_rows: ComponentRows
    coarse_rows: ComponentRows
    op: np.ndarray                 # matrix of the operator applied to coarse parts
    buckets: dict                  # regime -> [records]
    rows: dict                     # regime -> [fine rows, coarse rows]
    geo: dict = field(default_factory=dict)      # regime -> coefficients
    # probe fields
    fine_dec: MartingaleDecomposition | None = None
    coarse_dec: MartingaleDecomposition | None = None
    coarse_fn: np.ndarray | None = None   # the function coarse_dec decomposes
    fine: Components | None = None
    coarse: Components | None = None
    values: dict = field(default_factory=dict)   # regime -> pair values

    @property
    def fine_lat(self) -> DyadicLattice:
        return self.fine_rows.lattice

    @property
    def coarse_lat(self) -> DyadicLattice:
        return self.coarse_rows.lattice


def pair_geometry(kernel: KernelSpec, space: MetricMeasureSpace,
                  lat_f: DyadicLattice, lat_g: DyadicLattice, r_gap: int,
                  alpha: float | None = None) -> tuple:
    """The lattice-only (primary, symmetric) halves of the split of
    <T f, g> over the lattice pair (lat_f, lat_g); f and g play no part.
    The primary half pairs lat_f's cubes, as the finer ones, with the
    adjoint kernel; the symmetric half swaps the roles."""
    if alpha is None:
        alpha = alpha_param(kernel.m, kernel.tau)
    rows_f, rows_g = _component_rows(lat_f), _component_rows(lat_g)
    abs_k = np.abs(kernel.matrix)
    halves = []
    for fine, coarse, op, abs_op in ((rows_f, rows_g, kernel.matrix.T, abs_k.T),
                                     (rows_g, rows_f, kernel.matrix, abs_k)):
        buckets = classify_pairs(fine.lattice, coarse.lattice, r_gap, alpha)
        if halves:
            # equal-size pairs appear in both halves; drop them from the
            # symmetric one so the regrouping stays a partition
            buckets = {regime: [rec for rec in recs if rec["gap"] > 0]
                       for regime, recs in buckets.items()}
        rows = {regime: np.array([(fine.row[rec["q"]], coarse.row[rec["r"]])
                                  for rec in recs], dtype=int).reshape(-1, 2).T
                for regime, recs in buckets.items()}
        half = HalfData(fine_rows=fine, coarse_rows=coarse, op=op,
                        buckets=buckets, rows=rows)
        # sup of |op| over each point's row and each coarse piece's columns
        piece_sup = cube_reduce(coarse.lattice, abs_op, list(coarse.piece),
                                np.maximum)
        half.geo = {
            "sigma1": _diagonal_geometry(space, half, abs_op, piece_sup),
            "sigma2": _far_geometry(kernel, space, half, abs_op),
            "sigma3_term": _terminal_geometry(space, half, abs_op),
            "sigma3_tran": _transit_geometry(kernel, space, half, piece_sup,
                                             alpha)}
        halves.append(half)
    return tuple(halves)


@dataclass
class SigmaSplit:
    lambda_part: float
    sigma1: float
    sigma2: float
    sigma3_term: float
    sigma3_tran: float
    sym_sigma1: float
    sym_sigma2: float
    sym_sigma3_term: float
    sym_sigma3_tran: float
    direct: float                  # <T f_good, g_good> computed densely
    halves: tuple = ()             # (primary, symmetric) HalfData

    @property
    def total(self) -> float:
        return (self.lambda_part + self.sigma1 + self.sigma2 +
                self.sigma3_term + self.sigma3_tran + self.sym_sigma1 +
                self.sym_sigma2 + self.sym_sigma3_term + self.sym_sigma3_tran)

    @property
    def regroup_error(self) -> float:
        scale = max(abs(self.direct), 1e-30)
        return abs(self.total - self.direct) / scale


def split_bilinear(kernel: KernelSpec, space: MetricMeasureSpace,
                   dec_f: MartingaleDecomposition,
                   dec_g: MartingaleDecomposition,
                   f: np.ndarray, g: np.ndarray, r_gap: int,
                   alpha: float | None = None,
                   geometry: tuple | None = None) -> SigmaSplit:
    """Exact regrouping of <T f_good, g_good> into the sigma parts.

    ``geometry`` is the pair_geometry of the two decompositions' lattices;
    it is built here when not given."""
    if geometry is None:
        geometry = pair_geometry(kernel, space, dec_f.lattice, dec_g.lattice,
                                 r_gap, alpha)
    f_good, _ = split_good_bad(dec_f)
    g_good, _ = split_good_bad(dec_g)
    mu = space.mu
    direct = space.inner(kernel.matrix @ (f_good * mu), g_good)

    # the constant parts of both functions, paired against everything else
    lam_f = np.full(space.n_points, dec_f.lambda_part)
    lam_g = np.full(space.n_points, dec_g.lambda_part)
    lambda_part = (space.inner(kernel.matrix @ (lam_f * mu), g_good) +
                   space.inner(kernel.matrix @ ((f_good - lam_f) * mu), lam_g))

    primary, symmetric = geometry
    comp_f = _stack_components(primary.fine_rows, dec_f)
    comp_g = _stack_components(primary.coarse_rows, dec_g)
    # <T Delta_Q f, Delta_R g>_mu for every good pair of rows: rows of the
    # g-lattice, columns of the f-lattice; each half reads its orientation
    pair_matrix = comp_g.phi @ kernel.matrix @ comp_f.phi.T
    primary = replace(primary, fine_dec=dec_f, coarse_dec=dec_g, coarse_fn=g,
                      fine=comp_f, coarse=comp_g, values={})
    symmetric = replace(symmetric, fine_dec=dec_g, coarse_dec=dec_f,
                        coarse_fn=f, fine=comp_g, coarse=comp_f, values={})
    sums = {}
    for prefix, half, value in (("", primary, pair_matrix.T),
                                ("sym_", symmetric, pair_matrix)):
        for regime, (q, r) in half.rows.items():
            half.values[regime] = value[q, r]
            sums[prefix + regime] = float(half.values[regime].sum())
    return SigmaSplit(lambda_part=lambda_part, direct=direct,
                      halves=(primary, symmetric), **sums)


# ---------------------------------------------------------------------------
# far interaction


def far_interaction_bound(kernel: KernelSpec, space: MetricMeasureSpace,
                          q: Cube, r: Cube, phi: np.ndarray, psi: np.ndarray,
                          alpha: float | None = None,
                          op_matrix: np.ndarray | None = None):
    """Measured |<phi_Q, T psi_R>| against the explicit far bound
    C_CZ 3^(m+tau) s(Q)^(tau/2) s(R)^(tau/2) / D^(m+tau) sqrt(mu(Q) mu(R))
    times the two L2 norms.

    phi must vanish off Q with zero mu-mean, psi off R, and the support of
    psi must stay s(Q)^alpha s(R)^(1-alpha) away from Q; otherwise
    HypothesisViolated.  Returns (measured, bound, admissible) where
    admissible reports whether every relevant pair sits in the smoothness
    regime of the kernel."""
    if alpha is None:
        alpha = alpha_param(kernel.m, kernel.tau)
    mat = kernel.matrix if op_matrix is None else op_matrix
    mu = space.mu
    phi = np.asarray(phi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    supp_phi = np.flatnonzero((phi != 0) & (mu > 0))
    supp_psi = np.flatnonzero((psi != 0) & (mu > 0))
    if not np.isin(supp_phi, q.members).all():
        raise HypothesisViolated("phi does not vanish outside Q")
    if not np.isin(supp_psi, r.members).all():
        raise HypothesisViolated("psi does not vanish outside R")
    mean = float(np.sum(phi * mu))
    if abs(mean) > 1e-10 * max(space.l2_norm(phi), 1e-30):
        raise HypothesisViolated("phi must have zero mu-mean")
    threshold = q.size ** alpha * r.size ** (1 - alpha)
    d_hyp = space.set_dist(q.members, supp_psi) if supp_psi.size else math.inf
    if d_hyp < threshold:
        raise HypothesisViolated(
            f"support distance {d_hyp:.3g} below threshold {threshold:.3g}")

    measured = abs(space.inner(phi, mat @ (psi * mu)))
    bound = (_far_coefficient(kernel, q.size, r.size, space.mu_mass(q.members),
                              space.mu_mass(r.members),
                              space.set_dist(q.members, r.members)) *
             space.l2_norm(phi) * space.l2_norm(psi))

    admissible = True
    if supp_phi.size and supp_psi.size:
        reach = float(space.rho[q.center, supp_phi].max())
        closest = float(space.rho[q.center, supp_psi].min())
        admissible = reach <= kernel.delta_CZ * closest
    return measured, bound, admissible


# ---------------------------------------------------------------------------
# Schur machinery for the long range sums


@dataclass
class CubeSlot:
    gen: int
    size: float
    mass: float
    transit: bool = True


@dataclass
class InteractionMatrix:
    regime: str
    q_slots: list
    r_slots: list
    entries: np.ndarray        # (nq, nr) nonnegative
    center_rho: np.ndarray     # representative-point distances


def long_range_entry(s_q: float, s_r: float, mass_q: float, mass_r: float,
                     dist: float, m: float, tau: float) -> float:
    d_big = s_q + s_r + dist
    return (s_q ** (tau / 2) * s_r ** (tau / 2) / d_big ** (m + tau) *
            np.sqrt(mass_q * mass_r))


def _far_coefficient(kernel, s_q, s_r, mass_q, mass_r, dist):
    """The explicit far bound per unit component norms: C_CZ 3^(m+tau)
    times the long range entry. Takes scalars or arrays."""
    return (kernel.C_CZ * 3.0 ** (kernel.m + kernel.tau) *
            long_range_entry(s_q, s_r, mass_q, mass_r, dist, kernel.m,
                             kernel.tau))


def interaction_matrix(space: MetricMeasureSpace, fine_lat: DyadicLattice,
                       coarse_lat: DyadicLattice, records, m: float,
                       tau: float, regime: str = "long_range") -> InteractionMatrix:
    """The nonnegative pair matrix of the long range bound, restricted to the
    pairs present in ``records`` (``classify_pairs`` records, which carry
    the cube distance)."""
    q_ids = sorted({rec["q"] for rec in records})
    r_ids = sorted({rec["r"] for rec in records})
    qi = {cid: i for i, cid in enumerate(q_ids)}
    ri = {cid: i for i, cid in enumerate(r_ids)}

    def slots(lat, ids):
        return [CubeSlot(c.generation, c.size, lat.cube_mu(c),
                         c.terminal is False) for c in map(lat.cubes.get, ids)]

    q_slots, r_slots = slots(fine_lat, q_ids), slots(coarse_lat, r_ids)
    entries = np.zeros((len(q_ids), len(r_ids)))
    rho_c = space.rho[np.ix_([fine_lat.cubes[c].center for c in q_ids],
                             [coarse_lat.cubes[c].center for c in r_ids])]
    for rec in records:
        i, j = qi[rec["q"]], ri[rec["r"]]
        cq = fine_lat.cubes[rec["q"]]
        cr = coarse_lat.cubes[rec["r"]]
        entries[i, j] = long_range_entry(cq.size, cr.size, q_slots[i].mass,
                                         r_slots[j].mass, rec["dist"], m, tau)
    return InteractionMatrix(regime, q_slots, r_slots, entries, rho_c)


@dataclass
class SchurReport:
    lhs: float
    rhs: float
    c_schur: float
    slices: list                       # (gap, gen_r, fitted_c, row, col, bound)

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs * (1 + 1e-12)


def schur_bound_long_range(mat: InteractionMatrix, a: np.ndarray,
                           b: np.ndarray, m: float, tau: float) -> SchurReport:
    """Weighted Schur bound built slice by slice.

    The matrix is cut by generation gap; within a gap, blocks with different
    coarse generations act on disjoint index sets, so the gap's norm is the
    worst block.  In each block the entries are compared against the
    single-scale kernel at the coarse size (fitted constant) whose weighted
    row/column sums close the estimate.  Every step is an inequality, so the
    resulting constant dominates the spectral norm of the whole matrix."""
    for slot in mat.q_slots + mat.r_slots:
        if not slot.transit:
            raise NonTransitEntry("interaction entries require transit cubes")
        if slot.mass <= 0:
            raise NonTransitEntry("transit cubes must carry mu-mass")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    qg = np.array([s.gen for s in mat.q_slots])
    rg = np.array([s.gen for s in mat.r_slots])
    qm = np.array([s.mass for s in mat.q_slots])
    rm = np.array([s.mass for s in mat.r_slots])
    qs = np.array([s.size for s in mat.q_slots])
    rs = np.array([s.size for s in mat.r_slots])

    slices = []
    per_gap = {}
    gaps = sorted({int(g1 - g2) for g1 in qg for g2 in rg if g1 >= g2})
    for k in gaps:
        best = 0.0
        for j in sorted(set(rg.tolist())):
            rows = np.flatnonzero(qg == j + k)
            cols = np.flatnonzero(rg == j)
            if rows.size == 0 or cols.size == 0:
                continue
            sub = mat.entries[np.ix_(rows, cols)]
            if not sub.any():
                continue
            s_r = float(rs[cols[0]])
            s_q = float(qs[rows[0]])
            geom = (s_q / s_r) ** (tau / 2)
            kj = (s_r ** tau /
                  (s_r + mat.center_rho[np.ix_(rows, cols)]) ** (m + tau))
            weighted = geom * np.sqrt(np.outer(qm[rows], rm[cols])) * kj
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(sub > 0, sub / weighted, 0.0)
            c_fit = float(ratios.max())
            row_sum = float((kj * rm[cols][None, :]).sum(axis=1).max())
            col_sum = float((kj * qm[rows][:, None]).sum(axis=0).max())
            bound = geom * c_fit * math.sqrt(row_sum * col_sum)
            slices.append((k, j, c_fit, row_sum, col_sum, bound))
            best = max(best, bound)
        per_gap[k] = best
    c_schur = float(sum(per_gap.values()))
    lhs = float(a @ mat.entries @ b)
    rhs = c_schur * float(np.linalg.norm(a) * np.linalg.norm(b))
    return SchurReport(lhs, rhs, c_schur, slices)


def spectral_norm(matrix: np.ndarray) -> float:
    from scipy.linalg import svdvals
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    if matrix.size == 0:
        return 0.0
    vals = svdvals(matrix)
    return float(vals[0]) if vals.size else 0.0


# ---------------------------------------------------------------------------
# block matrix (short range aggregation)


def block_matrix_bound(entries, a: dict, b: dict, kappa: float, tau: float):
    """Inequality for entries T = kappa^(tau k / 2) sqrt(mu_q / mu_parent)
    with every fine cube attached to one coarse cube per gap.

    ``entries`` is a list of (q_key, r_key, k, mu_q, mu_parent) with k >= 1.
    Returns (lhs, rhs, fitted) where rhs uses the explicit geometric-series
    constant and fitted is the instance's true slice-norm series (reported,
    and used instead when child multiplicity inflates a block)."""
    seen = {}
    blocks = {}
    lhs = 0.0
    for q_key, r_key, k, mu_q, mu_parent in entries:
        if k < 1:
            raise ValueError("block entries need a gap of at least 1")
        if mu_parent <= 0 or mu_q < 0:
            raise ZeroMassCube("block entries need positive parent mass")
        if (q_key, k) in seen and seen[(q_key, k)] != r_key:
            raise MultipleParents(f"{q_key} attached to two cubes at gap {k}")
        seen[(q_key, k)] = r_key
        t = kappa ** (tau * k / 2.0) * math.sqrt(mu_q / mu_parent)
        lhs += t * a.get(q_key, 0.0) * b.get(r_key, 0.0)
        blocks.setdefault((r_key, k), []).append(mu_q / mu_parent)
    norm_a = math.sqrt(sum(v * v for v in a.values()))
    norm_b = math.sqrt(sum(v * v for v in b.values()))
    explicit = 1.0 / (1.0 - kappa ** (tau / 2.0))
    per_gap = {}
    for (r_key, k), ratios in blocks.items():
        blk = kappa ** (tau * k / 2.0) * math.sqrt(sum(ratios))
        per_gap[k] = max(per_gap.get(k, 0.0), blk)
    fitted = float(sum(per_gap.values()))
    rhs = explicit * norm_a * norm_b
    return lhs, rhs, fitted


def block_matrix_spectral(entries, kappa: float, tau: float) -> float:
    """Dense spectral norm of the block matrix (small-instance oracle)."""
    q_keys = sorted({e[0] for e in entries})
    r_keys = sorted({e[1] for e in entries})
    qi = {k: i for i, k in enumerate(q_keys)}
    ri = {k: i for i, k in enumerate(r_keys)}
    mat = np.zeros((len(q_keys), len(r_keys)))
    for q_key, r_key, k, mu_q, mu_parent in entries:
        mat[qi[q_key], ri[r_key]] = (kappa ** (tau * k / 2.0) *
                                     math.sqrt(mu_q / mu_parent))
    return spectral_norm(mat)


# ---------------------------------------------------------------------------
# short range: terminal part


def _terminal_geometry(space, half: HalfData, abs_op) -> dict:
    """Groups of terminal pairs sharing the coarse cube R and its holding
    child, the weight k_sup sqrt(mu(U) mu(R)) of each group, where U is the
    child together with every fine cube of the group and k_sup the kernel
    sup over the rows of U, and the regime constant."""
    coarse_lat = half.coarse_lat
    records = half.buckets["sigma3_term"]
    row_sup = abs_op.max(axis=1)
    groups = {}
    for p, rec in enumerate(records):
        groups.setdefault((rec["r"], rec["rq"]), []).append(p)
    group_of = np.zeros(len(records), dtype=int)
    r_rows, weights, const = [], [], {}
    for gi, ((r_id, rq_id), pairs) in enumerate(groups.items()):
        group_of[pairs] = gi
        # the fine cubes need not sit inside the holding child, so the
        # sup and the mass run over their union with it
        members = np.unique(np.concatenate(
            [coarse_lat.cubes[rq_id].members] +
            [half.fine_lat.cubes[records[p]["q"]].members for p in pairs]))
        k_sup = float(row_sup[members].max())
        mass_r = coarse_lat.cube_mu(coarse_lat.cubes[r_id])
        w = k_sup * math.sqrt(space.mu_mass(members) * mass_r)
        r_rows.append(half.coarse_rows.row[r_id])
        weights.append(w)
        const.setdefault(r_id, []).append(w)
    c_total = max((math.sqrt(len(ws)) * max(ws) for ws in const.values()),
                  default=0.0)
    return {"group": group_of, "r_row": np.array(r_rows, dtype=int),
            "weight": np.array(weights), "constant": c_total}


def short_range_terminal_bound(split: SigmaSplit, half_index: int = 0):
    """Bound the short range sum over pairs whose holding child is terminal.

    Groups pairs by the coarse cube and its terminal child, bounds the
    localized image of the coarse component through the kernel sup on the
    group's support, and closes with Cauchy-Schwarz over the orthogonal fine
    components of each group."""
    half = split.halves[half_index]
    prefix = "" if half_index == 0 else "sym_"
    geo = half.geo["sigma3_term"]
    q_rows, _ = half.rows["sigma3_term"]
    measured = abs(float(half.values["sigma3_term"].sum()))
    v = np.sqrt(np.bincount(geo["group"], weights=half.fine.norm_sq[q_rows],
                            minlength=geo["weight"].size))
    dg = np.sqrt(half.coarse.norm_sq[geo["r_row"]])
    bound = float((geo["weight"] * dg * v).sum())
    return _lemma(prefix + "sigma3_terminal", measured, bound,
                  "short_range_terminal")


# ---------------------------------------------------------------------------
# short range: transit part


def _transit_geometry(kernel, space, half: HalfData, piece_sup,
                      alpha: float) -> dict:
    """Per-pair coefficients of the three short range transit estimates,
    the extension and block part of the regime constant, and the hypothesis
    violations, which depend on the lattices only.  Distances and kernel
    sups from a fine cube Q to the coarse remainder R minus R_Q are the
    extremes over the pieces of R other than R_Q, read off (Q, piece)
    tables; ``piece_sup`` is as in ``_diagonal_geometry``."""
    records = half.buckets["sigma3_tran"]
    mu = space.mu
    fine, coarse = half.fine_rows, half.coarse_rows
    fine_lat, coarse_lat = fine.lattice, coarse.lattice
    kappa, tau = coarse_lat.kappa, kernel.tau
    col, dist_c = coarse_lat.column, coarse_lat.dist
    q_rows, r_rows = half.rows["sigma3_tran"]

    # (a) far part against the rest of the coarse cube, i.e. against its
    # pieces on the other children: their distance to Q and kernel sup
    pieces = list(coarse.piece)
    other_pair, other_piece = [], []
    for p, (rec, j) in enumerate(zip(records, r_rows.tolist())):
        for k in range(coarse.piece_start[j], coarse.piece_start[j + 1]):
            if pieces[k] != rec["rq"]:
                other_pair.append(p)
                other_piece.append(k)
    other_pair = np.array(other_pair, dtype=int)
    other_piece = np.array(other_piece, dtype=int)
    fine_ids = list(fine.row)
    at = q_rows[other_pair], other_piece
    d_out = np.full(len(records), math.inf)
    np.minimum.at(d_out, other_pair, cube_reduce(
        fine_lat, dist_c[:, col[pieces]], fine_ids, axis=0)[at])
    sup_out = np.zeros(len(records))
    np.maximum.at(sup_out, other_pair, cube_reduce(
        fine_lat, piece_sup, fine_ids, np.maximum, axis=0)[at])
    d_out, sup_out = d_out.tolist(), sup_out.tolist()
    d_r = cube_reduce(fine_lat, dist_c[:, col[list(coarse.row)]], fine_ids,
                      axis=0)[q_rows, r_rows]
    mass_q = fine.mass[q_rows].tolist()
    mass_r = coarse.mass[r_rows].tolist()

    level = {}        # cube id -> its ascent levels

    def levels(cube):
        """Exact level sums mu(level_j) / d_j^(m+tau) material for the
        extension estimate: (parent, mu of the level, columns of the
        level's cubes) for each ancestor with more than one child; the
        level is the parent minus the child on the chain."""
        if cube.id not in level:
            steps = []
            child = cube
            while child.parent is not None:
                parent = coarse_lat.cubes[child.parent]
                sibs = [c for c in parent.children if c != child.id]
                if sibs:
                    labels = coarse_lat.labels[child.generation][parent.members]
                    pts = parent.members[labels != child.id]
                    steps.append((parent, float(mu[pts].sum()), col[sibs]))
                child = parent
            level[cube.id] = steps
        return level[cube.id]

    per_pair = []     # far coefficient, extension coefficient, chain, block t
    violations, ext_consts, entries = [], [], []
    for p, rec in enumerate(records):
        q = fine_lat.cubes[rec["q"]]
        r = coarse_lat.cubes[rec["r"]]
        rq = coarse_lat.cubes[rec["rq"]]
        mq, mrq = mass_q[p], coarse_lat.cube_mu(rq)
        threshold = q.size ** alpha * r.size ** (1 - alpha)
        far = 0.0
        if d_out[p] >= threshold:
            far = _far_coefficient(kernel, q.size, r.size, mq, mass_r[p],
                                   float(d_r[p]))
        else:
            violations.append(
                f"pair ({rec['q']},{rec['r']}): distance to the coarse "
                f"remainder {d_out[p]:.3g} under {threshold:.3g}")
            # the separation hypothesis failed, so the kernel-decay bound
            # is not available; use the always-valid rectangular sup bound
            outside = r.members[
                coarse_lat.labels[rq.generation][r.members] != rq.id]
            far = sup_out[p] * math.sqrt(mq * float(mu[outside].sum()))

        # (b) extension error, exact ascent sum
        r_q_reach = float(space.rho[q.center, q.members].max())
        ascent = [(parent, mass, float(dist_c[q.center, cols].min()))
                  for parent, mass, cols in levels(rq)]
        chain_ok = all(d > 0 for _, _, d in ascent)
        ascent_sum = 0.0
        if chain_ok:
            for parent, mass, d in ascent:
                ascent_sum += mass / d ** (kernel.m + tau)
                if d < q.size ** alpha * parent.size ** (1 - alpha):
                    violations.append(
                        f"ascent level {parent.id}: distance under "
                        "goodness bound")
            nearest = min((d for _, _, d in ascent), default=math.inf)
            chain_ok = r_q_reach <= kernel.delta_CZ * nearest
        if not chain_ok:
            # the center sits outside its coarse child, or the smoothness
            # regime fails: use the exact value of the extension pairing
            violations.append(f"pair ({rec['q']},{rec['r']}): extension "
                              "estimate fell back to the exact pairing")
        ext = kernel.C_CZ * r_q_reach ** tau * ascent_sum
        if mq > 0 and mrq > 0:
            # extension entry over block entry; the masses cancel
            ext_consts.append(ext / (q.size / r.size) ** (tau / 2))

        # (c) block aggregation material
        entries.append((rec["q"], rec["r"], rec["gap"], mq, mrq))
        per_pair.append((far, ext, chain_ok, kappa ** (tau * rec["gap"] / 2.0) *
                         math.sqrt(mq / mrq) if mrq > 0 else 0.0))
    far_coef, ext_coef, chain, block_t = np.reshape(per_pair, (-1, 4)).T

    # mu on each coarse cube R and holding child R_Q, for their averages
    cube_ids, cube_col = np.unique([(rec["r"], rec["rq"]) for rec in records],
                                   return_inverse=True)
    on_cube = np.zeros((cube_ids.size, space.n_points))
    for k, cid in enumerate(cube_ids):
        members = coarse_lat.cubes[int(cid)].members
        on_cube[k, members] = mu[members]

    parents = Counter((q, k) for q, _, k, _, _ in entries)
    straddle = np.array([parents[(e[0], e[2])] > 1 for e in entries],
                        dtype=bool)
    clean = [e for e, s in zip(entries, straddle) if not s]
    explicit = 1.0 / (1.0 - kappa ** (tau / 2.0))
    block_coef = fitted = 0.0
    if clean:
        # only the fitted series of the block lemma is lattice-only
        fitted = block_matrix_bound(clean, {}, {}, kappa, tau)[2]
        block_coef = explicit
    if straddle.any():
        # fine cubes meeting two coarse cubes at the same gap fall outside
        # the one-chain structure; cover them with the plain entry series
        c_str = float(block_t[straddle].sum())
        block_coef += c_str
        fitted += c_str
        violations.append(f"{int(straddle.sum())} short range pairs "
                          "straddle coarse cubes and use the entrywise series")

    return {"far_coef": far_coef, "ext_coef": ext_coef, "chain": chain > 0,
            "other_pair": other_pair, "other_piece": other_piece,
            "on_cube": on_cube, "on_mass": on_cube.sum(axis=1),
            "cube_col": cube_col.reshape(-1, 2),
            "block_t": block_t, "block_coef": block_coef,
            "constant": max(ext_consts, default=0.0) * max(fitted, explicit),
            "violations": violations}


def short_range_transit_bound(kernel: KernelSpec, space: MetricMeasureSpace,
                              split: SigmaSplit, half_index: int):
    """The three estimates of the short range transit sum.

    (a) interaction with the coarse component outside the holding child,
    via the far bound; (b) the error of extending the child indicator to the
    whole space, via exact ascent sums; (c) the block-matrix aggregation of
    (b).  The coefficients come from the split's geometry.  ``kernel`` is
    not read; it keeps ``half_index`` the fourth argument."""
    half = split.halves[half_index]
    prefix = "" if half_index == 0 else "sym_"
    geo = half.geo["sigma3_tran"]
    q, r = half.rows["sigma3_tran"]
    fine, coarse = half.fine, half.coarse
    fine_t = fine.phi @ half.op           # row Q is op^T Delta_Q mu
    dq, dr = np.sqrt(fine.norm_sq[q]), np.sqrt(coarse.norm_sq[r])

    # (a) the coarse component on every child of R, paired with T* Delta_Q
    n_points = space.n_points
    piece_phi = np.zeros((len(half.coarse_rows.piece) + 1, n_points))
    piece_phi[half.coarse_rows.point_piece, np.arange(n_points)] = coarse.phi
    on_piece = piece_phi[:-1] @ fine_t.T
    other = geo["other_pair"]
    far_v = np.bincount(other, minlength=q.size,
                        weights=on_piece[geo["other_piece"], q[other]])
    meas_far = float(np.abs(far_v).sum())
    bound_far = float((geo["far_coef"] * dq * dr).sum())

    # (b) extension error
    on_cube = geo["on_cube"]
    r_col, rq_col = geo["cube_col"].T
    averages = on_cube @ half.coarse_fn / geo["on_mass"]
    c_val = averages[rq_col] - averages[r_col]
    off_child = space.mu - on_cube
    ext_v = c_val * (off_child @ fine_t.T)[rq_col, q]
    meas_ext = float(np.abs(ext_v).sum())
    l1 = np.abs(fine.phi[q]).sum(axis=1)          # ||Delta_Q||_L1(mu)
    pair_bound = np.abs(c_val) * geo["ext_coef"] * l1
    if not geo["chain"].all():
        exact = np.abs(c_val) * (off_child @ np.abs(fine_t).T)[rq_col, q]
        pair_bound = np.where(geo["chain"], pair_bound, exact)
    bound_ext = float(pair_bound.sum())

    # (c) block aggregation of the extension errors
    lhs_c = float((geo["block_t"] * dq * dr).sum())
    rhs_c = (geo["block_coef"] *
             math.sqrt(float(fine.norm_sq[np.unique(q)].sum())) *
             math.sqrt(float(coarse.norm_sq[np.unique(r)].sum())))

    checks = [
        _lemma(prefix + "sigma3_transit_far", meas_far, bound_far,
               "short_range_transit_far"),
        _lemma(prefix + "sigma3_transit_extension", meas_ext, bound_ext,
               "short_range_transit_extension"),
        _lemma(prefix + "sigma3_transit_block", lhs_c, rhs_c,
               "short_range_transit_block"),
    ]
    return checks, {"hypothesis_violations": list(geo["violations"])}


# ---------------------------------------------------------------------------
# paraproduct, Carleson, pseudo-BMO


def paraproduct_targets(fine_lat: DyadicLattice, coarse_lat: DyadicLattice,
                        r_gap: int) -> dict:
    """For every good transit component cube, the smallest transit cube of
    the other lattice that contains it and sits at least r_gap - 1
    generations coarser.  Cubes whose target degenerates to the root are
    mapped to the root id (their paraproduct coefficient vanishes for
    mean-zero data); cubes with no containing cube map to None.  A cube Q
    lies in one coarse cube of generation g iff the min and the max of the
    generation-g labels over Q's entries in the fine plan agree."""
    qs, plan = _good_component_cubes(fine_lat), fine_lat.plan
    gens = np.array(sorted(coarse_lat.labels))
    labels = np.column_stack([coarse_lat.labels[g] for g in gens])[plan.pt]
    rows = [plan.slot[q.id] for q in qs]
    lo, hi = (ufunc.reduceat(labels, plan.start[:-1], axis=0)[rows]
              for ufunc in (np.minimum, np.maximum))
    transit = np.zeros(max(coarse_lat.cubes) + 2, dtype=bool)  # label -1: no
    transit[[cid for cid, c in coarse_lat.cubes.items() if not c.terminal]] = 1
    top = np.array([q.generation - r_gap + 1 for q in qs], dtype=int)
    ok = (lo == hi) & transit[lo] & (gens <= top[:, None])
    return {q.id: int(row[hit][-1]) if hit.any() else None
            for q, row, hit in zip(qs, lo, ok)}


def paraproduct_apply(F: np.ndarray, g: np.ndarray, fine_lat: DyadicLattice,
                      coarse_lat: DyadicLattice, r_gap: int,
                      targets: dict | None = None):
    """The paraproduct vector sum_Q <g>_(R(Q)) Delta_Q F together with the
    per-target weights a_R = sum ||Delta_Q F||^2 and the orthogonality-based
    norm identity error."""
    space = fine_lat.space
    if targets is None:
        targets = paraproduct_targets(fine_lat, coarse_lat, r_gap)
    kept = {q_id: r_id for q_id, r_id in targets.items() if r_id is not None}
    dropped = [q_id for q_id in targets if q_id not in kept]
    dec = decompose(fine_lat, np.asarray(F, dtype=float))
    norm_sq = (dec.dense(kept) ** 2 * space.mu).sum(axis=1).tolist()
    g_means = coarse_lat.plan.means(np.asarray(g, dtype=float))
    lam_g = float(g_means[coarse_lat.plan.root_slot])
    g_means[coarse_lat.plan.root_slot] = 0.0   # zero mean by assumption
    coef = g_means[[coarse_lat.plan.slot[r_id] for r_id in kept.values()]]
    # per fine slot; a zero coefficient adds nothing, so it is left out
    weight = np.zeros(len(fine_lat.plan.slot) + 1)
    weight[[fine_lat.plan.slot.get(q_id, -1) for q_id in kept]] = coef
    out = dec.add_to(np.zeros(space.n_points), weight)
    a_r, rhs = {}, 0.0
    for r_id, c, s in zip(kept.values(), coef.tolist(), norm_sq):
        a_r[r_id] = a_r.get(r_id, 0.0) + s
        rhs += c ** 2 * s
    lhs = float(np.sum(out ** 2 * space.mu))
    scale = max(lhs, rhs, 1e-30)
    identity_err = abs(lhs - rhs) / scale
    return out, a_r, {"identity_error": identity_err, "dropped": dropped,
                      "lambda_g": lam_g, "norm_sq": lhs}


def carleson_embedding_check(a: dict, lattice: DyadicLattice,
                             c_target: float | None = None):
    """Fitted Carleson constant max_S sum_(R under S) a_R / mu(S)."""
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
        mass = lattice.cube_mu(cube)
        if mass <= 0:
            if subtree.get(cid, 0.0) > 0:
                skipped.append(cid)
            continue
        ratio = subtree[cid] / mass
        if ratio > fitted:
            fitted = ratio
            worst = cid
    passed = c_target is None or fitted <= c_target * (1 + 1e-9)
    return {"fitted": fitted, "worst_cube": worst, "passed": passed,
            "zero_mass_skipped": skipped}


def whitney_decomposition(space: MetricMeasureSpace, lattice: DyadicLattice,
                          r_cube: Cube):
    """Greedy interior covering of a cube by maximal sub-cubes P with
    dilate(P, 1.5) inside it; reports the multiplicity of the 1.4-dilations
    and the covered mu-fraction."""
    target = set(r_cube.members.tolist())
    selected = []
    stack = [cid for cid in r_cube.children]
    while stack:
        cid = stack.pop()
        cube = lattice.cubes[cid]
        grown = dilate(space, cube.members, 1.5)
        if set(grown.tolist()) <= target:
            selected.append(cid)
        else:
            stack.extend(cube.children)
    counts = np.zeros(space.n_points, dtype=int)
    covered = np.zeros(space.n_points, dtype=bool)
    for cid in selected:
        cube = lattice.cubes[cid]
        counts[dilate(space, cube.members, 1.4)] += 1
        covered[cube.members] = True
    multiplicity = int(counts.max()) if selected else 0
    mass = space.mu_mass(r_cube.members)
    frac = space.mu_mass(np.flatnonzero(covered)) / mass if mass > 0 else 0.0
    return selected, multiplicity, frac


def bmo_tail_constant(kernel: KernelSpec, K: float, lam: float,
                      max_terms: int = 400) -> float:
    """Geometric tail sum C_CZ K sum_j lam^((j+1)m) / (lam^j - 1)^(m+tau)."""
    if lam <= 1.0:
        raise ValueError("dilation base must exceed 1")
    total = 0.0
    m, tau = kernel.m, kernel.tau
    for j in range(1, max_terms + 1):
        term = lam ** ((j + 1) * m) / (lam ** j - 1.0) ** (m + tau)
        total += term
        if term < 1e-16 * max(total, 1.0):
            break
    return kernel.C_CZ * K * total


def admissible_bmo_cubes(space: MetricMeasureSpace, lattice: DyadicLattice,
                         K: float, m: float) -> list:
    """Cubes satisfying the growth gate mu(sQ) <= K s^m diam(Q)^m for all
    dilation factors s >= 1 (checked at every point-entry threshold)."""
    out = []
    for cid, cube in lattice.cubes.items():
        d = space.set_diam(cube.members)
        if d <= 0 or space.mu_mass(cube.members) <= 0:
            continue
        dists = space.rho[:, cube.members].min(axis=1)
        order = np.argsort(dists)
        mass = 0.0
        ok = True
        for p in order:
            s = max(1.0, dists[p] / d + 1.0)
            mass += space.mu[p]
            if dists[p] <= (s - 1.0) * d + 1e-15 or s == 1.0:
                if mass > K * s ** m * d ** m * (1 + 1e-9):
                    ok = False
                    break
        if ok:
            out.append(cid)
    return out


def pseudo_bmo_check(F: np.ndarray, space: MetricMeasureSpace,
                     lattice: DyadicLattice, K: float, lambda_bmo: float = 3.0,
                     kernel: KernelSpec | None = None,
                     op_matrix: np.ndarray | None = None,
                     t1_A: float | None = None):
    """Fitted oscillation constant of F on the admissible cubes; when the
    kernel is supplied also runs the two-part proof split of F = (adjoint)
    image of 1: bounded tail oscillation plus a testing-condition near part."""
    F = np.asarray(F, dtype=float)
    m = kernel.m if kernel is not None else 1.0
    cids = admissible_bmo_cubes(space, lattice, K, m)
    mu = space.mu
    fitted = 0.0
    per_cube = []
    tail_ok = True
    near_ok = True
    c_tail = bmo_tail_constant(kernel, K, lambda_bmo) if kernel else None
    if kernel is not None and lambda_bmo < 1.0 + 1.0 / kernel.delta_CZ - 1e-12:
        raise HypothesisViolated(
            "dilation base too small for the smoothness regime")
    mat = None
    if kernel is not None:
        mat = kernel.matrix.T if op_matrix is None else op_matrix
    for cid in cids:
        cube = lattice.cubes[cid]
        members = cube.members
        mass = space.mu_mass(members)
        grown = dilate(space, members, lambda_bmo)
        mass_grown = space.mu_mass(grown)
        avg = float(np.sum(F[members] * mu[members]) / mass)
        osc = float(np.sum((F[members] - avg) ** 2 * mu[members]))
        entry = {"cube": cid, "oscillation": osc, "mass_dilated": mass_grown}
        if mass_grown > 0:
            fitted = max(fitted, osc / mass_grown)
        if mat is not None:
            chi_in = np.zeros(space.n_points)
            chi_in[grown] = 1.0
            phi = mat.T @ (chi_in * mu)
            psi = mat.T @ ((1.0 - chi_in) * mu)
            tail_osc = float(psi[members].max() - psi[members].min()) \
                if members.size else 0.0
            near = float(np.sum(phi[members] ** 2 * mu[members]))
            entry["tail_oscillation"] = tail_osc
            entry["near_part"] = near
            if tail_osc > c_tail * (1 + 1e-9):
                tail_ok = False
            if t1_A is not None and near > t1_A * mass_grown * (1 + 1e-9):
                near_ok = False
        per_cube.append(entry)
    c_proof = None
    if kernel is not None and t1_A is not None:
        c_proof = 2.0 * t1_A + 2.0 * c_tail ** 2
    return {"admissible": cids, "fitted": fitted, "per_cube": per_cube,
            "tail_constant": c_tail, "tail_passed": tail_ok,
            "near_passed": near_ok, "proof_constant": c_proof,
            "vacuous": len(cids) == 0}


# ---------------------------------------------------------------------------
# diagonal part


def _diagonal_geometry(space, half: HalfData, abs_op, piece_sup) -> dict:
    """Son-pair weights of every diagonal pair: one entry per (fine son,
    coarse son), grouped by pair in bucket order. ``w_raw`` is the kernel
    sup weight where a son is terminal or a leaf, NaN where the testing
    constant may be used instead. The sons are the pieces of the two
    component rows; ``piece_sup`` is the sup of |op| over each point's row
    and each coarse piece's columns."""
    fine, coarse = half.fine_rows, half.coarse_rows
    f_ids, c_ids = list(fine.piece), list(coarse.piece)
    f_cubes = [fine.lattice.cubes[cid] for cid in f_ids]
    c_cubes = [coarse.lattice.cubes[cid] for cid in c_ids]
    # kernel sups over each (fine son, coarse son) rectangle, and over the
    # whole slab of rows of a fine son or columns of a coarse son
    rect = cube_reduce(fine.lattice, piece_sup, f_ids, np.maximum, axis=0)
    row_sup = cube_reduce(fine.lattice, abs_op.max(axis=1)[:, None], f_ids,
                          np.maximum, axis=0)[:, 0]
    col_sup = cube_reduce(coarse.lattice, abs_op.max(axis=0)[None, :], c_ids,
                          np.maximum)[0]
    mass_f = np.array([space.mu_mass(c.members) for c in f_cubes])
    mass_c = np.array([space.mu_mass(c.members) for c in c_cubes])
    raw_f = np.array([c.terminal or c.is_leaf for c in f_cubes], dtype=bool)
    raw_c = np.array([c.terminal or c.is_leaf for c in c_cubes], dtype=bool)

    # the son pairs of each diagonal pair, fine son outer, coarse son inner
    q, r = half.rows["sigma1"]
    n_c = np.diff(coarse.piece_start)[r]
    sons = np.diff(fine.piece_start)[q] * n_c
    starts = np.cumsum(sons) - sons
    t = np.arange(sons.sum()) - np.repeat(starts, sons)
    n_c = np.repeat(n_c, sons)
    f_piece = np.repeat(fine.piece_start[q], sons) + t // n_c
    c_piece = np.repeat(coarse.piece_start[r], sons) + t % n_c
    mass = np.sqrt(mass_f[f_piece] * mass_c[c_piece])
    # localized sup bound needs the sup over the whole slab
    w_raw = np.where(raw_f[f_piece], row_sup[f_piece] * mass,
                     np.where(raw_c[c_piece], col_sup[c_piece] * mass,
                              math.nan))
    return {"starts": starts, "f_piece": f_piece, "c_piece": c_piece,
            "w_rect": rect[f_piece, c_piece] * mass, "w_raw": w_raw}


def _diagonal_weights(half: HalfData, t1_A: float) -> np.ndarray:
    """Son-pair weights: terminal or leaf sons go through the kernel sup,
    transit son pairs through the testing constant."""
    geo = half.geo["sigma1"]
    sqrt_a = math.sqrt(t1_A)
    w_rect = geo["w_rect"]
    return np.where(np.isnan(geo["w_raw"]),
                    np.where(w_rect > 0, np.minimum(sqrt_a, w_rect), sqrt_a),
                    geo["w_raw"])


def _diagonal_constant(half: HalfData, t1_A: float) -> float:
    """Worst son-pair weight times the root of the son-pair count, over the
    pairs, times the root of each side's cube multiplicity."""
    w = _diagonal_weights(half, t1_A)
    if not w.size:
        return 0.0
    starts = half.geo["sigma1"]["starts"]
    m_f, m_c = (int(np.bincount(rows).max()) for rows in half.rows["sigma1"])
    sons = np.diff(np.append(starts, w.size))
    worst = np.maximum.reduceat(w, starts)
    return float((worst * np.sqrt(sons)).max()) * math.sqrt(m_f * m_c)


def diagonal_bound(split: SigmaSplit, half_index: int, t1_A: float):
    """Per-pair son splitting of the diagonal sum."""
    half = split.halves[half_index]
    prefix = "" if half_index == 0 else "sym_"
    geo = half.geo["sigma1"]
    measured = abs(float(half.values["sigma1"].sum()))
    bound = float((_diagonal_weights(half, t1_A) *
                   half.fine.piece_norm[geo["f_piece"]] *
                   half.coarse.piece_norm[geo["c_piece"]]).sum())
    return _lemma(prefix + "sigma1_diagonal", measured, bound, "diagonal")


# ---------------------------------------------------------------------------
# full certification


@dataclass
class CertificateReport:
    constants: dict
    lemmas: list
    certified_total: float
    empirical_norm: float
    verdict: bool
    notes: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "constants": self.constants,
            "lemmas": [{"name": c.name, "ref": c.ref, "measured": c.measured,
                        "bound": c.bound, "pass": bool(c.passed)}
                       for c in self.lemmas],
            "certified_total": self.certified_total,
            "empirical_norm": self.empirical_norm,
            "verdict": "pass" if self.verdict else "fail",
            "notes": self.notes,
            "counts": self.counts,
        }


def _probe_functions(space: MetricMeasureSpace, lat: DyadicLattice,
                     n_random: int, rng: np.random.Generator):
    probes = [rng.standard_normal(space.n_points) for _ in range(n_random)]
    cubes = [c for c in lat.cubes.values() if 0 < c.members.size < space.n_points]
    for cube in cubes[:2]:
        chi = np.zeros(space.n_points)
        chi[cube.members] = 1.0
        probes.append(chi)
    normed = []
    for p in probes:
        n = space.l2_norm(p)
        normed.append(p / n if n > 0 else p)
    return normed


def _far_geometry(kernel, space, half: HalfData, abs_op) -> dict:
    """The explicit far bound of every long range pair per unit component
    norms, with ``far`` marking the pairs that meet its distance hypothesis;
    and the regime constants: the Schur constant of the far pairs and the
    sup fallback constant of the near pairs (normally none)."""
    records = half.buckets["sigma2"]
    q, r = half.rows["sigma2"]
    fine, coarse = half.fine_rows, half.coarse_rows
    m, tau = kernel.m, kernel.tau
    coef = _far_coefficient(kernel, fine.size[q], coarse.size[r],
                            fine.mass[q], coarse.mass[r],
                            np.array([rec["dist"] for rec in records]))
    far = np.array([rec.get("far_ok", True) for rec in records], dtype=bool)
    c_far = c_near = 0.0
    if far.any():
        mat = interaction_matrix(space, half.fine_lat, half.coarse_lat,
                                 [rec for rec, ok in zip(records, far) if ok],
                                 m, tau)
        ones = np.ones(len(mat.q_slots))
        schur = schur_bound_long_range(mat, ones, np.ones(len(mat.r_slots)),
                                       m, tau)
        c_far = kernel.C_CZ * 3.0 ** (m + tau) * schur.c_schur
    if not far.all():
        # kernel sup over the (R, Q) rectangle of every near pair
        q_near, q_at = np.unique(q[~far], return_inverse=True)
        r_near, r_at = np.unique(r[~far], return_inverse=True)
        sup = cube_reduce(half.coarse_lat, cube_reduce(
            half.fine_lat, abs_op, np.array(list(fine.row))[q_near],
            np.maximum), np.array(list(coarse.row))[r_near], np.maximum,
            axis=0)[r_at, q_at]
        worst = max(0.0, float((sup * np.sqrt(fine.mass[q[~far]] *
                                              coarse.mass[r[~far]])).max()))
        c_near = worst * math.sqrt(np.bincount(q[~far]).max() *
                                   np.bincount(r[~far]).max())
    return {"coef": coef, "far": far, "c_far": c_far, "c_near": c_near}


def _sigma2_probe_check(half: HalfData, prefix: str):
    """Per-probe far-interaction verification over the sigma2 pairs."""
    geo = half.geo["sigma2"]
    q, r = half.rows["sigma2"]
    far = geo["far"]
    meas = float(np.abs(half.values["sigma2"][far]).sum())
    bound = float((geo["coef"] * np.sqrt(half.fine.norm_sq[q]) *
                   np.sqrt(half.coarse.norm_sq[r]))[far].sum())
    return _lemma(prefix + "sigma2_far", meas, bound, "long_range")


def certify(kernel: KernelSpec, space: MetricMeasureSpace, kappa: float = 0.5,
            delta_bad: float = 0.25, s_param: int = 2, seeds=(1, 2),
            n_probes: int = 3, master_seed: int = 0,
            lattice: DyadicLattice | None = None) -> CertificateReport:
    """Run the full certification pipeline and compare the assembled bound
    with the power-iteration operator norm.

    Every constant depends on the lattice pair only, so it is computed once
    from the pair geometry; each probe then costs two decompositions and the
    lemma checks, array arithmetic on that geometry.  ``lattice`` is the
    seeds[0] lattice when the caller has built it already."""
    from .kernels import check_T1, operator_norm
    from .lattice import build_lattice, classify_all_good_bad, \
        classify_terminal_transit, scale_gap

    m, tau = kernel.m, kernel.tau
    alpha = alpha_param(m, tau)
    r_gap = scale_gap(kappa, delta_bad, s_param)
    notes = []

    lat1 = lattice or build_lattice(space, kappa, seed=seeds[0])
    if lat1.space is not space or (lat1.kappa, lat1.seed) != (kappa, seeds[0]):
        raise ValueError("lattice is not the seeds[0] lattice of this space")
    lat2 = build_lattice(space, kappa, seed=seeds[1])
    classify_terminal_transit(lat1)
    classify_terminal_transit(lat2)
    classify_all_good_bad(lat1, lat2, alpha, delta_bad, s_param)
    classify_all_good_bad(lat2, lat1, alpha, delta_bad, s_param)

    a_t1 = max(check_T1(kernel, space, lat1).A, check_T1(kernel, space, lat2).A)
    empirical, converged = operator_norm(kernel, space, seed=master_seed)
    if not converged:
        notes.append("power iteration hit the iteration cap")

    rng = np.random.default_rng(master_seed)
    probes_f = _probe_functions(space, lat1, n_probes, rng)
    probes_g = _probe_functions(space, lat2, n_probes, rng)
    geometry = pair_geometry(kernel, space, lat1, lat2, r_gap, alpha)

    constants = {"A": a_t1, "C_CZ": kernel.C_CZ, "tau": tau, "m": m,
                 "kappa": kappa, "alpha": alpha, "r": r_gap, "S": s_param,
                 "delta_bad": delta_bad}
    c_parts = {"lambda": 2.0 * math.sqrt(a_t1)}
    counts = {}
    identity = []          # paraproduct identity of probe 0, per half
    for half, coarse_fn, prefix in zip(geometry, (probes_g[0], probes_f[0]),
                                       ("", "sym_")):
        far_geo = half.geo["sigma2"]
        n_near = int((~far_geo["far"]).sum())
        violations = len(half.geo["sigma3_tran"]["violations"])
        counts.update({prefix + regime + "_pairs": len(recs)
                       for regime, recs in half.buckets.items()})
        counts[prefix + "sigma2_fallback_pairs"] = n_near
        counts[prefix + "sigma3_violations"] = violations
        if n_near:
            notes.append(f"{prefix or 'primary '}half: {n_near} long "
                         "range pairs needed the sup fallback")
        c_parts[prefix + "sigma1"] = _diagonal_constant(half, a_t1)
        c_parts[prefix + "sigma2"] = far_geo["c_far"] + far_geo["c_near"]
        c_parts[prefix + "sigma3_term"] = half.geo["sigma3_term"]["constant"]
        c_parts[prefix + "sigma3_tran"] = (far_geo["c_far"] +
                                           half.geo["sigma3_tran"]["constant"])
        if violations:
            notes.append(f"{prefix or 'primary '}half: {violations} short "
                         "range pairs broke the goodness distance bound")
        # paraproduct constant from the residual symbol op @ mu
        _, a_r, p_info = paraproduct_apply(
            half.op @ space.mu, coarse_fn, half.fine_lat, half.coarse_lat,
            r_gap)
        carl = carleson_embedding_check(a_r, half.coarse_lat)
        c_parts[prefix + "paraproduct"] = 2.0 * math.sqrt(carl["fitted"])
        identity.append(LemmaCheck(
            prefix + "paraproduct_identity", p_info["identity_error"],
            1e-10, p_info["identity_error"] <= 1e-10, ref="paraproduct"))

    # probe 0 reports every lemma check, later probes only the failed ones
    lemmas = []
    worst_regroup = 0.0
    for pi, (f, g) in enumerate(zip(probes_f, probes_g)):
        dec_f = decompose(lat1, f)
        dec_g = decompose(lat2, g)
        split = split_bilinear(kernel, space, dec_f, dec_g, f, g, r_gap, alpha,
                               geometry)
        worst_regroup = max(worst_regroup, split.regroup_error)
        for hi, prefix in ((0, ""), (1, "sym_")):
            diag = diagonal_bound(split, hi, a_t1)
            term = short_range_terminal_bound(split, hi)
            tran_checks, _ = short_range_transit_bound(kernel, space, split,
                                                       hi)
            far = _sigma2_probe_check(split.halves[hi], prefix)
            checks = [diag, term, far] + tran_checks
            if pi > 0:
                lemmas.extend(chk for chk in checks if not chk.passed)
            else:
                lemmas.extend(checks + [identity[hi]])

    lemmas.append(LemmaCheck("sigma_regrouping", worst_regroup, 1e-9,
                             worst_regroup <= 1e-9, ref="splitting"))

    c_good = sum(c_parts.values())
    certified = c_good / (1.0 - 2.0 * delta_bad)
    constants.update({"C_" + k: v for k, v in c_parts.items()})
    verdict = (empirical <= certified * (1 + 1e-9) and
               all(c.passed for c in lemmas))
    return CertificateReport(constants=constants, lemmas=lemmas,
                             certified_total=certified,
                             empirical_norm=empirical, verdict=verdict,
                             notes=notes, counts=counts)
