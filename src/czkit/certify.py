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
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import HypothesisViolated
from .kernels import KernelSpec, on_support
from .lattice import UNSET, Cube, DyadicLattice, _ranges, cube_reduce
from .projections import MartingaleDecomposition, decompose, \
    good_component_ids, split_good_bad
from .space import MetricMeasureSpace, dilate, masked_sums

# Cells (probe x row x point) per chunk of the probe batch of ``certify``;
# bounds its memory.
PROBE_CELLS = 2 ** 18
# Largest smaller side of a pair-norm matrix that starts from a dense
# Perron vector, its dense matrix having at most 4 PERRON_SLOTS^2 cells; up
# to it the dense start was the faster on every list timed, above it the
# cubic squaring made it the slower on some.
PERRON_SLOTS = 256


def alpha_param(m: float, tau: float) -> float:
    """The goodness exponent tau / (2 (tau + m))."""
    return tau / (2.0 * (tau + m))


@dataclass
class LemmaCheck:
    name: str
    measured: float
    bound: float
    passed: bool
    ref: str = ""


def _lemma(name: str, measured, bound, ref: str):
    """A lemma check that passes when measured <= bound up to rounding; one
    per probe, in a list, when given one value per probe."""
    if np.ndim(measured):
        return [_lemma(name, m, b, ref)
                for m, b in zip(measured.tolist(), bound.tolist())]
    measured, bound = float(measured), float(bound)
    return LemmaCheck(name, measured, bound,
                      measured <= bound * (1 + 1e-9) + 1e-15, ref)


def _row_bincount(bins: np.ndarray, weights: np.ndarray,
                  n: int) -> np.ndarray:
    """``np.bincount(bins, w, minlength=n)`` for each row w of ``weights``
    (last axis against ``bins``): one call per probe, as its sums run in
    entry order."""
    lead = weights.shape[:-1]
    flat = weights.reshape(math.prod(lead), weights.shape[-1])
    return np.array([np.bincount(bins, w, minlength=n) for w in flat]
                    ).reshape(lead + (n,))


# ---------------------------------------------------------------------------
# pair classification and exact regrouping


@dataclass
class PairTable:
    """The pairs of one regime: per pair the fine and coarse rows
    (``ComponentRows`` order), the generation gap, the cube distance, and
    the far hypothesis flag (sigma2) or the holding child's id (sigma3)."""
    q: np.ndarray
    r: np.ndarray
    gap: np.ndarray
    dist: np.ndarray
    far_ok: np.ndarray | None = None
    rq: np.ndarray | None = None

    def __len__(self) -> int:
        return self.q.size

    def select(self, keep) -> PairTable:
        return PairTable(**{k: v[keep] for k, v in vars(self).items()
                            if v is not None})

    def records(self, fine_ids, coarse_ids) -> list:
        """One dict per pair, with cube ids in place of rows."""
        cols = {k: v for k, v in vars(self).items() if v is not None}
        cols.update(q=fine_ids[self.q], r=coarse_ids[self.r])
        return [dict(zip(cols, vals))
                for vals in zip(*(v.tolist() for v in cols.values()))]


@dataclass
class ComponentRows:
    """The good component cubes of one lattice, one row each in cube order,
    and the pieces their martingale differences split into: piece
    ``piece[c]`` is the part of Delta_Q on its child c.  The sigma split
    reads a lattice's cubes through this table only."""
    lattice: DyadicLattice
    ids: np.ndarray                # cube id per row
    gen: np.ndarray                # generation per row
    size: np.ndarray               # s(Q) per row
    mass: np.ndarray               # mu(Q) per row
    center: np.ndarray             # center point per row
    piece: np.ndarray              # child cube id per piece
    piece_start: np.ndarray        # pieces of row i: piece_start[i:i + 2]
    piece_mass: np.ndarray         # mu of each piece's child
    piece_stop: np.ndarray         # each piece's child is terminal or a leaf
    point_piece: np.ndarray        # (rows, N) piece of each point of the
                                   # row's cube, len(piece) off the cube
    inside: np.ndarray             # (rows, N) member mask of the row's cube


def _component_rows(lat: DyadicLattice) -> ComponentRows:
    ids = good_component_ids(lat)
    row, at = _ranges(lat.child_start[ids], lat.n_children[ids])
    piece = lat.child_ids[at]
    point_piece = np.full((ids.size, lat.space.n_points), piece.size)
    slot, points = lat.member_entries(piece)
    point_piece[row[slot], points] = slot
    return ComponentRows(
        lattice=lat, ids=ids, gen=lat.gen[ids], size=lat.size[ids],
        mass=lat.mass[ids], center=lat.center[ids], piece=piece,
        piece_start=np.append(0, np.cumsum(lat.n_children[ids])),
        piece_mass=lat.mass[piece], piece_stop=(lat.terminal[piece] == 1) |
        (lat.n_children[piece] == 0), point_piece=point_piece,
        inside=point_piece < piece.size)


def classify_pairs(fine: ComponentRows, coarse: ComponentRows,
                   dist: np.ndarray, r_gap: int, alpha: float) -> dict:
    """Sort all (fine, coarse) good transit pairs with gap >= 0 into the
    diagonal, long range and short range regimes: regime -> ``PairTable``
    of rows of ``fine`` and ``coarse``.

    ``dist`` holds the (fine row, coarse column) distances: the coarse
    lattice's point-to-cube table reduced over the fine cubes' rows.  The
    coarse child holding the fine cube is the cube of the next generation
    with the most of its points, the lowest id on ties; the shared points
    are counted one coarse generation at a time."""
    coarse_lat, qg, rg = coarse.lattice, fine.gen, coarse.gen
    n_fine, k_min = len(fine.ids), coarse_lat.k_min
    dist = dist[:, coarse_lat.column[coarse.ids]]
    meets = np.zeros(dist.shape, dtype=bool)
    # holder[i, k - k_min]: the generation-k coarse cube holding most of Q_i
    holder = np.zeros((n_fine, coarse_lat.k_max - k_min + 1), dtype=int)
    row, points = np.nonzero(fine.inside)
    for k in coarse_lat.generations():
        ids = np.array(sorted(coarse_lat.by_gen[k]))
        at = np.searchsorted(ids, coarse_lat.labels[k][points])
        # shared[i, c]: the points Q_i shares with the c-th cube of k
        shared = np.bincount(row * ids.size + at, minlength=n_fine *
                             ids.size).reshape(n_fine, ids.size)
        holder[:, k - k_min] = ids[np.argmax(shared, axis=1)]
        meets[:, rg == k] = shared[:, np.searchsorted(
            ids, coarse.ids[rg == k])] > 0

    gap_ok = qg[:, None] >= rg[None, :]
    close = qg[:, None] < rg[None, :] + r_gap
    measured = close | ~meets
    near = close & (dist <= coarse.size)
    i1, j1 = np.nonzero(gap_ok & measured & near)
    i2, j2 = np.nonzero(gap_ok & measured & ~near)
    i3, j3 = np.nonzero(gap_ok & ~measured)
    # distance hypothesis of the far-interaction bound
    far_ok = dist[i2, j2] >= (_scalar_pow(fine.size, alpha)[i2] *
                              _scalar_pow(coarse.size, 1 - alpha)[j2])
    rq = holder[i3, rg[j3] + 1 - k_min]
    stop = ~np.isin(rq, coarse_lat.plan.ids)      # terminal or a leaf

    def table(i, j, **extra):
        return PairTable(i, j, qg[i] - rg[j], dist[i, j], **extra)

    short = table(i3, j3, rq=rq)
    return {"sigma1": table(i1, j1), "sigma2": table(i2, j2, far_ok=far_ok),
            "sigma3_term": short.select(stop),
            "sigma3_tran": short.select(~stop)}


@dataclass
class Components:
    """The good martingale differences of one probe function on one
    lattice, one row per ComponentRows row, times mu and zero off the
    row's cube; every field has a leading probe axis when batched."""
    phi: np.ndarray                # (rows, N) Delta_Q phi * mu
    norm_sq: np.ndarray            # ||Delta_Q phi||^2 in L2(mu)
    piece_norm: np.ndarray         # L2(mu) norm of each piece


def _stack_components(rows: ComponentRows,
                      dec: MartingaleDecomposition) -> Components:
    mu = rows.lattice.space.mu
    delta = dec.dense(rows.ids.tolist())
    phi = delta * mu
    sq = np.square(delta, out=delta)
    sq *= mu
    piece_sq = _row_bincount(rows.point_piece.ravel(),
                             sq.reshape(sq.shape[:-2] + (-1,)),
                             len(rows.piece) + 1)[..., :-1]
    return Components(phi, sq.sum(axis=-1), np.sqrt(piece_sq))


@dataclass
class HalfData:
    """One half of the split: components of the finer lattice against the
    coarser ones, with the operator orientation fixed.

    pair_geometry fills the lattice-only fields once per lattice pair: the
    half's name, the pair tables and, per regime, the per-pair weights of
    its lemma and its constant. split_bilinear copies them for each batch
    of probes and adds the probe fields, which then lead with the probe
    axis, and the operator on supp mu."""
    prefix: str                    # "" (primary) or "sym_": report keys
    fine_rows: ComponentRows
    coarse_rows: ComponentRows
    pairs: dict                    # regime -> PairTable
    geo: dict = field(default_factory=dict)      # regime -> weights, constant
    # probe fields
    supp: np.ndarray | slice | None = None   # supp mu (``on_support``)
    op: np.ndarray | None = None   # operator on coarse parts, on supp x supp
    coarse_fn: np.ndarray | None = None   # the coarse lattice's probes
    fine: Components | None = None
    coarse: Components | None = None
    values: dict = field(default_factory=dict)   # regime -> pair values
    _view: dict = field(default_factory=dict, repr=False)  # see buckets

    @property
    def fine_lat(self) -> DyadicLattice:
        return self.fine_rows.lattice

    @property
    def coarse_lat(self) -> DyadicLattice:
        return self.coarse_rows.lattice

    @property
    def buckets(self) -> dict:
        """regime -> ``PairTable.records``, a view the split does not read;
        built on first use and shared with the probe copies."""
        if not self._view:
            ids = self.fine_rows.ids, self.coarse_rows.ids
            self._view.update((k, t.records(*ids))
                              for k, t in self.pairs.items())
        return self._view


def pair_geometry(kernel: KernelSpec, space: MetricMeasureSpace,
                  lat_f: DyadicLattice, lat_g: DyadicLattice, r_gap: int,
                  alpha: float, t1_A: float) -> tuple:
    """The (primary, symmetric) halves of the split of <T f, g> over the
    lattice pair (lat_f, lat_g), with every regime's per-pair weights and
    constant; f and g play no part.  The primary half pairs lat_f's cubes,
    as the finer ones, with the adjoint kernel; the symmetric half swaps
    the roles.  The diagonal weights of transit son pairs read the testing
    constant ``t1_A``.

    The kernel sups run over all N points, not over supp mu: there a
    rectangle's sup can be 0, where a diagonal weight falls back to
    sqrt(A), so restricting them changed certificates and made some
    looser."""
    rows_f, rows_g = _component_rows(lat_f), _component_rows(lat_g)
    abs_k = np.abs(kernel.matrix)
    k_sup = abs_k.max(axis=1), abs_k.max(axis=0)     # per row, per column
    # |K| sup over the rows of each g column and the columns of each f
    # column, as (f column, g column), freed once each half has read its
    # pieces' columns; the first stage is transposed once and dropped, so
    # that no reduction holds it and a transposed tile of it at once
    rect = cube_reduce(lat_f, np.ascontiguousarray(cube_reduce(
        lat_g, abs_k, lat_g.column_cubes(), np.maximum, axis=0).T),
        lat_f.column_cubes(), np.maximum, axis=0)
    sups = (rect[:, lat_g.column[rows_g.piece]],
            rect[lat_f.column[rows_f.piece]].T)
    del rect
    halves = []
    for prefix, fine, coarse, abs_op, op_sup, piece_sup in zip(
            ("", "sym_"), (rows_f, rows_g), (rows_g, rows_f),
            (abs_k.T, abs_k), (k_sup[::-1], k_sup), sups):
        dist = cube_reduce(fine.lattice, coarse.lattice.dist, fine.ids,
                           axis=0)
        pairs = classify_pairs(fine, coarse, dist, r_gap, alpha)
        if halves:
            # equal-size pairs appear in both halves; drop them from the
            # symmetric one so the regrouping stays a partition
            pairs = {regime: t.select(t.gap > 0) for regime, t in pairs.items()}
        half = HalfData(prefix, fine, coarse, pairs)
        # piece_sup: sup of |op| over each fine column's rows and each
        # coarse piece's columns; op_sup: over each row and each column
        half.geo = {
            "sigma1": _diagonal_geometry(half, op_sup, piece_sup, t1_A),
            "sigma2": _far_geometry(kernel, half, abs_op),
            "sigma3_term": _terminal_geometry(space, half, op_sup[0]),
            "sigma3_tran": _transit_geometry(kernel, space, half, abs_op,
                                             piece_sup, dist, alpha)}
        halves.append(half)
    return tuple(halves)


@dataclass
class SigmaSplit:
    """The sigma parts of <T f_good, g_good>: floats for one probe pair,
    (P,) arrays for a batch.  ``sums`` holds each regime's sum under its
    report key, ``sigma1`` to ``sym_sigma3_tran``.  The batch gathers along
    the last axis with ``x.take(idx, -1)``: an index after ``...`` would lay
    the probe axis innermost, and a sum along the last axis keeps each
    probe's bits only over contiguous rows."""
    lambda_part: float
    direct: float                  # <T f_good, g_good> computed densely
    sums: dict                     # report key -> regime sum
    halves: tuple                  # (primary, symmetric) HalfData

    @property
    def parts(self) -> tuple:
        return (self.lambda_part, *self.sums.values())

    @property
    def total(self) -> float:
        return sum(self.parts[1:], self.parts[0])

    @property
    def batched(self) -> bool:
        return np.ndim(self.direct) > 0

    @property
    def regroup_error(self):
        # |direct| floored at a thousandth of the parts' magnitude: where
        # <T f_good, g_good> is exactly 0 they cancel only up to rounding
        floor = 1e-3 * sum(map(np.abs, self.parts))
        scale = np.maximum(np.maximum(np.abs(self.direct), floor), 1e-30)
        return _scalar(np.abs(self.total - self.direct) / scale)


def _scalar(x):
    """A 0-d result as a Python float; a batch stays an array."""
    return float(x) if np.ndim(x) == 0 else x


def split_bilinear(kernel: KernelSpec, space: MetricMeasureSpace,
                   dec_f: MartingaleDecomposition,
                   dec_g: MartingaleDecomposition,
                   f: np.ndarray, g: np.ndarray,
                   geometry: tuple) -> SigmaSplit:
    """Exact regrouping of <T f_good, g_good> into the sigma parts.

    f and g are one function each or (P, N) stacks of probes, decomposed
    by dec_f and dec_g; a stack gives (P,) sums, each bit for bit its
    probe's own.  ``geometry`` is the pair_geometry of the two
    decompositions' lattices.  Every product contracts over supp mu,
    against K on supp mu x supp mu (``on_support``), which the halves keep
    for the transit products."""
    f_good, _ = split_good_bad(dec_f)
    g_good, _ = split_good_bad(dec_g)
    supp, k = on_support(kernel, space)
    mu = space.mu[supp]

    def pair(u, v):
        # <T u, v>_mu; a trailing unit axis keeps one GEMV per probe
        return ((k @ (u[..., supp] * mu)[..., None])[..., 0] *
                v[..., supp] * mu).sum(axis=-1)

    direct = pair(f_good, g_good)
    # the constant parts of both functions, paired against everything else
    lam_f, lam_g = dec_f.constant(), dec_g.constant()
    lambda_part = pair(lam_f, g_good) + pair(f_good - lam_f, lam_g)

    primary, symmetric = geometry
    comp_f = _stack_components(primary.fine_rows, dec_f)
    comp_g = _stack_components(primary.coarse_rows, dec_g)
    lead = comp_f.phi.shape[:-2]
    primary, symmetric = (
        replace(half, coarse_fn=fn, fine=fine, coarse=coarse, supp=supp,
                op=op, values={regime: np.empty(lead + t.q.shape)
                               for regime, t in half.pairs.items()})
        for half, fn, fine, coarse, op in ((primary, g, comp_f, comp_g, k.T),
                                           (symmetric, f, comp_g, comp_f, k)))
    # <T Delta_Q f, Delta_R g>_mu for every good pair of rows: rows of the
    # g-lattice, columns of the f-lattice, one probe at a time, as a stack
    # of them would take several times the memory of the probes; each half
    # reads its orientation
    for p in np.ndindex(lead):
        pair_matrix = comp_g.phi[p][:, supp] @ k @ comp_f.phi[p][:, supp].T
        for half, value in ((primary, pair_matrix.T),
                            (symmetric, pair_matrix)):
            for regime, t in half.pairs.items():
                half.values[regime][p] = value[t.q, t.r]
    sums = {half.prefix + regime: _scalar(values.sum(axis=-1))
            for half in (primary, symmetric)
            for regime, values in half.values.items()}
    return SigmaSplit(_scalar(lambda_part), _scalar(direct), sums,
                      (primary, symmetric))


# ---------------------------------------------------------------------------
# long range entries and pair norms


def long_range_entry(s_q: float, s_r: float, mass_q: float, mass_r: float,
                     dist: float, m: float, tau: float) -> float:
    d_big = s_q + s_r + dist
    return (s_q ** (tau / 2) * s_r ** (tau / 2) / d_big ** (m + tau) *
            np.sqrt(mass_q * mass_r))


def _far_coefficient(kernel, s_q, s_r, mass_q, mass_r, dist):
    """The explicit far bound per unit component norms: C_CZ 3^(m+tau)
    times the long range entry, per pair, as floats.  An overflowed
    C_CZ 3^(m+tau) times an underflowed entry, inf * 0, counts as inf."""
    with np.errstate(invalid="ignore"):
        coef = np.asarray(kernel.C_CZ * 3.0 ** (kernel.m + kernel.tau) *
                          long_range_entry(s_q, s_r, mass_q, mass_r, dist,
                                           kernel.m, kernel.tau), dtype=float)
    coef[np.isnan(coef)] = math.inf
    return coef


def _py_floats(values) -> np.ndarray:
    """``values`` as an object array of Python floats, whose ``**`` is the
    scalar one: numpy's float ``**`` misses its bits on a few percent of
    inputs, and the pair arrays keep the bits of per-pair scalar code."""
    return np.asarray(values, dtype=float).astype(object)


def _scalar_pow(base, exp) -> np.ndarray:
    """Elementwise ``base ** exp`` with the bits of scalar ``**``."""
    return (_py_floats(base) ** exp).astype(float)


def _perron_start(r, c, v, rtol: float, floor: float) -> np.ndarray:
    """An approximate Perron vector of M^T M, M the dense matrix of the
    pair list (r, c, v): the Gram matrix of M's smaller side, squared three
    times with a normalization after each, then power steps of that eighth
    power, four between checks, until its Collatz-Wielandt ratio is within
    rtol / 10 of the Rayleigh quotient, at most 64 steps.  Entries of the
    powers below 1e-150 are dropped, as their products would be
    subnormal.  The powers stay symmetric, so each square is P P^T, which
    numpy computes as a symmetric rank-k update at half the work."""
    n_r, n_c = r.max() + 1, c.max() + 1
    m = np.bincount(r * n_c + c, v, minlength=n_r * n_c).reshape(n_r, n_c)
    gram = m.T @ m if n_c <= n_r else m @ m.T
    power = gram / gram.max()
    for _ in range(3):
        power[power < 1e-150] = 0.0
        power = power @ power.T
        power /= power.max()
    x = power.sum(axis=1)
    for _ in range(16):
        x = np.maximum(x / x.max(), floor)
        gx = gram @ x
        if (gx / x).max() <= (x @ gx) / (x @ x) * (1 + rtol / 10):
            break
        for _ in range(4):
            x = power @ x
    return x if n_c <= n_r else m.T @ x


def _compact(at: np.ndarray) -> np.ndarray:
    """The rank of each entry of ``at`` (nonnegative integers) among its
    distinct values: ``np.unique``'s inverse, from a presence table instead
    of a sort."""
    present = np.zeros(at.max() + 1, dtype=bool)
    present[at] = True
    return (np.cumsum(present) - 1)[at]


def _pair_norm(rows, cols, values) -> float:
    """A certified upper bound on ||M||_2, M the matrix with |values| summed
    at (rows, cols): the Collatz-Wielandt bound max_j (M^T M y)_j / y_j on
    ||M||^2 for y > 0 from at most 500 power iterations on the pair list,
    which stop once it is within 1e-7 of the Rayleigh quotient, with a
    margin of 4 (pairs + 8) eps for the rounding of sums of nonnegative
    terms.  Values and weights are raised to 1e-100 times the largest, so
    no product underflows; a value that is not finite gives +inf.

    When M's smaller side has at most ``PERRON_SLOTS`` slots and M at most
    4 ``PERRON_SLOTS``^2 entries, the iterations start from a dense
    approximate Perron vector (``_perron_start``) instead of from ones, and
    mostly stop after one.
    The bound holds for every y > 0, and the loop alone computes it, so
    the start bears on its tightness and cost only, never on its rigor."""
    iterations, rtol, floor = 500, 1e-7, 1e-100
    values = np.abs(np.asarray(values, dtype=float))
    if not np.isfinite(values).all():
        return math.inf
    top = float(values.max(initial=0.0))
    if top == 0:
        return 0.0
    v = np.maximum(values / top, floor)
    r, c = map(_compact, (rows, cols))
    n_r, n_c = r.max() + 1, c.max() + 1
    if min(n_r, n_c) <= PERRON_SLOTS and n_r * n_c <= 4 * PERRON_SLOTS ** 2:
        y = _perron_start(r, c, v, rtol, floor)
        y = np.maximum(y / y.max(), floor)
    else:
        y = np.ones(n_c)
    for _ in range(iterations):
        z = np.bincount(r, v * y[c])
        w = np.bincount(c, v * z[r])
        bound = float((w / y).max())
        if bound <= (z @ z) / (y @ y) * (1 + rtol):
            break
        y = np.maximum(w / w.max(), floor)
    margin = 1 + 4 * (v.size + 8) * np.finfo(float).eps
    return top * math.sqrt(bound * margin)


# ---------------------------------------------------------------------------
# short range: terminal part


def _terminal_geometry(space, half: HalfData, row_sup) -> dict:
    """Groups of terminal pairs sharing the coarse cube R and its holding
    child, in order of first pair; the weight k_sup sqrt(mu(U) mu(R)) of
    each, U the child and the group's fine cubes, k_sup the kernel sup over
    the rows of U (``row_sup``: the sup of |op| over each row); and the
    regime constant, sqrt(m) times the pair norm of the (group, R)
    weights, as a fine cube falls in at most m groups."""
    t = half.pairs["sigma3_term"]
    coarse = half.coarse_rows
    _, first, group = np.unique(t.r * half.coarse_lat.gen.size + t.rq,
                                return_index=True, return_inverse=True)
    order = np.argsort(first)                 # groups by their first pair
    first, group = first[order], np.argsort(order)[group]
    r_rows = t.r[first]
    # the fine cubes need not sit inside the holding child, so the sup and
    # the mass run over their union with it
    union = half.coarse_lat.member_masks(t.rq[first])
    np.logical_or.at(union, group, half.fine_rows.inside[t.q])
    k_sup = np.where(union, row_sup, -np.inf).max(axis=1)
    weight = k_sup * np.sqrt(masked_sums(space.mu, union) *
                             coarse.mass[r_rows])
    mult = int(np.bincount(t.q).max(initial=0))
    constant = _pair_norm(np.arange(weight.size), r_rows, weight)
    return {"group": group, "r_row": r_rows, "weight": weight,
            "multiplicity": mult, "constant": constant * math.sqrt(mult)}


def short_range_terminal_bound(split: SigmaSplit, hi: int):
    """Bound the short range sum over pairs whose holding child is terminal.

    Groups pairs by the coarse cube and its terminal child, bounds the
    localized image of the coarse component through the kernel sup on the
    group's support, and closes with Cauchy-Schwarz over the orthogonal fine
    components of each group."""
    half = split.halves[hi]
    geo = half.geo["sigma3_term"]
    q_rows = half.pairs["sigma3_term"].q
    measured = np.abs(half.values["sigma3_term"].sum(axis=-1))
    v = np.sqrt(_row_bincount(geo["group"],
                              half.fine.norm_sq.take(q_rows, -1),
                              geo["weight"].size))
    dg = np.sqrt(half.coarse.norm_sq.take(geo["r_row"], -1))
    bound = (geo["weight"] * dg * v).sum(axis=-1)
    return _lemma(half.prefix + "sigma3_terminal", measured, bound,
                  "short_range_terminal")


# ---------------------------------------------------------------------------
# short range: transit part


def _block_entries(kappa: float, tau: float, k, mu_q, mu_parent):
    """The block matrix entries kappa^(tau k / 2) sqrt(mu_q / mu_parent) of
    the short range aggregation."""
    return _scalar_pow(kappa, tau * k / 2.0) * np.sqrt(mu_q / mu_parent)


def _transit_geometry(kernel, space, half: HalfData, abs_op, piece_sup,
                      dist, alpha: float) -> dict:
    """Per-pair coefficients of the three short range transit estimates,
    the regime constant, and the hypothesis violations, which depend on the
    lattices only.  Distances and kernel sups from a fine cube Q to the
    coarse remainder R minus R_Q are the extremes over the pieces of R other
    than R_Q, read off ``dist`` (as in ``classify_pairs``) and
    ``piece_sup`` (as in ``_diagonal_geometry``).  The constant is the pair
    norm of the far plus sqrt(mu(Q) / mu(R_Q)) times the extension
    coefficient, as |c_val| <= ||Delta_R g|| / sqrt(mu(R_Q)) and
    ||Delta_Q f||_L1 <= sqrt(mu(Q)) ||Delta_Q f||."""
    t = half.pairs["sigma3_tran"]
    q, r, rq = t.q, t.r, t.rq
    mu, fine, coarse = space.mu, half.fine_rows, half.coarse_rows
    coarse_lat, kappa, tau = coarse.lattice, coarse.lattice.kappa, kernel.tau
    in_rq = coarse_lat.member_masks(rq)
    # R_Q is transit, so it carries mass
    mass_q, mass_rq = fine.mass[q], coarse_lat.mass[rq]
    s_alpha = _scalar_pow(fine.size, alpha)[q]
    violations = []               # one message per violation

    # (a) far part against the rest of the coarse cube, i.e. against its
    # pieces on the other children: their distance to Q and kernel sup
    pieces = coarse.piece
    other_pair, other_piece = _ranges(coarse.piece_start[r],
                                      np.diff(coarse.piece_start)[r])
    keep = pieces[other_piece] != rq[other_pair]
    other_pair, other_piece = other_pair[keep], other_piece[keep]
    row = q[other_pair]
    d_out = np.full(len(t), math.inf)
    np.minimum.at(d_out, other_pair, dist[
        row, coarse_lat.column[pieces[other_piece]]])
    sup_out = np.zeros(len(t))
    np.maximum.at(sup_out, other_pair, piece_sup[
        fine.lattice.column[fine.ids[row]], other_piece])
    far_coef = _far_coefficient(
        kernel, _py_floats(fine.size[q]), _py_floats(coarse.size[r]), mass_q,
        coarse.mass[r], _py_floats(t.dist))
    near = ~(d_out >= s_alpha * _scalar_pow(coarse.size, 1 - alpha)[r])
    if near.any():
        # the separation hypothesis failed, so the kernel-decay bound
        # is not available; use the always-valid rectangular sup bound
        rest = coarse.inside[r[near]] & ~in_rq[near]
        far_coef[near] = sup_out[near] * np.sqrt(mass_q[near] *
                                                 masked_sums(mu, rest))
        violations += ["pair: distance to the coarse remainder under "
                       "s(Q)^alpha s(R)^(1-alpha)"] * int(near.sum())

    # (b) extension error, exact ascent sums over the levels of R_Q's
    # chain: at each generation k above R_Q, the ancestor at k minus the
    # ancestor at k + 1, where that leaves points; the levels and their
    # masses once per distinct R_Q, the distances from each Q's center
    labels = np.stack([coarse_lat.labels[k] for k in coarse_lat.generations()])
    rq_ids, at = np.unique(rq, return_inverse=True)
    x = coarse_lat.points[coarse_lat.offsets[rq_ids]]  # a point of each R_Q
    same = labels[:, None, :] == labels[:, x, None]   # (k, R_Q, point)
    below = (labels[:, x] == rq_ids).argmax(axis=0)   # R_Q's generation
    level = same[:-1] & ~same[1:] & \
        (below > np.arange(len(labels) - 1)[:, None])[..., None]
    rho_q = space.rho[fine.center[q]]                 # from Q's center
    d = np.full((len(labels), len(t)), math.inf)
    mass = np.zeros(d.shape)
    mass[:-1] = masked_sums(mu, level.reshape(-1, mu.size)).reshape(
        len(labels) - 1, rq_ids.size)[:, at]
    for k in range(len(labels) - 1):
        d[k] = np.where(level[k, at], rho_q, math.inf).min(axis=1)
    chain = (d > 0).all(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        # summed level by level, bottom up; void where chain fails
        ascent = np.where(chain, sum((mass / _scalar_pow(
            d, kernel.m + tau))[::-1]), 0.0)
    s_level = _scalar_pow([kappa ** k for k in coarse_lat.generations()],
                          1 - alpha)
    violations += ["ascent level: distance under goodness bound"] * int(
        ((d < s_alpha * s_level[:, None]) & chain).sum())
    reach = np.where(fine.inside, space.rho[fine.center],
                     -math.inf).max(axis=1)[q]
    ext_coef = kernel.C_CZ * _scalar_pow(reach, tau) * ascent
    # the center sits outside its coarse child, or the smoothness regime
    # fails: use the exact value of the extension pairing
    chain &= reach <= kernel.delta_CZ * d.min(axis=0)
    violations += ["pair: extension estimate fell back to the exact "
                   "pairing"] * int((~chain).sum())
    # where the chain fails: mu(y) max over Q of |op|, summed off R_Q
    ext = np.where(chain, ext_coef, 0.0)
    rows, at = np.unique(q[~chain], return_inverse=True)
    row_sup = cube_reduce(fine.lattice, abs_op, fine.ids[rows], np.maximum,
                          axis=0)[at]
    ext[~chain] = np.where(in_rq[~chain], 0.0, mu * row_sup).sum(axis=1)

    # (c) block aggregation material: the explicit series of the block
    # lemma, plus the plain entry series of the fine cubes that meet two
    # coarse cubes at one gap, outside the lemma's one-chain structure
    block_t = _block_entries(kappa, tau, t.gap, mass_q, mass_rq)
    _, at, n = np.unique(q * (t.gap.max(initial=0) + 1) + t.gap,
                         return_inverse=True, return_counts=True)
    straddle = n[at.ravel()] > 1
    block_coef = (1.0 / (1.0 - kappa ** (tau / 2.0)) * (not straddle.all()) +
                  float(block_t[straddle].sum()))
    if straddle.any():
        violations.append(f"{int(straddle.sum())} short range pairs "
                          "straddle coarse cubes and use the entrywise series")

    # mu on each coarse cube R and holding child R_Q, for their averages
    cube_ids, cube_col = np.unique(np.column_stack([coarse.ids[r], rq]),
                                   return_inverse=True)
    on_cube = np.where(coarse_lat.member_masks(cube_ids), mu, 0.0)
    return {"far_coef": far_coef, "ext_coef": ext_coef, "chain": chain,
            "other_pair": other_pair, "other_piece": other_piece,
            "on_cube": on_cube, "on_mass": on_cube.sum(axis=1),
            "cube_col": cube_col.reshape(-1, 2),
            "block_t": block_t, "block_coef": block_coef,
            "constant": _pair_norm(q, r, far_coef + np.sqrt(
                mass_q / mass_rq) * ext), "violations": violations}


def short_range_transit_bound(split: SigmaSplit, hi: int):
    """The three estimates of the short range transit sum over half ``hi``
    of the split.

    (a) interaction with the coarse component outside the holding child,
    via the far bound; (b) the error of extending the child indicator to the
    whole space, via exact ascent sums; (c) the block-matrix aggregation of
    (b).  The coefficients come from the split's geometry.  A batched split
    gives the three checks of each probe in a list per probe."""
    half = split.halves[hi]
    prefix, space = half.prefix, half.fine_lat.space
    geo = half.geo["sigma3_tran"]
    q, r = half.pairs["sigma3_tran"].q, half.pairs["sigma3_tran"].r
    fine, coarse, supp = half.fine, half.coarse, half.supp
    dq, dr = (np.sqrt(c.norm_sq.take(at, -1))
              for c, at in ((fine, q), (coarse, r)))
    other = geo["other_pair"]
    on_cube = geo["on_cube"]
    r_col, rq_col = geo["cube_col"].T
    off_child = (space.mu - on_cube)[:, supp]

    # the products with T* Delta_Q on supp mu, one probe at a time, as a
    # stack of them (the pieces outnumber the rows) would take several
    # times the memory of the probes: (a) on the coarse component on every
    # child of R, (b) off the child of each R_Q, and ||Delta_Q||_L1(mu)
    lead = fine.phi.shape[:-2]
    point_piece = half.coarse_rows.point_piece[:, supp]
    points = np.arange(point_piece.shape[1])
    piece_phi = np.zeros((len(half.coarse_rows.piece) + 1, points.size))
    on_other = np.empty(lead + other.shape)
    off_t, off_abs = np.empty(lead + q.shape), np.empty(lead + q.shape)
    l1 = np.empty(lead + fine.phi.shape[-2:-1])
    for p in np.ndindex(lead):
        # column Q is op^T Delta_Q mu
        fine_t = (fine.phi[p][:, supp] @ half.op).T
        piece_phi[point_piece, points] = coarse.phi[p][:, supp]
        on_other[p] = (piece_phi[:-1] @ fine_t)[geo["other_piece"], q[other]]
        off_t[p] = (off_child @ fine_t)[rq_col, q]
        if not geo["chain"].all():
            off_abs[p] = (off_child @ np.abs(fine_t))[rq_col, q]
        l1[p] = np.abs(fine.phi[p]).sum(axis=-1)

    # (a) the coarse component on every child of R, paired with T* Delta_Q
    far_v = _row_bincount(other, on_other, q.size)
    meas_far = np.abs(far_v).sum(axis=-1)
    bound_far = (geo["far_coef"] * dq * dr).sum(axis=-1)

    # (b) extension error
    # a trailing unit axis keeps one GEMV per probe
    averages = (on_cube @ half.coarse_fn[..., None])[..., 0] / geo["on_mass"]
    c_val = averages.take(rq_col, -1) - averages.take(r_col, -1)
    ext_v = c_val * off_t
    meas_ext = np.abs(ext_v).sum(axis=-1)
    pair_bound = np.abs(c_val) * geo["ext_coef"] * l1.take(q, -1)
    if not geo["chain"].all():
        pair_bound = np.where(geo["chain"], pair_bound,
                              np.abs(c_val) * off_abs)
    bound_ext = pair_bound.sum(axis=-1)

    # (c) block aggregation of the extension errors
    lhs_c = (geo["block_t"] * dq * dr).sum(axis=-1)
    rhs_c = (geo["block_coef"] *
             np.sqrt(fine.norm_sq.take(np.unique(q), -1).sum(axis=-1)) *
             np.sqrt(coarse.norm_sq.take(np.unique(r), -1).sum(axis=-1)))

    checks = [
        _lemma(prefix + "sigma3_transit_far", meas_far, bound_far,
               "short_range_transit_far"),
        _lemma(prefix + "sigma3_transit_extension", meas_ext, bound_ext,
               "short_range_transit_extension"),
        _lemma(prefix + "sigma3_transit_block", lhs_c, rhs_c,
               "short_range_transit_block"),
    ]
    if split.batched:
        checks = [list(c) for c in zip(*checks)]
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
    qs, plan = good_component_ids(fine_lat), fine_lat.plan
    gens = np.array(sorted(coarse_lat.labels))
    labels = np.column_stack([coarse_lat.labels[g] for g in gens])[plan.pt]
    rows = [plan.slot[q] for q in qs.tolist()]
    lo, hi = (ufunc.reduceat(labels, plan.start[:-1], axis=0)[rows]
              for ufunc in (np.minimum, np.maximum))
    # transit per cube id, read as label -1 (no cube) in the last slot
    transit = np.append(coarse_lat.terminal != 1, False)
    top = fine_lat.gen[qs] - r_gap + 1
    ok = (lo == hi) & transit[lo] & (gens <= top[:, None])
    return {q: int(row[hit][-1]) if hit.any() else None
            for q, row, hit in zip(qs.tolist(), lo, ok)}


def paraproduct_apply(F: np.ndarray, g: np.ndarray, fine_lat: DyadicLattice,
                      coarse_lat: DyadicLattice, r_gap: int):
    """The paraproduct vector sum_Q <g>_(R(Q)) Delta_Q F together with the
    per-target weights a_R = sum ||Delta_Q F||^2 and the orthogonality-based
    norm identity error."""
    space = fine_lat.space
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


def carleson_embedding_check(a: dict, lattice: DyadicLattice):
    """Fitted Carleson constant max_S sum_(R under S) a_R / mu(S).  Subtree
    sums run bottom up, one ``np.add.at`` per generation adding each cube's
    children in child order."""
    subtree = np.zeros(lattice.gen.size)
    subtree[list(a)] = list(a.values())
    ids = lattice.ids
    kids = ids[lattice.parent[ids] >= 0]
    up_gen = lattice.gen[lattice.parent[kids]]
    for k in sorted(lattice.by_gen, reverse=True):
        at = kids[up_gen == k]
        np.add.at(subtree, lattice.parent[at], subtree[at])
    mass, total = lattice.mass[ids], subtree[ids]
    ratio = np.divide(total, mass, out=np.zeros(ids.size), where=mass > 0)
    best = int(ratio.argmax())
    fitted = max(float(ratio[best]), 0.0)
    return {"fitted": fitted,
            "worst_cube": int(ids[best]) if fitted > 0 else None,
            "zero_mass_skipped": ids[(mass <= 0) & (total > 0)].tolist()}


def whitney_decomposition(space: MetricMeasureSpace, lattice: DyadicLattice,
                          r_cube: Cube):
    """Greedy interior covering of a cube by maximal sub-cubes P with
    dilate(P, 1.5) inside it; reports the multiplicity of the 1.4-dilations
    and the covered mu-fraction."""
    selected = []
    stack = list(r_cube.children)
    while stack:
        cid = stack.pop()
        if np.isin(dilate(space, lattice.members(cid), 1.5),
                   r_cube.members).all():
            selected.append(cid)
        else:
            stack.extend(lattice.cubes[cid].children)
    counts = np.zeros(space.n_points, dtype=int)
    for cid in selected:
        counts[dilate(space, lattice.members(cid), 1.4)] += 1
    covered = lattice.member_masks(selected).any(axis=0)
    multiplicity = int(counts.max()) if selected else 0
    mass = lattice.mass[r_cube.id]
    frac = space.mu_mass(np.flatnonzero(covered)) / mass if mass > 0 else 0.0
    return selected, multiplicity, frac


def bmo_tail_constant(kernel: KernelSpec, K: float, lam: float) -> float:
    """Geometric tail sum C_CZ K sum_j lam^((j+1)m) / (lam^j - 1)^(m+tau),
    cut at 400 terms or where a term drops below rounding."""
    if lam <= 1.0:
        raise ValueError("dilation base must exceed 1")
    total = 0.0
    m, tau = kernel.m, kernel.tau
    for j in range(1, 401):
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
    for cid in lattice.ids.tolist():
        d = space.set_diam(lattice.members(cid))
        if d <= 0 or lattice.mass[cid] <= 0:
            continue
        # the points by distance to Q, each with the mass reached so far
        dist = space.rho[:, lattice.members(cid)].min(axis=1)
        order = np.argsort(dist)
        dist = dist[order]
        s = np.maximum(1.0, dist / d + 1.0)
        gate = (dist <= (s - 1.0) * d + 1e-15) | (s == 1.0)
        over = np.cumsum(space.mu[order]) > \
            K * _scalar_pow(s, m) * d ** m * (1 + 1e-9)
        if not (gate & over).any():
            out.append(cid)
    return out


def pseudo_bmo_check(F: np.ndarray, space: MetricMeasureSpace,
                     lattice: DyadicLattice, K: float, lambda_bmo: float = 3.0,
                     kernel: KernelSpec | None = None,
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
    mat = kernel.matrix.T if kernel is not None else None
    for cid in cids:
        members = lattice.members(cid)
        mass = lattice.mass[cid]
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
            # F is read mu-a.e., and C_CZ is fitted on supp mu only
            held = psi[members[mu[members] > 0]]
            tail_osc = float(held.max() - held.min()) if held.size else 0.0
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


def _diagonal_geometry(half: HalfData, op_sup, piece_sup, t1_A) -> dict:
    """Son-pair weights of every diagonal pair: one entry per (fine son,
    coarse son), grouped by pair in bucket order, and the regime constant,
    their pair norm.  Where a son is terminal or a leaf the weight is the
    kernel sup over its slab, otherwise the smaller of sqrt(A) and the
    kernel sup over the son rectangle (sqrt(A) where that sup is 0).  The
    sons are the pieces of the two component rows; ``piece_sup`` is the
    sup of |op| over the rows of each fine column (``lat.column``) and the
    columns of each coarse piece, and ``op_sup`` the sups of |op| over
    each row and over each column."""
    fine, coarse = half.fine_rows, half.coarse_rows
    f_ids, c_ids = fine.piece, coarse.piece
    # kernel sups over each (fine son, coarse son) rectangle, and over the
    # whole slab of rows of a fine son or columns of a coarse son
    rect = piece_sup[fine.lattice.column[f_ids]]
    row_sup = cube_reduce(fine.lattice, op_sup[0][:, None], f_ids,
                          np.maximum, axis=0)[:, 0]
    col_sup = cube_reduce(coarse.lattice, op_sup[1][None, :], c_ids,
                          np.maximum)[0]

    # the son pairs of each diagonal pair, fine son outer, coarse son inner
    q, r = half.pairs["sigma1"].q, half.pairs["sigma1"].r
    n_c = np.diff(coarse.piece_start)[r]
    sons = np.diff(fine.piece_start)[q] * n_c
    pair, t = _ranges(np.zeros_like(sons), sons)
    f_piece = fine.piece_start[q][pair] + t // n_c[pair]
    c_piece = coarse.piece_start[r][pair] + t % n_c[pair]
    mass = np.sqrt(fine.piece_mass[f_piece] * coarse.piece_mass[c_piece])
    # localized sup bound needs the sup over the whole slab
    w_raw = np.where(fine.piece_stop[f_piece], row_sup[f_piece] * mass,
                     np.where(coarse.piece_stop[c_piece],
                              col_sup[c_piece] * mass, math.nan))
    sqrt_a, w_rect = math.sqrt(t1_A), rect[f_piece, c_piece] * mass
    weight = np.where(np.isnan(w_raw), np.where(
        w_rect > 0, np.minimum(sqrt_a, w_rect), sqrt_a), w_raw)
    return {"f_piece": f_piece, "c_piece": c_piece, "weight": weight,
            "constant": _pair_norm(f_piece, c_piece, weight)}


def diagonal_bound(split: SigmaSplit, hi: int):
    """Per-pair son splitting of the diagonal sum."""
    half = split.halves[hi]
    geo = half.geo["sigma1"]
    measured = np.abs(half.values["sigma1"].sum(axis=-1))
    bound = (geo["weight"] *
             half.fine.piece_norm.take(geo["f_piece"], -1) *
             half.coarse.piece_norm.take(geo["c_piece"], -1)).sum(axis=-1)
    return _lemma(half.prefix + "sigma1_diagonal", measured, bound,
                  "diagonal")


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
    count = lat.n_members[lat.ids]
    cubes = lat.ids[(count > 0) & (count < space.n_points)]
    probes += list(lat.member_masks(cubes[:2]).astype(float))   # indicators
    norms = [space.l2_norm(p) for p in probes]
    return [p / n if n > 0 else p for p, n in zip(probes, norms)]


def _far_geometry(kernel, half: HalfData, abs_op) -> dict:
    """The explicit far bound of every long range pair per unit component
    norms, with ``far`` marking the pairs that meet its distance hypothesis,
    and the regime constant: the pair norm of those bounds, with the kernel
    sup over the (R, Q) rectangle times sqrt(mu(Q) mu(R)) where it fails."""
    t = half.pairs["sigma2"]
    q, r, far = t.q, t.r, t.far_ok
    fine, coarse = half.fine_rows, half.coarse_rows
    coef = _far_coefficient(kernel, fine.size[q], coarse.size[r],
                            fine.mass[q], coarse.mass[r], t.dist)
    weight = coef.copy()
    if not far.all():
        q_near, q_at = np.unique(q[~far], return_inverse=True)
        r_near, r_at = np.unique(r[~far], return_inverse=True)
        sup = cube_reduce(half.coarse_lat, cube_reduce(
            half.fine_lat, abs_op, fine.ids[q_near], np.maximum),
            coarse.ids[r_near], np.maximum, axis=0)[r_at, q_at]
        weight[~far] = sup * np.sqrt(fine.mass[q[~far]] *
                                     coarse.mass[r[~far]])
    return {"coef": coef, "far": far, "constant": _pair_norm(q, r, weight)}


def _sigma2_probe_check(half: HalfData):
    """Per-probe far-interaction verification over the sigma2 pairs."""
    geo, t = half.geo["sigma2"], half.pairs["sigma2"]
    far = np.flatnonzero(geo["far"])
    # sigma2 holds most pairs, so its (P, far pairs) stacks work in place
    meas = half.values["sigma2"].take(far, -1)
    meas = np.abs(meas, out=meas).sum(axis=-1)
    bound = half.fine.norm_sq.take(t.q[far], -1)
    bound = np.sqrt(bound, out=bound)               # coef * dq * dr
    dr = half.coarse.norm_sq.take(t.r[far], -1)
    with np.errstate(invalid="ignore"):
        bound *= geo["coef"][far]
        bound *= np.sqrt(dr, out=dr)
    bound[np.isnan(bound)] = 0.0    # inf * 0: a zero norm product adds 0
    return _lemma(half.prefix + "sigma2_far", meas, bound.sum(axis=-1),
                  "long_range")


def certify(kernel: KernelSpec, space: MetricMeasureSpace, kappa: float = 0.5,
            delta_bad: float = 0.25, s_param: int = 2, seeds=(1, 2),
            n_probes: int = 3, master_seed: int = 0,
            lattice: DyadicLattice | None = None) -> CertificateReport:
    """Run the full certification pipeline and compare the assembled bound
    with the power-iteration operator norm.

    Every regime constant depends on the lattice pair and A only, and comes
    from pair_geometry.  The probes then go through the lemma checks
    as one (P, N) stack per lattice, in chunks of at most ``PROBE_CELLS``
    (probe x row x point) cells: one decomposition per lattice, one split
    and one call per lemma and half.  Every sum runs along the last axis
    and every product keeps its per-probe BLAS call, so each probe's checks
    are bit for bit those of the probe on its own.  ``lattice`` is the
    seeds[0] lattice when the caller has built it already; its terminal
    flags are kept when every cube has one."""
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
    for lat, other in ((lat1, lat2), (lat2, lat1)):
        if lat is not lattice or (lat.terminal[lat.ids] == UNSET).any():
            classify_terminal_transit(lat)
        classify_all_good_bad(lat, other, alpha, delta_bad, s_param)

    a_t1 = max(check_T1(kernel, space, lat1).A, check_T1(kernel, space, lat2).A)
    empirical, converged = operator_norm(kernel, space, seed=master_seed)
    if not converged:
        notes.append("power iteration hit the iteration cap")

    rng = np.random.default_rng(master_seed)
    probes_f = _probe_functions(space, lat1, n_probes, rng)
    probes_g = _probe_functions(space, lat2, n_probes, rng)
    n_probe = min(len(probes_f), len(probes_g))
    geometry = pair_geometry(kernel, space, lat1, lat2, r_gap, alpha, a_t1)

    constants = {"A": a_t1, "C_CZ": kernel.C_CZ, "tau": tau, "m": m,
                 "kappa": kappa, "alpha": alpha, "r": r_gap, "S": s_param,
                 "delta_bad": delta_bad}
    c_parts = {"lambda": 2.0 * math.sqrt(a_t1)}
    counts = {}
    # paraproduct identity of probe 0, per half; with no probe no lemma
    # reads it, and the constant does not depend on the coarse function
    identity = []
    coarse_fns = (probes_g[0], probes_f[0]) if n_probe else \
        (np.zeros(space.n_points),) * 2
    for half, op, coarse_fn in zip(geometry, (kernel.matrix.T, kernel.matrix),
                                   coarse_fns):
        prefix = half.prefix
        n_near = int((~half.geo["sigma2"]["far"]).sum())
        violations = len(half.geo["sigma3_tran"]["violations"])
        counts.update({prefix + regime + "_pairs": len(t)
                       for regime, t in half.pairs.items()})
        counts[prefix + "sigma2_fallback_pairs"] = n_near
        counts[prefix + "sigma3_violations"] = violations
        counts[prefix + "sigma3_term_multiplicity"] = \
            half.geo["sigma3_term"]["multiplicity"]
        if n_near:
            notes.append(f"{prefix or 'primary '}half: {n_near} long "
                         "range pairs needed the sup fallback")
        for regime, geo in half.geo.items():
            c_parts[prefix + regime] = geo["constant"]
        if violations:
            notes.append(f"{prefix or 'primary '}half: {violations} short "
                         "range pairs broke the goodness distance bound")
        # paraproduct constant from the residual symbol op @ mu; summed
        # over supp mu only, it moved C_paraproduct in its last bits for a
        # product that costs under 0.1% of a certificate
        _, a_r, p_info = paraproduct_apply(
            op @ space.mu, coarse_fn, half.fine_lat, half.coarse_lat, r_gap)
        carl = carleson_embedding_check(a_r, half.coarse_lat)
        c_parts[prefix + "paraproduct"] = 2.0 * math.sqrt(carl["fitted"])
        identity.append(LemmaCheck(
            prefix + "paraproduct_identity", p_info["identity_error"],
            1e-10, p_info["identity_error"] <= 1e-10, ref="paraproduct"))

    # the probes as (P, N) stacks, in chunks of at most PROBE_CELLS cells
    probes_f, probes_g = (np.reshape(p[:n_probe], (n_probe, space.n_points))
                          for p in (probes_f, probes_g))
    rows = max(len(h.fine_rows.ids) for h in geometry)
    chunk = max(1, PROBE_CELLS // (max(rows, 1) * space.n_points))
    # probe 0 reports every lemma check, later probes only the failed ones
    lemmas = []
    worst_regroup = 0.0
    for at in range(0, n_probe, chunk):
        f, g = probes_f[at:at + chunk], probes_g[at:at + chunk]
        split = split_bilinear(kernel, space, decompose(lat1, f),
                               decompose(lat2, g), f, g, geometry)
        worst_regroup = max(worst_regroup, *split.regroup_error.tolist())
        halves = []
        for hi, half in enumerate(split.halves):
            tran_checks, _ = short_range_transit_bound(split, hi=hi)
            halves.append(zip(diagonal_bound(split, hi),
                              short_range_terminal_bound(split, hi),
                              _sigma2_probe_check(half), tran_checks))
        for pi, per_half in enumerate(zip(*halves), start=at):
            for hi, (diag, term, far, tran) in enumerate(per_half):
                checks = [diag, term, far] + tran
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
