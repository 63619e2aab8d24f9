"""Finite metric measure spaces and their standing hypotheses.

A space is a finite point cloud with a symmetric quasi-metric matrix, a
reference measure ``nu``, a probability measure ``mu`` and a distinguished
open set ``omega`` capturing all balls where ``mu`` exceeds m-dimensional
growth.  All checks operate on radii in ``[resolution_h, diam]``.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import EmptyRadiusList, EmptySet, OmegaIsWholeSpace


@dataclass
class MetricMeasureSpace:
    """A finite space.  Its lattices and the nets they are drawn from need
    rho equal to its transpose exactly (``symmetric``): ``space_from_json``
    refuses any other explicit metric, ``verify_quasi_metric`` fails it
    and ``build_lattice`` raises on it."""
    rho: np.ndarray            # (N, N) symmetric quasi-distances
    nu: np.ndarray             # (N,) reference weights
    mu: np.ndarray             # (N,) probability weights
    omega: np.ndarray          # (N,) boolean mask of the open set
    quasi_const: float = 1.0
    resolution_h: float = 0.0
    points: list = field(default_factory=list)   # point identifiers
    coords: np.ndarray | None = None             # optional (N, d) points

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        self.nu = np.asarray(self.nu, dtype=float)
        self.mu = np.asarray(self.mu, dtype=float)
        self.omega = np.asarray(self.omega, dtype=bool)
        n = self.rho.shape[0]
        if not self.points:
            self.points = list(range(n))
        if self.resolution_h <= 0.0:
            pos = self.rho > 0                  # NaN is not positive
            np.fill_diagonal(pos, False)
            h = float(self.rho.min(where=pos, initial=np.inf))
            self.resolution_h = h if h < np.inf or pos.any() else 1.0

    def __setattr__(self, name, value):
        # a new rho or resolution_h drops the tables cached from them
        if name in ("rho", "resolution_h"):
            for key in ("near_pairs", "symmetric", "nearest_other"):
                self.__dict__.pop(key, None)
        super().__setattr__(name, value)

    @property
    def n_points(self) -> int:
        return self.rho.shape[0]

    @cached_property
    def near_pairs(self) -> tuple:
        """Ordered pairs (i, j), i != j, with rho(i, j) <= resolution_h,
        sorted by i; with the distinct i and the start of each one's run of
        pairs.  Built once per space."""
        i, j = np.nonzero((self.rho <= self.resolution_h)
                          & ~np.eye(self.n_points, dtype=bool))
        return (i, j, *np.unique(i, return_index=True))

    @cached_property
    def symmetric(self) -> bool:
        """rho equals its transpose, entry for entry; compared once per
        space."""
        return bool(np.array_equal(self.rho, self.rho.T))

    @cached_property
    def nearest_other(self) -> np.ndarray:
        """min over y != x of rho(x, y), per point x."""
        off = self.rho.copy()
        np.fill_diagonal(off, np.inf)
        return off.min(axis=1)

    def diam(self) -> float:
        return float(self.rho.max()) if self.n_points > 1 else 0.0

    def mu_mass(self, idx) -> float:
        return float(self.mu[idx].sum())

    def l2_norm(self, values: np.ndarray) -> float:
        """L2(mu) norm of a function given by per-point values."""
        return float(np.sqrt(np.sum(np.asarray(values) ** 2 * self.mu)))

    def set_diam(self, idx) -> float:
        idx = np.asarray(idx)
        if idx.size <= 1:
            return 0.0
        return float(self.rho[idx][:, idx].max())


@dataclass
class RegularityReport:
    c1: float
    c2: float
    n_dim: float
    c_doub: float
    degenerate: bool = False


@dataclass
class QuasiMetricReport:
    ok: bool
    worst_triple: tuple | None
    worst_excess: float
    reason: str = ""


def euclidean_metric(coords: np.ndarray) -> np.ndarray:
    """The Euclidean distance matrix of an (N, d) array of points, built
    from ``_euclidean_tiles`` in row tiles, the squares added in coordinate
    order.  Every space built from coordinates takes its metric from here,
    so a metric "of its coords" is this matrix entry for entry."""
    out = np.empty((len(coords), len(coords)))
    for start, rows in _euclidean_tiles(coords):
        out[start:start + len(rows)] = rows
    return out


def _euclidean_tiles(coords: np.ndarray, tile: int = 64):
    """(start, the rows [start, start + tile) of the Euclidean metric) per
    tile of rows: per pair the squared coordinate differences added in
    coordinate order, then ``sqrt``.  Each entry is computed on its own, so
    the tiling does not change its bits; the temporaries are two tile x N
    arrays of the coords' dtype.  For d <= 7 these are the bits of numpy's
    ``(diff ** 2).sum(axis=-1)``, which adds fewer than 8 terms in order."""
    n, d = coords.shape
    for start in range(0, n, tile):
        block = coords[start:start + tile]
        diff = np.empty((len(block), n), coords.dtype)
        rows = np.empty_like(diff) if d else np.zeros_like(diff)
        for j in range(d):
            np.subtract(block[:, j, None], coords[:, j], out=diff)
            if j:
                rows += np.square(diff, out=diff)
            else:                       # the first square itself: 0 + a is a
                np.square(diff, out=rows)
        yield start, np.sqrt(rows)


def verify_quasi_metric(space: MetricMeasureSpace) -> QuasiMetricReport:
    """Check finite entries, symmetry, exact zeros on the diagonal, and the
    quasi-triangle inequality with the declared constant over all triples.

    The inequality is proved by one of two routes, named in ``reason``:
    the rounding bound of ``_coordinate_excess_bound`` for a metric that is
    ``euclidean_metric`` of the space's coords, read in O(N^2 d), or else
    the scan of every triple.  The bound lies above the scan's worst
    excess, so both routes pass and fail on the same spaces."""
    rho = space.rho
    n = space.n_points
    if not np.isfinite(rho).all():
        i, j = np.argwhere(~np.isfinite(rho))[0]
        return QuasiMetricReport(False, (int(i), int(j), -1),
                                 float(rho[i, j]), "non-finite distance")
    # a failing check builds its N x N table only to name the entry
    if not space.symmetric:
        asym = np.abs(rho - rho.T)
        i, j = np.unravel_index(np.argmax(asym), asym.shape)
        return QuasiMetricReport(False, (int(i), int(j), -1), float(asym[i, j]),
                                 "symmetry violation")
    diag = np.abs(np.diag(rho))
    if diag.max() > 0:
        k = int(np.argmax(diag))
        return QuasiMetricReport(False, (k, k, -1), float(diag.max()),
                                 "nonzero diagonal")
    # the diagonal is zero: an entry off it is not positive iff more than
    # n entries are not
    if np.count_nonzero(rho <= 0) > n:
        off = rho + np.where(np.eye(n, dtype=bool), np.inf, 0.0)
        i, j = np.unravel_index(np.argmin(off), off.shape)
        return QuasiMetricReport(False, (int(i), int(j), -1), 0.0,
                                 "zero distance off the diagonal")
    tol = 1e-12 * max(1.0, rho.max())
    bound = _coordinate_excess_bound(space)
    if bound is not None and bound <= tol:
        return QuasiMetricReport(
            True, None, 0.0, f"euclidean coords: every excess <= {bound!r}")
    with np.errstate(over="ignore"):    # K (a + b) beyond range is inf
        worst_excess, worst = _worst_triangle_excess(rho, space.quasi_const)
    if worst_excess > tol:
        return QuasiMetricReport(False, worst, worst_excess,
                                 "quasi-triangle inequality violation")
    return QuasiMetricReport(True, None, 0.0, "triple scan")


def _coordinate_excess_bound(space: MetricMeasureSpace) -> float | None:
    """An upper bound B on every excess fl(c - fl(K fl(a + b))) that
    ``_worst_triangle_excess`` computes, with a = rho(x,y), b = rho(y,z),
    c = rho(x,z), read off the coords instead of the triples; None unless
    the coords are a finite float64 (N, d) array, 1 <= K < inf and rho is
    float64 and equal to ``euclidean_metric(coords)``.

    Lemma.  Let u = 2^-53, eps = (d + 4) u, e = sqrt(d) 2^-537 and
    M = max rho.  Then every computed excess is at most
    B = 4.1 (eps + u) M + 3.1 e.

    Proof.  Let D be the exact Euclidean distance of the coords, a metric.
    In round to nearest every operation of ``euclidean_metric`` has a
    relative error of at most u, except that a square in the subnormal
    range has an absolute error of at most 2^-1075 instead (a difference
    or a sum that underflows is exact, and no step overflows, as rho is
    finite).  A sum of d nonnegative floats, in any order (here the
    coordinate order of ``_euclidean_tiles``), is within
    gamma = (d-1) u / (1 - (d-1) u) of its exact value in relative terms
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    section 3.1).  So the computed square sum lies in
    [(1-u)^3 (1-gamma) S - d 2^-1075, (1+gamma) ((1+u)^3 S + d 2^-1075)]
    around the exact S = D^2.  sqrt is monotone and subadditive, it adds
    one more factor 1 +- u, and (1+u) (1+gamma)^(1/2) 2^-537.5 <= 2^-537,
    so
        (1 - eps) D - e <= rho <= (1 + eps) D + e     (1)
    because (1+u)^(5/2) (1+gamma)^(1/2) - 1 and 1 - (1-u)^(5/2)
    (1-gamma)^(1/2) are both at most (d + 4) u while d u < 1e-3.  By (1)
    and the triangle inequality of D,
        c <= (1+eps) (D(x,y) + D(y,z)) + e
          <= (1+eps)/(1-eps) (a + b + 2e) + e.
    The scan rounds s = fl(a + b) >= (1-u)(a + b) and, for K != 1,
    p = fl(K s) >= (1-u) K s >= (1-u) s as K >= 1; so
        c - p <= ((1+eps)/(1-eps) - (1-u)^2) (a + b) + 3.01 e
              <= (2.01 eps + 2u) 2M + 3.01 e,
    and fl(c - p) is at most (1+u)(c - p) when positive, at most 0 else.
    The slack from 4.03 to 4.1 and from 3.02 to 3.1 covers the rounding
    of B itself.  QED

    B holds for every triple at once, so B <= tol proves that the scan
    would find no excess above tol; checking equality with the coords'
    metric costs O(N^2 d) instead of the scan's O(N^3)."""
    coords, rho, k_q = space.coords, space.rho, space.quasi_const
    if not (isinstance(coords, np.ndarray) and coords.dtype == np.float64
            and coords.ndim == 2 and coords.shape[0] == space.n_points
            and np.isfinite(coords).all() and rho.dtype == np.float64
            and 1.0 <= k_q < math.inf
            and all(np.array_equal(rho[start:start + len(rows)], rows)
                    for start, rows in _euclidean_tiles(coords))):
        return None
    d = coords.shape[1]
    u = 2.0 ** -53
    eps = (d + 4) * u
    return (4.1 * (eps + u) * float(rho.max())
            + 3.1 * math.sqrt(d) * 2.0 ** -537)


def _worst_triangle_excess(rho: np.ndarray, k_q: float,
                           tile: int = 64) -> tuple[float, tuple]:
    """The max over all triples of rho(x,z) - K (rho(x,y) + rho(y,z)) for a
    symmetric rho, and the triple (x, y, z) attaining it with the smallest
    x <= z, then the smallest y.

    fl(K s) is monotone in s and fl(r - t) in t, so the max over y is
    rho(x,z) - K min_y fl(rho(x,y) + rho(y,z)) bit for bit (the max for a
    negative K).  Symmetry makes the excess of (x,y,z) that of (z,y,x), so a
    tile of rows [x0, x0 + tile) reads only the columns z >= x0."""
    n = rho.shape[0]
    reduce = np.minimum if k_q >= 0 else np.maximum
    best, best_xz = -math.inf, (0, 0)
    for x0 in range(0, n, tile):
        x1 = min(x0 + tile, n)
        sums = np.empty((x1 - x0, n - x0))
        extreme = rho[x0:x1, x0:].copy()        # y = z: rho(x,z) + 0
        for y in range(n):
            # rho[y, x0:x1] is the column rho[x0:x1, y] by symmetry
            np.add(rho[y, x0:x1, None], rho[y, x0:], out=sums)
            reduce(extreme, sums, out=extreme)
        if k_q != 1:
            extreme *= k_q
        excess = np.subtract(rho[x0:x1, x0:], extreme, out=extreme)
        # a max at z < x is also at (z, x), earlier in row-major order
        flat = int(np.argmax(excess))
        if excess.flat[flat] > best:
            i, j = divmod(flat, n - x0)
            best, best_xz = float(excess.flat[flat]), (x0 + i, x0 + j)
    x, z = best_xz
    sums = rho[x] + rho[:, z]
    if k_q != 1:
        sums *= k_q
    y = int(np.argmax(rho[x, z] - sums == best))
    return best, (x, y, z)


def default_radii(space: MetricMeasureSpace) -> list:
    """Geometric grid of radii in [resolution_h, diam], ratio 1/2."""
    d = space.diam()
    h = space.resolution_h
    if d <= h:
        return [h]
    radii = []
    r = d
    while r >= h:
        radii.append(float(r))
        r *= 0.5
    return radii[::-1]


def ball_masses(space: MetricMeasureSpace, radii,
                measures=("mu", "nu")) -> np.ndarray:
    """The mass of every ball B(x, r) under each named measure, a
    (measures, points, radii) table.

    One (points, radii, N) mask holds every ball; ``masked_sums`` adds the
    balls of one member count as C-ordered rows, so each mass has the bits
    of ``weights[space.rho[x] < r].sum()``."""
    inside = space.rho[:, None, :] < np.asarray(radii, dtype=float)[:, None]
    weights = np.array([getattr(space, name) for name in measures])
    masses = masked_sums(weights, inside.reshape(-1, space.n_points))
    return masses.reshape(len(measures), space.n_points, len(radii))


def _radius_powers(radii, order: float) -> np.ndarray:
    """r ** order per radius by scalar ``**``, each in (0, inf)."""
    powers = []
    for r in radii:
        try:
            power = r ** order
        except OverflowError:
            power = math.inf
        if not 0 < power < math.inf:
            raise ValueError(f"radius {r:g} to the power {order:g} is out "
                             "of the float64 range")
        powers.append(power)
    return np.array(powers)


def check_ahlfors_regularity(space: MetricMeasureSpace, n_dim: float,
                             radii, nu_masses=None) -> RegularityReport:
    """Fit the tightest Ahlfors constants nu(B(x,r)) / r^n over the sample;
    ``nu_masses``, when given, is the (points, radii) table of nu(B(x,r)),
    as ``ball_masses`` gives it."""
    radii = list(radii)
    if not radii:
        raise EmptyRadiusList("no radii supplied")
    powers = _radius_powers(radii, n_dim)
    if nu_masses is None:
        nu_masses = ball_masses(space, radii, ("nu",))[0]
    with np.errstate(over="ignore"):    # a ratio beyond range is inf
        ratios = nu_masses / powers
    degenerate = space.n_points <= 1 or ratios.min() <= 0
    c1 = float(ratios.min())
    c2 = float(ratios.max())
    c_doub = (c2 / c1) * 2 ** n_dim if c1 > 0 else math.inf
    return RegularityReport(c1, c2, n_dim, c_doub, degenerate)


def check_growth_condition(space: MetricMeasureSpace, m: float,
                           radii=None, mu_masses=None) -> tuple[float, list]:
    """Return (C_H, non_ahlfors_balls) where C_H = max mu(B(x,r)) / r^m and
    the list collects the (x, r) with mu(B(x,r)) > r^m; ``mu_masses``, when
    given, is the (points, radii) table of mu(B(x,r)), as ``ball_masses``
    gives it."""
    if m <= 0:
        raise ValueError("growth order m must be positive")
    if radii is None:
        radii = default_radii(space)
    radii = list(radii)
    powers = _radius_powers(radii, m)
    if mu_masses is None:
        mu_masses = ball_masses(space, radii, ("mu",))[0]
    with np.errstate(over="ignore"):    # a ratio beyond range is inf
        c_h = float((mu_masses / powers).max(initial=0.0))
    xs, rs = np.nonzero(mu_masses > powers)
    return c_h, [(x, float(radii[r])) for x, r in zip(xs.tolist(),
                                                      rs.tolist())]


def _omega_captures(space: MetricMeasureSpace, non_ahlfors) -> bool:
    """True iff every ball (x, r) of the list lies inside omega."""
    if not non_ahlfors:
        return True
    xs, rs = zip(*non_ahlfors)
    inside = space.rho[list(xs)] < np.asarray(rs, dtype=float)[:, None]
    return not (inside & ~space.omega).any()


def masked_sums(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``values`` summed over the entries of each row of ``mask``, bit for
    bit ``values[np.flatnonzero(row)].sum()``: one gather of the rows in
    order of entry count, then the rows of one count sum as a C-ordered
    matrix.  A (k, N) ``values`` gives a (k, rows) table from one sort of
    the mask."""
    count = mask.sum(axis=1)
    order = np.argsort(count, kind="stable")
    mask, count = mask[order], count[order]
    # the rows of one count are a run of the sorted counts
    starts = np.flatnonzero(np.diff(count, prepend=-1))
    sizes, groups = count[starts], np.diff(starts, append=len(mask))
    values = np.asarray(values)
    out = np.zeros(values.shape[:-1] + (len(mask),))
    for weights, sums in zip(np.atleast_2d(values), np.atleast_2d(out)):
        picked = np.broadcast_to(weights, mask.shape)[mask]
        row = cell = 0
        for c, rows in zip(sizes.tolist(), groups.tolist()):
            sums[order[row:row + rows]] = \
                picked[cell:cell + rows * c].reshape(rows, c).sum(axis=1)
            row, cell = row + rows, cell + rows * c
        del picked      # freed before the next gather reuses its pages
    return out


def dist_to_complement_all(space: MetricMeasureSpace) -> np.ndarray:
    """d(x), the distance to the complement of omega, per point x."""
    outside = ~space.omega
    if not outside.any():
        raise OmegaIsWholeSpace("omega is the whole space; d(x) undefined")
    return space.rho[:, outside].min(axis=1)


def dilate(space: MetricMeasureSpace, idx, lam: float) -> np.ndarray:
    """lambda E := E union {x : dist(x, E) <= (lambda - 1) diam(E)}."""
    idx = np.asarray(idx)
    if idx.size == 0:
        raise EmptySet("cannot dilate the empty set")
    if lam < 1.0:
        raise ValueError("dilation parameter must be >= 1")
    reach = (lam - 1.0) * space.set_diam(idx)
    dists = space.rho[:, idx].min(axis=1)
    mask = dists <= reach
    mask[idx] = True
    return np.flatnonzero(mask)


# ---------------------------------------------------------------------------
# JSON space files


def space_to_json(space: MetricMeasureSpace) -> dict:
    doc = {
        "points": list(space.points),
        "nu": space.nu.tolist(),
        "mu": space.mu.tolist(),
        "omega": [space.points[i] for i in np.flatnonzero(space.omega)],
        "quasi_const": space.quasi_const,
        "resolution_h": space.resolution_h,
    }
    # a rho edited after construction is no longer its coords' metric
    if space.coords is not None and np.array_equal(
            space.rho, euclidean_metric(space.coords)):
        doc["metric"] = {"type": "euclidean", "coords": space.coords.tolist()}
    else:
        doc["metric"] = {"type": "explicit", "matrix": space.rho.tolist()}
    return doc


def _number(doc: dict, key: str, default, kind: str = "space",
            least: float = -math.inf) -> float:
    """Field ``key`` of a ``kind`` document, a finite number of at least
    ``least``, as a float."""
    value = doc.get(key, default)
    if type(value) not in (int, float) or \
            not (abs(value) <= sys.float_info.max and value >= least):
        floor = "" if least == -math.inf else f" of at least {least:g}"
        raise ValueError(f"{kind} field {key!r} must be a finite number"
                         f"{floor}, not {value!r}")
    return float(value)


def _field(doc, key: str, where: str = "space document", array=False):
    """Field ``key`` of the JSON object ``doc``, as floats with ``array``."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object")
    if key not in doc:
        raise ValueError(f"{where} has no field {key!r}")
    try:
        return np.asarray(doc[key], dtype=float) if array else doc[key]
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"space field {key!r} must be an array of "
                         "numbers") from None


def space_from_json(doc: dict) -> MetricMeasureSpace:
    """A space from its JSON document; a missing field, or one of the wrong
    type or out of range, raises ValueError naming it."""
    points, metric = _field(doc, "points"), _field(doc, "metric")
    if not (isinstance(points, list) and all(
            type(p) in (str, int, float) for p in points)
            and len(set(points)) == len(points)):
        raise ValueError("space field 'points' must be a list of distinct "
                         "point ids, each a string or a number")
    k_q = _number(doc, "quasi_const", 1.0, least=1.0)
    h = _number(doc, "resolution_h", 0.0, least=0.0)
    kind = _field(metric, "type", "space field 'metric'")
    if kind == "euclidean":
        coords = _field(metric, "coords", "space field 'metric'", True)
        if coords.ndim != 2:
            raise ValueError(
                "the euclidean coords must be an (N, d) array, one row of d "
                f"coordinates per point, not an array of shape {coords.shape}")
        if not np.isfinite(coords).all():
            raise ValueError("the euclidean coords have non-finite entries")
        with np.errstate(over="ignore"):    # an inf distance is refused below
            rho = euclidean_metric(coords)
    elif kind == "explicit":
        rho = _field(metric, "matrix", "space field 'metric'", True)
        coords = None
    else:
        raise ValueError(f"unknown metric type {kind!r}")
    n, nu, mu = len(points), *(_field(doc, k, array=True) for k in ("nu", "mu"))
    if rho.shape != (n, n) or nu.shape != (n,) or mu.shape != (n,):
        raise ValueError(f"{n} points, {nu.size} nu and {mu.size} mu weights "
                         f"but a {'x'.join(map(str, rho.shape))} metric")
    for name, values in (("metric", rho), ("nu", nu), ("mu", mu)):
        if not (np.isfinite(values) & (values >= 0)).all():
            raise ValueError(f"{name} entries must be finite and nonnegative")
    if mu.sum() > 1 + 1e-9:     # every bound of a certificate takes mu(X) <= 1
        raise ValueError(f"space field 'mu' must have a total mass of at most "
                         f"1, not {float(mu.sum())!r}")
    if coords is None and not np.array_equal(rho, rho.T):
        i, j = np.argwhere(rho != rho.T)[0]
        raise ValueError(f"the explicit metric is not symmetric: the distance "
                         f"from {points[i]!r} to {points[j]!r} is "
                         f"{float(rho[i, j])!r}, back {float(rho[j, i])!r}")
    loop = np.flatnonzero(np.diag(rho))
    if loop.size:
        i = loop[0]
        raise ValueError(f"point {points[i]!r} is at distance {rho[i, i]:g} "
                         "from itself")
    zero = np.argwhere((rho == 0) & ~np.eye(len(rho), dtype=bool))
    if zero.size:
        i, j = zero[0]
        raise ValueError(f"points {points[i]!r} and {points[j]!r} are distinct "
                         "but at distance 0")
    index = {p: i for i, p in enumerate(points)}
    omega = np.zeros(len(points), dtype=bool)
    ids = doc.get("omega", [])
    if not isinstance(ids, list):
        raise ValueError("space field 'omega' must be a list of point ids")
    for p in ids:
        if type(p) not in (str, int, float) or p not in index:
            raise ValueError(f"omega id {p!r} is not a point")
        omega[index[p]] = True
    return MetricMeasureSpace(rho=rho, nu=nu, mu=mu, omega=omega,
                              quasi_const=k_q, resolution_h=h, points=points,
                              coords=coords)


def load_space(path) -> MetricMeasureSpace:
    with open(path) as fh:
        return space_from_json(json.load(fh))


def save_space(space: MetricMeasureSpace, path) -> None:
    with open(path, "w") as fh:
        json.dump(space_to_json(space), fh)
