"""Calderon-Zygmund kernels of order m, the discretized operator, and the
kernel-level / testing-condition checks.

A kernel is held as a dense matrix with the diagonal already resolved by the
chosen diagonal policy; the operator acts by T f(x) = sum_y k(x,y) f(y) mu(y).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteKernelValue
from .lattice import cube_dilations
from .space import MetricMeasureSpace, _number, dist_to_complement_all

# Testing sets per product in ``check_T1``; bounds its (sets, N) temporaries.
T1_BLOCK = 64
# Rows per tile of the size fit in ``check_size_and_smoothness``.
SIZE_ROWS = 64
# Ranks per band and (anchor, rank, y) cells per block of the smoothness fit;
# bound its temporaries.
FIT_RANKS = 32
FIT_CELLS = 2 ** 16


@dataclass
class KernelSpec:
    matrix: np.ndarray          # (N, N), diagonal per policy
    m: float
    tau: float
    C_CZ: float
    delta_CZ: float = 0.5
    dominated_by_d: bool = False
    diagonal_policy: str = "zero"
    name: str = "explicit"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        if not np.isfinite(self.matrix).all():
            raise NonFiniteKernelValue("kernel matrix contains non-finite values")


def _resolve_diagonal(values: np.ndarray, space: MetricMeasureSpace,
                      policy: str, fill) -> np.ndarray:
    """Write the diagonal of ``values`` in place, per the policy."""
    if policy not in ("zero", "truncate"):
        raise ValueError(f"unknown diagonal policy {policy!r}")
    np.fill_diagonal(values, 0.0 if policy == "zero"
                     else fill(space.resolution_h))
    return values


def power_kernel(space: MetricMeasureSpace, m: float, tau: float = 1.0,
                 amplitude: float = 1.0, diagonal_policy: str = "zero",
                 delta_CZ: float = 0.5) -> KernelSpec:
    """k(x,y) = amplitude / rho(x,y)^m with the declared C_CZ fitted on the
    instance so size and smoothness hypotheses certifiably hold."""
    vals = np.where(space.rho > 0, space.rho, np.inf)
    over = np.isfinite(vals)
    with np.errstate(divide="ignore", over="ignore"):
        vals **= m
        over &= np.isinf(vals)
        np.divide(amplitude, vals, out=vals)
        # where rho^m overflows, amplitude / rho^m can still be in range:
        # take it in logs there, which keeps every other entry's bits; the
        # last log is at resolution_h, for a truncated diagonal whose h^m
        # (a scalar **, libm's pow, not numpy's) overflows
        logs = np.log(np.append(space.rho[over], space.resolution_h))
        logs = np.copysign(np.exp(np.log(abs(amplitude)) - m * logs),
                           amplitude)
        vals[over] = logs[:-1]
        vals = _resolve_diagonal(vals, space, diagonal_policy, lambda h: (
            amplitude / h ** m if np.isfinite(np.float64(h) ** m) else
            logs[-1]))
    spec = KernelSpec(vals, m=m, tau=tau, C_CZ=1.0, delta_CZ=delta_CZ,
                      name="power", params={"amplitude": amplitude},
                      diagonal_policy=diagonal_policy)
    rep = check_size_and_smoothness(spec, space)
    spec.C_CZ = max(rep.c_size, rep.c_smooth, amplitude)
    return spec


def bergman_kernel(space: MetricMeasureSpace, m: float, tau: float = 1.0,
                   diagonal_policy: str = "zero",
                   delta_CZ: float = 0.5) -> KernelSpec:
    """Bergman-model kernel k(x,y) = 1 / max(d(x), d(y))^m (d = distance to
    the complement of omega); saturates the domination bound."""
    d = dist_to_complement_all(space)
    dm = np.maximum(d[:, None], d[None, :]) ** m
    with np.errstate(divide="ignore"):
        vals = np.where(dm > 0, 1.0 / np.where(dm > 0, dm, 1.0), np.inf)
    if not np.isfinite(vals).all():
        # points with d = 0 on both slots: bound is infinite there; the model
        # kernel is only meaningful when supp mu stays inside omega, clip
        vals = np.where(np.isfinite(vals), vals, 0.0)
    vals = _resolve_diagonal(vals, space, diagonal_policy, lambda h: 0.0)
    spec = KernelSpec(vals, m=m, tau=tau, C_CZ=1.0, delta_CZ=delta_CZ,
                      dominated_by_d=True, name="bergman",
                      diagonal_policy=diagonal_policy)
    rep = check_size_and_smoothness(spec, space)
    spec.C_CZ = max(rep.c_size, rep.c_smooth, 1.0)
    return spec


def constant_kernel(space: MetricMeasureSpace, value: float = 1.0,
                    m: float = 1.0, tau: float = 1.0,
                    diagonal_policy: str = "zero") -> KernelSpec:
    vals = np.full((space.n_points, space.n_points), value)
    vals = _resolve_diagonal(vals, space, diagonal_policy, lambda h: value)
    return KernelSpec(vals, m=m, tau=tau, C_CZ=max(abs(value), 1e-300),
                      name="constant", params={"value": value},
                      diagonal_policy=diagonal_policy)


def zero_kernel(space: MetricMeasureSpace, m: float = 1.0,
                tau: float = 1.0) -> KernelSpec:
    return KernelSpec(np.zeros((space.n_points, space.n_points)), m=m, tau=tau,
                      C_CZ=0.0, name="zero")


def explicit_kernel(space: MetricMeasureSpace, matrix, m: float, tau: float,
                    C_CZ: float | None = None,
                    delta_CZ: float = 0.5) -> KernelSpec:
    matrix = np.asarray(matrix, dtype=float)
    spec = KernelSpec(matrix, m=m, tau=tau, C_CZ=1.0 if C_CZ is None else C_CZ,
                      delta_CZ=delta_CZ, name="explicit")
    if C_CZ is None:
        rep = check_size_and_smoothness(spec, space)
        spec.C_CZ = max(rep.c_size, rep.c_smooth)
    return spec


# ---------------------------------------------------------------------------
# hypothesis checks


@dataclass
class SizeSmoothnessReport:
    c_size: float
    c_smooth: float
    declared: float


def check_size_and_smoothness(kernel: KernelSpec,
                              space: MetricMeasureSpace) -> SizeSmoothnessReport:
    """Fit the smallest size constant |k| * rho^m over all pairs x != y,
    in tiles of ``SIZE_ROWS`` rows, and the smallest smoothness constant
    over the admissible triples rho(x,x') <= delta rho(x,y) with x', y in
    supp mu and the anchor x anywhere in X.

    The smoothness constant is therefore a constant on supp mu with any
    anchor, not on all of X, and that is what the proof reads.  Every use
    of C_CZ as a smoothness constant in the certificate is a mean-zero
    step: the far bound (``certify._far_coefficient``) and the extension
    error of the transit bound subtract k(c, y), c a cube center that may
    carry no mass, while the other two points are weighted by phi mu or
    psi mu, so a mu-null x' or y adds nothing.  The anchor ranges over all
    of X, so every center of every lattice is covered and the fit can
    still run at kernel build.  (The tail oscillation of
    ``lemmas.pseudo_bmo_check`` compares two points of supp mu.)  C_CZ
    covers smoothness in both kernel variables: a kernel that is not
    symmetric is fitted again as its transpose, on the same triples."""
    rho = space.rho
    k = kernel.matrix
    c_size = 0.0
    for start in range(0, space.n_points, SIZE_ROWS):  # off the diagonal
        with np.errstate(over="ignore", invalid="ignore"):
            ratios = rho[start:start + SIZE_ROWS] ** kernel.m
            ratios *= np.abs(k[start:start + SIZE_ROWS])
        np.fill_diagonal(ratios[:, start:], 0.0)
        top = ratios.max(initial=c_size)
        c_size = math.inf if np.isnan(top) else float(top)  # NaN: 0 * inf
    c_smooth = _smoothness_fit(k, space, kernel.m, kernel.tau, kernel.delta_CZ)
    if not np.array_equal(k, k.T):
        c_smooth = max(c_smooth, _smoothness_fit(
            k.T, space, kernel.m, kernel.tau, kernel.delta_CZ))
    return SizeSmoothnessReport(c_size, c_smooth, kernel.C_CZ)


def _smoothness_fit(k: np.ndarray, space: MetricMeasureSpace, m: float,
                    tau: float, delta: float) -> float:
    """max |k(x,y) - k(x',y)| rho(x,y)^(tau+m) / rho(x,x')^tau over the
    triples with x', y in supp mu, x anywhere in X and
    0 < rho(x,x') <= delta rho(x,y); a NaN ratio (0 * inf, or 0 / 0 from
    an underflowed rho^tau) counts as +inf.

    Only supp mu is read for x' and y because the proof reads the kernel
    only through mu-weighted pairings, and its one use of smoothness away
    from supp mu is the anchor: a cube center, which may carry no mass and
    is subtracted in the mean-zero step.  So the result is a smoothness
    constant on supp mu with any anchor, not on all of X; with mu > 0
    everywhere it is the fit over all triples, bit for bit.

    One stable sort of rho(x, supp mu) by rows puts the support in
    distance order from every anchor x.  In that order the admissible y of
    the x' of rank j are a suffix, the columns from ``first[x, j]`` on,
    whose reach fl(delta rho(x,y)) is at least rho(x,x'), and the ranks
    with a positive distance and a nonempty suffix are consecutive.
    ``_suffix_starts`` finds every ``first`` at once, by merging each
    row's distances with its reaches in one stable argsort.  The
    fit takes them ``FIT_RANKS`` ranks at a time for every anchor, several
    anchors of like suffix width per block of about ``FIT_CELLS``
    (anchor, rank, y) cells, so only a thin staircase of each block is not
    admissible.  Per row it takes the max of
    fl(|k(x,y) - k(x',y)| * rho(x,y)^(tau+m)) over the suffix and divides
    it once by rho(x,x')^tau: fl(u / q) is monotone in u, so this is the
    max of the triple loop's ratios bit for bit, and the +inf rule keeps
    it so when q is 0 or inf."""
    supp = np.flatnonzero(space.mu > 0)
    if not (delta > 0 and supp.size):
        return 0.0                      # no triple is admissible
    rows = space.rho[:, supp]           # (N, S): anchors by support points
    n, s = rows.shape
    order = np.argsort(rows, axis=1, kind="stable")
    dist = np.take_along_axis(rows, order, axis=1)  # NaN distances last
    first = _suffix_starts(dist, delta)
    z = (dist <= 0).sum(axis=1)
    end = s - np.isnan(dist).sum(axis=1)
    live = ((first < end[:, None]) & (dist > 0)).sum(axis=1)
    top = int(live.max(initial=0))
    near = k[supp][:, supp].ravel()     # k(x', y)
    anchor = k[:, supp].ravel()         # k(x, y)
    best, e = 0.0, tau + m
    with np.errstate(all="ignore"):
        for i0 in range(0, top, FIT_RANKS):
            xs = np.flatnonzero(live > i0)
            width = end[xs] - first[xs, z[xs] + i0]
            xs = xs[np.argsort(width, kind="stable")]
            group = max(1, FIT_CELLS // (FIT_RANKS * int(width.max())))
            ranks = np.arange(i0, min(i0 + FIT_RANKS, top))
            for g in range(0, len(xs), group):
                x = xs[g:g + group, None]
                j = z[x] + np.minimum(ranks, live[x] - 1)
                ratio = _band_max(near, anchor, order, dist, end[x],
                                  first[x, j], x, j, e, tau)
                if ratio > best:
                    best = ratio
                elif ratio != ratio:
                    return math.inf
    return best


def _suffix_starts(dist: np.ndarray, delta: float) -> np.ndarray:
    """first[x, j] = searchsorted(reach[x], dist[x, j], side="left") per
    sorted row of ``dist`` (NaN last), reach = delta dist, -inf where
    dist <= 0.  A block of about ``FIT_CELLS`` / 2 cells goes through one
    stable argsort of each row's queries followed by its reaches, so a
    reach equal to a query sorts after it, and query j has j queries and
    first[x, j] reaches before it."""
    n, s = dist.shape
    first = np.empty((n, s), dtype=np.int32)
    block = max(1, FIT_CELLS // (2 * s))
    for x in range(0, n, block):
        row = dist[x:x + block]
        with np.errstate(over="ignore", invalid="ignore"):
            reach = delta * row
        reach[row <= 0] = -np.inf       # no y at distance 0 is admissible
        merged = np.argsort(np.concatenate((row, reach), axis=1), axis=1,
                            kind="stable")
        first[x:x + block] = np.flatnonzero(merged < s).reshape(-1, s) \
            % (2 * s) - np.arange(s)
    return first


def _band_max(near, anchor, order, dist, end, first, x, j, e, tau) -> float:
    """The smoothness fit of the anchors x (G, 1) over their ranks j (G, J);
    a rank past an anchor's last is that last one again.  ``near`` and
    ``anchor`` are k on supp x supp and on X x supp, flattened.  The block
    holds the last W columns of each anchor's order, W the widest suffix,
    and ``reduceat`` takes row (g, i) over its last end - first columns
    only."""
    s = dist.shape[1]
    width = (end - first).ravel()
    wide = int(width.max())
    c = np.maximum(end - wide + np.arange(wide), 0)
    ys = order[x, c]
    block = near.take((order[x, j] * s)[:, :, None] + ys[:, None, :])
    np.subtract(anchor[x * s + ys][:, None, :], block, out=block)
    np.abs(block, out=block)
    block *= (dist[x, c] ** e)[:, None, :]
    stops = np.arange(wide, block.size + 1, wide)
    bounds = np.empty(2 * len(stops) - 1, dtype=np.intp)
    bounds[0::2] = stops - width
    bounds[1::2] = stops[:-1]
    row_max = np.maximum.reduceat(block.ravel(), bounds)[0::2]
    return float((row_max.reshape(j.shape) / dist[x, j] ** tau).max())


@dataclass
class DominationReport:
    pairwise_ok: bool
    worst_pair: tuple | None
    worst_ratio: float

    @property
    def passed(self) -> bool:
        return self.pairwise_ok


def check_d_domination(kernel: KernelSpec,
                       space: MetricMeasureSpace) -> DominationReport:
    """Verify |k(x,y)| <= 1 / max(d(x)^m, d(y)^m) pairwise."""
    d = dist_to_complement_all(space)       # raises OmegaIsWholeSpace
    m = kernel.m
    dm = np.maximum(d[:, None], d[None, :]) ** m
    with np.errstate(divide="ignore"):
        bound = np.where(dm > 0, 1.0 / np.where(dm > 0, dm, 1.0), np.inf)
    k = np.abs(kernel.matrix)
    excess = k - bound
    ok = bool((excess <= 1e-12).all())
    worst = None
    ratio = 0.0
    if not ok:
        i, j = np.unravel_index(np.argmax(excess), excess.shape)
        worst = (int(i), int(j))
        ratio = float(k[i, j] / bound[i, j]) if bound[i, j] > 0 else math.inf
    return DominationReport(ok, worst, ratio)


@dataclass
class T1Report:
    A: float
    per_cube: list              # (label, mu, ratio_direct, ratio_adjoint)


def on_support(kernel: KernelSpec, space: MetricMeasureSpace) -> tuple:
    """(supp, K on supp mu x supp mu).  A mu-weighted pairing reads K only
    there: a point off supp mu adds nothing to f mu or to an L2(mu) norm.
    With mu > 0 everywhere ``supp`` is ``slice(None)`` and K the matrix
    itself, so every product keeps its arrays and views (a copied K takes
    another BLAS path and moves the last bits)."""
    supp = np.flatnonzero(space.mu > 0)
    if supp.size == space.n_points:
        return slice(None), kernel.matrix
    return supp, kernel.matrix[np.ix_(supp, supp)]


def _scaled(k: np.ndarray) -> tuple:
    """(K / 2^e, e), 2^e the least power of two above max|K|.  The squares
    of the norm and of the testing constant are taken of K / 2^e, where
    they cannot overflow, and scaled back by 4^e: a power of two commutes
    with every rounding, so a result in range keeps its bits."""
    e = math.frexp(float(np.abs(k).max(initial=0.0)))[1]
    return np.ldexp(k, -e), e


def check_T1(kernel: KernelSpec, space: MetricMeasureSpace, lattice,
             dilations=(1.2, 1.4, 1.5), lambda_bmo: float = 3.0) -> T1Report:
    """Fit the testing constant A over all lattice cubes and their dilations:
    ||T chi_Q||^2 <= A mu(Q) and same for the adjoint.

    The sets are built on supp mu only (``cube_dilations`` at its points),
    as chi_E mu and an L2(mu) norm read nothing else: two sets equal on
    supp mu are one test, which keeps the label of its first cube and
    family, and ``per_cube`` has one entry per distinct set of positive
    mass.  Distinct sets go ``T1_BLOCK`` at a time, one product for T and
    one for T* per block, against K on supp mu x supp mu.  Where K is
    symmetric there, T* is T and the one product serves both."""
    lams = tuple(dilations) + (lambda_bmo,)
    supp, k = on_support(kernel, space)
    k, e = _scaled(k)
    mu = space.mu[supp]
    sets = cube_dilations(lattice, lams, supp).reshape(-1, mu.size)
    cids, suffixes = lattice.ids.tolist(), [""] + [f"x{lam}" for lam in lams]

    def label(s):
        cube, family = divmod(s, len(suffixes))
        return f"Q{cids[cube]}{suffixes[family]}"

    # the first set of each distinct bit pattern, in set order; unique over
    # the rows as void scalars, as unique(axis=0) sorted them ten times slower
    keys = np.packbits(sets, axis=1)
    distinct = np.sort(np.unique(keys.view(f"V{keys.shape[1]}").ravel(),
                                 return_index=True)[1]).tolist()
    symmetric = np.array_equal(k, k.T)
    per_cube = []
    for b in range(0, len(distinct), T1_BLOCK):
        block = distinct[b:b + T1_BLOCK]
        # in Fortran order: in C order the sums and products take other
        # paths and move A in its last bits
        chi_mu = np.multiply(sets[block], mu, order="F")
        mass = chi_mu.sum(axis=1).tolist()
        with np.errstate(over="ignore"):    # an A beyond range is inf
            direct = np.ldexp(np.square(chi_mu @ k.T) @ mu, 2 * e).tolist()
            adjoint = direct if symmetric else \
                np.ldexp(np.square(chi_mu @ k) @ mu, 2 * e).tolist()
        per_cube += [(label(s), m_s, d / m_s, a / m_s) for s, m_s, d, a
                     in zip(block, mass, direct, adjoint) if m_s > 0]
    return T1Report(max([0.0] + [r for c in per_cube for r in c[2:]]),
                    per_cube)


def operator_norm(kernel: KernelSpec, space: MetricMeasureSpace,
                  tol: float = 1e-8, seed: int = 0):
    """Power iteration for the L2(mu) -> L2(mu) operator norm, at most
    10000 steps, on supp mu against K on supp mu x supp mu
    (``on_support``): the start vector is drawn on all N points and
    restricted, and the norm reads nothing else.

    Returns (norm, converged)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    supp, k = on_support(kernel, space)
    k, e = _scaled(k)
    mu = space.mu[supp]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(space.n_points)[supp]
    nv = float(np.sqrt(np.sum(v ** 2 * mu)))
    if nv == 0 or not np.any(k):
        return 0.0, True
    v /= nv
    lam_old, converged = 0.0, False
    for _ in range(10000):
        tv = k @ (v * mu)
        lam = float(np.sum(tv * tv * mu))     # Rayleigh quotient of T*T
        w = k.T @ (tv * mu)
        nw = float(np.sqrt(np.sum(w ** 2 * mu)))
        if nw == 0:
            return 0.0, True
        v = w / nw
        converged = abs(lam - lam_old) <= tol * max(lam, 1e-300)
        lam_old = lam
        if converged:
            break
    with np.errstate(over="ignore"):        # a norm beyond range is inf
        return float(np.ldexp(math.sqrt(lam_old), e)), converged


def spectral_norm(matrix: np.ndarray) -> float:
    """Largest singular value; 0 for an empty matrix."""
    from scipy.linalg import svdvals
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    return float(svdvals(matrix)[0]) if matrix.size else 0.0


def operator_norm_dense(kernel: KernelSpec, space: MetricMeasureSpace) -> float:
    """The L2(mu) operator norm as the spectral norm of the Euclidean matrix
    D^(1/2) K D^(1/2), D = diag(mu)."""
    s = np.sqrt(space.mu)
    return spectral_norm(s[:, None] * kernel.matrix * s[None, :])


# ---------------------------------------------------------------------------
# kernel files


def kernel_from_json(doc: dict, space: MetricMeasureSpace) -> KernelSpec:
    """A kernel from its JSON document; a field of the wrong type or out of
    range raises ValueError naming it."""
    if not isinstance(doc, dict):
        raise ValueError("kernel document must be a JSON object")
    ktype, params = doc.get("type"), doc.get("params", {})
    if not isinstance(params, dict):
        raise ValueError("kernel field 'params' must be a JSON object")
    m, tau = (_number(doc, key, 1.0, "kernel") for key in ("m", "tau"))
    for key, value in (("m", m), ("tau", tau)):
        if value <= 0:
            raise ValueError(f"kernel field {key!r} must be positive, "
                             f"not {value!r}")
    if m + tau >= 646:
        raise ValueError("kernel fields 'm' + 'tau' must be below 646, "
                         "where 3^(m + tau) of the far bound overflows")
    delta = _number(doc, "delta_CZ", 0.5, "kernel")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"kernel field 'delta_CZ' must lie in (0, 1], "
                         f"not {delta!r}")
    policy = doc.get("diagonal_policy", "zero")
    if policy not in ("zero", "truncate"):
        raise ValueError(f"unknown diagonal policy {policy!r}")
    if ktype == "power":
        amplitude = _number(params, "amplitude", 1.0, "kernel")
        try:
            return power_kernel(space, m, tau, amplitude=amplitude,
                                diagonal_policy=policy, delta_CZ=delta)
        except (NonFiniteKernelValue, ArithmeticError):
            raise ValueError(f"kernel fields 'amplitude' = {amplitude!r} and "
                             f"'m' = {m!r} overflow: amplitude / rho^m is not "
                             "finite on every pair") from None
    if ktype == "bergman":
        return bergman_kernel(space, m, tau, policy, delta)
    if ktype == "constant":
        return constant_kernel(space,
                               value=_number(params, "value", 1.0, "kernel"),
                               m=m, tau=tau, diagonal_policy=policy)
    if ktype == "zero":
        return zero_kernel(space, m=m, tau=tau)
    if ktype == "explicit":
        c_cz = doc.get("C_CZ")
        if c_cz is not None:
            c_cz = _number(doc, "C_CZ", None, "kernel", least=0.0)
            if not math.isfinite(c_cz * 3.0 ** (m + tau)):
                raise ValueError(f"kernel field 'C_CZ' = {c_cz!r} is too "
                                 "large: C_CZ 3^(m + tau) of the far bound "
                                 "overflows")
        try:
            matrix = np.asarray(doc.get("matrix"), dtype=float)
            if matrix.shape != (space.n_points,) * 2:
                raise ValueError
        except (TypeError, ValueError, OverflowError):
            raise ValueError("kernel field 'matrix' must be an N x N array "
                             "of numbers, N the number of points") from None
        return explicit_kernel(space, matrix, m=m, tau=tau, C_CZ=c_cz,
                               delta_CZ=delta)
    raise ValueError(f"unknown kernel type {ktype!r}")


def load_kernel(path, space: MetricMeasureSpace) -> KernelSpec:
    with open(path) as fh:
        return kernel_from_json(json.load(fh), space)
