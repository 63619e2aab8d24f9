"""Kernel families, operator application, testing condition, norms."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from czkit import kernels
from czkit.errors import NonFiniteKernelValue, OmegaIsWholeSpace
from czkit.kernels import (bergman_kernel, check_d_domination,
                           check_size_and_smoothness, check_T1,
                           constant_kernel, explicit_kernel, kernel_from_json,
                           operator_norm, operator_norm_dense, power_kernel,
                           zero_kernel)
from czkit.lattice import cube_dilations
from czkit.harness import make_scenario
from czkit.lattice import build_lattice, classify_terminal_transit
from czkit.examples import generate_example
from czkit.space import MetricMeasureSpace, dist_to_complement_all
from conftest import kernel_doc, explicit_space, grid_space, line_space


@pytest.fixture(scope="module")
def bergman_setup():
    space, info = generate_example("bergman_disc_model")
    kern = bergman_kernel(space, m=info["m"], tau=info["tau"])
    return space, kern


# ---------------------------------------------------------------------------
# application


def test_averaging_kernel_on_ones():
    space = line_space(8)
    kern = constant_kernel(space, 1.0)
    out = kern.matrix @ (np.ones(8) * space.mu)
    # diagonal omitted: Tf(x) = 1 - mu({x})
    assert np.allclose(out, 1.0 - space.mu)


def test_apply_matches_dense_oracle():
    space = line_space(8)
    kern = power_kernel(space, m=1.0)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(8)
    dense = np.zeros((8, 8))
    for x in range(8):
        for y in range(8):
            if x != y:
                dense[x, y] = 1.0 / space.rho[x, y]
    expect = dense @ (f * space.mu)
    assert np.allclose(kern.matrix @ (f * space.mu), expect)


def test_non_finite_kernel_rejected(line8):
    mat = np.ones((8, 8))
    mat[0, 1] = np.inf
    with pytest.raises(NonFiniteKernelValue):
        explicit_kernel(line8, mat, m=1.0, tau=1.0)


# ---------------------------------------------------------------------------
# size and smoothness


def test_power_kernel_size_constant_is_one(line8):
    kern = power_kernel(line8, m=1.0)
    rep = check_size_and_smoothness(kern, line8)
    assert rep.c_size == pytest.approx(1.0)
    assert max(rep.c_size, rep.c_smooth) <= rep.declared * (1 + 1e-12)


def test_zero_kernel_constants_vanish(line8):
    rep = check_size_and_smoothness(zero_kernel(line8), line8)
    assert rep.c_size == 0.0
    assert rep.c_smooth == 0.0


def test_smoothness_fit_brute_force():
    space = line_space(6)
    kern = power_kernel(space, m=1.0, tau=1.0)
    rep = check_size_and_smoothness(kern, space)
    # independent triple loop over the admissible smoothness regime
    best = 0.0
    rho = space.rho
    k = kern.matrix
    for x in range(6):
        for xp in range(6):
            for y in range(6):
                if x == y or xp == y or x == xp:
                    continue
                if rho[x, xp] <= kern.delta_CZ * rho[x, y]:
                    diff = abs(k[x, y] - k[xp, y])
                    best = max(best,
                               diff * rho[x, y] ** 2 / rho[x, xp])
    assert rep.c_smooth == pytest.approx(best)


def _reference_fit(k, rho, mu, m, tau, delta):
    """A per-y loop over all (x, x'): (c_size, c_smooth) of the first kernel
    variable, as the triple loop's floating-point expressions, with x' and
    y in supp mu and the anchor x anywhere; a NaN ratio counts as +inf."""
    n = len(rho)
    off = ~np.eye(n, dtype=bool)
    c_size = float(np.max(np.abs(k[off]) * rho[off] ** m)) if n > 1 else 0.0
    c_smooth = 0.0
    supp = np.flatnonzero(mu > 0)
    near = rho[:, supp]                                  # rho(x, x')
    near_tau, positive = near ** tau, near > 0
    for y in supp:
        col, ry = k[:, y], rho[:, y, None]
        diff = np.abs(col[:, None] - col[None, supp])    # (x, x')
        admissible = (near <= delta * ry) & (ry > 0) & positive
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratio = diff * ry ** (tau + m) / near_tau
        ratio[np.isnan(ratio)] = np.inf
        c_smooth = max(c_smooth,
                       float(ratio.max(where=admissible, initial=0.0)))
    return c_size, c_smooth


def _assert_fit_matches_reference(kernel, space):
    k, rho = kernel.matrix, space.rho
    args = (space.mu, kernel.m, kernel.tau, kernel.delta_CZ)
    c_size, c_smooth = _reference_fit(k, rho, *args)
    if not np.array_equal(k, k.T):
        c_smooth = max(c_smooth, _reference_fit(k.T, rho, *args)[1])
    rep = check_size_and_smoothness(kernel, space)
    assert rep.c_size.hex() == c_size.hex()
    assert rep.c_smooth.hex() == c_smooth.hex()


@pytest.mark.parametrize("example, params", [
    ("uniform_grid", {}), ("line_in_plane", {}), ("cantor_measure", {}),
    ("bergman_disc_model", {}), ("line_in_plane", {"n": 21}),
    ("cantor_measure", {"level": 6}),
    ("bergman_disc_model",
     {"n_ring": 64, "n_cluster": 8, "n_boundary": 32})])
def test_smoothness_fit_matches_reference_on_examples(example, params):
    sc = make_scenario(example, example_params=params)
    _assert_fit_matches_reference(sc.kernel, sc.space)


def test_smoothness_fit_matches_reference_on_explicit_metric():
    space = explicit_space()
    rng = np.random.default_rng(5)
    _assert_fit_matches_reference(power_kernel(space, m=1.0, tau=0.7), space)
    _assert_fit_matches_reference(
        explicit_kernel(space, rng.standard_normal((36, 36)), m=1.5, tau=0.5,
                        C_CZ=1.0), space)


@given(st.integers(2, 60), st.integers(0, 2**32 - 1),
       st.sampled_from([0.5, 1.0, 1.5, np.log(2) / np.log(3)]),
       st.sampled_from([0.3, 1.0, 2.0]), st.sampled_from([0.25, 0.5, 1.0]),
       st.booleans(), st.booleans(), st.sampled_from([1, 2, 3, 32]),
       st.sampled_from([1, 2, 3, 200, 2 ** 16]),
       st.sampled_from(["all", "random", "one", "none"]))
@settings(max_examples=60, deadline=None)
def test_smoothness_fit_matches_reference_random(n, seed, m, tau, delta,
                                                 asymmetric, zeros, ranks,
                                                 cells, support):
    # random non-symmetric kernels on tied, possibly asymmetric distances
    # with possibly zero off-diagonal entries, under a mu that is positive
    # everywhere, on a random part of the points, on one point or nowhere;
    # bands of 1-3 ranks and blocks of 1-3 cells put a band or block
    # boundary after every rank or anchor, 200 cells batch a few anchors
    # per block
    rng = np.random.default_rng(seed)
    rho = rng.integers(1, 5, (n, n)).astype(float) * 0.5
    if not asymmetric:
        rho = np.triu(rho, 1) + np.triu(rho, 1).T
    if zeros:
        rho[rng.random((n, n)) < 0.2] = 0.0
    np.fill_diagonal(rho, 0.0)
    held = {"all": np.ones(n, dtype=bool), "random": rng.random(n) < 0.5,
            "one": np.arange(n) == rng.integers(n),
            "none": np.zeros(n, dtype=bool)}[support]
    space = MetricMeasureSpace(rho=rho, nu=np.ones(n), mu=held / n,
                               omega=np.zeros(n, dtype=bool), resolution_h=0.5)
    mat = rng.integers(-3, 4, (n, n)) * rng.choice([1.0, 0.1, 1 / 3], (n, n))
    kern = explicit_kernel(space, mat, m=m, tau=tau, C_CZ=1.0)
    kern.delta_CZ = delta
    with mock.patch.object(kernels, "FIT_RANKS", ranks), \
            mock.patch.object(kernels, "FIT_CELLS", cells):
        _assert_fit_matches_reference(kern, space)
        c_smooth = check_size_and_smoothness(kern, space).c_smooth
    if support == "none" or (support == "one" and delta < 1):
        # no x' != y in supp mu: only x' = y, which delta < 1 rules out
        assert c_smooth == 0.0


def test_smoothness_fit_reads_x_prime_and_y_on_supp_mu_only():
    # line_in_plane: mu on the middle row of a 5 x 5 grid. The fit reads
    # k(x', y) and k(x, y) with x', y in supp mu: an entry with both points
    # off supp mu is never read, in either kernel variable, and the fit of
    # the first variable reads no column off supp mu
    space, info = generate_example("line_in_plane", n=5)
    kern = power_kernel(space, m=info["m"], tau=info["tau"])
    null = space.mu == 0
    base = check_size_and_smoothness(kern, space).c_smooth
    args = (info["m"], info["tau"], kern.delta_CZ)
    first = kernels._smoothness_fit(kern.matrix, space, *args)
    rng = np.random.default_rng(3)
    edited = kern.matrix.copy()
    edited[np.ix_(null, null)] = rng.standard_normal((null.sum(),) * 2) * 1e3
    edit = explicit_kernel(space, edited, m=info["m"], tau=info["tau"],
                           C_CZ=1.0)
    assert check_size_and_smoothness(edit, space).c_smooth.hex() == base.hex()
    edited[:, null] = rng.standard_normal((space.n_points, null.sum())) * 1e3
    assert kernels._smoothness_fit(edited, space, *args).hex() == first.hex()
    # a mu-null anchor x next to the line, against the farthest y in
    # supp mu, is read
    off, on = np.flatnonzero(null), np.flatnonzero(~null)
    x = off[space.rho[np.ix_(off, on)].min(axis=1).argmin()]
    y = on[space.rho[x, on].argmax()]
    edited = kern.matrix.copy()
    edited[x, y] = edited[y, x] = 1e3
    edit = explicit_kernel(space, edited, m=info["m"], tau=info["tau"],
                           C_CZ=1.0)
    assert check_size_and_smoothness(edit, space).c_smooth > base


@pytest.mark.parametrize("scale, m, tau", [
    (1e160, 1.0, 1.0),      # rho(0,5)^2 = 2.5e321 overflows
    (1e-170, 1.0, 2.0)])    # rho^tau underflows to 0 for the nearest x'
def test_smoothness_fit_counts_nan_ratios_as_inf(scale, m, tau):
    # a 6-point line, kernel all ones but k(0,5) = k(5,0) = 2: the zero
    # differences meet rho^(tau+m) = inf (0 * inf) or rho^tau = 0 (0 / 0),
    # and an anchor with a NaN ratio must not drop out of the max
    space = line_space(6)
    space.rho = space.rho * scale
    mat = np.ones((6, 6))
    mat[0, 5] = mat[5, 0] = 2.0
    kern = explicit_kernel(space, mat, m=m, tau=tau, C_CZ=1.0)
    assert check_size_and_smoothness(kern, space).c_smooth == math.inf
    assert explicit_kernel(space, mat, m=m, tau=tau).C_CZ == math.inf
    _assert_fit_matches_reference(kern, space)


def test_size_fit_counts_nan_ratios_as_inf():
    # k(0,5) = 0 meets rho(0,5)^2 = inf: the 0 * inf ratio is NaN, and it
    # must not turn the size constant, and with it C_CZ, into NaN
    space = line_space(6)
    space.rho = space.rho * 1e160
    mat = np.ones((6, 6))
    mat[0, 5] = mat[5, 0] = 0.0
    kern = explicit_kernel(space, mat, m=2.0, tau=1.0, C_CZ=1.0)
    assert check_size_and_smoothness(kern, space).c_size == math.inf
    assert explicit_kernel(space, mat, m=2.0, tau=1.0).C_CZ == math.inf


def test_power_kernel_entry_past_an_overflowing_power():
    # rho^m = 1e321 overflows while amplitude / rho^m = 1e-121 is in range;
    # the entry was 0. C_CZ may still be inf, as the fit takes raw powers
    space = line_space(2)
    space.rho = space.rho * 1e107
    kern = power_kernel(space, m=3.0, amplitude=1e200)
    assert kern.matrix[0, 0] == kern.matrix[1, 1] == 0.0
    assert kern.matrix[0, 1] == kern.matrix[1, 0] == pytest.approx(
        1e-121, rel=1e-12)


@pytest.mark.parametrize("delta", [1.0, 0.5, 0.3, 1e-300])
@pytest.mark.parametrize("cells", [1, 7, 2 ** 16])
def test_suffix_starts_match_per_row_searchsorted(delta, cells):
    # sorted rows on a half-integer grid, so that delta 1 and 0.5 put
    # reaches equal to queries, with zeros of both signs, negatives, tiny
    # distances, +inf and NaN; 1 and 7 cells end a block after every row
    # or every few rows
    rng = np.random.default_rng(11)
    for n, s in [(1, 1), (6, 1), (1, 9), (4, 17), (40, 9)]:
        grid = rng.integers(0, 6, (n, s)) * 0.5
        special = rng.choice([0.0, -0.0, -1.0, 1e-300, np.inf, np.nan],
                             (n, s))
        dist = np.sort(np.where(rng.random((n, s)) < 0.3, special, grid),
                       axis=1)
        want = np.empty((n, s), dtype=np.int32)
        for x, row in enumerate(dist):
            reach = delta * row
            reach[row <= 0] = -np.inf
            want[x] = np.searchsorted(reach, row, side="left")
        with mock.patch.object(kernels, "FIT_CELLS", cells):
            got = kernels._suffix_starts(dist, delta)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def _gathered_resolution_h(rho):
    """``resolution_h`` as earlier releases found it: two gathered copies."""
    n = rho.shape[0]
    off = rho[~np.eye(n, dtype=bool)] if n > 1 else np.array([1.0])
    pos = off[off > 0]
    return float(pos.min()) if pos.size else 1.0


def _gathered_size_fit(k, rho, m):
    """The size fit as earlier releases computed it, on gathered copies."""
    off = ~np.eye(rho.shape[0], dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = np.abs(k[off]) * rho[off] ** m
    return float(np.where(np.isnan(ratios), np.inf, ratios).max(initial=0))


def _copied_kernel(values, policy, fill):
    """A kernel matrix as earlier releases resolved it: a copy whose
    diagonal is set through an identity mask, then the finiteness check;
    a raise is returned as its type."""
    try:
        out = values.copy()
        out[np.eye(len(out), dtype=bool)] = 0.0 if policy == "zero" else fill()
        if not np.isfinite(out).all():
            raise NonFiniteKernelValue("")
        return out.tobytes()
    except (ArithmeticError, NonFiniteKernelValue) as exc:
        return type(exc)


def _built_kernel(build):
    try:
        return build().matrix.tobytes()
    except (ArithmeticError, NonFiniteKernelValue) as exc:
        return type(exc)


@given(st.integers(1, 130), st.integers(0, 2**32 - 1),
       st.sampled_from([0.5, 1.0, 2.0, 3.0, math.log(2) / math.log(3), 40.0]),
       st.sampled_from([0.0, 1e-300, 1e300]),
       st.sampled_from([0.0, 0.05, 0.5]))
@settings(max_examples=60, deadline=None)
def test_row_passes_match_the_gather_formulas(n, seed, m, diag, share):
    # 1 to 3 tiles of rows; off the diagonal zeros of both signs, negatives,
    # NaN, tiny and huge distances (rho^m overflows, and a zero k makes
    # 0 * inf), and a diagonal that must be ignored
    rng = np.random.default_rng(seed)
    rho = rng.random((n, n)) * 10.0 ** rng.integers(-3, 4)
    special = rng.choice([0.0, -0.0, -1.5, 1e-300, 1e300, np.inf, np.nan],
                         size=(n, n))
    rho = np.where(rng.random((n, n)) < share, special, rho)
    np.fill_diagonal(rho, diag)
    k = rng.standard_normal((n, n))
    k[rng.random((n, n)) < 0.2] = rng.choice([0.0, -0.0])
    space = MetricMeasureSpace(rho=rho, nu=np.ones(n), mu=np.zeros(n),
                               omega=np.zeros(n, dtype=bool))
    h = space.resolution_h
    assert h.hex() == _gathered_resolution_h(rho).hex()
    kern = explicit_kernel(space, k, m=m, tau=1.0, C_CZ=1.0)
    assert check_size_and_smoothness(kern, space).c_size.hex() == \
        _gathered_size_fit(k, rho, m).hex()
    amp, value = rng.uniform(0.5, 3.0), rng.standard_normal()
    with np.errstate(over="ignore", divide="ignore"):
        power = amp / np.where(rho > 0, rho, np.inf) ** m
        for policy in ("zero", "truncate"):
            assert _built_kernel(lambda: power_kernel(
                space, m, amplitude=amp, diagonal_policy=policy)) == \
                _copied_kernel(power, policy, lambda: amp / h ** m)
            assert _built_kernel(lambda: constant_kernel(
                space, value, diagonal_policy=policy)) == \
                _copied_kernel(np.full((n, n), value), policy, lambda: value)


@pytest.mark.parametrize("off", [np.inf, 0.0, -1.0, np.nan, 2.0])
def test_resolution_h_edge_cases(off):
    # +inf as the only positive distance gives inf, no positive one gives
    # 1.0, and the small positive diagonal is never read
    rho = np.array([[0.25, off], [off, 0.25]])
    space = MetricMeasureSpace(rho=rho, nu=np.ones(2), mu=np.zeros(2),
                               omega=np.zeros(2, dtype=bool))
    assert space.resolution_h == _gathered_resolution_h(rho) == \
        (off if off > 0 else 1.0)
    one = MetricMeasureSpace(rho=rho[:1, :1], nu=np.ones(1), mu=np.zeros(1),
                             omega=np.zeros(1, dtype=bool))
    assert one.resolution_h == 1.0


@pytest.mark.parametrize("policy", ["zero", "truncate"])
def test_bergman_kernel_diagonal_policies(policy):
    space, info = generate_example("bergman_disc_model")
    d = dist_to_complement_all(space)
    dm = np.maximum(d[:, None], d[None, :]) ** info["m"]
    want = np.where(dm > 0, 1.0 / np.where(dm > 0, dm, 1.0), 0.0)
    assert _built_kernel(lambda: bergman_kernel(
        space, m=info["m"], diagonal_policy=policy)) == \
        _copied_kernel(want, policy, lambda: 0.0)


def test_smoothness_fit_reads_second_kernel_variable():
    # k(x, y) = g(y): smooth (constant) in x, rough in y
    space = line_space(8)
    g = np.random.default_rng(4).standard_normal(8)
    mat = np.tile(g, (8, 1))
    kern = explicit_kernel(space, mat, m=1.0, tau=1.0, C_CZ=1.0)
    args = (space.mu, 1.0, 1.0, kern.delta_CZ)
    first = _reference_fit(mat, space.rho, *args)[1]
    second = _reference_fit(mat.T, space.rho, *args)[1]
    assert first == 0.0 and second > 0.0
    assert check_size_and_smoothness(kern, space).c_smooth == second
    assert explicit_kernel(space, mat, m=1.0, tau=1.0).C_CZ >= second


# ---------------------------------------------------------------------------
# Bergman domination


def test_bergman_model_kernel_dominates(bergman_setup):
    space, kern = bergman_setup
    rep = check_d_domination(kern, space)
    assert rep.pairwise_ok


def test_zero_kernel_dominates(bergman_setup):
    space, _ = bergman_setup
    kern = zero_kernel(space)
    kern.dominated_by_d = True
    assert check_d_domination(kern, space).pairwise_ok


def test_domination_needs_proper_omega(line8):
    space = line_space(8, omega=range(8))
    kern = power_kernel(space, m=1.0)
    with pytest.raises(OmegaIsWholeSpace):
        check_d_domination(kern, space)


# ---------------------------------------------------------------------------
# T1 testing condition


def _lattice(space):
    lat = build_lattice(space, kappa=0.5, seed=1)
    classify_terminal_transit(lat)
    return lat


def test_t1_zero_kernel(grid8):
    lat = _lattice(grid8)
    assert check_T1(zero_kernel(grid8), grid8, lat).A == 0.0


def test_t1_averaging_kernel_bounded_by_one(grid8):
    lat = _lattice(grid8)
    rep = check_T1(constant_kernel(grid8, 1.0), grid8, lat)
    assert rep.A <= 1.0 + 1e-12


def test_t1_exhaustive_oracle():
    space = line_space(8)
    lat = _lattice(space)
    kern = power_kernel(space, m=1.0)
    rep = check_T1(kern, space, lat, dilations=())
    best = 0.0
    for cube in lat.cubes.values():
        mass = space.mu_mass(cube.members)
        if mass <= 0:
            continue
        chi_mu = np.isin(np.arange(8), cube.members) * space.mu
        direct = space.l2_norm(kern.matrix @ chi_mu) ** 2 / mass
        adj = space.l2_norm(kern.matrix.T @ chi_mu) ** 2 / mass
        best = max(best, direct, adj)
    assert rep.A == pytest.approx(best)


def test_t1_monotone_in_test_family(grid8):
    lat = _lattice(grid8)
    kern = power_kernel(grid8, m=2.0, tau=1.0)
    small = check_T1(kern, grid8, lat, dilations=())
    big = check_T1(kern, grid8, lat, dilations=(1.2, 1.4, 1.5))
    assert small.A <= big.A + 1e-12


def _check_T1_reference(kernel, space, lattice, dilations=(1.2, 1.4, 1.5),
                        lambda_bmo=3.0):
    """The per-set loop the blocked products replaced: one full N x N matvec
    pair per distinct set, the sets built on all N points and told apart
    by their points on supp mu."""
    lams = tuple(dilations) + (lambda_bmo,)
    sets = cube_dilations(lattice, lams).reshape(-1, space.n_points)
    labels = [f"Q{cid}{suffix}" for cid in lattice.cubes
              for suffix in [""] + [f"x{lam}" for lam in lams]]
    keys = np.packbits(sets[:, space.mu > 0].copy(), axis=1)
    first = {}
    for s, key in enumerate(keys.view(f"V{keys.shape[1]}").ravel().tolist()):
        first.setdefault(key, s)
    a_val, per_cube = 0.0, []
    for s in first.values():
        mask = sets[s]
        mass = float(space.mu[mask].sum())
        if mass <= 0:
            continue
        chi_mu = mask * space.mu
        rd = space.l2_norm(kernel.matrix @ chi_mu) ** 2 / mass
        ra = space.l2_norm(kernel.matrix.T @ chi_mu) ** 2 / mass
        per_cube.append((labels[s], mass, rd, ra))
        a_val = max(a_val, rd, ra)
    return a_val, per_cube, len(first)


def _t1_case(case):
    """(space, kernel) of a T1 reference case."""
    if case == "signed_explicit":
        space = explicit_space()
        matrix = np.random.default_rng(11).standard_normal((36, 36))
        return space, explicit_kernel(space, matrix, m=1.0, tau=1.0,
                                      C_CZ=1.0)
    if case == "zero_mass_line":
        # mu vanishes on the left half, so cubes and dilations there carry
        # no mass and are skipped, and supp mu is a proper subset
        space = line_space(12, mu=[0.0] * 6 + [1 / 6] * 6)
        return space, power_kernel(space, m=1.0)
    name, params = {
        "line_n21": ("line_in_plane", {"n": 21}),
        "bergman_64": ("bergman_disc_model",
                       {"n_ring": 64, "n_cluster": 8, "n_boundary": 32}),
    }.get(case, (case, {}))
    sc = make_scenario(name, example_params=params)
    return sc.space, sc.kernel


T1_CASES = ("uniform_grid", "line_in_plane", "cantor_measure",
            "bergman_disc_model", "line_n21", "bergman_64", "signed_explicit",
            "zero_mass_line")


@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("case", T1_CASES)
def test_t1_blocks_match_per_set_reference(case, seed):
    space, kern = _t1_case(case)
    lat = build_lattice(space, kappa=0.5, seed=seed)
    rep = check_T1(kern, space, lat)
    a_val, per_cube, n_distinct = _check_T1_reference(kern, space, lat)
    assert rep.A == pytest.approx(a_val, rel=1e-12, abs=0.0)
    assert [c[0] for c in rep.per_cube] == [c[0] for c in per_cube]
    for got, ref in zip(rep.per_cube, per_cube):
        assert got[1:] == pytest.approx(ref[1:], rel=1e-12, abs=0.0)
    if case in ("line_n21", "zero_mass_line"):
        assert (space.mu == 0).any() and len(per_cube) < n_distinct


def _check_T1_two_products(kernel, space, lattice,
                           lams=(1.2, 1.4, 1.5, 3.0)):
    """``check_T1`` as it was before symmetric kernels shared one product:
    one product for T and one for T* per block of sets, whatever K; the
    sets are told apart by their points on supp mu."""
    sets = cube_dilations(lattice, lams).reshape(-1, space.n_points)
    keys = np.packbits(sets[:, space.mu > 0].copy(), axis=1)
    first = {}
    for s, key in enumerate(keys.view(f"V{keys.shape[1]}").ravel().tolist()):
        first.setdefault(key, s)
    distinct = list(first.values())
    supp = np.flatnonzero(space.mu > 0)
    k = kernel.matrix[np.ix_(supp, supp)]
    mu = space.mu[supp]
    per_set = []
    for b in range(0, len(distinct), kernels.T1_BLOCK):
        chi_mu = sets[distinct[b:b + kernels.T1_BLOCK]][:, supp] * mu
        per_set += zip(chi_mu.sum(axis=1).tolist(),
                       (np.square(chi_mu @ k.T) @ mu).tolist(),
                       (np.square(chi_mu @ k) @ mu).tolist())
    return [(m_s, d / m_s, a / m_s) for m_s, d, a in per_set if m_s > 0]


@given(st.integers(2, 24), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_t1_on_symmetric_kernels_matches_two_products(n, null_points,
                                                      seed):
    # T* is T, so the one product must give the bits of both
    rng = np.random.default_rng(seed)
    mu = rng.uniform(0.1, 1.0, n) * (rng.random(n) < (0.7 if null_points
                                                      else 1.0))
    mu[0] = 1.0
    space = line_space(n, mu=mu / mu.sum())
    half = rng.standard_normal((n, n))
    kern = explicit_kernel(space, half + half.T, m=1.0, tau=1.0, C_CZ=1.0)
    lat = build_lattice(space, kappa=0.5, seed=seed % 1000)
    rep = check_T1(kern, space, lat)
    ref = _check_T1_two_products(kern, space, lat)
    assert [c[1:] for c in rep.per_cube] == ref
    assert rep.A == max([0.0] + [r for c in ref for r in c[1:]])
    assert all(c[2] == c[3] for c in rep.per_cube)


def test_t1_on_a_nonsymmetric_kernel_takes_both_products():
    space, kern = _t1_case("signed_explicit")
    lat = build_lattice(space, kappa=0.5, seed=1)
    rep = check_T1(kern, space, lat)
    assert [c[1:] for c in rep.per_cube] == \
        _check_T1_two_products(kern, space, lat)
    assert any(c[2] != c[3] for c in rep.per_cube)


# ---------------------------------------------------------------------------
# operator norm


def test_norm_rank_one_averaging():
    space = line_space(8)
    kern = constant_kernel(space, 1.0, diagonal_policy="truncate")
    norm, converged = operator_norm(kern, space, tol=1e-10, seed=3)
    assert converged
    assert norm == pytest.approx(1.0, abs=1e-8)


def test_norm_zero_kernel(line8):
    norm, _ = operator_norm(zero_kernel(line8), line8, seed=1)
    assert norm == 0.0


def test_norm_matches_dense_svd():
    space = grid_space(4)
    rng = np.random.default_rng(6)
    kern = explicit_kernel(space, rng.standard_normal((16, 16)),
                           m=1.0, tau=1.0)
    norm, converged = operator_norm(kern, space, tol=1e-12, seed=2)
    assert converged
    assert norm == pytest.approx(operator_norm_dense(kern, space), rel=1e-8)


def test_norm_scaling():
    space = line_space(8)
    k1 = power_kernel(space, m=1.0)
    k3 = explicit_kernel(space, 3.0 * k1.matrix, m=1.0, tau=1.0)
    n1, _ = operator_norm(k1, space, tol=1e-10, seed=5)
    n3, _ = operator_norm(k3, space, tol=1e-10, seed=5)
    assert n3 == pytest.approx(3.0 * n1, rel=1e-6)


def test_t1_necessity(grid8):
    # ||T chi_Q||^2 <= ||T||^2 mu(Q) for every cube and kernel
    lat = _lattice(grid8)
    for kern in [power_kernel(grid8, m=2.0), constant_kernel(grid8, 1.0)]:
        norm = operator_norm_dense(kern, grid8)
        for cube in lat.cubes.values():
            chi_mu = np.isin(np.arange(64), cube.members) * grid8.mu
            lhs = grid8.l2_norm(kern.matrix @ chi_mu) ** 2
            assert lhs <= norm ** 2 * grid8.mu_mass(cube.members) + 1e-9


# ---------------------------------------------------------------------------
# serialization


def test_kernel_json_round_trip(line8):
    # the truncate policy puts a nonzero diagonal on power and constant
    # kernels, so a reload that drops the policy changes the operator; a
    # fitted kernel reloads with the file's smoothness window delta_CZ and
    # the C_CZ fitted under it
    inner = line_space(8, omega=(2, 3, 4, 5))
    cloud = explicit_space()
    matrix = power_kernel(cloud, m=1.0).matrix
    for space, kern in [
            (line8, power_kernel(line8, m=1.0)),
            (line8, constant_kernel(line8, 2.0)), (line8, zero_kernel(line8)),
            (line8, power_kernel(line8, m=1.0, diagonal_policy="truncate")),
            (line8, constant_kernel(line8, 2.0, diagonal_policy="truncate")),
            (inner, bergman_kernel(inner, m=1.0, diagonal_policy="truncate")),
            (cloud, power_kernel(cloud, m=1.0, delta_CZ=0.25)),
            (inner, bergman_kernel(inner, m=1.0, delta_CZ=0.25)),
            (cloud, explicit_kernel(cloud, matrix, m=1.0, tau=1.0,
                                    delta_CZ=0.25))]:
        doc = kernel_doc(kern)
        back = kernel_from_json(doc, space)
        assert np.allclose(back.matrix, kern.matrix)
        assert back.m == kern.m and back.tau == kern.tau
        assert back.diagonal_policy == kern.diagonal_policy
        assert (back.delta_CZ, back.C_CZ) == (kern.delta_CZ, kern.C_CZ)
    assert kern.delta_CZ == 0.25
    del doc["delta_CZ"]
    assert kernel_from_json(doc, cloud).delta_CZ == 0.5
    with pytest.raises(ValueError, match="unknown diagonal policy 'clip'"):
        kernel_from_json({**doc, "diagonal_policy": "clip"}, inner)
