"""Metric measure space checks against brute-force oracles."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from czkit.errors import EmptyRadiusList, EmptySet
from czkit.examples import generate_example
from czkit.space import (MetricMeasureSpace, _coordinate_excess_bound,
                         _omega_captures, ball_masses,
                         check_ahlfors_regularity,
                         check_growth_condition, default_radii, dilate,
                         dist_to_complement_all, euclidean_metric,
                         load_space, save_space, space_from_json,
                         space_to_json, verify_quasi_metric,
                         _worst_triangle_excess)
from conftest import grid_space, line_space


# ---------------------------------------------------------------------------
# quasi-metric verification


def test_collinear_points_are_metric():
    space = line_space(3)
    assert verify_quasi_metric(space).ok


def test_asymmetric_rho_rejected():
    space = line_space(3)
    space.rho[0, 1] = 2.5          # rho[1, 0] stays 1.0
    rep = verify_quasi_metric(space)
    assert not rep.ok
    assert rep.worst_triple is not None


def test_explicit_metric_must_be_exactly_symmetric():
    # one ulp is enough: lattices need rho equal to its transpose
    space = line_space(3)
    doc = space_to_json(space)
    rho = space.rho.copy()
    rho[2, 0] = np.nextafter(rho[2, 0], np.inf)
    doc["metric"]["matrix"] = rho.tolist()
    with pytest.raises(ValueError, match=r"from 0 to 2 is 2\.0, back "
                       r"2\.0000000000000004$"):
        space_from_json(doc)
    loaded = space_from_json(space_to_json(space))
    assert loaded.symmetric and verify_quasi_metric(loaded).ok


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_distance_rejected(bad):
    # a NaN compares False, so the symmetry and triangle tests alone pass it
    space = line_space(3)
    space.rho[0, 2] = space.rho[2, 0] = bad
    rep = verify_quasi_metric(space)
    assert not rep.ok
    assert rep.reason == "non-finite distance"
    assert rep.worst_triple == (0, 2, -1)


def test_set_dist_and_diam_brute_force():
    rng = np.random.default_rng(11)
    coords = rng.random((12, 2))
    rho = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2))
    space = MetricMeasureSpace(rho=rho, nu=np.ones(12), mu=np.full(12, 1 / 12),
                               omega=np.zeros(12, dtype=bool))
    for _ in range(50):
        a = rng.choice(12, size=rng.integers(1, 8), replace=False)
        b = rng.choice(12, size=rng.integers(1, 8), replace=False)
        assert space.set_diam(a) == max(rho[i, j] for i in a for j in a)
    empty = np.array([], dtype=int)
    assert space.set_diam([5]) == 0.0
    assert space.set_diam(empty) == 0.0


def test_random_euclidean_cloud_brute_force():
    rng = np.random.default_rng(7)
    coords = rng.random((10, 2))
    diff = coords[:, None, :] - coords[None, :, :]
    rho = np.sqrt((diff ** 2).sum(axis=2))
    space = MetricMeasureSpace(rho=rho, nu=np.ones(10), mu=np.full(10, 0.1),
                               omega=np.zeros(10, dtype=bool))
    assert verify_quasi_metric(space).ok
    # independent triple loop
    for a in range(10):
        for b in range(10):
            for c in range(10):
                assert rho[a, c] <= rho[a, b] + rho[b, c] + 1e-12


def test_quasi_triangle_constant_respected():
    # snowflake distance sqrt(|x-y|) needs quasi_const sqrt(2) on a line
    coords = np.arange(5, dtype=float)
    rho = np.sqrt(np.abs(coords[:, None] - coords[None, :]))
    space = MetricMeasureSpace(rho=rho, nu=np.ones(5), mu=np.full(5, 0.2),
                               omega=np.zeros(5, dtype=bool),
                               quasi_const=math.sqrt(2.0))
    assert verify_quasi_metric(space).ok


def _reference_quasi_ok(rho, k_q):
    """The per-y loop the min-plus scan replaced, with its 1e-15 hysteresis
    on the running worst excess."""
    n = len(rho)
    worst_excess = 0.0
    excess = np.empty((n, n))
    for y in range(n):
        np.add(rho[:, y][:, None], rho[y, :][None, :], out=excess)
        if k_q != 1:
            excess *= k_q
        np.subtract(rho, excess, out=excess)
        if excess.max() > worst_excess + 1e-15:
            worst_excess = float(excess.max())
    return not worst_excess > 1e-12 * max(1.0, rho.max())


def _triple_excess(rho, k_q):
    """excess[x, y, z] = rho(x,z) - K (rho(x,y) + rho(y,z)), as the scan
    rounds it."""
    sums = rho[:, :, None] + rho[None, :, :]
    if k_q != 1:
        sums *= k_q
    return rho[:, None, :] - sums


@given(st.integers(2, 14), st.integers(0, 2**32 - 1),
       st.sampled_from([0.5, 1.0, 1.5, 2.0]),
       st.sampled_from([1.0, 1.5, -0.5]),
       st.booleans(), st.sampled_from([1, 3, 64]))
@settings(max_examples=80, deadline=None)
def test_quasi_metric_scan_matches_reference(n, seed, power, k_q, grid, tile):
    # powers of planar distances: metric for power <= 1, failing the
    # triangle inequality (for K = 1 or 1.5) for large enough powers; a
    # negative K fails always; grid coordinates give tied distances
    rng = np.random.default_rng(seed)
    coords = rng.integers(0, 4, (n, 2)) if grid else rng.random((n, 2))
    coords = np.unique(coords, axis=0).astype(float)
    n = len(coords)
    if n < 2:
        return
    rho = np.sqrt(((coords[:, None] - coords[None]) ** 2).sum(axis=-1))
    rho = rho ** power
    if rng.random() < 0.3:
        i, j = rng.choice(n, 2, replace=False)
        rho[i, j] = rho[j, i] = rho[i, j] * 3.0
    space = MetricMeasureSpace(rho=rho, nu=np.ones(n), mu=np.full(n, 1 / n),
                               omega=np.zeros(n, dtype=bool), quasi_const=k_q)
    rep = verify_quasi_metric(space)
    assert rep.ok == _reference_quasi_ok(rho, k_q)
    excess = _triple_excess(rho, k_q)
    best = excess.max()
    got, triple = _worst_triangle_excess(rho, k_q, tile)
    assert got == best
    # the smallest (x, z) with x <= z, then the smallest y
    upper = excess.max(axis=1)[np.triu_indices(n)]
    first = int(np.argmax(upper == best))
    x, z = (int(a[first]) for a in np.triu_indices(n))
    assert triple == (x, int(np.argmax(excess[x, :, z] == best)), z)
    if rep.ok:
        assert (rep.ok, rep.worst_triple, rep.worst_excess) == (True, None, 0.0)
    else:
        assert rep.worst_excess == best
        assert rep.worst_triple == triple
        x, y, z = rep.worst_triple
        assert excess[x, y, z] == rep.worst_excess


def _reference_entry_checks(rho):
    """The symmetry, diagonal and off-diagonal checks of
    ``verify_quasi_metric`` on full N x N tables, as they were: (triple,
    value, reason) of the first that fails, or None."""
    n = len(rho)
    asym = np.abs(rho - rho.T)
    i, j = np.unravel_index(np.argmax(asym), asym.shape)
    if asym[i, j] > 0:
        return (int(i), int(j), -1), float(asym[i, j]), "symmetry violation"
    diag = np.abs(np.diag(rho))
    if diag.max() > 0:
        k = int(np.argmax(diag))
        return (k, k, -1), float(diag.max()), "nonzero diagonal"
    off = rho + np.where(np.eye(n, dtype=bool), np.inf, 0.0)
    if n > 1 and off.min() <= 0:
        i, j = np.unravel_index(np.argmin(off), off.shape)
        return (int(i), int(j), -1), 0.0, "zero distance off the diagonal"
    return None


@given(st.integers(1, 12), st.integers(0, 2**32 - 1),
       st.lists(st.sampled_from(["scale", "ulp", "diag", "minus_zero_diag",
                                 "zero", "minus_zero", "negative"]),
                max_size=3))
@settings(max_examples=150, deadline=None)
def test_entry_checks_report_as_the_full_tables(n, seed, edits):
    # symmetric edits keep the symmetry check passing, so the diagonal and
    # off-diagonal checks are reached too
    rng = np.random.default_rng(seed)
    rho = euclidean_metric(rng.random((n, 2)))
    for edit in edits:
        i, j = (int(a) for a in rng.integers(0, n, 2))
        if edit == "scale":
            rho[i, j] *= rng.uniform(0.5, 2.0)
        elif edit == "ulp":
            rho[i, j] = np.nextafter(rho[i, j], np.inf)
        elif edit == "diag":
            rho[i, i] = rng.uniform(-1.0, 1.0)
        elif edit == "minus_zero_diag":
            rho[i, i] = -0.0
        else:
            rho[i, j] = rho[j, i] = {"zero": 0.0, "minus_zero": -0.0,
                                     "negative": -rng.random()}[edit]
    space = MetricMeasureSpace(rho=rho, nu=np.ones(n), mu=np.full(n, 1 / n),
                               omega=np.zeros(n, dtype=bool),
                               resolution_h=1.0)
    rep = verify_quasi_metric(space)
    want = _reference_entry_checks(rho)
    if want is None:
        assert rep.reason not in ("symmetry violation", "nonzero diagonal",
                                  "zero distance off the diagonal")
    else:
        assert (rep.ok, rep.worst_triple, rep.worst_excess, rep.reason) == \
            (False, *want)


def _scan_report(space):
    """The report of the same space without coords: the triple scan."""
    rep = verify_quasi_metric(dataclasses.replace(space, coords=None))
    return rep.ok, rep.worst_triple, rep.worst_excess, rep.reason


def _coordinate_order_metric(coords):
    """The Euclidean metric with the squares added in coordinate order."""
    diff = coords[:, None, :] - coords[None, :, :]
    zero = np.zeros(diff.shape[:2], diff.dtype)
    return np.sqrt(sum((diff[..., j] ** 2 for j in range(diff.shape[2])),
                       zero))


@given(st.sampled_from([1, 2, 3, 7, 8]), st.integers(2, 40),
       st.integers(0, 2**32 - 1), st.integers(-150, 150),
       st.sampled_from(["cloud", "grid", "collinear"]),
       st.sampled_from([1.0, 1.0 + 2.0 ** -52, 1.5]))
@settings(max_examples=80, deadline=None)
def test_coordinate_route_bounds_the_scan(d, n, seed, exponent, shape, k_q):
    # integer grids tie distances; points jittered off a line make
    # near-collinear triples, whose computed excess is a few ulps of rho
    rng = np.random.default_rng(seed)
    if shape == "grid":
        coords = rng.integers(0, 4, (n, d)).astype(float)
    elif shape == "collinear":
        coords = (rng.random(n)[:, None] * rng.standard_normal(d)
                  + 1e-9 * rng.standard_normal((n, d)))
    else:
        coords = rng.standard_normal((n, d))
    coords = np.unique(coords * 10.0 ** exponent, axis=0)
    n = len(coords)
    rho = euclidean_metric(coords)
    assert rho.tobytes() == _coordinate_order_metric(coords).tobytes()
    assume(n >= 2 and (rho + np.eye(n)).min() > 0)
    space = MetricMeasureSpace(rho=rho, nu=np.ones(n), mu=np.full(n, 1 / n),
                               omega=np.zeros(n, dtype=bool),
                               quasi_const=k_q, coords=coords)
    bound = _coordinate_excess_bound(space)
    excess, _ = _worst_triangle_excess(rho, k_q)
    tol = 1e-12 * max(1.0, rho.max())
    assert bound >= excess
    rep = verify_quasi_metric(space)
    assert rep.ok == (excess <= tol)
    assert (rep.ok, rep.worst_triple, rep.worst_excess) == \
        _scan_report(space)[:3]
    assert rep.reason == (f"euclidean coords: every excess <= {bound!r}"
                          if bound <= tol else "triple scan")


@pytest.mark.parametrize("d", [0, 1, 2, 3, 7, 8])
def test_euclidean_metric_tiles_keep_the_bits(d):
    # 150 points span three tiles of rows; up to d = 7 the coordinate-order
    # sum is also numpy's last-axis sum, the formula of earlier releases,
    # which keeps every golden digest (from d = 8 numpy sums pairwise)
    coords = np.random.default_rng(d).standard_normal((150, d)) * 1e3
    got = euclidean_metric(coords)
    assert got.tobytes() == _coordinate_order_metric(coords).tobytes()
    if d <= 7:
        diff = coords[:, None, :] - coords[None, :, :]
        assert got.tobytes() == np.sqrt((diff ** 2).sum(axis=-1)).tobytes()
    if d == 0:
        assert not got.any()


def _fall_through_case(case):
    space, _ = generate_example("line_in_plane", n=5)
    if case == "tampered":
        space.rho[0, 7] = space.rho[7, 0] = 3.0 * space.rho[0, 7]
    elif case == "tampered_ulp":
        space.rho[0, 7] = space.rho[7, 0] = np.nextafter(space.rho[0, 7], 9)
    elif case == "k_half":
        space.quasi_const = 0.5
    elif case == "k_negative":
        space.quasi_const = -0.5
    elif case == "int_coords":
        space.coords = (space.coords * 4).astype(int)
        space.rho = euclidean_metric(space.coords)
    elif case == "wrong_shape":
        space.coords = space.coords[:-1]
    return space


@pytest.mark.parametrize("case, ok, reason", [
    ("tampered", False, "quasi-triangle inequality violation"),
    ("tampered_ulp", True, "triple scan"),
    ("k_half", False, "quasi-triangle inequality violation"),
    ("k_negative", False, "quasi-triangle inequality violation"),
    ("int_coords", True, "triple scan"),
    ("wrong_shape", True, "triple scan")])
def test_coordinate_route_falls_through_to_the_scan(case, ok, reason):
    space = _fall_through_case(case)
    assert _coordinate_excess_bound(space) is None
    rep = verify_quasi_metric(space)
    assert (rep.ok, rep.worst_triple, rep.worst_excess, rep.reason) == \
        _scan_report(space)
    assert (rep.ok, rep.reason) == (ok, reason)


def test_coordinate_route_names_itself_for_json_spaces():
    # a euclidean JSON space re-derives rho from its coords and takes the
    # route; the same metric given as a matrix is scanned
    space, _ = generate_example("line_in_plane", n=5)
    doc = space_to_json(space)
    loaded = space_from_json(doc)
    assert loaded.rho.tobytes() == space.rho.tobytes()
    bound = _coordinate_excess_bound(loaded)
    assert 0 < bound <= 1e-14
    assert verify_quasi_metric(loaded).reason == \
        f"euclidean coords: every excess <= {bound!r}"
    doc["metric"] = {"type": "explicit", "matrix": space.rho.tolist()}
    assert verify_quasi_metric(space_from_json(doc)).reason == "triple scan"


# ---------------------------------------------------------------------------
# balls


def _ball_bits(space, x: int, r: float) -> int:
    """The ball B(x, r) of ``ball_masses`` as a set of points: the bits of
    its nu mass when point y weighs 2^y."""
    space = dataclasses.replace(space, nu=2.0 ** np.arange(space.n_points))
    return int(ball_masses(space, [r], ("nu",))[0, x, 0])


def test_ball_radius_zero_empty(line8):
    assert _ball_bits(line8, 3, 0.0) == 0


def test_ball_beyond_diameter_is_everything(line8):
    assert _ball_bits(line8, 0, line8.diam() + 1.0) == 2 ** line8.n_points - 1


def test_ball_open_convention():
    space = line_space(4)
    assert _ball_bits(space, 1, 1.5) == 0b111
    # boundary point excluded: distance exactly 1 is not < 1
    assert _ball_bits(space, 1, 1.0) == 0b10


@given(st.integers(0, 7), st.floats(0.0, 10.0), st.floats(0.0, 10.0))
@settings(max_examples=50, deadline=None)
def test_ball_monotone_in_radius(x, r1, r2):
    space = line_space(8)
    small, big = sorted([r1, r2])
    assert _ball_bits(space, x, small) & ~_ball_bits(space, x, big) == 0


# ---------------------------------------------------------------------------
# Ahlfors regularity


def test_regularity_on_grid():
    space = grid_space(16)
    rep = check_ahlfors_regularity(space, n_dim=2.0, radii=[2.0, 4.0, 8.0])
    assert not rep.degenerate
    assert 0 < rep.c1 <= rep.c2


def test_doubling_constant_formula():
    space = grid_space(8)
    rep = check_ahlfors_regularity(space, n_dim=2.0, radii=[2.0, 4.0])
    assert rep.c_doub == pytest.approx((rep.c2 / rep.c1) * 4.0)


def test_regularity_scale_invariance_of_doubling():
    space = grid_space(8)
    rep = check_ahlfors_regularity(space, 2.0, [2.0, 4.0])
    scaled = MetricMeasureSpace(rho=space.rho, nu=3.0 * space.nu, mu=space.mu,
                                omega=space.omega)
    rep2 = check_ahlfors_regularity(scaled, 2.0, [2.0, 4.0])
    assert rep2.c1 == pytest.approx(3.0 * rep.c1)
    assert rep2.c2 == pytest.approx(3.0 * rep.c2)
    assert rep2.c_doub == pytest.approx(rep.c_doub)


def test_single_point_degenerate():
    space = MetricMeasureSpace(rho=np.zeros((1, 1)), nu=np.ones(1),
                               mu=np.ones(1), omega=np.zeros(1, dtype=bool),
                               resolution_h=1.0)
    rep = check_ahlfors_regularity(space, 1.0, [1.0])
    assert rep.degenerate


def test_empty_radius_list_raises(line8):
    with pytest.raises(EmptyRadiusList):
        check_ahlfors_regularity(line8, 1.0, [])


# ---------------------------------------------------------------------------
# growth condition and omega capture


def test_growth_uniform_line_oracle():
    space = line_space(16)
    radii = [1.0, 2.0, 4.0, 8.0]
    c_h, non_ahlfors = check_growth_condition(space, m=1.0, radii=radii)
    # independent enumeration
    best = 0.0
    for x in range(16):
        for r in radii:
            mass = space.mu[space.rho[x] < r].sum()
            best = max(best, mass / r)
    assert c_h == pytest.approx(best)
    assert non_ahlfors == []


def test_point_mass_is_non_ahlfors():
    mu = np.zeros(4)
    mu[0] = 1.0
    space = line_space(4, mu=mu)
    _, non_ahlfors = check_growth_condition(space, m=1.0, radii=[0.5])
    assert (0, 0.5) in non_ahlfors


def test_zero_mass_region_has_no_non_ahlfors_balls():
    mu = np.zeros(8)
    mu[4:] = 0.25
    space = line_space(8, mu=mu)
    _, non_ahlfors = check_growth_condition(space, m=1.0, radii=[1.0])
    assert all(x >= 3 for x, _ in non_ahlfors)


def _captures(space, m, radii=None) -> bool:
    """Every non-Ahlfors ball of the radii lies inside omega."""
    return _omega_captures(space, check_growth_condition(space, m, radii)[1])


def test_capture_trivial_when_omega_everything():
    mu = np.zeros(4)
    mu[0] = 1.0
    space = line_space(4, omega=range(4), mu=mu)
    assert _captures(space, m=1.0, radii=[0.5])


def test_capture_fails_for_uncovered_point_mass():
    mu = np.zeros(4)
    mu[0] = 1.0
    space = line_space(4, mu=mu)
    assert not _captures(space, m=1.0, radii=[0.5])


def test_capture_monotone_in_omega():
    mu = np.zeros(6)
    mu[2] = 1.0
    small = line_space(6, omega=(2,), mu=mu)
    big = line_space(6, omega=(1, 2, 3), mu=mu)
    radii = [0.5, 1.5]
    if _captures(small, 1.0, radii):
        assert _captures(big, 1.0, radii)


def test_line_example_capture(line_example):
    space, info = line_example
    assert _captures(space, info["m"])


def _reference_balls(space, m, n_dim, radii):
    """The per-ball loop the mask table replaced: (C_H, non-Ahlfors balls,
    omega capture, c1, c2)."""
    c_h, non_ahlfors, ratios = 0.0, [], []
    for x in range(space.n_points):
        for r in radii:
            mask = space.rho[x] < r
            mass = space.mu_mass(mask)
            c_h = max(c_h, mass / r ** m)
            if mass > r ** m:
                non_ahlfors.append((x, float(r)))
            ratios.append(float(space.nu[mask].sum()) / r ** n_dim)
    capture = all(space.omega[space.rho[x] < r].all()
                  for x, r in non_ahlfors)
    return c_h, non_ahlfors, capture, min(ratios), max(ratios)


def _ball_case(case):
    if case == "point_mass_line":
        mu = np.zeros(9)
        mu[[2, 3]] = 0.5
        space = line_space(9, omega=(1, 2, 3, 4), mu=mu)
        space.rho, space.resolution_h = space.rho * 0.1, 0.1
        return space, 1.0
    name, params = case
    space, info = generate_example(name, **params)
    return space, info["m"]


@pytest.mark.parametrize("case", [
    "point_mass_line", ("uniform_grid", {}), ("line_in_plane", {"n": 21}),
    ("cantor_measure", {"level": 6}), ("bergman_disc_model", {}),
    ("bergman_disc_model", {"n_ring": 64, "n_cluster": 8,
                            "n_boundary": 32})])
def test_ball_table_matches_per_ball_reference(case):
    # bit for bit: C_H, the non-Ahlfors list, omega capture, c1 and c2
    space, m = _ball_case(case)
    every = np.unique(space.rho[space.rho > 0])
    every = every[(space.resolution_h <= every) & (every <= space.diam())]
    for radii in (default_radii(space), every[::3].tolist()):
        c_h, bad, capture, c1, c2 = _reference_balls(space, m, 2.0, radii)
        got_h, got_bad = check_growth_condition(space, m, radii)
        reg = check_ahlfors_regularity(space, 2.0, radii)
        assert got_h.hex() == c_h.hex() and got_bad == bad
        assert _omega_captures(space, got_bad) is capture
        assert (reg.c1.hex(), reg.c2.hex()) == (c1.hex(), c2.hex())
        # one table of mu and nu masses gives the same bits
        mu_masses, nu_masses = ball_masses(space, radii)
        assert check_growth_condition(space, m, radii, mu_masses) == \
            (got_h, got_bad)
        assert check_ahlfors_regularity(space, 2.0, radii, nu_masses) == reg
    assert case != "point_mass_line" or (bad and not capture)


def test_radius_power_out_of_range_is_bad_input():
    # on a line scaled by 1e160 every r^2 overflows float64
    space = line_space(6)
    space.rho = space.rho * 1e160
    radii = default_radii(space)
    with pytest.raises(ValueError, match="to the power 2 is out of the "
                                         "float64 range"):
        check_ahlfors_regularity(space, 2.0, radii)
    with pytest.raises(ValueError, match="out of the float64 range"):
        check_growth_condition(space, 2.0, radii)
    assert check_growth_condition(space, 1.0, radii)[1] == []


# ---------------------------------------------------------------------------
# distance to the complement of omega


def test_dist_to_complement_enumerated():
    space = line_space(6, omega=(2, 3))
    assert dist_to_complement_all(space)[3] == pytest.approx(1.0)
    assert dist_to_complement_all(space)[0] == 0.0    # outside omega


def test_dist_to_complement_empty_omega(line8):
    assert (dist_to_complement_all(line8) == 0.0).all()


def test_omega_whole_space_sentinel():
    space = line_space(4, omega=range(4))
    from czkit.errors import OmegaIsWholeSpace
    with pytest.raises(OmegaIsWholeSpace):
        dist_to_complement_all(space)


# ---------------------------------------------------------------------------
# dilation


def test_dilate_identity_at_one(line8):
    e = np.array([2, 3])
    assert sorted(dilate(line8, e, 1.0).tolist()) == [2, 3]


def test_dilate_singleton(line8):
    assert dilate(line8, np.array([5]), 7.0).tolist() == [5]


def test_dilate_enumerated():
    space = line_space(6)
    got = sorted(dilate(space, np.array([0, 1]), 2.0).tolist())
    assert got == [0, 1, 2]


def test_dilate_empty_raises(line8):
    with pytest.raises(EmptySet):
        dilate(line8, np.array([], dtype=int), 2.0)


@given(st.floats(1.0, 3.0), st.floats(1.0, 3.0))
@settings(max_examples=40, deadline=None)
def test_dilate_monotone(lam1, lam2):
    space = line_space(10)
    e = np.array([4, 5])
    small, big = sorted([lam1, lam2])
    a = set(dilate(space, e, small).tolist())
    b = set(dilate(space, e, big).tolist())
    assert set(e.tolist()) <= a <= b


# ---------------------------------------------------------------------------
# serialization round trip


def test_space_json_round_trip(tmp_path, line_example):
    space, _ = line_example
    path = tmp_path / "space.json"
    save_space(space, path)
    loaded = load_space(path)
    assert np.allclose(loaded.rho, space.rho)
    assert np.allclose(loaded.mu, space.mu)
    assert (loaded.omega == space.omega).all()


def test_space_json_keeps_a_rho_edited_after_construction():
    # a space built from coords whose rho was edited is saved as its
    # matrix, so a metric that fails its check still fails after reload
    space, _ = generate_example("line_in_plane", n=5)
    space.rho = space.rho.copy()
    space.rho[0, 7] = space.rho[7, 0] = 3 * space.rho[0, 7]
    assert not verify_quasi_metric(space).ok
    doc = space_to_json(space)
    assert doc["metric"]["type"] == "explicit"
    loaded = space_from_json(doc)
    assert loaded.rho.tobytes() == space.rho.tobytes()
    assert not verify_quasi_metric(loaded).ok


def test_default_radii_in_range(line8):
    radii = default_radii(line8)
    assert all(line8.resolution_h <= r <= line8.diam() for r in radii)


def test_nearest_other_is_built_once_per_space(monkeypatch):
    # per point x, min over y != x of rho(x, y); two lattice builds and an
    # ensemble build it once
    from czkit.lattice import build_lattice, ensemble_gaps
    rng = np.random.default_rng(5)
    rho = np.triu(rng.uniform(1.0, 4.0, (9, 9)), 1)
    rho += rho.T
    space = MetricMeasureSpace(rho=rho, nu=np.ones(9), mu=np.full(9, 1 / 9),
                               omega=np.zeros(9, dtype=bool),
                               resolution_h=1.5)
    prop, built = vars(MetricMeasureSpace)["nearest_other"], []
    real = prop.func
    monkeypatch.setattr(prop, "func", lambda self: built.append(1) or
                        real(self))
    lat = build_lattice(space, 0.5, seed=1)
    build_lattice(space, 0.5, seed=2)
    ensemble_gaps([lat.members(lat.by_gen[lat.k_max][0])], [lat.k_max],
                  space, 0.5, 0.25, 4)
    assert built == [1]
    assert space.nearest_other.tolist() == [
        min(rho[x, y] for y in range(9) if y != x) for x in range(9)]


def test_new_rho_or_resolution_drops_the_cached_tables():
    # symmetric, near_pairs and nearest_other were cached on first read,
    # so a rho made one ulp asymmetric after a check still passed it
    from czkit.lattice import build_lattice
    space = line_space(3)
    assert verify_quasi_metric(space).ok
    build_lattice(space, 0.5, seed=1)
    rho = space.rho.copy()
    rho[0, 1] = np.nextafter(rho[0, 1], np.inf)
    space.rho = rho
    assert verify_quasi_metric(space).reason == "symmetry violation"
    with pytest.raises(ValueError, match="lattices need a symmetric metric"):
        build_lattice(space, 0.5, seed=1)
    assert space.nearest_other.tolist() == [rho[0, 1], 1.0, 1.0]
    space.rho = 2.0 * line_space(3).rho
    assert space.nearest_other.tolist() == [2.0, 2.0, 2.0]
    assert space.near_pairs[0].size == 0      # resolution_h is still 1
    space.resolution_h = 2.0
    assert space.near_pairs[0].tolist() == [0, 1, 1, 2]
