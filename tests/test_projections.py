"""Martingale decomposition: reconstruction, orthogonality, good/bad split."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from czkit.certify import paraproduct_apply, paraproduct_targets
from czkit.errors import ClassificationMissing, ZeroMass
from czkit.examples import generate_example
from czkit.lattice import (build_lattice, classify_all_good_bad,
                           classify_terminal_transit)
from czkit.projections import (decompose, expected_bad_norm,
                               properties_check, split_good_bad)
from czkit.space import MetricMeasureSpace
from conftest import explicit_space, grid_space, line_space

ALPHA_11 = 0.25


def _classified(space, seed=1):
    lat = build_lattice(space, kappa=0.5, seed=seed)
    classify_terminal_transit(lat)
    return lat


# ---------------------------------------------------------------------------
# averages and single projections


def test_average_constant(line8):
    lat = _classified(line8)
    assert np.allclose(lat.plan.means(np.full(8, 3.5)), 3.5)


def test_average_two_points():
    space = line_space(2, mu=[0.5, 0.5])
    lam = decompose(_classified(space), np.array([0.0, 2.0])).lambda_part
    assert lam == pytest.approx(1.0)


def test_average_matches_weighted_sum_oracle():
    rng = np.random.default_rng(3)
    space = line_space(16, mu=rng.dirichlet(np.ones(16)))
    lat = _classified(space)
    phi = rng.standard_normal(16)
    means = lat.plan.means(phi)
    for cid, slot in lat.plan.slot.items():
        members = lat.cubes[cid].members
        expect = (phi[members] * space.mu[members]).sum() / \
            space.mu[members].sum()
        assert means[slot] == pytest.approx(expect)


def test_average_zero_mass_raises():
    mu = np.zeros(4)
    mu[0] = 1.0
    space = line_space(4, mu=mu)
    lat = _classified(space)
    # a zero-mass cube flagged transit leaves its average no mass
    lat.terminal[next(c.id for c in lat.cubes.values()
                      if space.mu[c.members].sum() == 0)] = 0
    with pytest.raises(ZeroMass):
        decompose(lat, np.ones(4))


def test_delta_constant_vanishes(grid8):
    lat = _classified(grid8)
    d = decompose(lat, np.full(grid8.n_points, 2.0)).dense([lat.root_id])[0]
    assert np.abs(d).max() < 1e-12


def test_delta_zero_mean_and_support(line_example, line_lattice):
    space, _ = line_example
    rng = np.random.default_rng(0)
    phi = rng.standard_normal(space.n_points)
    for cube in line_lattice.cubes.values():
        if cube.terminal or cube.is_leaf:
            continue
        d = decompose(line_lattice, phi).dense([cube.id])[0]
        assert abs(np.sum(d * space.mu)) < 1e-12
        off = np.setdiff1d(np.arange(space.n_points), cube.members)
        if off.size:
            assert np.abs(d[off]).max() == 0.0


def test_delta_equal_mass_oscillation():
    space = line_space(2, mu=[0.5, 0.5])
    lat = _classified(space)
    phi = np.array([1.0, -1.0])
    # the root average is zero, so the root projection returns phi on the root
    d = decompose(lat, phi).dense([lat.root_id])[0]
    assert np.allclose(d, phi)


# ---------------------------------------------------------------------------
# full decomposition


def test_constant_function_decomposition(grid8):
    lat = _classified(grid8)
    dec = decompose(lat, np.ones(grid8.n_points))
    assert dec.lambda_part == pytest.approx(1.0)
    assert all(np.abs(v).max() < 1e-12 for _, v in dec.components.values())


def test_reconstruction_and_pythagoras_random():
    space = grid_space(8)
    lat = _classified(space)
    rng = np.random.default_rng(5)
    for _ in range(5):
        phi = rng.standard_normal(space.n_points)
        dec = decompose(lat, phi)
        assert np.abs(dec.reconstruct() - phi).max() <= 1e-10
        total = space.l2_norm(phi) ** 2
        parts = dec.lambda_part ** 2 + \
            float(np.sum(dec.values ** 2 * space.mu[lat.plan.pt]))
        assert abs(total - parts) <= 1e-10 * total


def test_decomposition_linearity():
    space = line_space(8)
    lat = _classified(space)
    rng = np.random.default_rng(9)
    phi, psi = rng.standard_normal((2, 8))
    a, b = 2.0, -0.5
    dec = decompose(lat, a * phi + b * psi)
    dp, ds = decompose(lat, phi), decompose(lat, psi)
    assert dec.lambda_part == pytest.approx(a * dp.lambda_part
                                            + b * ds.lambda_part)
    ids = list(dec.components)
    combo = a * dp.dense(ids) + b * ds.dense(ids)
    assert np.allclose(dec.dense(ids), combo, atol=1e-12)


def test_components_only_on_transit_cubes(line_lattice):
    space = line_lattice.space
    phi = np.random.default_rng(1).standard_normal(space.n_points)
    dec = decompose(line_lattice, phi)
    for cid in dec.components:
        assert not line_lattice.cubes[cid].terminal


def test_properties_check_random(grid8):
    lat = _classified(grid8)
    rng = np.random.default_rng(2)
    for _ in range(3):
        phi = rng.standard_normal(grid8.n_points)
        rep = properties_check(decompose(lat, phi), phi)
        assert rep.passed
        assert rep.idempotence_err <= 1e-10
        assert rep.mutual_orthogonality_err <= 1e-10
        assert rep.lambda_orthogonality_err <= 1e-10


@given(st.integers(0, 10))
@settings(max_examples=20, deadline=None)
def test_reconstruction_property(seed):
    space = line_space(12)
    lat = _classified(space)
    phi = np.random.default_rng(seed).standard_normal(12)
    dec = decompose(lat, phi)
    assert np.abs(dec.reconstruct() - phi).max() <= 1e-10


# ---------------------------------------------------------------------------
# good/bad split


def _good_bad_setup(space, s_param=1):
    lat1 = build_lattice(space, kappa=0.5, seed=1)
    lat2 = build_lattice(space, kappa=0.5, seed=2)
    classify_terminal_transit(lat1)
    classify_all_good_bad(lat1, lat2, ALPHA_11, 0.25, s_param)
    return lat1


def test_all_good_gives_zero_bad_part(grid8):
    lat = _good_bad_setup(grid8, s_param=40)    # huge gap: everything good
    phi = np.random.default_rng(4).standard_normal(grid8.n_points)
    f_good, f_bad = split_good_bad(decompose(lat, phi))
    assert np.abs(f_bad).max() == 0.0
    assert np.allclose(f_good, phi, atol=1e-10)


def test_all_bad_leaves_lambda_only(grid8):
    lat = _good_bad_setup(grid8)
    lat.good[lat.ids] = 0
    phi = np.random.default_rng(4).standard_normal(grid8.n_points)
    dec = decompose(lat, phi)
    f_good, f_bad = split_good_bad(dec)
    assert np.allclose(f_good, dec.lambda_part)
    assert np.allclose(f_bad, phi - dec.reconstruct() + dec.reconstruct()
                       - dec.lambda_part, atol=1e-10)


def test_split_is_exact_and_orthogonal(grid8):
    lat = _good_bad_setup(grid8)
    rng = np.random.default_rng(8)
    phi = rng.standard_normal(grid8.n_points)
    f_good, f_bad = split_good_bad(decompose(lat, phi))
    assert np.abs((f_good + f_bad) - phi).max() <= 1e-10
    total = grid8.l2_norm(phi) ** 2
    parts = grid8.l2_norm(f_good) ** 2 + grid8.l2_norm(f_bad) ** 2
    assert abs(total - parts) <= 1e-10 * total


def test_expected_bad_norm_constant_function():
    space = line_space(8)
    mean, stderr, check = expected_bad_norm(
        space, np.ones(8), kappa=0.5, alpha=ALPHA_11, delta_bad=0.25,
        s_param=1, ensemble=5)
    assert mean == pytest.approx(0.0, abs=1e-12)
    assert check


# ---------------------------------------------------------------------------
# the per-cube loops that the decomposition plan replaced, kept as the
# reference: the plan must reproduce every number they give, bit for bit


def _ref_average(space, phi, members):
    mass = space.mu[members].sum()
    if mass <= 0:
        raise ZeroMass("average over a cube of zero mu-mass")
    return float(np.sum(phi[members] * space.mu[members]) / mass)


def _ref_delta_on(lat, phi, cube):
    space = lat.space
    avg_q = _ref_average(space, phi, cube.members)
    idx_parts, val_parts = [], []
    for cid in cube.children:
        child = lat.cubes[cid]
        idx_parts.append(child.members)
        if child.terminal or child.is_leaf:
            val_parts.append(phi[child.members] - avg_q)
        else:
            avg_j = _ref_average(space, phi, child.members)
            val_parts.append(np.full(child.members.size, avg_j - avg_q))
    return np.concatenate(idx_parts), np.concatenate(val_parts)


def _ref_decompose(lat, phi):
    comps = {cid: _ref_delta_on(lat, phi, cube)
             for cid, cube in lat.cubes.items()
             if cube.terminal is False and not cube.is_leaf}
    return _ref_average(lat.space, phi, lat.root.members), comps


def _ref_properties(lat, lam, comps, phi):
    space = lat.space
    scale = max(space.l2_norm(phi) ** 2, 1.0)
    idem = zmean = ortho = lam_orth = 0.0
    for cid, (idx, vals) in comps.items():
        dense = np.zeros(space.n_points)
        dense[idx] = vals
        t_idx, t_vals = _ref_delta_on(lat, dense, lat.cubes[cid])
        twice = np.zeros(space.n_points)
        twice[t_idx] = t_vals
        idem = max(idem, float(np.max(np.abs(twice - dense))))
        zmean = max(zmean, abs(float(np.sum(vals * space.mu[idx]))))
        lam_orth = max(lam_orth,
                       abs(lam * float(np.sum(vals * space.mu[idx]))))
    cids = list(comps)
    for i, ca in enumerate(cids):
        ia, va = comps[ca]
        dense_a = np.zeros(space.n_points)
        dense_a[ia] = va
        for cb in cids[i + 1:]:
            ib, vb = comps[cb]
            ortho = max(ortho, abs(float(np.sum(dense_a[ib] * vb *
                                                space.mu[ib]))))
    return idem / scale, zmean / scale, ortho / scale, lam_orth / scale


def _ref_split(lat, lam, comps):
    n = lat.space.n_points
    f_good, f_bad = np.full(n, lam), np.zeros(n)
    for cid, (idx, vals) in comps.items():
        if lat.cubes[cid].good:
            f_good[idx] += vals
        else:
            f_bad[idx] += vals
    return f_good, f_bad


def _ref_paraproduct(F, g, fine_lat, coarse_lat, targets):
    space = fine_lat.space
    _, comps = _ref_decompose(fine_lat, F)
    out, a_r, rhs = np.zeros(space.n_points), {}, 0.0
    for q_id, r_id in targets.items():
        if r_id is None:
            continue
        d_qf = np.zeros(space.n_points)
        d_qf[comps[q_id][0]] = comps[q_id][1]
        norm_sq = float(np.sum(d_qf ** 2 * space.mu))
        a_r[r_id] = a_r.get(r_id, 0.0) + norm_sq
        if r_id == coarse_lat.root_id:
            continue
        coef = _ref_average(space, g, coarse_lat.cubes[r_id].members)
        out += coef * d_qf
        rhs += coef ** 2 * norm_sq
    lhs = float(np.sum(out ** 2 * space.mu))
    return out, a_r, abs(lhs - rhs) / max(lhs, rhs, 1e-30)


def _bits(*values):
    return np.array(values, dtype=float).tobytes()


def _check_against_reference(space, seed):
    lat1 = build_lattice(space, kappa=0.5, seed=seed)
    lat2 = build_lattice(space, kappa=0.5, seed=seed + 10)
    for lat in (lat1, lat2):
        classify_terminal_transit(lat)
    classify_all_good_bad(lat1, lat2, ALPHA_11, 0.25, 1)
    rng = np.random.default_rng(seed)
    phi, g = rng.standard_normal((2, space.n_points))

    dec = decompose(lat1, phi)
    lam, comps = _ref_decompose(lat1, phi)
    assert _bits(dec.lambda_part) == _bits(lam)
    assert list(dec.components) == list(comps)
    for cid, (idx, vals) in comps.items():
        got_idx, got_vals = dec.components[cid]
        assert got_idx.dtype == idx.dtype
        assert got_idx.tobytes() == idx.tobytes()
        assert got_vals.tobytes() == vals.tobytes()
    recon = np.full(space.n_points, lam)
    for idx, vals in comps.values():
        recon[idx] += vals
    assert dec.reconstruct().tobytes() == recon.tobytes()
    rep = properties_check(dec, phi)
    assert _bits(rep.idempotence_err, rep.zero_mean_err,
                 rep.mutual_orthogonality_err,
                 rep.lambda_orthogonality_err) == \
        _bits(*_ref_properties(lat1, lam, comps, phi))
    for got, ref in zip(split_good_bad(dec), _ref_split(lat1, lam, comps)):
        assert got.tobytes() == ref.tobytes()

    targets = paraproduct_targets(lat1, lat2, 2)
    out, a_r, info = paraproduct_apply(phi, g, lat1, lat2, 2)
    ref_out, ref_a, ref_err = _ref_paraproduct(phi, g, lat1, lat2, targets)
    assert out.tobytes() == ref_out.tobytes()
    assert list(a_r) == list(ref_a)
    assert _bits(*a_r.values()) == _bits(*ref_a.values())
    assert _bits(info["identity_error"]) == _bits(ref_err)


@pytest.mark.parametrize("seed", (1, 2, 7))
@pytest.mark.parametrize("name", ("uniform_grid", "line_in_plane",
                                  "cantor_measure", "bergman_disc_model",
                                  "explicit"))
def test_plan_matches_per_cube_reference(name, seed):
    space = explicit_space() if name == "explicit" else \
        generate_example(name)[0]
    _check_against_reference(space, seed)


@given(st.integers(2, 14), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_plan_matches_reference_on_random_spaces(n, seed):
    # random points, masses with zeros and a random open set, so that
    # terminal children (raw increments) occur at every depth
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 4.0, (n, 2))
    rho = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1))
    mu = rng.dirichlet(np.ones(n)) * (rng.uniform(size=n) < 0.7)
    mu[rng.integers(n)] += 0.5
    space = MetricMeasureSpace(rho=rho, nu=np.ones(n), mu=mu / mu.sum(),
                               omega=rng.uniform(size=n) < 0.2)
    _check_against_reference(space, int(rng.integers(0, 1000)))


def test_decompose_needs_classification(line8):
    lat = build_lattice(line8, kappa=0.5, seed=1)
    with pytest.raises(ClassificationMissing):
        decompose(lat, np.ones(line8.n_points))
