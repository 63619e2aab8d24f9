"""Acceptance suite.

Each test covers one acceptance criterion and prints a single pass/fail
line.  Run with `pytest tests/test_acceptance.py -s` to see the lines as
they go by; without -s pytest still enforces every assertion.
"""

import math

import numpy as np
import pytest

from czkit.certify import (_block_entries, _pair_norm, alpha_param,
                           carleson_embedding_check, certify, pair_geometry,
                           paraproduct_apply, partition_check, split_bilinear)
from czkit.examples import generate_example
from czkit.kernels import (bergman_kernel, check_T1, constant_kernel,
                           operator_norm, operator_norm_dense, power_kernel,
                           spectral_norm)
from czkit.harness import calibrate_S, make_scenario
from czkit.lattice import (build_lattice, classify_all_good_bad,
                           classify_terminal_transit,
                           estimate_bad_probability, scale_gap)
from czkit.lemmas import pseudo_bmo_check, whitney_decomposition
from czkit.projections import decompose, expected_bad_norm, properties_check
from conftest import criterion7_instances, criterion8_instances, \
    grid_space, line_space, regrouping

KAPPA = 0.5
DELTA_BAD = 0.25

SCENARIOS = ["uniform_grid", "line_in_plane", "cantor_measure",
             "bergman_disc_model"]


def _report(num, label, ok):
    print(f"criterion {num:2d} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def _kernel_for(name, space, info):
    maker = {"power": power_kernel, "bergman": bergman_kernel}.get(
        info["kernel"], None)
    if maker is None:
        return constant_kernel(space, 1.0, m=info["m"], tau=info["tau"],
                               diagonal_policy="truncate")
    return maker(space, m=info["m"], tau=info["tau"])


def _classified_pair(space, m, tau, s_param=1, seeds=(1, 2)):
    alpha = alpha_param(m, tau)
    lat1 = build_lattice(space, KAPPA, seed=seeds[0])
    lat2 = build_lattice(space, KAPPA, seed=seeds[1])
    classify_terminal_transit(lat1)
    classify_terminal_transit(lat2)
    classify_all_good_bad(lat1, lat2, alpha, DELTA_BAD, s_param)
    classify_all_good_bad(lat2, lat1, alpha, DELTA_BAD, s_param)
    return lat1, lat2, scale_gap(KAPPA, DELTA_BAD, s_param), alpha


def _triples(count=20):
    """Random (space, lattice, function) triples across the built spaces."""
    rng = np.random.default_rng(2024)
    spaces = [line_space(16), line_space(33), grid_space(6), grid_space(9)]
    for name in SCENARIOS:
        spaces.append(generate_example(name)[0])
    out = []
    i = 0
    while len(out) < count:
        space = spaces[i % len(spaces)]
        lat = build_lattice(space, KAPPA, seed=int(rng.integers(0, 1000)))
        classify_terminal_transit(lat)
        phi = rng.standard_normal(space.n_points)
        out.append((space, lat, phi))
        i += 1
    return out


@pytest.fixture(scope="module")
def triples():
    return _triples(20)


def test_criterion_1_martingale_identity(triples):
    ok = True
    for space, lat, phi in triples:
        assert space.n_points <= 1024
        dec = decompose(lat, phi)
        norm = space.l2_norm(phi)
        recon = float(np.max(np.abs(dec.reconstruct() - phi)))
        ok &= recon <= 1e-10 * max(norm, 1.0)
        total_mass = float(space.mu.sum())
        parts = (dec.lambda_part ** 2 * total_mass
                 + float(np.sum(dec.values ** 2 * space.mu[lat.plan.pt])))
        ok &= abs(norm ** 2 - parts) <= 1e-10 * max(norm ** 2, 1.0)
    _report(1, "martingale identity", ok)


def test_criterion_2_projection_algebra(triples):
    ok = True
    for space, lat, phi in triples:
        rep = properties_check(decompose(lat, phi), phi)
        ok &= rep.idempotence_err <= 1e-10
        ok &= rep.mutual_orthogonality_err <= 1e-10
        ok &= rep.lambda_orthogonality_err <= 1e-10
    _report(2, "projection algebra", ok)


def test_criterion_3_sigma_regrouping():
    space, info = generate_example("line_in_plane")
    kern = power_kernel(space, m=info["m"], tau=info["tau"])
    lat1, lat2, r_gap, alpha = _classified_pair(space, info["m"], info["tau"])
    a_t1 = max(check_T1(kern, space, lat).A for lat in (lat1, lat2))
    geometry = pair_geometry(kern, space, lat1, lat2, r_gap, alpha, a_t1)
    # the pair tables partition the good pairs, and so the Lambda part and
    # the regime sums add up to <T f_good, g_good> up to rounding
    ok = partition_check(geometry).measured == 0
    rng = np.random.default_rng(7)
    for _ in range(5):
        f, g = rng.standard_normal((2, 1, space.n_points))
        dec_f, dec_g = decompose(lat1, f), decompose(lat2, g)
        split = split_bilinear(kern, space, dec_f, dec_g, f, g, geometry)
        _, error = regrouping(kern, space, dec_f, dec_g, split)
        ok &= bool(error[0] <= 1e-9)
    _report(3, "sigma regrouping", ok)


def test_criterion_4_bad_cube_probability():
    space, info = generate_example("cantor_measure")
    alpha = alpha_param(info["m"], info["tau"])
    cal = calibrate_S(space, KAPPA, alpha, DELTA_BAD, ensemble=100, seed=0)
    lat = build_lattice(space, KAPPA, seed=0)
    probes = []
    for k in lat.generations():
        ids = lat.by_gen[k]
        if ids and k > lat.k_min:
            probes.append(lat.cubes[ids[len(ids) // 2]])
    ok = len(probes) > 0 and not cal.exhausted
    for cube in probes[:4]:
        p_hat, stderr, _ = estimate_bad_probability(
            cube.members, cube.generation, space, KAPPA, alpha, DELTA_BAD,
            cal.s_param, 400, master_seed=0)
        ok &= p_hat <= DELTA_BAD ** 2 + 3 * stderr
    _report(4, "bad cube probability", ok)


def test_criterion_5_expected_bad_norm():
    space, info = generate_example("cantor_measure")
    alpha = alpha_param(info["m"], info["tau"])
    cal = calibrate_S(space, KAPPA, alpha, DELTA_BAD, ensemble=100, seed=0)
    rng = np.random.default_rng(11)
    ok = True
    for _ in range(5):
        f = rng.standard_normal(space.n_points)
        mean, stderr, check = expected_bad_norm(
            space, f, KAPPA, alpha, DELTA_BAD, cal.s_param, 400,
            master_seed=0)
        ok &= check
        ok &= mean <= DELTA_BAD * space.l2_norm(f) + 3 * stderr
    _report(5, "expected bad norm", ok)


def _geometry(kern, space, s_param):
    """The two classified lattices of certify's default seeds and their
    pair geometry, with certify's testing constant A."""
    lat1, lat2, r_gap, alpha = _classified_pair(space, kern.m, kern.tau,
                                                s_param)
    a_t1 = max(check_T1(kern, space, lat).A for lat in (lat1, lat2))
    return lat1, lat2, pair_geometry(kern, space, lat1, lat2, r_gap, alpha,
                                     a_t1)


def test_criterion_6_far_interaction():
    # every far sigma2 pair of the run against the coefficient its
    # certificate charges; the line has far pairs only from S = 2
    ok = True
    total_pairs = 0
    for name, s_param in [("line_in_plane", 2), ("cantor_measure", 1)]:
        space, info = generate_example(name)
        kern = power_kernel(space, m=info["m"], tau=info["tau"])
        lat1, lat2, geometry = _geometry(kern, space, s_param)
        rng = np.random.default_rng(3)
        f = rng.standard_normal((1, space.n_points))
        g = rng.standard_normal((1, space.n_points))
        split = split_bilinear(kern, space, decompose(lat1, f),
                               decompose(lat2, g), f, g, geometry)
        pairs = 0
        for half in split.halves:
            t = half.pairs["sigma2"]
            far = t.far_ok
            dq = np.sqrt(half.fine.norm_sq[0, t.q[far]])
            dr = np.sqrt(half.coarse.norm_sq[0, t.r[far]])
            bound = half.geo["sigma2"]["coef"][far] * dq * dr
            measured = np.abs(half.values["sigma2"][0, far])
            ok &= bool((measured <= bound * (1 + 1e-9) + 1e-15).all())
            pairs += int(far.sum())
        ok &= pairs > 0
        total_pairs += pairs
    _report(6, f"far coefficient on {total_pairs} far pairs", ok)


def test_criterion_7_schur_soundness():
    # the pair norm, a Schur test with Perron weights, that bounds every
    # regime constant of the run
    ok = True
    for entries, a, b in criterion7_instances():
        rows, cols = np.nonzero(entries)
        norm = _pair_norm(rows, cols, entries[rows, cols])
        ok &= spectral_norm(entries) <= norm * (1 + 1e-9) + 1e-15
        ok &= a @ entries @ b <= norm * (np.linalg.norm(a) *
                                         np.linalg.norm(b)) * (1 + 1e-9)
    _report(7, "schur soundness of the pair norm", ok)


def _block_norm(q, r, t, shape) -> float:
    """Dense spectral norm of the block matrix with entries t at (q, r)."""
    mat = np.zeros(shape)
    mat[q, r] = t
    return spectral_norm(mat)


def test_criterion_8_block_matrix():
    # the random instances, and the transit block entries of the built-ins
    # whose fine cube meets one coarse cube per gap: on these entries
    # _transit_geometry charges the series 1 / (1 - kappa^(tau/2))
    tau = 1.0
    series = 1.0 / (1.0 - KAPPA ** (tau / 2))
    ok = True
    for (q, r, k, mu_q, mu_parent), a, b in criterion8_instances():
        t = _block_entries(KAPPA, tau, k, mu_q, mu_parent)
        ok &= _block_norm(q, r, t, (a.size, b.size)) <= series * (1 + 1e-9)
        ok &= a[q] @ (t * b[r]) <= series * (np.linalg.norm(a) *
                                             np.linalg.norm(b)) * (1 + 1e-9)
    tables = 0
    for name in SCENARIOS:
        scenario = make_scenario(name)
        kern, space = scenario.kernel, scenario.space
        series = 1.0 / (1.0 - KAPPA ** (kern.tau / 2))
        for s_param in (1, 2):
            for half in _geometry(kern, space, s_param)[2]:
                t = half.pairs["sigma3_tran"]
                _, at, n = np.unique(t.q * (t.gap.max(initial=0) + 1) + t.gap,
                                     return_inverse=True, return_counts=True)
                one = n[at.ravel()] == 1
                if not one.any():
                    continue
                block_t = half.geo["sigma3_tran"]["block_t"][one]
                shape = len(half.fine_rows.ids), len(half.coarse_rows.ids)
                ok &= _block_norm(t.q[one], t.r[one], block_t, shape) <= \
                    series * (1 + 1e-9)
                tables += 1
    ok &= tables > 0
    _report(8, f"block series on 50 instances and {tables} transit tables",
            ok)


def test_criterion_9_paraproduct_and_carleson():
    space, info = generate_example("line_in_plane")
    kern = power_kernel(space, m=info["m"], tau=info["tau"])
    lat1, lat2, r_gap, _ = _classified_pair(space, info["m"], info["tau"])
    F = kern.matrix.T @ space.mu
    rng = np.random.default_rng(9)
    ok = True
    for _ in range(3):
        g = rng.standard_normal(space.n_points)
        g -= np.sum(g * space.mu)
        _, a_r, p_info = paraproduct_apply(F, g, lat1, lat2, r_gap)
        ok &= p_info["identity_error"] <= 1e-10
    _, a_r, _ = paraproduct_apply(F, np.zeros(space.n_points), lat1, lat2,
                                  r_gap)
    carl = carleson_embedding_check(a_r, lat2)
    ok &= math.isfinite(carl["fitted"])
    _, multiplicity, _ = whitney_decomposition(space, lat2, lat2.root)
    bmo = pseudo_bmo_check(F, space, lat2, K=2.0, lambda_bmo=3.0,
                           kernel=kern)
    ok &= carl["fitted"] <= multiplicity * bmo["fitted"] * (1 + 1e-9)
    _report(9, "paraproduct and carleson", ok)


def test_criterion_10_pseudo_bmo():
    from czkit.kernels import check_T1
    space, info = generate_example("bergman_disc_model")
    kern = bergman_kernel(space, m=info["m"], tau=info["tau"])
    lat = build_lattice(space, KAPPA, seed=1)
    classify_terminal_transit(lat)
    t1 = check_T1(kern, space, lat, lambda_bmo=3.0)
    F = kern.matrix.T @ space.mu
    rep = pseudo_bmo_check(F, space, lat, K=2.0, lambda_bmo=3.0,
                           kernel=kern, t1_A=t1.A)
    ok = rep["tail_passed"] and rep["near_passed"]
    _report(10, "pseudo bmo proof split", ok)


def test_criterion_11_end_to_end():
    ok = True
    for name in SCENARIOS:
        space, info = generate_example(name)
        kern = _kernel_for(name, space, info)
        rep = certify(kern, space, s_param=1, n_probes=2)
        ok &= all(c.passed for c in rep.lemmas)
        ok &= rep.empirical_norm <= rep.certified_total * (1 + 1e-9)
        oracle = operator_norm_dense(kern, space)
        ok &= abs(rep.empirical_norm - oracle) <= 1e-6 * max(oracle, 1.0)
    space, _ = generate_example("uniform_grid", normalize=True)
    avg = constant_kernel(space, 1.0, diagonal_policy="truncate")
    norm, converged = operator_norm(avg, space, tol=1e-8, seed=0)
    ok &= converged and abs(norm - 1.0) <= 1e-8
    _report(11, "end to end certificate", ok)


def test_criterion_12_t1_necessity():
    ok = True
    for name in SCENARIOS:
        space, info = generate_example(name)
        kern = _kernel_for(name, space, info)
        norm, _ = operator_norm(kern, space, tol=1e-8, seed=0)
        lat = build_lattice(space, KAPPA, seed=1)
        for cube in lat.cubes.values():
            chi_mu = np.isin(np.arange(space.n_points), cube.members) * \
                space.mu
            lhs = space.l2_norm(kern.matrix @ chi_mu) ** 2
            mass = space.mu_mass(cube.members)
            ok &= lhs <= norm ** 2 * mass + 1e-9
    _report(12, "testing condition necessity", ok)
