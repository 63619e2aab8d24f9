"""Acceptance suite.

Each test covers one acceptance criterion and prints a single pass/fail
line.  Run with `pytest tests/test_acceptance.py -s` to see the lines as
they go by; without -s pytest still enforces every assertion.
"""

import math

import numpy as np
import pytest

from czkit.certify import (alpha_param, block_matrix_bound,
                           block_matrix_spectral, carleson_embedding_check,
                           certify, far_interaction_bound, pair_geometry,
                           paraproduct_apply, pseudo_bmo_check,
                           schur_bound_long_range, spectral_norm,
                           split_bilinear, whitney_decomposition)
from czkit.errors import HypothesisViolated
from czkit.examples import generate_example
from czkit.kernels import (apply, bergman_kernel, check_T1, constant_kernel,
                           dense_operator, indicator, operator_norm,
                           power_kernel)
from czkit.harness import calibrate_S
from czkit.lattice import (build_lattice, classify_all_good_bad,
                           classify_terminal_transit,
                           estimate_bad_probability, scale_gap)
from czkit.projections import decompose, expected_bad_norm, properties_check
from conftest import criterion7_instances, criterion8_instances, \
    grid_space, line_space

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
                 + sum(dec.norms_sq().values()))
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
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(5):
        f, g = rng.standard_normal((2, space.n_points))
        split = split_bilinear(kern, space, decompose(lat1, f),
                               decompose(lat2, g), f, g, geometry)
        scale = max(abs(split.direct), 1.0)
        ok &= split.regroup_error <= 1e-9 * scale
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


def test_criterion_6_far_interaction():
    ok = True
    total_pairs = 0
    for name in ["line_in_plane", "cantor_measure"]:
        space, info = generate_example(name)
        kern = power_kernel(space, m=info["m"], tau=info["tau"])
        lat1, lat2, _, alpha = _classified_pair(space, info["m"],
                                                info["tau"])
        rng = np.random.default_rng(3)
        f = rng.standard_normal(space.n_points)
        g = rng.standard_normal(space.n_points)
        dec_f = decompose(lat1, f)
        for q_id in dec_f.components:
            q = lat1.cubes[q_id]
            phi = dec_f.component_vector(q_id)
            for r_id, r in lat2.cubes.items():
                if r.generation > q.generation:
                    continue
                psi = g * indicator(space, r.members)
                supp = np.flatnonzero((psi != 0) & (space.mu > 0))
                if not supp.size:
                    continue
                threshold = q.size ** alpha * r.size ** (1 - alpha)
                if space.set_dist(q.members, supp) < threshold:
                    continue
                measured, bound, admissible = far_interaction_bound(
                    kern, space, q, r, phi, psi, alpha=alpha)
                if not admissible:
                    continue
                ok &= measured <= bound * (1 + 1e-9) + 1e-15
                total_pairs += 1
    ok &= total_pairs > 0
    _report(6, "far interaction inequality", ok)


def test_criterion_7_schur_soundness():
    ok = True
    for mat, a, b in criterion7_instances():
        rep = schur_bound_long_range(mat, a, b, 1.0, 1.0)
        oracle = float(np.linalg.norm(mat.entries, 2))
        ok &= rep.lhs <= rep.rhs * (1 + 1e-9) + 1e-15
        ok &= oracle <= rep.c_schur * (1 + 1e-9) + 1e-15
    _report(7, "schur soundness", ok)


def test_criterion_8_block_matrix():
    tau = 1.0
    explicit = 1.0 / (1.0 - KAPPA ** (tau / 2))
    ok = True
    for entries, a, b in criterion8_instances():
        lhs, rhs, fitted = block_matrix_bound(entries, a, b, KAPPA, tau)
        norm_a = math.sqrt(sum(v * v for v in a.tolist()))
        norm_b = math.sqrt(sum(v * v for v in b.tolist()))
        ok &= lhs <= rhs * (1 + 1e-9) + 1e-15
        ok &= abs(rhs - explicit * norm_a * norm_b) <= 1e-9 * rhs + 1e-15
        ok &= fitted <= explicit + 1e-12
        if a.size <= 100:
            dense = block_matrix_spectral(entries, KAPPA, tau)
            ok &= dense <= explicit * (1 + 1e-9)
    _report(8, "block matrix bound", ok)


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
        oracle = spectral_norm(dense_operator(kern, space))
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
            chi = indicator(space, cube.members)
            lhs = space.l2_norm(apply(kern, space, chi)) ** 2
            mass = space.mu_mass(cube.members)
            ok &= lhs <= norm ** 2 * mass + 1e-9
    _report(12, "testing condition necessity", ok)
