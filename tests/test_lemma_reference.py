"""The Schur test and the block matrix lemma against the per-cube code they
replaced.

Both lemmas take arrays: the Schur test one ``InteractionMatrix`` with
per-slot generation, size, mass and transit arrays, the block lemma the
entry columns (q, r, k, mu_q, mu_parent) and weight arrays.  The code below
is the earlier form, kept as the reference: one ``CubeSlot`` object per
cube read off ``lattice.cubes``, and one tuple per block entry with dict
weights.  Every returned number must be the same float, bit for bit, on
the random instances of acceptance criteria 7 and 8 and on the long range
and short range transit tables of the built-in examples."""

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest

from czkit.certify import (_py_floats, alpha_param, block_matrix_bound,
                           block_matrix_spectral, interaction_matrix,
                           long_range_entry, pair_geometry,
                           schur_bound_long_range, spectral_norm)
from czkit.errors import MultipleParents, NonTransitEntry, ZeroMassCube
from czkit.harness import make_scenario
from czkit.kernels import check_T1
from czkit.lattice import build_lattice, classify_all_good_bad, \
    classify_terminal_transit, scale_gap
from conftest import criterion7_instances, criterion8_instances

EXAMPLES = ("uniform_grid", "line_in_plane", "cantor_measure",
            "bergman_disc_model")


@dataclass
class CubeSlot:
    gen: int
    size: float
    mass: float
    transit: bool = True


@dataclass
class SlotMatrix:
    q_slots: list
    r_slots: list
    entries: np.ndarray
    center_rho: np.ndarray


def ref_interaction_matrix(space, fine, coarse, pairs, m, tau) -> SlotMatrix:
    def slots(rows, at):
        ids, first, index = np.unique(rows.ids[at], return_index=True,
                                      return_inverse=True)
        cubes = map(rows.lattice.cubes.get, ids.tolist())
        return index, rows.center[at[first]], [
            CubeSlot(c.generation, c.size, mass, c.terminal is False)
            for c, mass in zip(cubes, rows.mass[at[first]].tolist())]

    (i, q_centers, q_slots), (j, r_centers, r_slots) = (
        slots(fine, pairs.q), slots(coarse, pairs.r))
    entries = np.zeros((len(q_slots), len(r_slots)))
    entries[i, j] = long_range_entry(
        _py_floats(fine.size[pairs.q]), _py_floats(coarse.size[pairs.r]),
        fine.mass[pairs.q], coarse.mass[pairs.r], _py_floats(pairs.dist), m,
        tau).astype(float)
    return SlotMatrix(q_slots, r_slots, entries,
                      space.rho[np.ix_(q_centers, r_centers)])


def ref_schur(mat: SlotMatrix, a, b, m, tau):
    """(lhs, rhs, c_schur)."""
    for slot in mat.q_slots + mat.r_slots:
        if not slot.transit:
            raise NonTransitEntry("interaction entries require transit cubes")
        if slot.mass <= 0:
            raise NonTransitEntry("transit cubes must carry mu-mass")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    (qg, qm, qs), (rg, rm, rs) = (
        [np.array([getattr(s, key) for s in slots])
         for key in ("gen", "mass", "size")]
        for slots in (mat.q_slots, mat.r_slots))
    per_gap = {}
    gaps = qg[:, None] - rg[None, :]
    for k in np.unique(gaps[gaps >= 0]).tolist():
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
            best = max(best, geom * c_fit * math.sqrt(row_sum * col_sum))
        per_gap[k] = best
    c_schur = float(sum(per_gap.values()))
    lhs = float(a @ mat.entries @ b)
    rhs = c_schur * float(np.linalg.norm(a) * np.linalg.norm(b))
    return lhs, rhs, c_schur


def ref_block_bound(entries, a: dict, b: dict, kappa, tau):
    """(lhs, rhs, fitted); ``entries`` one (q, r, k, mu_q, mu_parent) tuple
    per entry."""
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
    return lhs, explicit * norm_a * norm_b, float(sum(per_gap.values()))


def ref_block_spectral(entries, kappa, tau) -> float:
    q_keys = sorted({e[0] for e in entries})
    r_keys = sorted({e[1] for e in entries})
    qi = {k: i for i, k in enumerate(q_keys)}
    ri = {k: i for i, k in enumerate(r_keys)}
    mat = np.zeros((len(q_keys), len(r_keys)))
    for q_key, r_key, k, mu_q, mu_parent in entries:
        mat[qi[q_key], ri[r_key]] = (kappa ** (tau * k / 2.0) *
                                     math.sqrt(mu_q / mu_parent))
    return spectral_norm(mat)


def _hex(values) -> list:
    return [float(v).hex() for v in values]


def _slot_matrix(mat) -> SlotMatrix:
    """The reference form of an ``InteractionMatrix``."""
    return SlotMatrix(*(
        [CubeSlot(*slot) for slot in zip(*(
            arrays[side].tolist()
            for arrays in (mat.gen, mat.size, mat.mass, mat.transit)))]
        for side in (0, 1)), mat.entries, mat.center_rho)


def _tuples(entries, a, b):
    """The reference form of block lemma columns and weights."""
    rows = list(zip(*(col.tolist() for col in entries)))
    return rows, dict(enumerate(a.tolist())), dict(enumerate(b.tolist()))


def _same_schur(mat, a, b, m, tau):
    rep = schur_bound_long_range(mat, a, b, m, tau)
    ref = ref_schur(_slot_matrix(mat), a, b, m, tau)
    assert _hex((rep.lhs, rep.rhs, rep.c_schur)) == _hex(ref)


def _same_blocks(entries, a, b, kappa, tau):
    got = block_matrix_bound(entries, a, b, kappa, tau)
    rows, a_dict, b_dict = _tuples(entries, a, b)
    assert _hex(got) == _hex(ref_block_bound(rows, a_dict, b_dict, kappa,
                                             tau))
    assert block_matrix_spectral(entries, kappa, tau) == \
        ref_block_spectral(rows, kappa, tau)


def test_schur_matches_reference_on_criterion_7():
    for mat, a, b in criterion7_instances():
        _same_schur(mat, a, b, 1.0, 1.0)


def test_block_lemma_matches_reference_on_criterion_8():
    for entries, a, b in criterion8_instances():
        _same_blocks(entries, a, b, 0.5, 1.0)


def test_block_lemma_matches_reference_in_any_entry_order():
    # shuffled entries make the gaps' first-entry order differ from their
    # sorted order; random kappa and tau reach more than a few powers
    rng = np.random.default_rng(8)
    for entries, a, b in criterion8_instances():
        order = rng.permutation(entries[0].size)
        _same_blocks([col[order] for col in entries], a, b,
                     rng.uniform(0.2, 0.8), rng.uniform(0.5, 2.0))


def test_block_lemma_errors_match_reference():
    rows = [(0, 0, 1, 0.2, 0.5), (0, 1, 1, 0.2, 0.5)]
    for bad, error in ((rows, MultipleParents),
                       ([(0, 0, 0, 0.2, 0.5)], ValueError),
                       ([(0, 0, 1, 0.2, 0.0)], ZeroMassCube),
                       ([(0, 0, 1, -0.1, 0.5)], ZeroMassCube)):
        cols = [np.array(col) for col in zip(*bad)]
        with pytest.raises(error):
            block_matrix_bound(cols, np.ones(1), np.ones(2), 0.5, 1.0)
        with pytest.raises(error):
            ref_block_bound(bad, {0: 1.0}, {0: 1.0, 1: 1.0}, 0.5, 1.0)


@pytest.mark.parametrize("name", EXAMPLES)
def test_lemmas_match_reference_on_builtin_tables(name):
    # the sigma2 far pairs and the sigma3 transit pairs of both halves, on
    # the lattice pair (1, 2) that certify builds by default
    scenario = make_scenario(name)
    kern, space = scenario.kernel, scenario.space
    rng = np.random.default_rng(5)
    alpha = alpha_param(kern.m, kern.tau)
    far_pairs = transit_pairs = 0
    for s_param in (1, 2):
        lat1, lat2 = (build_lattice(space, 0.5, seed=s) for s in (1, 2))
        for lat in (lat1, lat2):
            classify_terminal_transit(lat)
        for lat, other in ((lat1, lat2), (lat2, lat1)):
            classify_all_good_bad(lat, other, alpha, 0.25, s_param)
        a_t1 = max(check_T1(kern, space, lat).A for lat in (lat1, lat2))
        halves = pair_geometry(kern, space, lat1, lat2,
                               scale_gap(0.5, 0.25, s_param), alpha, a_t1)
        for half in halves:
            fine, coarse = half.fine_rows, half.coarse_rows
            t = half.pairs["sigma2"]
            far = t.select(t.far_ok)
            mat = interaction_matrix(fine, coarse, far, kern.m, kern.tau)
            ref = ref_interaction_matrix(space, fine, coarse, far, kern.m,
                                         kern.tau)
            assert np.array_equal(mat.entries, ref.entries)
            assert np.array_equal(mat.center_rho, ref.center_rho)
            slots = _slot_matrix(mat)
            assert (slots.q_slots, slots.r_slots) == (ref.q_slots,
                                                      ref.r_slots)
            nq, nr = mat.entries.shape
            for a, b in ((np.ones(nq), np.ones(nr)),
                         (rng.uniform(0, 1, nq), rng.uniform(0, 1, nr))):
                _same_schur(mat, a, b, kern.m, kern.tau)
            far_pairs += len(far)

            # the transit pairs whose fine cube meets one coarse cube per
            # gap, with the mass of the holding child
            t = half.pairs["sigma3_tran"]
            count = Counter(zip(t.q.tolist(), t.gap.tolist()))
            keep = np.array([count[key] == 1 for key in
                             zip(t.q.tolist(), t.gap.tolist())], dtype=bool)
            lat = coarse.lattice
            mass_rq = np.array([lat.space.mu[lat.cubes[c].members].sum()
                                for c in t.rq.tolist()])
            entries = [col[keep] for col in (t.q, t.r, t.gap, fine.mass[t.q],
                                             mass_rq)]
            for a, b in ((np.zeros(len(fine.ids)), np.zeros(len(coarse.ids))),
                         (rng.uniform(0, 1, len(fine.ids)),
                          rng.uniform(0, 1, len(coarse.ids)))):
                _same_blocks(entries, a, b, lat.kappa, kern.tau)
            transit_pairs += int(keep.sum())
    assert far_pairs > 0
    if name in ("cantor_measure", "bergman_disc_model"):
        assert transit_pairs > 0
