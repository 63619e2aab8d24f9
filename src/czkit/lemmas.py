"""The paper's pseudo-BMO lemma for the image of 1, which no run checks
yet: the admissible cubes of its growth gate, their Whitney covers, the
tail constant of the dilation series, and the two-part proof split."""

from __future__ import annotations

import numpy as np

from .certify import _scalar_pow
from .errors import HypothesisViolated
from .kernels import KernelSpec
from .lattice import Cube, DyadicLattice
from .space import MetricMeasureSpace, dilate


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
