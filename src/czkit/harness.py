"""Scenario configuration, pipeline runner and Monte Carlo calibration."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .certify import CertificateReport, alpha_param, certify
from .errors import CalibrationExhausted
from .examples import generate_example
from .kernels import KernelSpec, bergman_kernel, check_d_domination, \
    constant_kernel, power_kernel
from .lattice import bad_fraction, build_lattice, \
    classify_terminal_transit, ensemble_gaps, scale_gap, \
    verify_lattice_properties
from .projections import decompose, properties_check
from .space import MetricMeasureSpace, _omega_captures, ball_masses, \
    check_ahlfors_regularity, check_growth_condition, default_radii, \
    verify_quasi_metric


@dataclass
class Scenario:
    name: str
    space: MetricMeasureSpace
    kernel: KernelSpec
    m: float
    tau: float
    n_dim: float
    kappa: float = 0.5
    delta_bad: float = 0.25
    s_param: int | None = 2          # None requests calibration
    ensemble: int = 100
    seeds: tuple = (1, 2)
    master_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.kappa < 1.0:
            raise ValueError("kappa must lie in (0, 1)")
        if not 0.0 < self.delta_bad < 1.0:
            raise ValueError("delta_bad must lie in (0, 1)")
        if self.tau <= 0 or self.m <= 0:
            raise ValueError("tau and m must be positive")
        if self.kappa ** (self.tau / 2) == 1.0:
            raise ValueError(f"tau = {self.tau:g} is too small: kappa^(tau/2) "
                             "rounds to 1 and the block series diverges")


def make_scenario(name: str, **overrides) -> Scenario:
    example_params = overrides.pop("example_params", {})
    space, info = generate_example(name, **example_params)
    m = overrides.pop("m", info["m"])
    tau = overrides.pop("tau", info["tau"])
    kappa = overrides.pop("kappa", info["kappa"])
    build = {"power": power_kernel, "bergman": bergman_kernel,
             "constant": constant_kernel}[info["kernel"]]
    kernel = build(space, m=m, tau=tau)
    return Scenario(name=name, space=space, kernel=kernel, m=m, tau=tau,
                    n_dim=info["n_dim"], kappa=kappa, **overrides)


@dataclass
class CalibrationResult:
    s_param: int
    p_hat: float
    stderr: float
    exhausted: bool
    trace: list = field(default_factory=list)


def calibrate_S(space: MetricMeasureSpace, kappa: float, alpha: float,
                delta_bad: float, ensemble: int = 100,
                seed: int = 0) -> CalibrationResult:
    """Doubling search, S = 1, 2, 4, 8, 16, for the smallest separation
    exponent whose Monte Carlo bad-probability estimate drops under
    delta_bad^2.

    A candidate is feasible when its induced generation gap still fits in
    the lattice depth; when no candidate reaches the target the largest
    feasible one is returned with the exhausted flag set."""
    if ensemble < 100:
        raise ValueError("ensemble must be at least 100")
    lat = build_lattice(space, kappa, seed=seed)
    depth = lat.k_max - lat.k_min
    target = delta_bad ** 2
    probes = [ids[len(ids) // 2] for k, ids in lat.by_gen.items()
              if ids and k > lat.k_min][:3]
    if scale_gap(kappa, delta_bad, 1) >= depth:
        raise CalibrationExhausted(
            f"lattice depth {depth} admits no separation exponent")
    gaps = ensemble_gaps([lat.members(c) for c in probes], lat.gen[probes],
                         space, kappa, alpha, ensemble, master_seed=seed)
    trace = []
    s = 1
    while s <= 16:
        r = scale_gap(kappa, delta_bad, s)
        if r >= depth:
            break
        # the worst probe; with no bad draw at all it reads (0, 0)
        bad = int((gaps >= r).sum(axis=0).max(initial=0))
        worst_p, worst_err = bad_fraction(bad, ensemble) if bad else (0.0, 0.0)
        trace.append((s, worst_p, worst_err))
        best = CalibrationResult(s, worst_p, worst_err, False, trace)
        if worst_p <= target:
            return best
        s *= 2
    best.exhausted = True
    return best


@dataclass
class RunReport:
    scenario: str
    master_seed: int
    stages: dict
    certificate: CertificateReport | None
    timings: dict
    passed: bool

    def to_json(self) -> dict:
        doc = {
            "scenario": self.scenario,
            "master_seed": self.master_seed,
            "stages": self.stages,
            "timings": {k: round(v, 6) for k, v in self.timings.items()},
            "passed": bool(self.passed),
        }
        if self.certificate is not None:
            doc["certificate"] = self.certificate.to_json()
        return doc


def run(scenario: Scenario) -> RunReport:
    """verify -> build -> classify -> decompose -> certify."""
    space = scenario.space
    stages = {}
    timings = {}
    ok = True
    t0 = time.perf_counter()

    qm = verify_quasi_metric(space)
    radii = default_radii(space)
    mu_masses, nu_masses = ball_masses(space, radii)
    c_h, non_ahlfors = check_growth_condition(space, scenario.m, radii,
                                              mu_masses)
    capture = _omega_captures(space, non_ahlfors)
    reg = check_ahlfors_regularity(space, scenario.n_dim, radii, nu_masses)
    stages["space"] = {
        "quasi_metric": qm.ok, "C_H": c_h,
        "non_ahlfors_balls": len(non_ahlfors),
        "omega_capture": capture, "regularity_c2": reg.c2,
    }
    ok &= qm.ok and capture
    timings["space"] = time.perf_counter() - t0
    if not ok:
        return RunReport(scenario.name, scenario.master_seed, stages, None,
                         timings, False)

    t0 = time.perf_counter()
    alpha = alpha_param(scenario.m, scenario.tau)
    s_param = scenario.s_param
    if s_param is None:
        cal = calibrate_S(space, scenario.kappa, alpha, scenario.delta_bad,
                          ensemble=scenario.ensemble,
                          seed=scenario.master_seed)
        s_param = cal.s_param
        stages["calibration"] = {"S": cal.s_param, "p_hat": cal.p_hat,
                                 "stderr": cal.stderr,
                                 "exhausted": cal.exhausted}
    lat = build_lattice(space, scenario.kappa, seed=scenario.seeds[0])
    lat_rep = verify_lattice_properties(lat)
    classify_terminal_transit(lat)
    stages["lattice"] = {"passed": lat_rep.passed,
                         "generations": lat.k_max - lat.k_min + 1,
                         "cubes": len(lat.ids)}
    ok &= lat_rep.passed
    timings["lattice"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    rng = np.random.default_rng(scenario.master_seed)
    phi = rng.standard_normal(space.n_points)
    dec = decompose(lat, phi)
    proj = properties_check(dec, phi)
    recon_err = float(np.max(np.abs(dec.reconstruct() - phi)))
    stages["decomposition"] = {
        "passed": proj.passed and recon_err <= 1e-10,
        "reconstruction_error": recon_err,
        "idempotence_error": proj.idempotence_err,
        "orthogonality_error": proj.mutual_orthogonality_err,
    }
    ok &= proj.passed and recon_err <= 1e-10
    timings["decomposition"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if scenario.kernel.dominated_by_d:
        dom = check_d_domination(scenario.kernel, space)
        stages["domination"] = {"passed": dom.passed,
                                "worst_ratio": dom.worst_ratio}
        ok &= dom.passed
    cert = certify(scenario.kernel, space, kappa=scenario.kappa,
                   delta_bad=scenario.delta_bad, s_param=s_param,
                   seeds=scenario.seeds, master_seed=scenario.master_seed,
                   lattice=lat)
    stages["certificate"] = {"verdict": cert.verdict,
                             "certified_total": cert.certified_total,
                             "empirical_norm": cert.empirical_norm}
    ok &= cert.verdict
    timings["certify"] = time.perf_counter() - t0

    return RunReport(scenario.name, scenario.master_seed, stages, cert,
                     timings, bool(ok))


def save_report(report: RunReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_json(), fh, indent=2, sort_keys=True)
