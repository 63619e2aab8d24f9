"""czkit benchmark: `czkit certify --example` as a closed loop.

One client in one process issues one certificate after another: each is
``harness.make_scenario`` (set-up) followed by ``harness.run`` (certify). Every
certificate is checked outside the timed region. Run one workload per fresh
process, so that memory and timings inherit nothing from another workload:

    python3 benchmarks/run.py --workload cantor_pairs --seed 0 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 0 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a run traced from outside (see layers.py). ``--workload all``
starts one process per workload and prints every metric in a table. The
last line of standard output is one JSON object; the exit code is 1 when a
certificate failed, 2 when the program cannot be found.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS before numpy is imported; czkit's own CZKIT_THREADS is applied
# too late to take effect. One thread is within nproc on every machine and
# keeps the timings of a shared machine steadier.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import statistics
import subprocess
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Why each workload exists: see BENCHMARK.json. Sizes are chosen so that a
# run holds several certificates and the three workloads' runs fit in an hour.
# The bergman ensemble of 150 (the least allowed is 100) keeps the
# Monte Carlo lattice builds above half of its certify time.
WORKLOADS = {
    "cantor_pairs": ("cantor_measure", {"level": 6}, {"s_param": 2}),
    "line_sparse_mu": ("line_in_plane", {"n": 21}, {}),
    "bergman_calibrate": ("bergman_disc_model",
                          {"n_ring": 64, "n_cluster": 8, "n_boundary": 32},
                          {"s_param": None, "ensemble": 150}),
}
# The reference certificate uses the lattice pair `czkit certify` uses by
# default, so `tightness` is the tightness of the certificate a user gets.
REFERENCE_SEEDS = (1, 2)
# Least number of timed certificates per run, whatever --seconds; a traced
# run certifies each twice, untraced and traced.
MIN_CERTS, MIN_TRACED = 3, 2
SETUP_SECONDS = 1.0         # set-up only repetitions before the loop
REGROUP_TOL, NORM_RTOL = 1e-9, 1e-6

# Timings are CPU time of this process. The process is single-threaded
# (BLAS pinned above), so on an idle machine CPU time equals wall time; on a
# shared one, wall time also counts the time the process was not scheduled,
# which moved the wall time of a fixed loop by up to a factor of three.
CLOCK = time.process_time

END_TO_END_UNITS = {"setup_s": "s", "certify_s": "s", "peak_rss_mb": "MB",
                    "tightness": "ratio"}


def fatal(message: str):
    print("error: " + message, file=sys.stderr)
    sys.exit(2)


def load_program():
    if not (SRC / "czkit" / "__init__.py").is_file():
        fatal(f"czkit sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import czkit
    if Path(czkit.__file__).resolve().parent != SRC / "czkit":
        fatal(f"imported czkit from {czkit.__file__}, not from {SRC}")


def certificate_specs(seed: int):
    """Lattice pair and master seed of each certificate, from the seed only."""
    import numpy as np
    parent = np.random.SeedSequence(seed)
    while True:
        a, b, master = parent.spawn(1)[0].generate_state(3)
        yield (int(a), int(b)), int(master)


def make(workload: str, seeds, master_seed: int):
    from czkit import harness
    example, params, overrides = WORKLOADS[workload]
    return harness.make_scenario(example, example_params=dict(params),
                                 seeds=seeds, master_seed=master_seed,
                                 **overrides)


def one_certificate(workload: str, seeds, master_seed: int):
    """(scenario, report, setup seconds, certify seconds), in CPU time."""
    from czkit import harness
    t0 = CLOCK()
    scenario = make(workload, seeds, master_seed)
    t1 = CLOCK()
    report = harness.run(scenario)
    t2 = CLOCK()
    return scenario, report, t1 - t0, t2 - t1


def check(scenario, report) -> list[str]:
    """The benchmark's correctness gate; an empty list means correct."""
    from czkit.kernels import operator_norm_dense
    cert = report.certificate
    if cert is None:
        return ["a pipeline stage failed before certify"]
    problems = []
    if not (report.passed and cert.verdict):
        lemmas = sorted({c.name for c in cert.lemmas if not c.passed})
        problems.append(f"verdict is fail; failed lemmas: {lemmas}")
    regroup = [c.measured for c in cert.lemmas if c.name == "sigma_regrouping"]
    if not regroup or not regroup[0] <= REGROUP_TOL:
        problems.append(f"sigma_regrouping {regroup} above {REGROUP_TOL}")
    if not cert.certified_total >= cert.empirical_norm:
        problems.append(f"certified_total {cert.certified_total} below "
                        f"empirical_norm {cert.empirical_norm}")
    exact = operator_norm_dense(scenario.kernel, scenario.space)
    if not abs(cert.empirical_norm - exact) <= NORM_RTOL * exact:
        problems.append(f"power-iteration norm {cert.empirical_norm} differs "
                        f"from svdvals {exact} by more than {NORM_RTOL}")
    return problems


class Tally:
    """Attempted and failed certificates of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAILED {label}: {p}", file=sys.stderr)
        return not problems

    def attempt(self, label: str, workload: str, seeds, master_seed: int):
        """Run and check one certificate. Returns what one_certificate
        returns, or None when it raised or failed a check."""
        label += f" (lattice seeds {seeds}, master seed {master_seed})"
        try:
            scenario, report, setup, cert = one_certificate(
                workload, seeds, master_seed)
        except Exception:  # a raising certificate is a failure, not a crash
            traceback.print_exc()
            self.record(label, ["raised"])
            return None
        if not self.record(label, check(scenario, report)):
            return None
        return scenario, report, setup, cert


def reference(tally: Tally, workload: str, master_seed: int):
    """Warm-up certificate: imports and first calls are paid here.
    Returns (scenario, report), or (None, None) when it failed."""
    out = tally.attempt("reference", workload, REFERENCE_SEEDS, master_seed)
    return (None, None) if out is None else out[:2]


def measure(workload: str, seed: int, seconds: float):
    """End-to-end metrics with tracing off."""
    tally = Tally()
    specs = certificate_specs(seed)
    _, ref_master = next(specs)
    scenario, ref = reference(tally, workload, ref_master)
    tightness = None if ref is None else \
        ref.certificate.certified_total / ref.certificate.empirical_norm
    setup, certify = [], []
    t0 = time.perf_counter()
    while not setup or time.perf_counter() - t0 < SETUP_SECONDS:
        s0 = CLOCK()
        make(workload, REFERENCE_SEEDS, ref_master)
        setup.append(CLOCK() - s0)
    n_setup_only = len(setup)
    t0 = time.perf_counter()
    n = 0
    while n < MIN_CERTS or time.perf_counter() - t0 < seconds:
        n += 1
        seeds, master = next(specs)
        out = tally.attempt(f"certificate {n}", workload, seeds, master)
        if out is not None:
            setup.append(out[2])
            certify.append(out[3])
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": statistics.median(setup),
        "certify_s": statistics.median(certify) if certify else None,
        "peak_rss_mb": peak,
        "tightness": tightness,
    }
    notes = {
        "setup_s": f"median of {len(setup)} set-ups "
                   f"({n_setup_only} set-up only, {len(certify)} in the loop)",
        "certify_s": f"median of {len(certify)} certificates: "
                     + " ".join(f"{t:.3f}" for t in certify),
        "peak_rss_mb": "ru_maxrss of this process",
        "tightness": f"certified/empirical, lattice pair {REFERENCE_SEEDS}",
    }
    return tally, (scenario, ref), metrics, notes


def report_json(report) -> str:
    doc = report.to_json()
    doc.pop("timings")
    return json.dumps(doc, sort_keys=True)


def measure_traced(workload: str, seed: int, seconds: float):
    """Per-layer metrics: each certificate runs untraced, then traced; both
    reports must be equal apart from their timings."""
    from layers import CertificateTrace
    tally = Tally()
    specs = certificate_specs(seed)
    _, ref_master = next(specs)
    scenario, ref = reference(tally, workload, ref_master)
    trace = CertificateTrace()
    per_cert, plain, traced, shares = [], [], [], []
    t0 = time.perf_counter()
    n = 0
    while n < MIN_TRACED or time.perf_counter() - t0 < seconds:
        n += 1
        seeds, master = next(specs)
        out = tally.attempt(f"certificate {n}", workload, seeds, master)
        if out is None:
            continue
        trace.reset()
        try:
            with trace:
                _, rep_t, setup_t, cert_t = one_certificate(
                    workload, seeds, master)
        except Exception:
            traceback.print_exc()
            tally.record(f"traced certificate {n}", ["raised"])
            continue
        same = report_json(out[1]) == report_json(rep_t)
        if tally.record(f"traced certificate {n}", [] if same else
                        ["traced report differs from the untraced one"]):
            m = trace.metrics()
            per_cert.append(m)
            plain.append(out[3])
            traced.append(cert_t)
            shares.append({
                "certify.total_s / certify_s": m["certify.total_s"] / cert_t,
                "kernels.fit_s / setup_s": m["kernels.fit_s"] / setup_t,
                "lattice.build_s / certify_s": m["lattice.build_s"] / cert_t,
            })
    metrics = {}
    for name in (per_cert[0] if per_cert else {}):
        if name.endswith("_s"):
            metrics[name] = statistics.median(m[name] for m in per_cert)
        else:
            # counts repeat exactly for a seed: take the seed's first one
            metrics[name] = per_cert[0][name]
    if traced:
        metrics["trace_overhead_frac"] = (statistics.median(traced) /
                                          statistics.median(plain) - 1.0)
    notes = {"*_s": f"median over {len(per_cert)} traced certificates",
             "counts": "first traced certificate of the seed"}
    for key in (shares[0] if shares else {}):
        notes[key] = f"{statistics.median(s[key] for s in shares):.3f} " \
                     "(median share, traced)"
    return tally, (scenario, ref), metrics, notes


def unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, scenario, ref) -> dict:
    """Machine, versions and the size of the reference certificate."""
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    env = {
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
        "git_commit": git_commit(),
        "src_czkit_lines": sum(len(p.read_text().splitlines())
                               for p in sorted((SRC / "czkit").glob("*.py"))),
        "workload": workload,
    }
    if ref is not None:
        n = scenario.space.n_points
        env.update({"N": n,
                    "supp_mu": int(np.count_nonzero(scenario.space.mu)),
                    "cubes": ref.stages["lattice"]["cubes"],
                    "kernel_bytes": 8 * n * n})
    return env


def run_one_workload(args) -> int:
    if args.trace:
        tally, ref, metrics, notes = measure_traced(
            args.workload, args.seed, args.seconds)
    else:
        tally, ref, metrics, notes = measure(
            args.workload, args.seed, args.seconds)
    print("env " + json.dumps(environment(args.workload, *ref)))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client, {tally.attempted} certificates")
    for name, value in metrics.items():
        print(f"  {name:32s} {fmt(value):>14s} {unit(name):6s} "
              f"{notes.get(name, '')}")
    frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'fail_frac':32s} {fmt(frac):>14s} {'ratio':6s} "
          f"{tally.failed} of {tally.attempted} certificates failed")
    if args.trace:
        for key, note in notes.items():
            print(f"  ({key}: {note})")
    else:
        print("  no tail percentiles: a run holds too few certificates for "
              "ten samples beyond any of them")
    correct = tally.failed == 0 and all(v is not None
                                        for v in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit(k)}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def fmt(value) -> str:
    if value is None:
        return "missing"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def run_all(args) -> int:
    """One fresh process per workload, then every metric in one table."""
    results, table, status = {}, {}, 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT)
        print(proc.stdout, end="")
        status = max(status, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1]) if proc.returncode < 2 and lines else None
        results[workload] = res
        table[workload] = {} if res is None else {
            **{k: v["value"] for k, v in res["metrics"].items()},
            "fail_frac": res["failed"] / res["attempted"]}
    names = list(dict.fromkeys(k for row in table.values() for k in row))
    print(f"{'metric':32s} " + " ".join(f"{w:>18s}" for w in WORKLOADS)
          + "  unit")
    for name in names:
        cells = (fmt(table[w].get(name)) for w in WORKLOADS)
        print(f"{name:32s} " + " ".join(f"{c:>18s}" for c in cells)
              + f"  {unit(name)}")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    load_program()
    if args.workload == "all":
        return run_all(args)
    return run_one_workload(args)


if __name__ == "__main__":
    sys.exit(main())
