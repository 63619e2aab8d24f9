"""Command line front end.

Exit codes: 0 all checks passed, 1 a check failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import CzkitError

MAX_POINTS = 4096


def _load_space(path, allow_large=False):
    from .space import load_space
    space = load_space(path)
    if space.n_points > MAX_POINTS and not allow_large:
        est = 8 * space.n_points ** 2 / 1e6
        raise SystemExit(
            f"error: {space.n_points} points exceeds the desk-scale guard of "
            f"{MAX_POINTS} (a dense kernel needs about {est:.0f} MB); "
            "pass --allow-large to proceed")
    return space


def _write_json(doc, path):
    if path is None or path == "-":
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)


def cmd_verify_space(args) -> int:
    from .space import _omega_captures, check_growth_condition, \
        default_radii, verify_quasi_metric
    space = _load_space(args.space, args.allow_large)
    qm = verify_quasi_metric(space)
    radii = default_radii(space)
    c_h, bad_balls = check_growth_condition(space, args.m, radii)
    capture = _omega_captures(space, bad_balls)
    doc = {"quasi_metric": qm.ok, "quasi_metric_reason": qm.reason,
           "C_H": c_h, "non_ahlfors_balls": len(bad_balls),
           "omega_capture": capture}
    _write_json(doc, args.out)
    return 0 if qm.ok and capture else 1


def cmd_build_lattice(args) -> int:
    from .lattice import build_lattice, save_lattice, \
        verify_lattice_properties
    space = _load_space(args.space, args.allow_large)
    lat = build_lattice(space, args.kappa, seed=args.seed)
    rep = verify_lattice_properties(lat)
    if args.out:
        save_lattice(lat, args.out)
    print(f"generations {lat.k_min}..{lat.k_max}, {len(lat.ids)} cubes, "
          f"properties {'ok' if rep.passed else 'FAILED'}")
    return 0 if rep.passed else 1


def cmd_decompose(args) -> int:
    import numpy as np
    from .lattice import build_lattice, classify_terminal_transit
    from .projections import decompose, properties_check
    space = _load_space(args.space, args.allow_large)
    if args.fn:
        with open(args.fn) as fh:
            phi = np.asarray(json.load(fh), dtype=float)
        if phi.shape != (space.n_points,):
            raise SystemExit("error: function length does not match the space")
        if not np.isfinite(phi).all():
            i = np.flatnonzero(~np.isfinite(phi))[0]
            raise SystemExit(f"error: function value at index {i} is {phi[i]}")
    else:
        phi = np.random.default_rng(args.seed).standard_normal(space.n_points)
    lat = build_lattice(space, args.kappa, seed=args.seed)
    classify_terminal_transit(lat)
    dec = decompose(lat, phi)
    rep = properties_check(dec, phi)
    recon = float(np.max(np.abs(dec.reconstruct() - phi)))
    doc = {"reconstruction_error": recon,
           "idempotence_error": rep.idempotence_err,
           "zero_mean_error": rep.zero_mean_err,
           "orthogonality_error": rep.mutual_orthogonality_err,
           "components": len(dec.components)}
    _write_json(doc, args.report)
    return 0 if rep.passed and recon <= 1e-10 else 1


def cmd_t1_check(args) -> int:
    from .kernels import check_T1, load_kernel
    from .lattice import build_lattice
    space = _load_space(args.space, args.allow_large)
    kernel = load_kernel(args.kernel, space)
    lat = build_lattice(space, args.kappa, seed=args.seed)
    rep = check_T1(kernel, space, lat)
    _write_json({"A": rep.A, "cubes_checked": len(rep.per_cube)}, args.out)
    return 0


def cmd_norm(args) -> int:
    from .kernels import load_kernel, operator_norm
    space = _load_space(args.space, args.allow_large)
    kernel = load_kernel(args.kernel, space)
    norm, converged = operator_norm(kernel, space, tol=args.tol,
                                    seed=args.seed)
    print(f"operator norm {norm:.12g} ({'converged' if converged else 'cap'})")
    return 0 if converged else 1


def cmd_montecarlo(args) -> int:
    from .certify import alpha_param
    from .lattice import build_lattice, estimate_bad_probability
    space = _load_space(args.space, args.allow_large)
    alpha = alpha_param(args.m, args.tau)
    lat = build_lattice(space, args.kappa, seed=args.seed)
    if lat.k_max == lat.k_min:
        raise SystemExit("error: lattice has a single generation")
    ids = lat.by_gen[lat.k_min + 1]
    probe = ids[len(ids) // 2]
    p, err, low = estimate_bad_probability(
        lat.members(probe), lat.k_min + 1, space, args.kappa, alpha,
        args.delta, args.s_param, args.ensemble, master_seed=args.seed)
    doc = {"p_hat": p, "stderr": err, "low_confidence": low,
           "target": args.delta ** 2}
    _write_json(doc, args.out)
    return 0 if p <= args.delta ** 2 + 3 * err else 1


def cmd_certify(args) -> int:
    from .harness import Scenario, make_scenario, run, save_report
    from .kernels import load_kernel
    if args.example:
        scenario = make_scenario(args.example, master_seed=args.seed,
                                 kappa=args.kappa, delta_bad=args.delta,
                                 s_param=None if args.calibrate else args.s_param)
    else:
        if not (args.space and args.kernel):
            raise SystemExit("error: need --example or --space with --kernel")
        space = _load_space(args.space, args.allow_large)
        kernel = load_kernel(args.kernel, space)
        scenario = Scenario(name="custom", space=space, kernel=kernel,
                            m=kernel.m, tau=kernel.tau, n_dim=args.n_dim,
                            kappa=args.kappa, delta_bad=args.delta,
                            s_param=None if args.calibrate else args.s_param,
                            master_seed=args.seed)
    report = run(scenario)
    if args.report:
        save_report(report, args.report)
    else:
        _write_json(report.to_json(), None)
    return 0 if report.passed else 1


def cmd_generate_example(args) -> int:
    from .examples import generate_example
    from .space import save_space
    params = json.loads(args.params) if args.params else {}
    if not isinstance(params, dict):
        raise SystemExit("error: --params must be a JSON object")
    space, info = generate_example(args.name, **params)
    save_space(space, args.out)
    print(f"wrote {args.out}: {space.n_points} points, "
          f"m={info['m']:.4g}, suggested kernel {info['kernel']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="czkit",
                                description="finite-model singular integral "
                                            "certification toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, *flags, space_required=True):
        sp.add_argument("--space", required=space_required)
        sp.add_argument("--allow-large", action="store_true")
        for flag, kind, value in (("--seed", int, 0), ("--kappa", float, 0.5),
                                  ("--out", str, None)):
            if flag in flags:
                sp.add_argument(flag, type=kind, default=value)

    sp = sub.add_parser("verify-space")
    common(sp, "--out")
    sp.add_argument("--m", type=float, default=1.0)
    sp.set_defaults(func=cmd_verify_space)

    sp = sub.add_parser("build-lattice")
    common(sp, "--seed", "--kappa", "--out")
    sp.set_defaults(func=cmd_build_lattice)

    sp = sub.add_parser("decompose")
    common(sp, "--seed", "--kappa")
    sp.add_argument("--fn", default=None)
    sp.add_argument("--report", default=None)
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser(
        "t1-check", description="Fit the testing constant A over the "
        "cubes of one lattice and their dilations. cubes_checked counts the "
        "distinct testing sets on supp mu: sets with the same points there "
        "are one test, and a set without mass is none.")
    common(sp, "--seed", "--kappa", "--out")
    sp.add_argument("--kernel", required=True)
    sp.set_defaults(func=cmd_t1_check)

    sp = sub.add_parser("norm")
    common(sp, "--seed")
    sp.add_argument("--kernel", required=True)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.set_defaults(func=cmd_norm)

    sp = sub.add_parser("montecarlo")
    common(sp, "--seed", "--kappa", "--out")
    sp.add_argument("--m", type=float, default=1.0)
    sp.add_argument("--tau", type=float, default=1.0)
    sp.add_argument("--delta", type=float, default=0.25)
    sp.add_argument("--s-param", type=int, default=2)
    sp.add_argument("--ensemble", type=int, default=200)
    sp.set_defaults(func=cmd_montecarlo)

    sp = sub.add_parser("certify")
    common(sp, "--seed", "--kappa", space_required=False)
    sp.add_argument("--example", default=None)
    sp.add_argument("--kernel", default=None)
    sp.add_argument("--delta", type=float, default=0.25)
    sp.add_argument("--s-param", type=int, default=2)
    sp.add_argument("--calibrate", action="store_true")
    sp.add_argument("--n-dim", type=float, default=2.0)
    sp.add_argument("--report", default=None)
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("generate-example")
    sp.add_argument("name")
    sp.add_argument("--params", default=None,
                    help="JSON object of builder parameters")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_generate_example)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        raise
    except (FileNotFoundError, ValueError, CzkitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
