"""Scenario pipeline, calibration, reports and the command line."""

import contextlib
import copy
import dataclasses
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from czkit import cli
from czkit.errors import CalibrationExhausted, UnknownExample
from czkit.harness import (Scenario, calibrate_S, make_scenario, run,
                           save_report)
from czkit.examples import generate_example
from czkit.kernels import (check_T1, operator_norm_dense,
                           power_kernel)
from czkit.lattice import build_lattice
from czkit.space import dilate, load_space, save_space, space_from_json, \
    space_to_json
from conftest import kernel_doc, line_space


# ---------------------------------------------------------------------------
# scenario construction


def test_scenario_parameter_validation():
    space = line_space(4)
    kern = power_kernel(space, m=1.0)
    good = dict(name="x", space=space, kernel=kern, n_dim=1.0)
    with pytest.raises(ValueError):
        Scenario(kappa=1.5, **good)
    with pytest.raises(ValueError):
        Scenario(delta_bad=0.0, **good)
    # m and tau are the kernel's
    for field in ("m", "tau"):
        with pytest.raises(TypeError):
            Scenario(**good, **{field: 1.0})
        bad = dataclasses.replace(kern, **{field: -1.0 if field == "tau"
                                           else 0.0})
        with pytest.raises(ValueError, match="must be positive"):
            Scenario(**{**good, "kernel": bad})


def test_make_scenario_each_example():
    for name in ["uniform_grid", "line_in_plane", "cantor_measure",
                 "bergman_disc_model"]:
        sc = make_scenario(name)
        assert sc.name == name
        assert sc.space.n_points > 0
        assert sc.kernel.matrix.shape == (sc.space.n_points,) * 2


def test_make_scenario_unknown_example():
    with pytest.raises(UnknownExample):
        make_scenario("no_such_example")


def test_make_scenario_kappa_override():
    assert make_scenario("cantor_measure").kappa == 0.5
    assert make_scenario("cantor_measure", kappa=0.3).kappa == 0.3
    with pytest.raises(ValueError):
        make_scenario("cantor_measure", kappa=1.5)


def test_make_scenario_kernel_override():
    sc = make_scenario("uniform_grid", m=1.5, tau=0.5)
    assert sc.kernel.m == 1.5 and sc.kernel.tau == 0.5


# ---------------------------------------------------------------------------
# calibration


def test_calibrate_rejects_small_ensemble():
    with pytest.raises(ValueError):
        calibrate_S(line_space(16), 0.5, 0.25, 0.25, ensemble=50)


def test_calibrate_exhausts_on_shallow_lattice():
    with pytest.raises(CalibrationExhausted):
        calibrate_S(line_space(3), 0.5, 0.25, 0.25, ensemble=100)


def test_calibrate_cantor_reaches_target():
    from czkit.examples import generate_example
    space, _ = generate_example("cantor_measure")
    res = calibrate_S(space, 0.5, 0.25, 0.25, ensemble=100, seed=0)
    assert not res.exhausted
    assert res.p_hat <= 0.25 ** 2
    assert res.s_param >= 1
    # candidates double until the target is met
    cands = [s for s, _, _ in res.trace]
    assert cands == [2 ** i for i in range(len(cands))]


def test_calibrate_exhausted_flag_when_target_unreachable():
    from czkit.examples import generate_example
    space, _ = generate_example("uniform_grid")
    res = calibrate_S(space, 0.5, 0.25, 0.25, ensemble=100, seed=0)
    # the grid lattice is too shallow for the separation target, so the
    # largest feasible exponent comes back flagged rather than an error
    assert res.exhausted
    assert res.s_param >= 1


def test_calibrate_deterministic():
    from czkit.examples import generate_example
    space, _ = generate_example("cantor_measure")
    r1 = calibrate_S(space, 0.5, 0.25, 0.25, ensemble=100, seed=3)
    r2 = calibrate_S(space, 0.5, 0.25, 0.25, ensemble=100, seed=3)
    assert (r1.s_param, r1.p_hat, r1.stderr) == (r2.s_param, r2.p_hat,
                                                 r2.stderr)


def test_calibrate_golden_trace():
    # captured from the ensemble's key stream; its gaps are checked against
    # full per-lattice draws in test_ensemble_reference
    from czkit.examples import generate_example
    space, _ = generate_example("uniform_grid", n=9)
    res = calibrate_S(space, 0.5, alpha=0.1, delta_bad=0.7, ensemble=100,
                      seed=0)
    assert res.trace == [(1, 1.0, 1e-07), (2, 1.0, 1e-07),
                         (4, 0.66, 0.04737087712930804)]
    assert (res.s_param, res.exhausted) == (4, True)


@pytest.mark.parametrize("name,params,alpha,delta_bad,candidates", [
    ("bergman_disc_model", {"n_ring": 64, "n_cluster": 8, "n_boundary": 32},
     0.25, 0.25, 1),
    ("uniform_grid", {"n": 9}, 0.1, 0.7, 3),
])
def test_calibrate_builds_one_ensemble(monkeypatch, name, params, alpha,
                                       delta_bad, candidates):
    from czkit import harness, lattice
    from czkit.examples import generate_example
    space, _ = generate_example(name, **params)
    builds, draws, streams = [], [], []

    def counting(calls, func):
        def wrapped(*args, **kwargs):
            calls.append(args)
            return func(*args, **kwargs)
        return wrapped

    build = counting(builds, lattice.build_lattice)
    monkeypatch.setattr(lattice, "build_lattice", build)
    monkeypatch.setattr(harness, "build_lattice", build)
    monkeypatch.setattr(lattice, "_draw_orders",
                        counting(draws, lattice._draw_orders))
    monkeypatch.setattr(lattice, "_ensemble_keys",
                        counting(streams, lattice._ensemble_keys))
    res = calibrate_S(space, 0.5, alpha, delta_bad, ensemble=100, seed=0)
    # one full base lattice, the one seed whose orders are drawn, then one
    # ensemble for every probe and every S, whose lattices all read one key
    # stream, whatever the chunking
    assert len(res.trace) == candidates
    assert len(builds) == 1
    assert [args[0] for args in draws] == [[0]]
    assert streams == [(0,)]


def test_calibrate_memory_peak():
    # the benchmark's bergman_calibrate calibration: the ensemble is drawn
    # in chunks, so its tracemalloc peak stays near 1.6 MB; one batch of
    # all 150 lattices peaked at 6.85 MB
    import tracemalloc
    from czkit.certify import alpha_param
    from czkit.examples import generate_example
    space, info = generate_example("bergman_disc_model", n_ring=64,
                                   n_cluster=8, n_boundary=32)
    alpha = alpha_param(info["m"], info["tau"])
    # a first calibration pays for lazy imports and first-call set-up
    calibrate_S(generate_example("cantor_measure", level=4)[0], 0.5, alpha,
                0.25, ensemble=100)
    tracemalloc.start()
    try:
        calibrate_S(space, info["kappa"], alpha, 0.25, ensemble=150, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6


def test_calibrate_memory_peak_at_441_points():
    # the chunks budget cells (seed x generation x point), so the chunk
    # holds fewer seeds as N grows; the per-lattice chunks of 16 peaked at
    # 3.28 MB here
    import tracemalloc
    from czkit.certify import alpha_param
    from czkit.examples import generate_example
    space, info = generate_example("line_in_plane", n=21)
    alpha = alpha_param(info["m"], info["tau"])
    calibrate_S(generate_example("cantor_measure", level=4)[0], 0.5, alpha,
                0.25, ensemble=100)
    tracemalloc.start()
    try:
        calibrate_S(space, info["kappa"], alpha, 0.25, ensemble=100, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.3e6


def test_build_memory_peak():
    # the metric, resolution_h, the power kernel and its size fit run in
    # row tiles or in place, so building line_in_plane(45), N = 2025, holds
    # about two N x N arrays at once (2.16 N^2 doubles)
    import tracemalloc
    make_scenario("line_in_plane", example_params={"n": 5})
    n = 45 ** 2
    tracemalloc.start()
    try:
        make_scenario("line_in_plane", example_params={"n": 45})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * n * n


def test_run_memory_peak():
    # on top of the built scenario, a run of line_in_plane(45), N = 2025,
    # holds at most four N x N arrays at once.  It reads 3.62 N^2 doubles,
    # at the ball mask of ``ball_masses``; the certificate stays below
    # that, as cube reductions run in tiles and the quasi-metric checks
    # build no N x N difference on a space that passes them (a transposed
    # copy of rho per member gather peaked at 3.92 in ``check_T1``)
    import tracemalloc
    run(make_scenario("line_in_plane", example_params={"n": 5}))
    scenario = make_scenario("line_in_plane", example_params={"n": 45})
    n = 45 ** 2
    tracemalloc.start()
    try:
        run(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.0 * 8 * n * n


def test_bergman_run_memory_peak():
    # one bergman 64/8/32 run peaks in ``pair_geometry``.  Its |K| sup
    # table's first stage is transposed once and dropped, and the table is
    # freed once the halves have read their pieces' columns: 2.35 MB.  The
    # first stage held with a transposed tile of it, and the table with
    # the dist reductions, peaked at 2.65 MB
    import tracemalloc
    params = {"n_ring": 64, "n_cluster": 8, "n_boundary": 32}
    run(make_scenario("bergman_disc_model", example_params=params,
                      seeds=(5, 9)))
    scenario = make_scenario("bergman_disc_model", example_params=params,
                             seeds=(5, 9))
    tracemalloc.start()
    try:
        run(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.45e6


# ---------------------------------------------------------------------------
# pipeline runs and reports


@pytest.fixture(scope="module")
def grid_run():
    return run(make_scenario("uniform_grid", s_param=1))


def test_run_grid_passes(grid_run):
    assert grid_run.passed
    assert set(grid_run.stages) >= {"space", "lattice", "decomposition",
                                    "certificate"}
    assert grid_run.stages["space"]["quasi_metric"]
    assert grid_run.stages["lattice"]["passed"]
    assert grid_run.stages["decomposition"]["passed"]
    assert grid_run.stages["certificate"]["verdict"]
    assert grid_run.certificate is not None
    emp = grid_run.stages["certificate"]["empirical_norm"]
    cert = grid_run.stages["certificate"]["certified_total"]
    assert emp <= cert


def test_run_report_deterministic(grid_run):
    again = run(make_scenario("uniform_grid", s_param=1))
    d1, d2 = grid_run.to_json(), again.to_json()
    d1.pop("timings")
    d2.pop("timings")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_run_with_calibration_stage():
    sc = make_scenario("cantor_measure", s_param=None, ensemble=100)
    rep = run(sc)
    assert "calibration" in rep.stages
    assert rep.stages["calibration"]["S"] >= 1
    assert rep.passed


def test_save_report_round_trip(grid_run, tmp_path):
    path = tmp_path / "report.json"
    save_report(grid_run, path)
    doc = json.loads(path.read_text())
    assert doc["scenario"] == "uniform_grid"
    assert doc["passed"] is True
    assert "certificate" in doc and "lemmas" in doc["certificate"]
    assert all(isinstance(v, float) for v in doc["timings"].values())


# ---------------------------------------------------------------------------
# command line


@pytest.fixture(scope="module")
def grid_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "grid.json"
    assert cli.main(["generate-example", "uniform_grid",
                     "--out", str(path)]) == 0
    return str(path)


def test_cli_verify_space(grid_file, capsys):
    assert cli.main(["verify-space", "--space", grid_file, "--m", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["quasi_metric"] is True
    assert doc["quasi_metric_reason"].startswith("euclidean coords: ")
    assert doc["omega_capture"] is True


def test_growth_loop_runs_once_per_run(grid_file, capsys, monkeypatch):
    # omega capture is read off the non-Ahlfors list of the one growth loop
    import czkit.harness
    import czkit.space
    calls = []
    real = czkit.space.check_growth_condition

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(czkit.space, "check_growth_condition", counted)
    monkeypatch.setattr(czkit.harness, "check_growth_condition", counted)
    rep = run(make_scenario("cantor_measure", example_params={"level": 3}))
    assert rep.stages["space"]["omega_capture"] is True
    assert len(calls) == 1
    assert cli.main(["verify-space", "--space", grid_file, "--m", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["omega_capture"] is True
    assert len(calls) == 2


def test_ball_table_built_once_per_run(monkeypatch):
    # the growth and Ahlfors checks read one mu and nu table
    import czkit.harness
    import czkit.space
    calls = []
    real = czkit.space.ball_masses

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(czkit.space, "ball_masses", counted)
    monkeypatch.setattr(czkit.harness, "ball_masses", counted)
    rep = run(make_scenario("cantor_measure", example_params={"level": 3}))
    assert rep.passed and len(calls) == 1


def test_euclidean_space_skips_the_triple_scan(monkeypatch):
    # the metric of line_in_plane is that of its coords, so the run proves
    # the quasi-triangle inequality without reading a triple
    import czkit.space

    def scan(*args, **kwargs):
        raise AssertionError("the triple scan ran")

    monkeypatch.setattr(czkit.space, "_worst_triangle_excess", scan)
    rep = run(make_scenario("line_in_plane", example_params={"n": 21}))
    assert rep.passed and rep.stages["space"]["quasi_metric"] is True


def test_terminal_flags_set_once_per_lattice(monkeypatch):
    # run classifies the seeds[0] lattice and certify keeps its flags; a
    # lattice passed without flags is still classified
    import czkit.harness
    import czkit.lattice
    from czkit.certify import certify
    calls = []
    real = czkit.lattice.classify_terminal_transit

    def counted(lat, *args, **kwargs):
        calls.append(lat.seed)
        return real(lat, *args, **kwargs)

    monkeypatch.setattr(czkit.lattice, "classify_terminal_transit", counted)
    monkeypatch.setattr(czkit.harness, "classify_terminal_transit", counted)
    scenario = make_scenario("cantor_measure", example_params={"level": 6})
    assert run(scenario).passed
    assert calls == [1, 2]
    calls.clear()
    lat = czkit.lattice.build_lattice(scenario.space, scenario.kappa, seed=1)
    certify(scenario.kernel, scenario.space, kappa=scenario.kappa,
            lattice=lat)
    assert calls == [1, 2]


def test_cli_build_lattice(grid_file, tmp_path):
    out = tmp_path / "lat.json"
    assert cli.main(["build-lattice", "--space", grid_file,
                     "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["generations"]
    assert all(gen["cubes"] for gen in doc["generations"])


def test_cli_decompose(grid_file, tmp_path):
    rep = tmp_path / "dec.json"
    assert cli.main(["decompose", "--space", grid_file,
                     "--report", str(rep)]) == 0
    doc = json.loads(rep.read_text())
    assert doc["reconstruction_error"] <= 1e-10


def test_cli_decompose_rejects_wrong_length(grid_file, tmp_path):
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps([1.0, 2.0]))
    assert cli.main(["decompose", "--space", grid_file,
                     "--fn", str(fn)]) == 2


@pytest.mark.parametrize("bad", ("Infinity", "NaN", "-Infinity"))
def test_cli_decompose_rejects_non_finite(grid_file, tmp_path, capsys, bad):
    with open(grid_file) as fh:
        values = ["0.5"] * len(json.load(fh)["points"])
    values[3] = bad
    fn = tmp_path / "fn.json"
    fn.write_text("[" + ", ".join(values) + "]")
    rep = tmp_path / "dec.json"
    assert cli.main(["decompose", "--space", grid_file, "--fn", str(fn),
                     "--report", str(rep)]) == 2
    assert "index 3" in capsys.readouterr().err
    assert not rep.exists()


def test_cli_certify_example(tmp_path):
    rep = tmp_path / "cert.json"
    code = cli.main(["certify", "--example", "uniform_grid",
                     "--s-param", "1", "--report", str(rep)])
    assert code == 0
    doc = json.loads(rep.read_text())
    assert doc["passed"] is True
    assert doc["certificate"]["verdict"] == "pass"


@pytest.mark.parametrize("kappa,code", (("0.3", 0), ("1.5", 2)))
def test_cli_certify_example_reads_kappa(tmp_path, kappa, code):
    rep = tmp_path / "cert.json"
    assert cli.main(["certify", "--example", "cantor_measure", "--kappa",
                     kappa, "--report", str(rep)]) == code
    if code == 0:
        doc = json.loads(rep.read_text())
        assert doc["certificate"]["constants"]["kappa"] == 0.3
    else:
        assert not rep.exists()


@pytest.fixture(scope="module")
def cantor_files(tmp_path_factory):
    """Cantor level 4 and its power kernel, as files."""
    space, info = generate_example("cantor_measure", level=4)
    kernel = power_kernel(space, m=info["m"], tau=info["tau"])
    root = tmp_path_factory.mktemp("cantor")
    save_space(space, root / "space.json")
    (root / "kernel.json").write_text(json.dumps(kernel_doc(kernel)))
    return space, kernel, str(root / "space.json"), str(root / "kernel.json")


@pytest.mark.parametrize("to_file", (True, False))
def test_cli_t1_check(cantor_files, tmp_path, capsys, to_file):
    space, kernel, space_file, kernel_file = cantor_files
    out = tmp_path / "t1.json"
    assert cli.main(["t1-check", "--space", space_file, "--kernel",
                     kernel_file, "--seed", "3"] +
                    (["--out", str(out)] if to_file else [])) == 0
    doc = json.loads(out.read_text() if to_file else capsys.readouterr().out)
    rep = check_T1(kernel, space, build_lattice(space, 0.5, seed=3))
    assert doc == {"A": rep.A, "cubes_checked": len(rep.per_cube)}


def test_cli_t1_check_counts_sets_on_supp_mu(tmp_path, capsys):
    # line_in_plane puts mu on 13 of its 169 points: cubes_checked counts
    # the testing sets as sets of points of supp mu, each nonempty one once
    space, info = generate_example("line_in_plane", n=13)
    save_space(space, tmp_path / "space.json")
    kernel = power_kernel(space, m=info["m"], tau=info["tau"])
    (tmp_path / "kernel.json").write_text(json.dumps(kernel_doc(kernel)))
    assert cli.main(["t1-check", "--space", str(tmp_path / "space.json"),
                     "--kernel", str(tmp_path / "kernel.json"),
                     "--seed", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    space = load_space(tmp_path / "space.json")
    lat = build_lattice(space, 0.5, seed=3)
    supp = set(np.flatnonzero(space.mu > 0).tolist())
    ids = lat.ids.tolist()
    sets = [frozenset(lat.members(c).tolist()) for c in ids] + \
        [frozenset(dilate(space, lat.members(c), lam).tolist())
         for c in ids for lam in (1.2, 1.4, 1.5, 3.0)]
    on_supp = {s & supp for s in sets} - {frozenset()}
    assert doc["cubes_checked"] == len(on_supp) < len(set(sets))


def test_cli_norm(cantor_files, capsys):
    space, kernel, space_file, kernel_file = cantor_files
    assert cli.main(["norm", "--space", space_file, "--kernel",
                     kernel_file]) == 0
    words = capsys.readouterr().out.split()
    assert words[:2] == ["operator", "norm"] and words[3] == "(converged)"
    exact = operator_norm_dense(kernel, space)
    assert abs(float(words[2]) - exact) <= 1e-6


@pytest.mark.parametrize("to_file", (True, False))
def test_cli_certify_custom_space_and_kernel(cantor_files, tmp_path, capsys,
                                             to_file):
    _, _, space_file, kernel_file = cantor_files
    rep = tmp_path / "cert.json"
    assert cli.main(["certify", "--space", space_file, "--kernel",
                     kernel_file, "--n-dim", "0.5"] +
                    (["--report", str(rep)] if to_file else [])) == 0
    doc = json.loads(rep.read_text() if to_file else capsys.readouterr().out)
    assert doc["scenario"] == "custom" and doc["passed"] is True
    assert doc["certificate"]["verdict"] == "pass"


@pytest.mark.parametrize("argv", (["--space", "s.json"],
                                  ["--kernel", "k.json"], []))
def test_cli_certify_needs_example_or_space_and_kernel(argv, capsys):
    assert cli.main(["certify", *argv]) == 2
    assert capsys.readouterr().err == \
        "error: need --example or --space with --kernel\n"


def test_cli_certify_overflowing_radius_power_is_bad_input(tmp_path, capsys):
    # a 6-point line scaled by 1e160: the n_dim = 2 Ahlfors check takes
    # r^2 > 1.8e308, which must exit 2 with a message, not a traceback
    n = 6
    path = tmp_path / "far.json"
    path.write_text(json.dumps({
        "points": list(range(n)), "nu": [1.0] * n, "mu": [1 / n] * n,
        "metric": {"type": "explicit",
                   "matrix": [[abs(i - j) * 1e160 for j in range(n)]
                              for i in range(n)]}}))
    matrix = np.ones((n, n))
    matrix[0, 5] = matrix[5, 0] = 2.0
    kernel = tmp_path / "kernel.json"
    kernel.write_text(json.dumps({"type": "explicit", "m": 1.0, "tau": 1.0,
                                  "matrix": matrix.tolist()}))
    assert cli.main(["certify", "--space", str(path), "--kernel",
                     str(kernel)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: radius ") and \
        err.endswith("to the power 2 is out of the float64 range\n")


def test_broken_triangle_inequality_stops_before_certify(tmp_path, capsys):
    # rho(a, c) = 3 > rho(a, b) + rho(b, c): the space stage fails
    path = tmp_path / "bent.json"
    path.write_text(json.dumps({
        "points": ["a", "b", "c"], "nu": [1, 1, 1], "mu": [0.5, 0.25, 0.25],
        "metric": {"type": "explicit",
                   "matrix": [[0, 1, 3], [1, 0, 1], [3, 1, 0]]}}))
    kernel = tmp_path / "kernel.json"
    kernel.write_text(json.dumps({"type": "power", "m": 1.0}))
    rep = tmp_path / "cert.json"
    assert cli.main(["certify", "--space", str(path), "--kernel",
                     str(kernel), "--report", str(rep)]) == 1
    doc = json.loads(rep.read_text())
    assert doc["passed"] is False
    assert doc["stages"]["space"]["quasi_metric"] is False
    assert "certificate" not in doc and list(doc["stages"]) == ["space"]


def test_cli_montecarlo(grid_file, tmp_path):
    out = tmp_path / "mc.json"
    code = cli.main(["montecarlo", "--space", grid_file, "--m", "2",
                     "--tau", "1", "--s-param", "1", "--ensemble", "150",
                     "--out", str(out)])
    doc = json.loads(out.read_text())
    assert {"p_hat", "stderr", "target"} <= set(doc)
    assert code in (0, 1)


def test_cli_montecarlo_is_deterministic(grid_file):
    # two fresh processes, under different string-hash seeds, print the
    # same estimate for one --seed
    import os
    import subprocess
    import sys
    from pathlib import Path
    import czkit
    src = str(Path(czkit.__file__).resolve().parents[1])
    outs = []
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from czkit.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "montecarlo", "--space",
             grid_file, "--m", "2", "--s-param", "1", "--delta", "0.7",
             "--seed", "3"],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode in (0, 1), done.stderr
        outs.append(done.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["p_hat"] > 0


@pytest.mark.parametrize("size", ("0", "-3"))
def test_cli_montecarlo_empty_ensemble_is_input_error(grid_file, tmp_path,
                                                      capsys, size):
    out = tmp_path / "mc.json"
    assert cli.main(["montecarlo", "--space", grid_file, "--ensemble", size,
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: ensemble size must be at least 1, got {size}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify-space", "build-lattice",
                                     "montecarlo"])
def test_cli_duplicate_points_are_input_error(command, tmp_path, capsys):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({
        "points": ["a", "b", "c", "d"],
        "metric": {"type": "euclidean",
                   "coords": [[0, 0], [1, 0], [1, 0], [2, 0]]},
        "nu": [1, 1, 1, 1], "mu": [0.25] * 4}))
    assert cli.main([command, "--space", str(path)]) == 2
    assert "'b' and 'c'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify-space", "build-lattice"])
@pytest.mark.parametrize("doc,message", [
    ({"points": ["a", "b", "c"],
      "metric": {"type": "euclidean",
                 "coords": [[0, 0], [1, 0], [2, 0], [3, 0]]},
      "nu": [1, 1, 1], "mu": [0.5, 0.25, 0.25]}, "3 points, 3 nu and 3 mu "
                                                 "weights but a 4x4 metric"),
    ({"points": ["a", "b", "c"],
      "metric": {"type": "explicit",
                 "matrix": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
      "nu": [1, 1, 1, 1], "mu": [0.5, 0.5]}, "3 points, 4 nu and 2 mu"),
    ({"points": ["a", "b"],
      "metric": {"type": "explicit", "matrix": [[0, 1, 2], [1, 0, 1]]},
      "nu": [1, 1], "mu": [0.5, 0.5]}, "a 2x3 metric"),
    ({"points": ["a", "b"],
      "metric": {"type": "euclidean", "coords": [0.0, 1.0]},
      "nu": [1, 1], "mu": [0.5, 0.5]},
     "the euclidean coords must be an (N, d) array, one row of d "
     "coordinates per point, not an array of shape (2,)"),
], ids=["coords", "weights", "matrix", "flat-coords"])
def test_cli_mismatched_lengths_are_input_error(command, doc, message,
                                                tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main([command, "--space", str(path)]) == 2
    assert message in capsys.readouterr().err


def _three_points(**changes):
    doc = {"points": ["a", "b", "c"],
           "metric": {"type": "explicit",
                      "matrix": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
           "nu": [1, 1, 1], "mu": [0.5, 0.25, 0.25]}
    doc.update(changes)
    return doc


@pytest.mark.parametrize("command", ["verify-space", "build-lattice"])
@pytest.mark.parametrize("doc,message", [
    (_three_points(metric={"type": "explicit", "matrix": [
        [0, 1, math.nan], [1, 0, 1], [math.nan, 1, 0]]}),
     "metric entries must be finite and nonnegative"),
    (_three_points(metric={"type": "euclidean",
                           "coords": [[0, 0], [1, math.inf], [2, 0]]}),
     "euclidean coords have non-finite entries"),
    (_three_points(mu=[0.5, math.nan, 0.5]), "mu entries must be finite"),
    (_three_points(mu=[1.25, -0.5, 0.25]), "mu entries must be finite and "
                                           "nonnegative"),
    (_three_points(nu=[1, math.inf, 1]), "nu entries must be finite"),
    (_three_points(metric={"type": "explicit", "matrix": [
        [0, 1, 2], [1, 0.5, 1], [2, 1, 0]]}),
     "point 'b' is at distance 0.5 from itself"),
], ids=["nan-metric", "inf-coords", "nan-mu", "negative-mu", "inf-nu",
        "nonzero-diagonal"])
def test_cli_non_finite_space_is_input_error(command, doc, message, tmp_path,
                                             capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))     # NaN and Infinity, as Python writes
    assert cli.main([command, "--space", str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def _cli(args) -> tuple:
    """(exit code, stdout, stderr) of ``czkit <args>``, in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("field,value", [
    ("quasi_const", math.nan), ("quasi_const", math.inf),
    ("quasi_const", 0.5), ("quasi_const", "2.5"), ("resolution_h", math.nan),
    ("resolution_h", -math.inf), ("resolution_h", -1.0)])
def test_cli_space_constants_must_be_finite_and_in_range(field, value,
                                                         tmp_path):
    # rho(a, c) = 5 needs K >= 2.5; K = NaN or inf passed the triple scan
    # (exit 0), and h = NaN gave C_H 0 and a false triangle violation
    path = tmp_path / "space.json"
    args = ["verify-space", "--space", str(path)]
    spread = {"type": "explicit", "matrix": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}
    for k_q, code in ((1.0, 1), (2.5, 0)):
        path.write_text(json.dumps(_three_points(metric=spread,
                                                 quasi_const=k_q)))
        assert _cli(args)[0] == code
    path.write_text(json.dumps(_three_points(metric=spread, **{field: value})))
    code, out, err = _cli(args)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: space field {field!r} must be ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify-space", "certify"])
@pytest.mark.parametrize("where,field", [
    ((), "points"), ((), "metric"), ((), "nu"), ((), "mu"),
    (("metric",), "type"), (("metric",), "matrix"), (("metric",), "coords")])
def test_cli_missing_space_field_is_named(command, where, field, tmp_path):
    # a missing field printed only the KeyError's key, as in "error: 'mu'"
    doc = _three_points()
    if field == "coords":
        doc["metric"] = {"type": "euclidean"}
    else:
        (doc[where[0]] if where else doc).pop(field)
    (tmp_path / "space.json").write_text(json.dumps(doc))
    (tmp_path / "kernel.json").write_text(json.dumps({"type": "power"}))
    args = [command, "--space", str(tmp_path / "space.json")]
    if command == "certify":
        args += ["--kernel", str(tmp_path / "kernel.json")]
    code, out, err = _cli(args)
    assert (code, out) == (2, "")
    owner = f"space field {where[0]!r}" if where else "space document"
    assert err == f"error: {owner} has no field {field!r}\n"


def test_cli_certify_two_points_without_components(tmp_path):
    # at distance 1.5 neither lattice has a component cube, and the probe
    # chunk was cells // (0 rows * N): a ZeroDivisionError
    (tmp_path / "space.json").write_text(json.dumps({
        "points": [0, 1], "nu": [1.0, 1.0], "mu": [0.5, 0.5],
        "metric": {"type": "explicit", "matrix": [[0, 1.5], [1.5, 0]]}}))
    (tmp_path / "kernel.json").write_text(json.dumps({"type": "power"}))
    code, out, err = _cli(["certify", "--space", str(tmp_path / "space.json"),
                           "--kernel", str(tmp_path / "kernel.json")])
    assert code in (0, 1) and err == ""
    cert = json.loads(out)["certificate"]
    assert cert["empirical_norm"] <= cert["certified_total"]


@pytest.mark.parametrize("command", ["build-lattice", "decompose",
                                     "t1-check", "montecarlo"])
def test_cli_too_many_generations_is_input_error(command, tmp_path):
    # scales from diam 2 down to 1e-30 are 102 generations at kappa 1/2;
    # a certificate's tables grow with each, and at 1e154 times the scale
    # of a few points one ran out of memory
    (tmp_path / "space.json").write_text(json.dumps(_three_points(
        resolution_h=1e-30)))
    (tmp_path / "kernel.json").write_text(json.dumps({"type": "power"}))
    args = [command, "--space", str(tmp_path / "space.json")]
    if command == "t1-check":
        args += ["--kernel", str(tmp_path / "kernel.json")]
    code, out, err = _cli(args)
    assert (code, out) == (2, "")
    assert err == ("error: diam 2 down to resolution_h 1e-30 is 102 "
                   "generations, more than 64\n")


def test_cli_mu_above_one_is_input_error(tmp_path):
    # every bound of a certificate takes mu(X) <= 1; at mu(x) = 1e308 its
    # mass products overflowed
    path = tmp_path / "space.json"
    path.write_text(json.dumps(_three_points(mu=[0.5, 0.25, 0.5])))
    code, out, err = _cli(["verify-space", "--space", str(path)])
    assert (code, out, err) == (2, "", "error: space field 'mu' must have a "
                                "total mass of at most 1, not 1.25\n")


def _scaled_cantor(level: int, factor: float) -> dict:
    """The Cantor space of ``level`` with its coordinates times ``factor``,
    its resolution left to be read off the metric."""
    doc = space_to_json(generate_example("cantor_measure", level=level)[0])
    doc["metric"]["coords"] = (np.array(doc["metric"]["coords"]) *
                               factor).tolist()
    del doc["resolution_h"]
    return doc


def test_cli_coordinates_beyond_the_square_range(tmp_path):
    # squares of coordinate differences above about 1.3e154 overflowed:
    # Cantor level 3 at 1e160 was refused as "metric entries must be
    # finite"
    path = tmp_path / "space.json"
    path.write_text(json.dumps(_scaled_cantor(3, 1e160)))
    code, out, err = _cli(["verify-space", "--space", str(path)])
    assert (code, err) == (0, "")
    assert json.loads(out)["quasi_metric"]


def test_cli_certify_beyond_the_float_range_is_one_line(tmp_path):
    # at 1e100 with m = 3 the far coefficients' powers overflow: numpy's
    # warned and scalar ** ended the run with a traceback
    (tmp_path / "space.json").write_text(json.dumps(_scaled_cantor(4, 1e100)))
    (tmp_path / "kernel.json").write_text(json.dumps(
        {"type": "power", "m": 3, "tau": 1}))
    args = ["certify", "--space", str(tmp_path / "space.json"), "--kernel",
            str(tmp_path / "kernel.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _cli(args)
    assert (code, out, err) == (2, "", "error: a value of the run is out of "
                                "the float64 range; rescale the space\n")


@pytest.mark.parametrize("omega,message", [
    (["a", "z"], "omega id 'z' is not a point"),
    ([["a"]], "omega id ['a'] is not a point"),
    ("a", "space field 'omega' must be a list of point ids")])
def test_cli_bad_omega_id_is_named(omega, message, tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(_three_points(omega=omega)))
    code, out, err = _cli(["verify-space", "--space", str(path)])
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["norm", "t1-check"])
def test_cli_unknown_diagonal_policy_is_input_error(command, grid_file,
                                                    tmp_path, capsys):
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps({"type": "constant", "m": 2.0,
                                "params": {"value": 1.0},
                                "diagonal_policy": "clip"}))
    assert cli.main([command, "--space", grid_file,
                     "--kernel", str(path)]) == 2
    assert "unknown diagonal policy 'clip'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify-space", "build-lattice",
                                     "decompose", "t1-check", "norm",
                                     "montecarlo"])
def test_cli_missing_space_is_usage_error(command, capsys):
    argv = [command] + (["--kernel", "k.json"] if command in ("t1-check",
                                                            "norm") else [])
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "required: --space" in err


@pytest.mark.parametrize("command,flag", [
    ("verify-space", "--seed"), ("verify-space", "--kappa"),
    ("decompose", "--out"), ("certify", "--out"), ("norm", "--kappa"),
    ("norm", "--out")])
def test_cli_unread_flags_are_rejected(command, flag, grid_file, capsys):
    # each of these flags was parsed and then ignored
    kernel = ["--kernel", "k.json"] if command in ("certify", "norm") else []
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--space", grid_file, *kernel, flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_cli_missing_file_is_input_error(tmp_path):
    assert cli.main(["verify-space",
                     "--space", str(tmp_path / "absent.json")]) == 2


def test_cli_unknown_example_is_input_error(tmp_path):
    assert cli.main(["generate-example", "no_such_example",
                     "--out", str(tmp_path / "x.json")]) == 2


@pytest.mark.parametrize("params,message", [
    ('[1]', "--params must be a JSON object"),
    ('{"bogus": 1}', "example 'uniform_grid' takes no parameter 'bogus'; "
                     "its parameters are ['n', 'normalize']"),
    ('{"n": 2.5}', "parameter 'n' of example 'uniform_grid' must be int, "
                   "got 2.5"),
    ('{"n": "abc"}', "parameter 'n' of example 'uniform_grid' must be int, "
                     "got 'abc'"),
    ('{"normalize": 1}', "parameter 'normalize' of example 'uniform_grid' "
                         "must be bool, got 1"),
], ids=["list", "unknown-key", "float-size", "string-size", "int-flag"])
def test_cli_bad_example_params_are_input_error(params, message, tmp_path,
                                                capsys):
    out = tmp_path / "x.json"
    assert cli.main(["generate-example", "uniform_grid", "--params", params,
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_cli_size_guard(grid_file, monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_POINTS", 10)
    assert cli.main(["verify-space", "--space", grid_file]) == 2
    assert "allow-large" in capsys.readouterr().err
    assert cli.main(["verify-space", "--space", grid_file, "--m", "2",
                     "--allow-large"]) == 0


# ---------------------------------------------------------------------------
# kernel documents


@pytest.fixture(scope="module")
def cantor3(tmp_path_factory):
    """Cantor level 3 as a file, its n_dim, and valid power, bergman and
    explicit kernel documents with the example's m and tau."""
    space, info = generate_example("cantor_measure", level=3)
    root = tmp_path_factory.mktemp("kernel_docs")
    save_space(space, root / "space.json")
    base = {"m": info["m"], "tau": info["tau"], "delta_CZ": 0.5}
    matrix = power_kernel(space, m=info["m"], tau=info["tau"]).matrix
    docs = {"power": {"type": "power", "params": {"amplitude": 1.0},
                      "diagonal_policy": "zero", **base},
            "bergman": {"type": "bergman", **base},
            "explicit": {"type": "explicit", "matrix": matrix.tolist(),
                         "C_CZ": 1.0, **base}}
    return root, str(info["n_dim"]), docs


def _kernel_cli(cantor3, doc, command="certify"):
    """(exit code, stdout, stderr) of ``czkit <command>`` (certify, norm or
    t1-check) in process, on the Cantor level 3 file with ``doc`` as its
    kernel file."""
    root, n_dim, _ = cantor3
    (root / "kernel.json").write_text(json.dumps(doc))
    args = [command, "--space", str(root / "space.json"),
            "--kernel", str(root / "kernel.json")]
    if command == "certify":
        args += ["--n-dim", n_dim]
    return _cli(args)


@pytest.mark.parametrize("kind,edit,field", [
    ("power", lambda doc: [doc], "kernel document"),
    ("power", lambda doc: {**doc, "params": [1]}, "'params'"),
    ("power", lambda doc: {**doc, "params": {"amplitude": "a"}},
     "'amplitude'"),
    ("explicit", lambda doc: {**doc, "C_CZ": "big"}, "'C_CZ'"),
    ("explicit", lambda doc: {**doc, "C_CZ": -1}, "'C_CZ'"),
    ("power", lambda doc: {**doc, "delta_CZ": 2.0}, "'delta_CZ'"),
], ids=["list", "params-list", "amplitude-string", "C_CZ-string",
        "C_CZ-negative", "delta_CZ-above-1"])
def test_cli_bad_kernel_document_is_input_error(cantor3, kind, edit, field):
    code, out, err = _kernel_cli(cantor3, edit(cantor3[2][kind]))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err


@pytest.mark.parametrize("command", ["norm", "t1-check", "certify"])
@pytest.mark.parametrize("change", [
    {"params": {"amplitude": 1e308}}, {"m": 600.0},
    {"m": 500.0, "diagonal_policy": "truncate"},
], ids=["amplitude", "m", "m-truncate"])
def test_cli_overflowing_power_kernel_names_its_fields(cantor3, command,
                                                       change):
    # amplitude / rho^m overflows off the diagonal, and on a truncated
    # diagonal h^m underflows to 0 before amplitude / h^m
    code, out, err = _kernel_cli(cantor3, {**cantor3[2]["power"], **change},
                                 command)
    assert (code, out) == (2, "")
    assert err.startswith("error: kernel fields 'amplitude' = ")
    assert err.count("\n") == 1 and "and 'm' = " in err


@pytest.mark.parametrize("command", ["verify-space", "build-lattice",
                                     "decompose", "t1-check", "montecarlo",
                                     "certify"])
def test_cli_asymmetric_metric_is_input_error(cantor3, command, tmp_path,
                                              capsys):
    # rho[0, 1] 1e-13 above rho[1, 0]: every command refuses the file as it
    # reads it, before a lattice is built
    root, n_dim, docs = cantor3
    space = load_space(root / "space.json")
    rho = space.rho.copy()
    rho[0, 1] += 1e-13
    doc = {**space_to_json(space),
           "metric": {"type": "explicit", "matrix": rho.tolist()}}
    (tmp_path / "space.json").write_text(json.dumps(doc))
    (tmp_path / "kernel.json").write_text(json.dumps(docs["power"]))
    args = [command, "--space", str(tmp_path / "space.json")]
    if command in ("t1-check", "certify"):
        args += ["--kernel", str(tmp_path / "kernel.json")]
    assert cli.main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: the explicit metric is not symmetric: the "
                          f"distance from {space.points[0]!r} to "
                          f"{space.points[1]!r} is ")
    assert err.count("\n") == 1


def test_cli_declared_zero_C_CZ_is_kept(cantor3):
    code, out, _ = _kernel_cli(cantor3,
                               {**cantor3[2]["explicit"], "C_CZ": 0})
    assert code in (0, 1)
    assert json.loads(out)["certificate"]["constants"]["C_CZ"] == 0.0


@pytest.mark.parametrize("command", ["certify", "norm", "t1-check"])
@pytest.mark.parametrize("field,value", [("m", -1.0), ("tau", 0.0)])
def test_cli_nonpositive_m_or_tau_is_input_error(cantor3, command, field,
                                                 value):
    # the check is in kernel_from_json, so every command that reads a
    # kernel file refuses it, not only certify
    doc = {**cantor3[2]["power"], field: value}
    code, out, err = _kernel_cli(cantor3, doc, command)
    assert (code, out) == (2, "")
    assert err == f"error: kernel field {field!r} must be positive, " \
        f"not {value!r}\n"


def test_cli_C_CZ_keeps_the_far_bound_finite(cantor3):
    # at 1e308, C_CZ 3^(m + tau) overflows, and inf times a zero component
    # norm would make the sigma2 far bounds NaN
    explicit = cantor3[2]["explicit"]
    code, out, err = _kernel_cli(cantor3, {**explicit, "C_CZ": 1e308})
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'C_CZ'" in err
    code, out, _ = _kernel_cli(cantor3, {**explicit, "C_CZ": 1e307})
    assert code == 0
    json.dumps(json.loads(out), allow_nan=False)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["norm", "t1-check", "certify"])
@pytest.mark.parametrize("amplitude", [9.51e76, 1e150, 1.28e154, 1e-300])
def test_cli_power_kernel_norms_survive_extreme_amplitudes(cantor3, command,
                                                           amplitude):
    # the squares of the power iteration overflowed from amplitude ~1e77
    # (norm 0) and those of the testing constant from ~1.3e154 (A inf),
    # and at 1e-300 they underflowed (norm 0): K = amplitude K_1, so the
    # norm is the dense one and A is amplitude^2 A_1
    doc = copy.deepcopy(cantor3[2]["power"])
    doc["params"]["amplitude"] = amplitude
    space = load_space(cantor3[0] / "space.json")
    kernel = power_kernel(space, m=doc["m"], tau=doc["tau"],
                          amplitude=amplitude)
    dense = operator_norm_dense(kernel, space)
    close = pytest.approx(dense, rel=1e-6, abs=0)
    code, out, _ = _kernel_cli(cantor3, doc, command)
    assert code == 0
    if command == "norm":
        assert float(out.split()[2]) == close
    elif command == "t1-check":
        a_1 = json.loads(_kernel_cli(cantor3, cantor3[2]["power"],
                                     command)[1])["A"]
        assert json.loads(out)["A"] == pytest.approx(amplitude ** 2 * a_1,
                                                     rel=1e-12)
    else:
        report = json.loads(out)
        json.dumps(report, allow_nan=False)
        cert = report["certificate"]
        assert cert["empirical_norm"] == close
        assert cert["certified_total"] >= cert["empirical_norm"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("tau", [195.0, 600.0])
def test_cli_overflowed_far_coefficient_gives_an_infinite_bound(cantor3,
                                                                tau):
    # C_CZ 3^(m + tau) overflows, and times a zero norm product (tau 195)
    # or an underflowed long range entry (tau 600) it made NaN bounds: a
    # zero norm product adds 0, and an infinite coefficient bounds nothing
    code, out, _ = _kernel_cli(cantor3, {**cantor3[2]["power"], "tau": tau})
    assert code == 0 and "NaN" not in out
    cert = json.loads(out)["certificate"]
    assert cert["verdict"] == "pass"
    assert cert["certified_total"] == math.inf
    assert all(lemma["pass"] for lemma in cert["lemmas"])


KERNEL_FIELDS = ("type", "m", "tau", "delta_CZ", "diagonal_policy", "C_CZ",
                 "matrix", "params", ("params", "amplitude"),
                 ("params", "value"))
BAD_VALUES = (None, "a", True, [1.0], {"x": 1.0}, math.nan, math.inf,
              -math.inf, -1.0, 0.0, 1e308, 10 ** 400, [[1.0, 2.0], [3.0]],
              [[1.0] * 8] * 7)


@given(kind=st.sampled_from(("power", "bergman", "explicit")),
       op=st.sampled_from(("drop", "set", "wrap")),
       key=st.sampled_from(KERNEL_FIELDS),
       value=st.one_of(st.sampled_from(BAD_VALUES), st.floats(),
                       st.integers()))
@settings(max_examples=300, deadline=None)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_certify_survives_mutated_kernel_documents(cantor3, kind, op, key,
                                                       value):
    # one mutation of a valid document: a dropped key, a value of the
    # wrong type, shape or range, or the document wrapped in a list
    doc = copy.deepcopy(cantor3[2][kind])
    where = doc
    if isinstance(key, tuple):
        where = doc.setdefault("params", {})
        key = key[1]
    if op == "drop":
        where.pop(key, None)
    elif op == "set":
        where[key] = value
    else:
        doc = [doc]
    code, _, err = _kernel_cli(cantor3, doc)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1


SPACE_FIELDS = ("points", "metric", "nu", "mu", "omega", "quasi_const",
                "resolution_h", ("metric", "type"), ("metric", "coords"),
                ("metric", "matrix"))


@given(n=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1),
       explicit=st.booleans(), op=st.sampled_from(("drop", "set", "entry",
                                                   "wrap")),
       key=st.sampled_from(SPACE_FIELDS), at=st.integers(0, 11),
       value=st.one_of(st.sampled_from(BAD_VALUES), st.floats(),
                       st.integers()),
       command=st.sampled_from(("verify-space", "certify")))
@settings(max_examples=300, deadline=None)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_survives_mutated_space_documents(cantor3, n, seed, explicit, op,
                                              key, at, value, command):
    # one mutation of a valid document of n random points in the plane: a
    # dropped key, a value of the wrong type, shape or range in a field or
    # in one entry of it, or the document wrapped in a list
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, 4.0, (n, 2))
    doc = {"points": list(range(n)), "nu": [1.0] * n,
           "mu": rng.dirichlet(np.ones(n)).tolist(), "omega": [0],
           "metric": {"type": "euclidean", "coords": coords.tolist()}}
    if explicit:
        doc["metric"] = {"type": "explicit",
                         "matrix": space_from_json(doc).rho.tolist()}
    where = doc
    if isinstance(key, tuple):
        where, key = doc["metric"], key[1]
    if op == "drop":
        where.pop(key, None)
    elif op == "set" or op == "entry" and not isinstance(where.get(key),
                                                         list):
        where[key] = value
    elif op == "entry":
        cell = where[key]
        while cell and isinstance(cell[at % len(cell)], list):
            cell = cell[at % len(cell)]
        if cell:
            cell[at % len(cell)] = value
    else:
        doc = [doc]
    root = cantor3[0]
    (root / "fuzzed_space.json").write_text(json.dumps(doc))
    (root / "fuzzed_kernel.json").write_text(json.dumps({"type": "power"}))
    args = [command, "--space", str(root / "fuzzed_space.json")]
    if command == "certify":
        args += ["--kernel", str(root / "fuzzed_kernel.json")]
    code, _, err = _cli(args)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1
