"""Scenario pipeline, calibration, reports and the command line."""

import json

import numpy as np
import pytest

from czkit import cli
from czkit.errors import CalibrationExhausted, UnknownExample
from czkit.harness import (Scenario, calibrate_S, make_scenario, run,
                           save_report)
from czkit.kernels import power_kernel
from conftest import line_space


# ---------------------------------------------------------------------------
# scenario construction


def test_scenario_parameter_validation():
    space = line_space(4)
    kern = power_kernel(space, m=1.0)
    good = dict(name="x", space=space, kernel=kern, m=1.0, tau=1.0, n_dim=1.0)
    with pytest.raises(ValueError):
        Scenario(kappa=1.5, **good)
    with pytest.raises(ValueError):
        Scenario(delta_bad=0.0, **good)
    with pytest.raises(ValueError):
        Scenario(tau=-1.0, **{k: v for k, v in good.items() if k != "tau"})
    with pytest.raises(ValueError):
        Scenario(m=0.0, **{k: v for k, v in good.items() if k != "m"})


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


def test_make_scenario_kernel_override():
    sc = make_scenario("uniform_grid", kernel_kind="power", m=1.5, tau=0.5)
    assert sc.m == 1.5 and sc.tau == 0.5
    with pytest.raises(UnknownExample):
        make_scenario("uniform_grid", kernel_kind="mystery")


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
    # measured on the per-probe, per-S Monte Carlo this calibration replaced
    from czkit.examples import generate_example
    space, _ = generate_example("uniform_grid", n=9)
    res = calibrate_S(space, 0.5, alpha=0.1, delta_bad=0.7, ensemble=100,
                      seed=0)
    assert res.trace == [(1, 1.0, 1e-07), (2, 1.0, 1e-07),
                         (4, 0.76, 0.04270831300812525)]
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
    builds, draws = [], []

    def counting(calls, func):
        def wrapped(*args, **kwargs):
            calls.append(args)
            return func(*args, **kwargs)
        return wrapped

    build = counting(builds, lattice.build_lattice)
    monkeypatch.setattr(lattice, "build_lattice", build)
    monkeypatch.setattr(harness, "build_lattice", build)
    monkeypatch.setattr(lattice, "_draw_nets",
                        counting(draws, lattice._draw_nets))
    res = calibrate_S(space, 0.5, alpha, delta_bad, ensemble=100, seed=0)
    # one full base lattice, then one ensemble of bare net draws for every
    # probe and every S
    assert len(res.trace) == candidates
    assert len(builds) == 1
    assert len(draws) == 101


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
    assert doc["omega_capture"] is True


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


def test_cli_montecarlo(grid_file, tmp_path):
    out = tmp_path / "mc.json"
    code = cli.main(["montecarlo", "--space", grid_file, "--m", "2",
                     "--tau", "1", "--s-param", "1", "--ensemble", "150",
                     "--out", str(out)])
    doc = json.loads(out.read_text())
    assert {"p_hat", "stderr", "target"} <= set(doc)
    assert code in (0, 1)


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
], ids=["coords", "weights", "matrix"])
def test_cli_mismatched_lengths_are_input_error(command, doc, message,
                                                tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main([command, "--space", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_cli_missing_file_is_input_error(tmp_path):
    assert cli.main(["verify-space",
                     "--space", str(tmp_path / "absent.json")]) == 2


def test_cli_unknown_example_is_input_error(tmp_path):
    assert cli.main(["generate-example", "no_such_example",
                     "--out", str(tmp_path / "x.json")]) == 2


def test_cli_size_guard(grid_file, monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_POINTS", 10)
    assert cli.main(["verify-space", "--space", grid_file]) == 2
    assert "allow-large" in capsys.readouterr().err
    assert cli.main(["verify-space", "--space", grid_file, "--m", "2",
                     "--allow-large"]) == 0
