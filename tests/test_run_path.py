"""Every function of czkit runs in one of the five built-in runs or in one
of the eight commands, but for the few listed with the reason they stay;
code that nothing reaches is deleted."""

import contextlib
import importlib
import io
import json
import math
import sys

import pytest

from czkit import cli
from czkit.examples import generate_example
from czkit.harness import make_scenario, run
from czkit.space import save_space
from conftest import RUNS, _defined_functions

BMO = "read by the BMO checks, kept for O2"
LAYERS = "read by benchmarks/layers.py"
UNRUN = {
    "certify": {**dict.fromkeys(("pseudo_bmo_check", "whitney_decomposition",
                                 "admissible_bmo_cubes", "bmo_tail_constant"),
                                "a BMO check, kept for O2"),
                "HalfData.buckets": LAYERS, "PairTable.records": LAYERS},
    "cli": {}, "examples": {}, "harness": {},
    "kernels": {"operator_norm_dense": "the correctness gate of "
                "benchmarks/run.py and the tests' oracle norm",
                "spectral_norm": "the norm of operator_norm_dense"},
    "lattice": {
        "classify_good_bad": "per-cube reference of classify_all_good_bad",
        "skeleton": "per-cube reference of the skeleton marks",
        "skeleton_by_generation": "per-generation reference of the marks",
        "Cube.is_leaf": "part of the cube view benchmarks/layers.py reads",
        "CubeTable.__iter__": LAYERS,
        "CubeTable.__len__": "part of the Mapping protocol of lat.cubes",
        "DyadicLattice.root": "the root as a cube view",
        "fit_lattice_constants": "lattice constants, read by tests only",
        "LatticePropertyReport._constants": "lattice constants, read by "
                                            "tests only"},
    "projections": {"expected_bad_norm": "acceptance criteria 4 and 5"},
    "space": {"MetricMeasureSpace.mu_mass": BMO,
              "MetricMeasureSpace.set_diam": "read by dilate; " + BMO,
              "dilate": "the reference of cube_dilations; " + BMO},
}


def _commands(root) -> list:
    """The eight commands on Cantor level 4 under its coordinates and under
    its explicit metric, with kernel documents of all five types."""
    m = math.log(2) / math.log(3)
    kernels = {"power": {"type": "power", "m": m, "tau": m},
               "bergman": {"type": "bergman", "m": m, "tau": m},
               "constant": {"type": "constant", "params": {"value": 2.0}},
               "zero": {"type": "zero"},
               "explicit": {"type": "explicit", "m": m, "tau": m,
                            "matrix": [[1.0] * 16] * 16}}
    for kind, doc in kernels.items():
        (root / f"{kind}.json").write_text(json.dumps(doc))
    power = ["--kernel", str(root / "power.json")]
    argv = [["generate-example", "cantor_measure", "--params",
             '{"level": 4}', "--out", str(root / "space.json")]]
    for name in ("space.json", "space_explicit.json"):
        space = ["--space", str(root / name)]
        argv += [["verify-space", *space], ["decompose", *space],
                 ["build-lattice", *space, "--out", str(root / "lat.json")],
                 ["t1-check", *space, *power],
                 ["montecarlo", *space, "--ensemble", "20"]]
        argv += [["norm", *space, "--kernel", str(root / f"{kind}.json")]
                 for kind in kernels]
    return argv + [
        ["certify", "--space", str(root / "space.json"), *power, "--n-dim",
         "0.63"],
        ["certify", "--space", str(root / "space_explicit.json"), "--kernel",
         str(root / "explicit.json"), "--n-dim", "0.63", "--report",
         str(root / "report.json")]]


@pytest.fixture(scope="module")
def called(tmp_path_factory) -> set:
    """(file, first line, name) of every function that runs in building and
    running the five scenarios and in the commands of ``_commands``."""
    root = tmp_path_factory.mktemp("run_path")
    space, _ = generate_example("cantor_measure", level=4)
    space.coords = None                 # written as an explicit metric
    save_space(space, root / "space_explicit.json")
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno, code.co_name))

    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            for name, params, overrides in RUNS:
                run(make_scenario(name, example_params=params,
                                  **overrides)).to_json()
            codes = [cli.main(argv) for argv in _commands(root)]
    finally:
        sys.setprofile(None)
    assert set(codes) <= {0, 1}, codes
    assert json.loads((root / "report.json").read_text())["certificate"]
    return seen


@pytest.mark.parametrize("module", sorted(UNRUN))
def test_every_function_runs(called, module):
    path = importlib.import_module("czkit." + module).__file__
    defined = _defined_functions(path)
    assert set(UNRUN[module]) <= set(defined.values())
    unrun = {qualified for (line, name), qualified in defined.items()
             if (path, line, name) not in called}
    assert unrun == set(UNRUN[module])
