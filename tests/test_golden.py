"""Golden certificates.

``golden_certificates.json`` holds certificates computed by the per-pair
implementation of the sigma split that the array implementation replaced:
the certified total, every fitted constant, every lemma's measured value and
bound, and the notes. The array implementation changes only the order of
the arithmetic, so each number must come out the same to rounding.

``RUN_REPORTS`` pins whole run reports byte for byte: the sha256 of the
report's JSON without its timings. A change that only reorders mins and
maxes, or moves work between layers, must keep every hash. The testing
constant A is a sum of products, so its last bits depend on the order of
the sums: since ``check_T1`` runs one product per block of sets on supp mu,
A, C_lambda = 2 sqrt(A) and C_sigma1 (from A) differ from the per-set
matvecs' values by at most 1.4e-15 relative, and the six hashes whose
reports carry such a bit were captured again; no other field moved.
"""

import hashlib
import json
from pathlib import Path

import pytest

from czkit.certify import certify
from czkit.harness import make_scenario, run

GOLDEN = json.loads(
    Path(__file__).with_name("golden_certificates.json").read_text())


def _close(value):
    # the absolute floor covers measured values that are rounding noise
    return pytest.approx(value, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_certificate(key):
    ref = GOLDEN[key]
    scenario = make_scenario(ref["example"], example_params=ref["params"])
    rep = certify(scenario.kernel, scenario.space, kappa=scenario.kappa,
                  s_param=ref["S"])
    assert rep.certified_total == _close(ref["certified_total"])
    constants = {k: v for k, v in rep.constants.items() if k.startswith("C_")}
    assert constants == {k: _close(v) for k, v in ref["constants"].items()}
    assert [c.name for c in rep.lemmas] == [n for n, _, _ in ref["lemmas"]]
    for check, (name, measured, bound) in zip(rep.lemmas, ref["lemmas"]):
        assert check.measured == _close(measured), name
        assert check.bound == _close(bound), name
    assert rep.notes == ref["notes"]


BERGMAN_64 = {"n_ring": 64, "n_cluster": 8, "n_boundary": 32}
RUN_REPORTS = {
    "cantor_level5": (
        ("cantor_measure", {"level": 5}, {}),
        "48cf7cf228debbc1aa39cd45b1a47d01881f66b9e4d3ee7f445795154f09b09e"),
    # the benchmark's cantor_pairs size, with sigma2 pairs that need the
    # near-pair sup fallback
    "cantor_level6": (
        ("cantor_measure", {"level": 6}, {}),
        "0fe95a4d9fab1d1c9477b4bb2aabf2034adcf6c81f83983824504d18b7128f50"),
    "grid_n9": (
        ("uniform_grid", {"n": 9}, {}),
        "326e56b01e7002cb6e7e937b660a5f73ba9f1953ea2f12a2be72c640d9257c76"),
    "line_n13": (
        ("line_in_plane", {"n": 13}, {}),
        "daeb44f00fa694c0d34f3c2fb36655258c9cd916541bde9471b1f923d1774744"),
    # the benchmark's line_sparse_mu size
    "line_n21": (
        ("line_in_plane", {"n": 21}, {}),
        "591f21eab8d465bfad6e86b2975e9f10a86518aa99e434bd03a220d2675f282e"),
    "bergman_default": (
        ("bergman_disc_model", {}, {}),
        "c50558bec7983fe4aef6dc5dd7b7fdcd231075c866fce96564fd6471f2cfc122"),
    # calibrated, on the lattice pair of the benchmark's seed-402 find
    "bergman_64_calibrated": (
        ("bergman_disc_model", BERGMAN_64,
         {"s_param": None, "ensemble": 150,
          "seeds": (2476693647, 1295026582), "master_seed": 3813294786}),
        "7b8ba0ba9d8c0c9335e0af36ad086a2c76b1756026adca07d6e6d93f459dfb44"),
}


def _report_digest(key):
    (example, params, overrides), _ = RUN_REPORTS[key]
    doc = run(make_scenario(example, example_params=dict(params),
                            **overrides)).to_json()
    doc.pop("timings")
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def test_golden_run_reports():
    got = {key: _report_digest(key) for key in RUN_REPORTS}
    assert got == {key: digest for key, (_, digest) in RUN_REPORTS.items()}


@pytest.mark.parametrize("key", ["cantor_level5", "bergman_64_calibrated"])
def test_run_constructs_no_cube(key, monkeypatch):
    # the run reads the lattice arrays only: a Cube is a view for the public
    # API, the JSON files and the tests
    import czkit.lattice

    def refuse(self, *args, **kwargs):
        raise AssertionError("a Cube was constructed")

    monkeypatch.setattr(czkit.lattice.Cube, "__init__", refuse)
    lat = czkit.lattice.build_lattice(make_scenario("cantor_measure").space,
                                      0.5)
    with pytest.raises(AssertionError, match="a Cube was constructed"):
        lat.cubes[lat.root_id]
    assert _report_digest(key) == RUN_REPORTS[key][1]
