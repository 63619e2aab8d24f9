"""Golden certificates.

``golden_certificates.json`` holds certificates computed by the per-pair
implementation of the sigma split that the array implementation replaced:
every lemma's measured value and bound, and the notes. The array
implementation changes only the order of the arithmetic, so each number
must come out the same to rounding. The fitted constants ``C_*`` and the
certified total were captured again when every regime constant became the
certified norm of its pair-coefficient matrix (``certify._pair_norm``).

``RUN_REPORTS`` pins whole run reports byte for byte: the sha256 of the
report's JSON without its timings. A change that only reorders mins and
maxes, or moves work between layers, must keep every hash. The testing
constant A is a sum of products, so its last bits depend on the order of
the sums: since ``check_T1`` runs one product per block of sets on supp mu,
A, C_lambda = 2 sqrt(A) and C_sigma1 (from A) differ from the per-set
matvecs' values by at most 1.4e-15 relative, and the six hashes whose
reports carry such a bit were captured again; no other field moved. All
seven were captured again with the pair-norm regime constants, which also
added the counts ``sigma3_term_multiplicity``; the lemma values, notes and
other counts did not move. The four reports whose mu has null points
(line_n13, line_n21, bergman_default, bergman_64_calibrated) were captured
again when the smoothness fit came to read x' and y on supp mu only: their
C_CZ, and every bound scaled by it, moved (on bergman from the 100 that
mu-null boundary points forced to about 25).
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
        "167d6ef2061207046a53caf3abd3e6ba941cc4d84d1c921f4312d1760bb50880"),
    # the benchmark's cantor_pairs size, with sigma2 pairs that need the
    # near-pair sup fallback
    "cantor_level6": (
        ("cantor_measure", {"level": 6}, {}),
        "97b40af921697653b9ec4f1519337d2a6ad96f8cb4f427001c21d219cd45f8e9"),
    "grid_n9": (
        ("uniform_grid", {"n": 9}, {}),
        "f31b8f3b3a1b3870ad5cd7a0272b0d9c7eb4183092275c5545250dd6ccf83a12"),
    "line_n13": (
        ("line_in_plane", {"n": 13}, {}),
        "0ffdeed99bd2a9d2711050e4083652bbfaec36e401977078e51687efe486624a"),
    # the benchmark's line_sparse_mu size
    "line_n21": (
        ("line_in_plane", {"n": 21}, {}),
        "11942c2415db4f7d10e59a07aaa14b7fdfccc76f707bad7a264bfa039d3fcd2e"),
    "bergman_default": (
        ("bergman_disc_model", {}, {}),
        "38a7ffefe7110574796afc2c7cee6d7f9154072d97cfed67526862eaa09b1a7e"),
    # calibrated, on the lattice pair of the benchmark's seed-402 find
    "bergman_64_calibrated": (
        ("bergman_disc_model", BERGMAN_64,
         {"s_param": None, "ensemble": 150,
          "seeds": (2476693647, 1295026582), "master_seed": 3813294786}),
        "f293c2bd6b57e820ac9d83db559e7978171a60612e67a2d7be745a89678499d7"),
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
