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
other counts did not move.
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
        "5c32143da15dd58f7e30779b77e552900e29e5f820ac92b2e9f13a0fb800e8f6"),
    # the benchmark's line_sparse_mu size
    "line_n21": (
        ("line_in_plane", {"n": 21}, {}),
        "af2858b064d4f19774c9406cb9a8833aea6535063f07278683dc4fbd9e62147e"),
    "bergman_default": (
        ("bergman_disc_model", {}, {}),
        "9282505ead8da6e335ebd22b6da4ddfa585d8a68e0be9b5652a8d569ac71c106"),
    # calibrated, on the lattice pair of the benchmark's seed-402 find
    "bergman_64_calibrated": (
        ("bergman_disc_model", BERGMAN_64,
         {"s_param": None, "ensemble": 150,
          "seeds": (2476693647, 1295026582), "master_seed": 3813294786}),
        "f90fd92165d66797f5c8320b778b642b9e13575fce8f75ff3085e9391c02596a"),
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
