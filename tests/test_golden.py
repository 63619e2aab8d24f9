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
mu-null boundary points forced to about 25). The seven hashes and the
golden ``C_*`` and certified totals were captured again when the pair norm
came to start its iterations from a dense Perron vector: those constants
and the certified total fell by 4e-9 to 5e-8 relative, as the iterations
end nearer the true norm; no lemma value, count or note moved. The four
reports whose mu has null points were captured again when the power
iteration, the sums of the sigma split and the transit products came to
contract over supp mu only: empirical_norm moved by at most 4e-16
relative and some lemma measured values by rounding (the regrouping error
is rounding noise itself); A, every C_* constant and the certified totals
did not move, nor did the three reports with mu > 0 everywhere.  All seven
hashes, and the three golden ``sigma_regrouping`` values, were captured
again when the regrouping error came to be measured against what the
parts can round to (``SigmaSplit.scale``) instead of against |direct|:
that value alone moved, from 5.8e-16 - 1.2e-14 to 4.1e-18 - 1.2e-16.
All seven hashes, and the three golden ``sigma_regrouping`` values, were
captured again when that check became an exact count of the good pairs
the pair tables do not hold exactly once (``certify.partition_check``):
its measured value went from 5.0e-18 - 1.1e-16 to 0 and its bound from
1e-9 to 0; a JSON diff of all seven reports showed no other change.
"""

import hashlib
import importlib
import json
import math
from pathlib import Path

import pytest

from czkit.certify import certify, pair_geometry
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
        "088c227c19fc99cc7742cfa49fc96ed92f39150eb8de90f2d7152a0a1f992691"),
    # the benchmark's cantor_pairs size, with sigma2 pairs that need the
    # near-pair sup fallback
    "cantor_level6": (
        ("cantor_measure", {"level": 6}, {}),
        "82c4030bbddb22f7428b6bbd0f654f207fe6d8f36dcc7d8b97b05e3b95f4bee2"),
    "grid_n9": (
        ("uniform_grid", {"n": 9}, {}),
        "64b3b7e10ee2277f77027cb81c036b920e68c63dc594c058d818c65305b17611"),
    "line_n13": (
        ("line_in_plane", {"n": 13}, {}),
        "94b102ee39af13ff490e1620691abc5d2424c75ff8b1452522a855a2c59e2487"),
    # the benchmark's line_sparse_mu size
    "line_n21": (
        ("line_in_plane", {"n": 21}, {}),
        "94a2e43332e3123554122ab7e565fed7054925da6fd7901a6f307c3b3b714f61"),
    "bergman_default": (
        ("bergman_disc_model", {}, {}),
        "6ef529cbdd40c50535eb075623e40a6a7c370d21b5347962f6388eac339bfa6b"),
    # calibrated, on the lattice pair of the benchmark's seed-402 find
    "bergman_64_calibrated": (
        ("bergman_disc_model", BERGMAN_64,
         {"s_param": None, "ensemble": 150,
          "seeds": (2476693647, 1295026582), "master_seed": 3813294786}),
        "6c4def6452bc594ef57cd92ae43803a4f6328b648c8a215ce6d5c8463016f8e5"),
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


@pytest.mark.parametrize("key", sorted(RUN_REPORTS))
def test_run_report_constants_are_the_geometry_constants(key, monkeypatch):
    # every regime constant of a report is its half's ``geo`` constant on
    # the certificate's lattice pair and A, and no diagonal weight of a
    # transit son pair exceeds sqrt(A)
    module, calls = importlib.import_module("czkit.certify"), []

    def record(*args):
        calls.append(args)
        return pair_geometry(*args)

    monkeypatch.setattr(module, "pair_geometry", record)
    (example, params, overrides), _ = RUN_REPORTS[key]
    constants = run(make_scenario(example, example_params=dict(params),
                                  **overrides)).certificate.constants
    [(kernel, space, lat_f, lat_g, r_gap, alpha, t1_A)] = calls
    assert (t1_A, r_gap, alpha) == (constants["A"], constants["r"],
                                    constants["alpha"])
    for half in pair_geometry(kernel, space, lat_f, lat_g, r_gap, alpha,
                              t1_A):
        assert list(half.geo) == ["sigma1", "sigma2", "sigma3_term",
                                  "sigma3_tran"]
        for regime, geo in half.geo.items():
            assert constants[f"C_{half.prefix}{regime}"] == geo["constant"]
        diag = half.geo["sigma1"]
        transit = ~(half.fine_rows.piece_stop[diag["f_piece"]] |
                    half.coarse_rows.piece_stop[diag["c_piece"]])
        assert (diag["weight"][transit] <= math.sqrt(t1_A)).all()
