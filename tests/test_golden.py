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
        "5f7a316f3630baefb0d87bfd1367d9fd8649b9b46084e410dc9bd5bbf9e4ae75"),
    # the benchmark's cantor_pairs size, with sigma2 pairs that need the
    # near-pair sup fallback
    "cantor_level6": (
        ("cantor_measure", {"level": 6}, {}),
        "887e684c99d008d2a596a11e6a579fd33c1e63a27a514145d98e50d418853e97"),
    "grid_n9": (
        ("uniform_grid", {"n": 9}, {}),
        "142abf6ef9fd828224112242ccc38295dfa4c7f83fc7207fa9b3c7f5796525d6"),
    "line_n13": (
        ("line_in_plane", {"n": 13}, {}),
        "3b31d057e03f4a44938ed443a0d43d8a85b4a848c2fe459b7011ed1993dda2da"),
    # the benchmark's line_sparse_mu size
    "line_n21": (
        ("line_in_plane", {"n": 21}, {}),
        "89aa214ba6b84237dbd6a35691915ee5d330dc29ef587815adaa1738a0aa1734"),
    "bergman_default": (
        ("bergman_disc_model", {}, {}),
        "260e05f3f0c6ac643e58da197f1c696b14cc5483038f6aeec5deeeba74eb4a9e"),
    # calibrated, on the lattice pair of the benchmark's seed-402 find
    "bergman_64_calibrated": (
        ("bergman_disc_model", BERGMAN_64,
         {"s_param": None, "ensemble": 150,
          "seeds": (2476693647, 1295026582), "master_seed": 3813294786}),
        "44d6ff1b05afa8d58deffaaba16a7518f82078083e871c9d7c707f73572945f7"),
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
