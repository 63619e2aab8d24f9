"""Golden certificates.

``golden_certificates.json`` holds certificates computed by the per-pair
implementation of the sigma split that the array implementation replaced:
the certified total, every fitted constant, every lemma's measured value and
bound, and the notes. The array implementation changes only the order of
the arithmetic, so each number must come out the same to rounding.

``RUN_REPORTS`` pins whole run reports byte for byte: the sha256 of the
report's JSON without its timings. A change that only reorders mins and
maxes, or moves work between layers, must keep every hash.
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
        "680bc341a5cecdd861b29bd9f0ec7a7dde6c231dbc0ce272c986e0900d16af3d"),
    "grid_n9": (
        ("uniform_grid", {"n": 9}, {}),
        "7d0954283fc1c5656bfe5c9038a83cc3d0506df4b3b5de2df9859f8feb73efae"),
    "line_n13": (
        ("line_in_plane", {"n": 13}, {}),
        "ab848d0ec406eab273617c1df2276dfcd26dec10dc4e52d8dbff4607d89eac4e"),
    # the benchmark's line_sparse_mu size
    "line_n21": (
        ("line_in_plane", {"n": 21}, {}),
        "08526da9d25cd7d00fae9be59d1f18f070e2a2b212eefbd2256219f079ed2a20"),
    "bergman_default": (
        ("bergman_disc_model", {}, {}),
        "65cf309cace3a9b9f6e784190c0b7fb7a9eba3f698ffc396558811d4af423fe9"),
    # calibrated, on the lattice pair of the benchmark's seed-402 find
    "bergman_64_calibrated": (
        ("bergman_disc_model", BERGMAN_64,
         {"s_param": None, "ensemble": 150,
          "seeds": (2476693647, 1295026582), "master_seed": 3813294786}),
        "8d80c54dd19a97f911c8d14d08119a2fd375b0177eecfcfe0c99f27fedac9bbd"),
}


def test_golden_run_reports():
    got = {}
    for key, ((example, params, overrides), _) in RUN_REPORTS.items():
        doc = run(make_scenario(example, example_params=dict(params),
                                **overrides)).to_json()
        doc.pop("timings")
        got[key] = hashlib.sha256(
            json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert got == {key: digest for key, (_, digest) in RUN_REPORTS.items()}
