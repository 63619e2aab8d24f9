"""Golden certificates.

``golden_certificates.json`` holds certificates computed by the per-pair
implementation of the sigma split that the array implementation replaced:
the certified total, every fitted constant, every lemma's measured value and
bound, and the notes. The array implementation changes only the order of
the arithmetic, so each number must come out the same to rounding.
"""

import json
from pathlib import Path

import pytest

from czkit.certify import certify
from czkit.harness import make_scenario

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
