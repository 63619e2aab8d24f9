"""The benchmark's outside-in tracer (benchmarks/layers.py) finds its
spans by the names of the package's public functions and reads counts from
the objects they return. A refactor that renames, bypasses or reshapes them
breaks `benchmarks/run.py --trace 1`; this test makes that fail here."""

from pathlib import Path

import pytest

from czkit import harness

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
REGIMES = ("sigma1", "sigma2", "sigma3_term", "sigma3_tran")
BERGMAN_64 = {"n_ring": 64, "n_cluster": 8, "n_boundary": 32}

# (example, params, overrides, lattice builds, counts that must be nonzero)
CASES = {
    "cantor_level4": ("cantor_measure", {"level": 4}, {}, 2,
                      ("sigma1_pairs", "sigma2_pairs", "sigma3_tran_pairs",
                       "sigma3_violations")),
    # the near-pair sup fallback of sigma2
    "cantor_level6": ("cantor_measure", {"level": 6}, {}, 2,
                      ("sigma1_pairs", "sigma2_pairs", "sigma3_tran_pairs",
                       "sigma2_fallback_pairs", "sigma3_violations")),
    # sigma3 terminal pairs, on the lattice pair of the benchmark's seed-402
    # find; the calibration builds one more lattice
    "bergman_64_seed402": (
        "bergman_disc_model", BERGMAN_64,
        {"s_param": None, "ensemble": 150,
         "seeds": (2476693647, 1295026582), "master_seed": 3813294786}, 3,
        ("sigma1_pairs", "sigma2_pairs", "sigma3_term_pairs",
         "sigma3_tran_pairs", "sigma2_fallback_pairs", "sigma3_violations")),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_tracer_observes_one_certificate(case, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import layers

    example, params, overrides, builds, nonzero = CASES[case]
    trace = layers.CertificateTrace()
    with trace:
        report = harness.run(harness.make_scenario(
            example, example_params=dict(params), **overrides))
    metrics = trace.metrics()
    assert report.passed
    # the pair geometry is built once per certificate, one per half
    assert metrics["certify.classify_pairs_calls"] == 2
    # the run's seeds[0] lattice is the certificate's too
    assert metrics["lattice.builds"] == builds
    assert set(layers.OBSERVED) <= set(metrics)
    assert set(layers.TIMED) <= set(metrics)
    # the report's own counts agree with what the tracer observed, which
    # reads the pairs through the record view
    counts = report.certificate.counts
    for regime in REGIMES:
        assert metrics["certify.pairs_" + regime] == (
            counts[regime + "_pairs"] + counts["sym_" + regime + "_pairs"])
    for key in ("sigma2_fallback_pairs", "sigma3_violations"):
        assert metrics["certify." + key] == counts[key] + counts["sym_" + key]
    for key in nonzero:
        assert counts[key] + counts["sym_" + key] > 0, key
