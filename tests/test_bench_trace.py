"""The benchmark's outside-in tracer (benchmarks/layers.py) finds its
spans by the names of the package's public functions and reads counts from
the objects they return. A refactor that renames, bypasses or reshapes them
breaks `benchmarks/run.py --trace 1`; this test makes that fail here."""

from pathlib import Path

from czkit import harness

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
REGIMES = ("sigma1", "sigma2", "sigma3_term", "sigma3_tran")


def test_tracer_observes_one_certificate(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import layers

    trace = layers.CertificateTrace()
    with trace:
        report = harness.run(harness.make_scenario(
            "cantor_measure", example_params={"level": 4}))
    metrics = trace.metrics()
    assert report.passed
    # the pair geometry is built once per certificate, one per half
    assert metrics["certify.classify_pairs_calls"] == 2
    # the run's seeds[0] lattice is the certificate's too
    assert metrics["lattice.builds"] == 2
    assert set(layers.OBSERVED) <= set(metrics)
    assert set(layers.TIMED) <= set(metrics)
    # the report's own counts agree with what the tracer observed
    counts = report.certificate.counts
    for regime in REGIMES:
        assert metrics["certify.pairs_" + regime] == (
            counts[regime + "_pairs"] + counts["sym_" + regime + "_pairs"])
    for key in ("sigma2_fallback_pairs", "sigma3_violations"):
        assert metrics["certify." + key] == counts[key] + counts["sym_" + key]
