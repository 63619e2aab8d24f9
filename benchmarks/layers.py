"""Per-layer metrics of one certificate, computed from the tracer's spans and
from the objects the layers return.

A layer is a module of czkit. ``cli`` is a thin front end over
``harness.run`` and is not traced as a layer of its own.
"""

from __future__ import annotations

from tracer import Tracer, has_ancestor, self_times

LAYERS = ("examples", "space", "kernels", "lattice", "projections",
          "certify", "harness")
MODULES = tuple("czkit." + layer for layer in LAYERS)

# metric -> traced functions. A metric sums the spans of its functions that
# are not nested inside another span of the same metric, so recursion or a
# listed function calling another listed function is not counted twice.
TIMED = {
    "examples.generate_s": ("examples.generate_example",),
    "kernels.build_s": ("kernels.power_kernel", "kernels.bergman_kernel",
                        "kernels.constant_kernel"),
    "kernels.fit_s": ("kernels.check_size_and_smoothness",),
    "kernels.t1_s": ("kernels.check_T1",),
    "kernels.norm_s": ("kernels.operator_norm",),
    "kernels.domination_s": ("kernels.check_d_domination",),
    "space.quasi_metric_s": ("space.verify_quasi_metric",),
    "space.balls_s": ("space.check_growth_condition",
                      "space.verify_omega_capture",
                      "space.check_ahlfors_regularity"),
    "lattice.build_s": ("lattice.build_lattice",),
    "lattice.mc_s": ("lattice.estimate_bad_probability",),
    "harness.calibrate_s": ("harness.calibrate_S",),
    "lattice.verify_s": ("lattice.verify_lattice_properties",),
    "lattice.good_bad_s": ("lattice.classify_all_good_bad",
                           "lattice.classify_good_bad"),
    "projections.decompose_s": ("projections.decompose",),
    "projections.check_s": ("projections.properties_check",),
    "certify.total_s": ("certify.certify",),
    "certify.classify_pairs_s": ("certify.classify_pairs",),
    "certify.split_s": ("certify.split_bilinear",),
    "certify.sigma1_s": ("certify.diagonal_bound",),
    "certify.sigma3_s": ("certify.short_range_terminal_bound",
                         "certify.short_range_transit_bound"),
    "certify.schur_s": ("certify.schur_bound_long_range",),
    "certify.paraproduct_s": ("certify.paraproduct_targets",
                              "certify.paraproduct_apply",
                              "certify.carleson_embedding_check"),
}

# metric -> traced function whose calls it counts
CALLS = {
    "lattice.builds": "lattice.build_lattice",
    "projections.decompositions": "projections.decompose",
    "certify.classify_pairs_calls": "certify.classify_pairs",
}

# counts read from returned objects by the observers below
OBSERVED = ("kernels.t1_sets", "harness.calibrated_S", "lattice.cubes",
            "lattice.bad_cubes", "certify.pairs_sigma1",
            "certify.pairs_sigma2", "certify.pairs_sigma3_term",
            "certify.pairs_sigma3_tran", "certify.sigma2_fallback_pairs",
            "certify.sigma3_violations", "certify.lemmas",
            "certify.lemmas_failed")

class CertificateTrace:
    """Traces one certificate at a time: ``with trace:`` around the calls,
    then ``metrics()``, then ``reset()`` before the next certificate."""

    def __init__(self):
        self.tracer = Tracer(MODULES, observers={
            "kernels.check_T1": self._t1,
            "harness.calibrate_S": self._calibration,
            "harness.run": self._run,
            "lattice.classify_all_good_bad": self._good_bad,
            "certify.split_bilinear": self._split,
            "certify.short_range_transit_bound": self._transit_bound,
            "certify.certify": self._certificate,
        })
        self.reset()

    def __enter__(self):
        self.tracer.install()
        return self

    def __exit__(self, *exc):
        self.tracer.uninstall()

    def reset(self) -> None:
        self.tracer.reset()
        self.observed = dict.fromkeys(OBSERVED, 0)
        self._transit = {}

    def _add(self, key, value) -> None:
        self.observed[key] += value

    def _t1(self, args, kwargs, report) -> None:
        self._add("kernels.t1_sets", len(report.per_cube))

    def _calibration(self, args, kwargs, result) -> None:
        self.observed["harness.calibrated_S"] = result.s_param

    def _run(self, args, kwargs, report) -> None:
        self.observed["lattice.cubes"] = report.stages.get(
            "lattice", {}).get("cubes", 0)

    def _good_bad(self, args, kwargs, result) -> None:
        lat = args[0] if args else kwargs["lat"]
        self._add("lattice.bad_cubes",
                  sum(1 for c in lat.cubes.values() if c.good is False))

    def _split(self, args, kwargs, split) -> None:
        # every split of one certificate pairs the same two lattices, so the
        # last one stands for all of them
        for regime in ("sigma1", "sigma2", "sigma3_term", "sigma3_tran"):
            self.observed["certify.pairs_" + regime] = sum(
                len(half.buckets[regime]) for half in split.halves)
        self.observed["certify.sigma2_fallback_pairs"] = sum(
            1 for half in split.halves for rec in half.buckets["sigma2"]
            if not rec.get("far_ok", True))

    def _transit_bound(self, args, kwargs, result) -> None:
        # the certificate reports the violations of the first probe per half
        hi = args[3] if len(args) > 3 else kwargs["hi"]
        self._transit.setdefault(hi, len(result[1]["hypothesis_violations"]))
        self.observed["certify.sigma3_violations"] = sum(
            self._transit.values())

    def _certificate(self, args, kwargs, report) -> None:
        self.observed["certify.lemmas"] = len(report.lemmas)
        self.observed["certify.lemmas_failed"] = sum(
            1 for c in report.lemmas if not c.passed)

    def metrics(self) -> dict:
        spans = self.tracer.spans
        out = {}
        for metric, names in TIMED.items():
            names = set(names)
            out[metric] = sum((s.duration for s in spans if s.name in names
                               and not has_ancestor(spans, s, names)), 0.0)
        for metric, name in CALLS.items():
            out[metric] = sum(1 for s in spans if s.name == name)
        norm = {"kernels.operator_norm"}
        out["kernels.norm_matvecs"] = sum(
            1 for s in spans
            if s.name in ("kernels.apply", "kernels.adjoint_apply")
            and has_ancestor(spans, s, norm))
        own = self_times(spans)
        out["certify.self_s"] = sum((t for s, t in zip(spans, own)
                                     if s.name == "certify.certify"), 0.0)
        out.update(self.observed)
        return out
