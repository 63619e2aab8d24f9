"""The probe batch of ``certify``: every probe's lemma checks, made on a
(P, N) stack of probes, against a copy of the per-probe loop that the batch
replaced, bit for bit.

The copy runs each probe on its own, as a stack of one, through
``decompose``, ``split_bilinear`` and the four lemma checks, and assembles
the lemma list as the loop did: probe 0 lists every check and each half's
paraproduct identity, the later probes only their failures, and the
partition check of the pair tables closes the list."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from czkit.certify import (LemmaCheck, _sigma2_probe_check, certify,
                           diagonal_bound, partition_check,
                           short_range_terminal_bound,
                           short_range_transit_bound, split_bilinear)
from czkit.harness import make_scenario, run
from czkit.kernels import power_kernel
from czkit.projections import decompose
from czkit.space import MetricMeasureSpace
from test_golden import RUN_REPORTS

certify_module = importlib.import_module("czkit.certify")
SPLIT_FIELDS = ("sigma1", "sigma2", "sigma3_term", "sigma3_tran",
                "sym_sigma1", "sym_sigma2", "sym_sigma3_term",
                "sym_sigma3_tran")


def split_fields(split) -> dict:
    """The regime sums of a split under SPLIT_FIELDS, in that order: each
    half's pair values summed over the last axis."""
    fields = {half.prefix + regime: values.sum(axis=-1)
              for half in split.halves
              for regime, values in half.values.items()}
    assert tuple(fields) == SPLIT_FIELDS
    return fields


def _bits(check: LemmaCheck) -> tuple:
    return (check.name, check.ref, check.passed, float(check.measured).hex(),
            float(check.bound).hex())


def _recorded_splits(monkeypatch) -> list:
    """The (args, split) of every split_bilinear call certify makes."""
    calls = []

    def record(*args):
        calls.append((args, split_bilinear(*args)))
        return calls[-1][1]

    monkeypatch.setattr(certify_module, "split_bilinear", record)
    return calls


def _checks(split) -> list:
    """Per half, one list per probe of the lemma checks of a split, in
    certify's order."""
    return [[list(c) for c in zip(diagonal_bound(split, hi),
                                  short_range_terminal_bound(split, hi),
                                  _sigma2_probe_check(half),
                                  *short_range_transit_bound(split, hi=hi)[0])]
            for hi, half in enumerate(split.halves)]


def _per_probe_lemmas(report, calls) -> list:
    """The lemma list of the per-probe loop over the probes of certify's one
    split; that split is also checked against its probes' own splits."""
    identity = [c for c in report.lemmas
                if c.name.endswith("paraproduct_identity")]
    [(args, batch)] = calls
    kernel, space, dec_f, dec_g, f, g, geometry = args
    assert f.ndim == 2
    batch_checks = _checks(batch)
    batch_fields = split_fields(batch)
    lemmas = []
    for p, (f1, g1) in enumerate(zip(f[:, None], g[:, None])):
        split = split_bilinear(kernel, space, decompose(dec_f.lattice, f1),
                               decompose(dec_g.lattice, g1), f1, g1, geometry)
        for name, value in split_fields(split).items():
            assert value.shape == (1,)
            assert float(value[0]).hex() == float(batch_fields[name][p]).hex()
        for hi, [checks] in enumerate(_checks(split)):
            assert [_bits(c) for c in batch_checks[hi][p]] == \
                [_bits(c) for c in checks]
            if p:
                lemmas += [c for c in checks if not c.passed]
            else:
                lemmas += checks + [identity[hi]]
    lemmas.append(partition_check(geometry))
    return lemmas


def _assert_matches_per_probe_loop(report, calls):
    want = _per_probe_lemmas(report, calls)
    assert [_bits(c) for c in report.lemmas] == [_bits(c) for c in want]


@pytest.mark.parametrize("key", sorted(RUN_REPORTS))
def test_batch_matches_per_probe_loop_on_run_reports(key, monkeypatch):
    (example, params, overrides), _ = RUN_REPORTS[key]
    calls = _recorded_splits(monkeypatch)
    report = run(make_scenario(example, example_params=dict(params),
                               **overrides)).certificate
    # three random probes and two indicators, in one split
    assert calls[0][0][4].shape[0] == 5
    _assert_matches_per_probe_loop(report, calls)


def _cloud(rng, n: int) -> MetricMeasureSpace:
    """n random points in the plane; mu is zero on about a fifth of them."""
    pts = rng.uniform(0.0, 4.0, (n, 2))
    rho = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1))
    mu = rng.uniform(0.1, 1.0, n) * (rng.random(n) < 0.8)
    mu[0] = 1.0
    return MetricMeasureSpace(
        rho=rho, nu=np.ones(n), mu=mu / mu.sum(),
        omega=np.zeros(n, dtype=bool),
        resolution_h=rho[~np.eye(n, dtype=bool)].min())


@given(st.integers(4, 36), st.integers(1, 2), st.integers(1, 4),
       st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_batch_matches_per_probe_loop_on_random_spaces(n, s_param, n_probes,
                                                       seed):
    rng = np.random.default_rng(seed)
    space = _cloud(rng, n)
    kernel = power_kernel(space, m=1.0, tau=1.0)
    with pytest.MonkeyPatch.context() as patch:
        calls = _recorded_splits(patch)
        report = certify(kernel, space, s_param=s_param,
                         seeds=(seed % 1000, seed % 1000 + 7),
                         n_probes=n_probes, master_seed=seed)
    assert len(calls) == 1              # one split per certificate
    _assert_matches_per_probe_loop(report, calls)
