"""Self-test of the benchmark's tracer and of its metric names.

Run with the repository's tests, or alone:
    PYTHONPATH=src python -m pytest -q perfbench
"""
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import qentropy as qe  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from tracer import TARGETS, Span, Tracer, call_metrics, self_times, subtree  # noqa: E402

PARAMS = qe.EstimatorParams(n=256, gamma=1.5, eps=0.1)
ORACLE_PARAMS = qe.EstimatorParams(n=8, gamma=1.5, eps=0.1)


def _bindings():
    """Every attribute of every qentropy module and traced class, by identity."""
    owners = [m for name, m in sorted(sys.modules.items())
              if name == "qentropy" or name.startswith("qentropy.")]
    owners += [qe.DensityMatrix, qe.TaylorPolynomial, qe.PurifiedOracle]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def _calls():
    """One multiplicative, one additive and one dense-oracle call on small inputs."""
    zipf = qe.Distribution.zipf(256, 1.0)
    rho = qe.DensityMatrix.random(8, np.random.default_rng(3))
    oracle = qe.build_purified_oracle_quantum(rho)
    enc = qe.projected_encoding_quantum(oracle)
    verified = qe.verify_encoding(enc, np.sqrt(rho.spectrum().probs / 8))
    return [
        qe.estimate_entropy(zipf, PARAMS, mode="sampled", seed=5, repetitions=3),
        qe.estimate_additive(qe.Distribution.zipf(64, 1.0), 0.5, mode="sampled", seed=5),
        qe.estimate_entropy(oracle, ORACLE_PARAMS, mode="sampled", seed=5, repetitions=3),
    ], verified


def _outputs(reports):
    return [(r.h_tilde, r.ledger, r.deg_pos, r.deg_neg) for r in reports]


@pytest.fixture(scope="module")
def traced():
    before = _bindings()
    tracer = Tracer()
    with tracer.installed():
        during = _bindings()
        with tracer.span("bench.call"):
            reports, verified = _calls()
    return tracer, before, during, _bindings(), reports, verified


def test_wrappers_exist_only_while_installed(traced):
    tracer, before, during, after, _, _ = traced
    assert not tracer.missing
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    changed = {k for k in before if during[k] is not before[k]}
    assert len(changed) >= len(TARGETS)
    for owner, name in ((qe.estimator, "qsvt_apply"), (qe.qsub, "qae_outcome_distribution"),
                        (qe.estimator, "estimate_entropy"), (qe, "estimate_entropy"),
                        (qe.DensityMatrix, "spectrum"), (qe.TaylorPolynomial, "__call__")):
        assert (id(owner), name) in changed
        assert getattr(owner, name) is before[id(owner), name]


def test_spans_nest_and_self_times_add_up(traced):
    tracer = traced[0]
    spans = tracer.spans
    assert spans[0].name == "bench.call" and spans[0].parent is None
    for s in spans[1:]:
        parent = spans[s.parent]
        assert parent.start <= s.start <= s.end <= parent.end
    selfs = self_times(spans)
    assert min(selfs) >= -1e-9
    assert sum(selfs[i] for i in subtree(spans, 0)) == pytest.approx(spans[0].duration,
                                                                     rel=1e-9, abs=1e-12)
    names = {s.name for s in spans}
    for layer in ("dists.", "logapprox.", "encodings.", "qsub.", "estimator."):
        assert any(n.startswith(layer) for n in names)


def test_call_metrics_count_the_work(traced):
    tracer, _, _, _, reports, verified = traced
    m = call_metrics(tracer.spans, 0)
    assert verified.ok
    assert m["qsub.qsvt_calls"] == 2 * (3 + 1 + 3)
    assert m["estimator.repetitions"] == 3 + 1 + 3
    assert m["logapprox.cert_terms"] > 0 and m["qsub.qsvt_terms"] > 0
    assert 0.0 < m["qsub.qsvt_useful_ratio"] <= 1.0
    assert m["encodings.oracle_bytes"] == 64 * 64 * 16
    assert m["encodings.verify_s"] >= m["encodings.residual_s"] > 0.0
    assert m["logapprox.poly_eval_s"] == pytest.approx(
        m["logapprox.poly_eval_s.qsvt"] + m["logapprox.poly_eval_s.certify"])


def test_traced_and_untraced_outputs_are_equal(traced):
    reports = traced[4]
    plain, _ = _calls()
    assert _outputs(plain) == _outputs(reports)


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    layer = set(call_metrics([Span("bench.call", None)], 0)) | set(run.RUN_LAYER_METRICS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.layer_unit(name) for name in layer}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
