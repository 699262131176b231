import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import qentropy.estimator as estimator_module
from qentropy import (
    DensityMatrix,
    Distribution,
    EstimatorParams,
    ValidationError,
    build_purified_oracle_classical,
    build_purified_oracle_quantum,
    check_guarantee,
    derive_params,
    entropy_threshold_test,
    estimate_additive,
    estimate_entropy,
    plan_additive,
    plan_estimate,
    promise_threshold,
    qsve,
    round_to_grid,
    shannon_entropy,
    total_query_bound,
    von_neumann_entropy,
)
from qentropy.estimator import GAMMA_DEGENERATE_TOL


def test_params_validation():
    with pytest.raises(ValidationError):
        EstimatorParams(n=1, gamma=2.0)
    with pytest.raises(ValidationError):
        EstimatorParams(n=16, gamma=1.0)
    with pytest.raises(ValidationError):
        EstimatorParams(n=16, gamma=2.0, eps=0.0)
    for n in (2, 4):
        # m = 1 gives the exponent a = ln(gamma) / ln(4), above 1 for gamma 5
        with pytest.raises(ValidationError, match=rf"gamma=5.0 .* n={n}: .* a=1.161 "):
            derive_params(EstimatorParams(n=n, gamma=5.0))


def test_eta_mode_sets_eps():
    p = EstimatorParams(n=64, gamma=2.0, eta=0.4)
    assert abs(p.eps - 0.05) < 1e-15
    assert EstimatorParams(n=64, gamma=2.0).eps == 0.1
    # eps given with eta was once replaced by eta/8 without a word
    with pytest.raises(ValidationError, match=r"eps = 0\.3, eta = 0\.8"):
        EstimatorParams(n=256, gamma=2.0, eps=0.3, eta=0.8)


def test_derived_params_frozen_n256_gamma2():
    d = derive_params(EstimatorParams(n=256, gamma=2.0, eps=0.1))
    assert d.m_bits == 1
    assert d.sqrt_beta_prime == 0.5
    assert d.beta_prime == 0.25
    assert d.gamma_prime == 2.0
    assert d.gamma_heavy == 2.0
    assert d.a == 0.5
    assert d.delta == 0.25
    assert abs(d.eps1 - 0.1 / 64.0) < 1e-15
    # eps2 = eps ln(gamma) / (2 n sqrt(gamma) ln(1/beta'))
    want2 = 0.1 * math.log(2.0) / (2 * 256 * math.sqrt(2.0) * math.log(4.0))
    assert abs(d.eps2 - want2) < 1e-18
    want3 = 0.1 * math.log(2.0) / (4 * math.sqrt(2.0) * math.log(4.0))
    assert abs(d.eps3 - want3) < 1e-15


def test_m_bits_grows_with_n_and_gamma():
    # m = max(1, ceil(log2(n) / (2 gamma^2)))
    d = derive_params(EstimatorParams(n=2 ** 14, gamma=1.5))
    assert d.m_bits == math.ceil(14.0 / 4.5)
    assert d.gamma_prime == math.sqrt(14.0 / (2 * d.m_bits))


def test_gamma_prime_degenerate_fallback():
    # tiny n with large gamma: sqrt(log2 n / 2m) <= 1, so the requested
    # gamma keeps the exponent positive
    d = derive_params(EstimatorParams(n=4, gamma=3.0))
    assert d.gamma_prime == 1.0
    assert d.gamma_heavy == 3.0
    assert d.a > 0.0
    assert d.gamma_prime >= 1.0 - GAMMA_DEGENERATE_TOL


def test_promise_threshold_and_guarantee_window():
    assert abs(promise_threshold(2.0, 0.1) - 11.0) < 1e-12
    # window is inclusive on both ends
    assert check_guarantee(5.0 / (1.2 * 2.0), 5.0, 2.0, 0.1)
    assert check_guarantee(5.0 * 1.2 * 2.0, 5.0, 2.0, 0.1)
    assert not check_guarantee(5.0 * 1.2 * 2.0 + 1e-9, 5.0, 2.0, 0.1)


def test_uniform_noise_free_is_exact():
    p = Distribution.uniform(256)
    rep = estimate_entropy(p, EstimatorParams(n=256, gamma=2.0, eps=0.1))
    assert abs(rep.h_tilde - 4.0) < 1e-9
    assert rep.h_true == 8.0
    assert rep.within_guarantee
    assert rep.ledger["uses_U"] > 0


def test_estimate_is_seed_reproducible():
    p = Distribution.dirichlet(128, np.random.default_rng(0))
    params = EstimatorParams(n=128, gamma=1.5, eps=0.1)
    a = estimate_entropy(p, params, mode="sampled", seed=42)
    b = estimate_entropy(p, params, mode="sampled", seed=42)
    c = estimate_entropy(p, params, mode="sampled", seed=43)
    assert a.h_tilde == b.h_tilde
    assert a.h_tilde != c.h_tilde or a.ledger == c.ledger


def test_estimate_never_negative():
    p = Distribution.point_mass(64, 0)
    rep = estimate_entropy(p, EstimatorParams(n=64, gamma=2.0, eps=0.1),
                           mode="sampled", seed=1)
    assert rep.h_tilde >= 0.0


def test_repetitions_must_be_odd():
    p = Distribution.uniform(16)
    with pytest.raises(ValidationError):
        estimate_entropy(p, EstimatorParams(n=16, gamma=2.0), repetitions=2)


def test_median_boosting_merges_ledgers():
    p = Distribution.uniform(64)
    params = EstimatorParams(n=64, gamma=2.0, eps=0.1)
    one = estimate_entropy(p, params, mode="sampled", seed=0, repetitions=1)
    three = estimate_entropy(p, params, mode="sampled", seed=0, repetitions=3)
    assert three.ledger["uses_U"] == pytest.approx(3 * one.ledger["uses_U"],
                                                   rel=0.01)
    assert three.repetitions == 3


def test_bound_only_respects_guarantee_window():
    rng = np.random.default_rng(5)
    for seed in range(20):
        p = Distribution.dirichlet(256, rng, alpha=5.0)
        rep = estimate_entropy(p, EstimatorParams(n=256, gamma=2.0, eps=0.1),
                               mode="bound_only", seed=seed)
        assert check_guarantee(rep.h_tilde, rep.h_true, 2.0, 0.1)


def test_density_matrix_input_quantum_path():
    rho = DensityMatrix.maximally_mixed(16)
    rep = estimate_entropy(rho, EstimatorParams(n=16, gamma=1.5, eps=0.1))
    assert abs(rep.h_true - 4.0) < 1e-12
    assert rep.within_guarantee
    assert abs(rep.alpha - 4.0) < 1e-12  # sqrt(n) purified normalization


def test_quantum_matches_classical_spectrum_estimate():
    rng = np.random.default_rng(7)
    rho = DensityMatrix.random(8, rng, alpha=20.0)
    spec = rho.spectrum()
    params = EstimatorParams(n=8, gamma=1.5, eps=0.1)
    q = estimate_entropy(rho, params)
    c = estimate_entropy(spec, params)
    assert abs(q.h_true - c.h_true) < 1e-9
    # quantum ledger is more expensive by roughly sqrt(n)
    ratio = q.ledger["total_queries"] / c.ledger["total_queries"]
    assert 0.5 * math.sqrt(8) <= ratio <= 2.0 * math.sqrt(8)


def test_total_query_bound_monotone():
    assert total_query_bound(1024, 2.0, 0.1) > total_query_bound(64, 2.0, 0.1)
    assert total_query_bound(256, 1.5, 0.1) > total_query_bound(256, 2.0, 0.1)


def test_additive_mode_uniform_and_zipf():
    for n in (64, 256):
        for eps_add in (0.25, 0.5):
            for src in (Distribution.uniform(n), Distribution.zipf(n)):
                rep = estimate_additive(src, eps_add)
                assert abs(rep.h_tilde - rep.h_true) <= eps_add
                assert abs(rep.h_true - shannon_entropy(src)) < 1e-12


def test_threshold_test_separated_instances():
    # uniform on 256 labels has H = 8, well above the cut for (6, 3)
    high = entropy_threshold_test(Distribution.uniform(256), 6.0, 3.0)
    assert high.high
    assert abs(high.gamma - math.sqrt(2.0) / 1.2) < 1e-12
    assert abs(high.cut - math.sqrt(18.0)) < 1e-12
    low = entropy_threshold_test(Distribution.uniform(4), 6.0, 3.0)
    assert not low.high


def test_report_record_is_json_friendly():
    import json
    p = Distribution.uniform(32)
    rep = estimate_entropy(p, EstimatorParams(n=32, gamma=2.0))
    rec = rep.to_record()
    text = json.dumps(rec, sort_keys=True)
    assert json.loads(text)["n"] == 32


def _params(n):
    return EstimatorParams(n=n, gamma=1.5, eps=0.1)


# (source, params or eps_add, mode, seed, repetitions,
#  (h_tilde, uses_U, controlled_U, extra_gates, deg_pos, deg_neg)), recorded
# before the estimator planned once per call: planning must not change a bit.
# h_tilde was re-recorded for density32, dense_oracle8 and statevector_qpe8 when
# sampled QAE became an exact rejection draw and polynomials a blocked evaluation.
# statevector_qpe8 was recorded with a phase-estimation SVE since removed; at
# alpha = 1 its estimates equal the grid rounding, so its values stand.
GOLDEN = {
    "zipf4096_sampled": (
        lambda: Distribution.zipf(4096, 1.0), _params(4096), "sampled", 3, 9,
        (7.074635409736536, 19667349, 18, 7047, 126, 135)),
    "density32": (
        lambda: DensityMatrix.random(32, np.random.default_rng(4)), _params(32), "sampled", 1, 3,
        (4.100125660740255, 5573568, 6, 2727, 146, 157)),
    "additive_zipf256": (
        lambda: Distribution.zipf(256, 1.0), 0.25, "sampled", 2, 1,
        (6.221401425857255, 22456644258, 2, 25437, 4232, 4247)),
    "dense_oracle8": (
        lambda: build_purified_oracle_classical(Distribution.dirichlet(8, np.random.default_rng(5))),
        _params(8), "bound_only", 6, 3,
        (2.4276449966375457, 191520, 6, 171, 9, 10)),
    "statevector_qpe8": (
        lambda: Distribution.dirichlet(8, np.random.default_rng(7)), _params(8), "sampled", 8, 3,
        (2.197063293321409, 191520, 6, 171, 9, 10)),
}
# (planner, entry point) for a multiplicative (EstimatorParams) or additive (eps_add) golden
GOLDEN_CALLS = {EstimatorParams: (plan_estimate, estimate_entropy),
                float: (plan_additive, estimate_additive)}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_estimates_and_ledgers_match_recorded_values(name):
    make_source, arg, mode, seed, repetitions, golden = GOLDEN[name]
    h_tilde, uses, controlled, extra, deg_pos, deg_neg = golden
    plan, estimate = GOLDEN_CALLS[type(arg)]
    source = make_source()
    planned = plan(source, arg)
    planned.run(mode, seed + 2, repetitions)  # a plan keeps nothing from one run to the next
    for rep in (planned.run(mode, seed, repetitions),
                estimate(source, arg, mode=mode, seed=seed, repetitions=repetitions)):
        assert rep.h_tilde == h_tilde
        assert rep.ledger == {"uses_U": uses, "uses_U_dagger": uses, "controlled_U": controlled,
                              "extra_gates": extra, "total_queries": 2 * uses}
        assert (rep.deg_pos, rep.deg_neg) == (deg_pos, deg_neg)


def test_heavy_stage_evaluates_polynomials_only_at_heavy_labels(monkeypatch):
    n, repetitions = 4096, 3
    p = Distribution.zipf(n, 1.0)
    params = _params(n)
    seen = []
    real = estimator_module.qsvt_apply

    def recording(sigma, poly):
        seen.append(np.array(sigma))
        return real(sigma, poly)

    monkeypatch.setattr(estimator_module, "qsvt_apply", recording)
    estimate_entropy(p, params, mode="sampled", seed=0, repetitions=repetitions)
    d = derive_params(params)
    sigma = np.sort(np.sqrt(p.probs))[::-1]
    heavy = sigma[round_to_grid(sigma, d.m_bits) >= d.sqrt_beta_prime]
    assert 0 < heavy.size <= 1.0 / d.beta_prime < n
    assert len(seen) == 2 * repetitions
    for evaluated in seen:
        np.testing.assert_array_equal(evaluated, heavy)


def _permuted_zipf(n, seed):
    probs = Distribution.zipf(n, 1.0).probs
    return Distribution(probs[np.random.default_rng([seed, 0]).permutation(n)])


# the benchmark's four workload inputs at seed 0: (source, params or eps_add)
WORKLOAD_PLANS = {
    "mult_zipf_large": (lambda: _permuted_zipf(2**18, 0), _params(2**18)),
    "additive_zipf": (lambda: _permuted_zipf(4096, 0), 0.25),
    "vn_spectral": (lambda: DensityMatrix.random(1024, np.random.default_rng([0, 0]), 4.0),
                    _params(1024)),
    "oracle_dense": (lambda: build_purified_oracle_quantum(
        DensityMatrix.random(64, np.random.default_rng([0, 0]))), _params(64)),
}


@pytest.mark.parametrize("name", sorted(WORKLOAD_PLANS) + sorted(GOLDEN))
def test_split_matches_the_rounded_sve_bit_for_bit(name):
    make_source, arg = (GOLDEN[name] if name in GOLDEN else WORKLOAD_PLANS[name])[:2]
    plan = GOLDEN_CALLS[type(arg)][0](make_source(), arg)
    # the reference: round every value to the SVE grid, square them all
    heavy = qsve(plan.enc, plan.derived.m_bits) >= plan.derived.sqrt_beta_prime
    p = plan.enc.true_values() ** 2
    assert plan.heavy_flags.tobytes() == heavy.tobytes()
    assert plan.p_heavy.tobytes() == p[heavy].tobytes()
    assert plan.sigma_heavy.tobytes() == plan.enc.sigma[heavy].tobytes()
    assert plan.w_true.hex() == float(p[~heavy].sum()).hex()


def test_plan_holds_about_three_arrays_of_length_n():
    # sigma, the true values and the light ones: the split builds no rounded
    # or squared array of length n
    n = 2**18
    p, params = _permuted_zipf(n, 0), _params(n)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        plan_estimate(p, params)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 8 * n, peak / (8 * n)


def test_certified_error_over_budget_is_rejected(monkeypatch):
    real = estimator_module.taylor_poly_pos
    monkeypatch.setattr(estimator_module, "taylor_poly_pos",
                        lambda c, delta, eps: real(c, delta, 1000.0 * eps))
    with pytest.raises(ValidationError,
                       match=r"degree-2 polynomial for x\^0\.5 .* 763\.7x its budget"):
        derive_params(EstimatorParams(n=256, gamma=2.0))


def test_polynomial_above_the_qsvt_bound_is_rejected(monkeypatch):
    real = estimator_module.taylor_poly_neg

    def to_one_and_a_half(c, delta, eps):
        poly = real(c, delta, eps)
        return dataclasses.replace(poly, coeffs=1.5 * poly.coeffs / np.abs(poly.coeffs).sum())

    monkeypatch.setattr(estimator_module, "taylor_poly_neg", to_one_and_a_half)
    with pytest.raises(ValidationError,
                       match=r"degree-\d+ polynomial for x\^-0\.5 reaches 1\.5, above the QSVT bound 1"):
        derive_params(EstimatorParams(n=256, gamma=2.0))


def test_size_mismatch_is_rejected():
    with pytest.raises(ValidationError, match="params.n = 1024"):
        estimate_entropy(Distribution.uniform(64), EstimatorParams(n=1024, gamma=2.0))
    with pytest.raises(ValidationError, match="source size 8"):
        estimate_entropy(DensityMatrix.maximally_mixed(8), EstimatorParams(n=16, gamma=2.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_is_rejected(bad):
    with pytest.raises(ValidationError, match="finite"):
        Distribution(np.array([bad, 1.0]))
    mat = np.eye(2, dtype=complex) / 2
    mat[0, 1] = mat[1, 0] = bad
    with pytest.raises(ValidationError, match="finite"):
        DensityMatrix(mat)


def _family_source(family, n, seed):
    return {"uniform": lambda: Distribution.uniform(n),
            "zipf": lambda: Distribution.zipf(n, 1.0),
            "dirichlet": lambda: Distribution.dirichlet(n, np.random.default_rng(seed))}[family]()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 4096), gamma=st.floats(1.01, 6.0), eps=st.floats(0.01, 0.99),
       mode=st.sampled_from(["exact", "bound_only", "sampled"]),
       family=st.sampled_from(["uniform", "zipf", "dirichlet"]), seed=st.integers(0, 2**16))
def test_valid_params_estimate_or_raise_validation_error(n, gamma, eps, mode, family, seed):
    try:
        rep = estimate_entropy(_family_source(family, n, seed),
                               EstimatorParams(n=n, gamma=gamma, eps=eps), mode=mode, seed=seed)
    except ValidationError:
        return
    assert math.isfinite(rep.h_tilde) and rep.h_tilde >= 0.0


# Known defect: eps2 and eps3 are sized from ln(gamma) while the power exponent
# uses gamma' = sqrt(log2(n) / (2m)), so as gamma' nears 1 the heavy QAE error,
# divided by 2 a ln 2, swamps the estimate (h_tilde = 0 for H = 8 below).  Sizing
# the budgets from gamma' changes every ledger with gamma' < gamma, so it is left
# to a change that re-records them; this marker then comes off.
@pytest.mark.xfail(strict=True, reason="heavy error budgets use ln(gamma), the exponent gamma'")
@example(n=257, gamma=1.125, eps=0.5, family="uniform", seed=0)
@settings(max_examples=50, deadline=None)
@given(n=st.integers(256, 16384), gamma=st.floats(1.05, 4.0), eps=st.floats(0.05, 0.9),
       family=st.sampled_from(["uniform", "zipf", "dirichlet"]), seed=st.integers(0, 2**16))
def test_bound_only_meets_guarantee_under_promise(n, gamma, eps, family, seed):
    # bound_only moves every QAE answer anywhere inside its error bound; the
    # (1+2eps)gamma window must still hold whenever H meets the promise
    try:
        rep = estimate_entropy(_family_source(family, n, seed),
                               EstimatorParams(n=n, gamma=gamma, eps=eps), mode="bound_only",
                               seed=seed)
    except ValidationError:
        return
    assume(rep.promise_satisfied)
    assert rep.within_guarantee
