"""End-to-end acceptance checks.

Each test exercises one advertised property of the package at its stated
tolerance and prints a single PASS/FAIL line (run with -s to see them all;
pytest also shows captured output for any failure).
"""
import math

import numpy as np

from qentropy import (
    DensityMatrix,
    Distribution,
    EstimatorParams,
    block_encoding_density_swap,
    build_purified_oracle_classical,
    build_purified_oracle_quantum,
    check_guarantee,
    choose_exponent,
    derive_params,
    estimate_additive,
    estimate_entropy,
    f_power_log,
    gen_collision_pair,
    gen_near_deterministic_pair,
    gen_two_point_vs_spread_pair,
    hellinger,
    high_entropy_distribution,
    lightweight_bounds,
    plan_estimate,
    projected_encoding_classical,
    projected_encoding_quantum,
    promise_threshold,
    qae,
    qae_error_bound,
    qsve,
    query_scaling_sweep,
    restricted_entropy,
    shannon_entropy,
    split_heavy_light,
    von_neumann_entropy,
)
from qentropy.logapprox import certify, degree_bound, taylor_poly_neg, taylor_poly_pos
from qentropy.qsub import _phase_estimation


def report(num, ok, desc):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}"
    print(line)
    assert ok, line


def test_criterion_01_log_approx_one_sided():
    ok = True
    for gamma in (1.5, 2.0, 3.0):
        for n in (2 ** 6, 2 ** 10):
            beta = n ** (-1.0 / gamma ** 2)
            a = choose_exponent(gamma, beta)
            xs = np.linspace(beta, 1.0, 10000)
            f = f_power_log(xs, a)
            lg = np.log2(1.0 / xs)
            ok = ok and bool(np.all(f >= lg - 1e-12))
            ok = ok and bool(np.all(f <= gamma * lg + 1e-12))
    report(1, ok, "power-log proxy one-sided within [log2(1/x), gamma*log2(1/x)]")


def test_criterion_02_power_sum_sandwich():
    rng = np.random.default_rng(20)
    ok = True
    for _ in range(500):
        n = int(rng.integers(8, 1025))
        p = Distribution.dirichlet(n, rng, alpha=float(rng.uniform(0.3, 3.0)))
        gamma = float(rng.choice([1.5, 2.0]))
        d = derive_params(EstimatorParams(n=n, gamma=gamma))
        rep = split_heavy_light(p, d.beta_prime)
        heavy = np.array(rep.heavy, dtype=int)
        if heavy.size == 0:
            continue
        ph = p.probs[heavy]
        f_minus = float((ph ** (1.0 - d.a)).sum())
        f_plus = float((ph ** (1.0 + d.a)).sum())
        est = (f_minus - f_plus) / (2.0 * d.a * math.log(2.0))
        hb = restricted_entropy(p, heavy)
        ok = ok and (hb <= est + 1e-9)
        ok = ok and (est <= d.gamma_heavy * hb + 1e-9)
    report(2, ok, "heavy power sums sandwich the heavy entropy within the gamma factor")


def test_criterion_03_light_part_sandwich():
    rng = np.random.default_rng(21)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(4, 1025))
        p = Distribution.dirichlet(n, rng, alpha=float(rng.uniform(0.2, 4.0)))
        gamma = float(rng.uniform(1.2, 3.0))
        beta = n ** (-1.0 / gamma ** 2)
        lo, hi = lightweight_bounds(p, beta)
        h_light = split_heavy_light(p, beta).light_entropy
        ok = ok and (lo - 1e-10 <= h_light <= hi + 1e-10)
    report(3, ok, "light-part entropy lies inside the weight-based sandwich")


def test_criterion_04_taylor_certification():
    ok = True
    for c in (0.1, 0.25, 0.5):
        for delta in (0.05, 0.1, 0.25):
            for eps in (1e-2, 1e-3, 1e-4):
                for build in (taylor_poly_pos, taylor_poly_neg):
                    poly = build(c, delta, eps)
                    rep = certify(poly)
                    ok = ok and rep.sup_error <= eps
                    ok = ok and rep.max_abs <= 1.0 + 1e-12
                    ok = ok and poly.degree <= degree_bound(c, delta, eps)
    report(4, ok, "certified Taylor polynomials meet error, norm, and degree budgets")


def test_criterion_05_encoding_spectra():
    ok = True
    rng = np.random.default_rng(22)
    for _ in range(100):
        n = int(rng.integers(2, 65))
        p = Distribution.dirichlet(n, rng)
        enc = projected_encoding_classical(build_purified_oracle_classical(p))
        dev = np.max(np.abs(np.sort(enc.sigma) - np.sort(np.sqrt(p.probs))))
        ok = ok and dev < 1e-10
    for _ in range(100):
        n = int(rng.integers(2, 33))
        rho = DensityMatrix.random(n, rng)
        enc = projected_encoding_quantum(build_purified_oracle_quantum(rho))
        want = np.sort(np.sqrt(rho.spectrum().probs / n))
        dev = np.max(np.abs(np.sort(enc.sigma) - want))
        ok = ok and dev < 1e-10
    for _ in range(100):
        n = int(rng.integers(2, 17))
        rho = DensityMatrix.random(n, rng)
        enc = block_encoding_density_swap(build_purified_oracle_quantum(rho))
        ok = ok and np.max(np.abs(enc.block - rho.mat)) < 1e-10
    report(5, ok, "classical/quantum/SWAP encodings reproduce the expected spectra")


def test_criterion_06_qsve_contract():
    ok = True
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(2, 32))
        p = Distribution.dirichlet(n, rng)
        enc = projected_encoding_classical(build_purified_oracle_classical(p))
        for m in (1, 3, 5):
            est = qsve(enc, m)
            err = np.abs(np.sort(est) - np.sort(enc.true_values()))
            ok = ok and np.max(err) <= 2.0 ** (-(m + 1)) + 1e-15
    # exactly-representable spectra: every sqrt(p_i) on the 2^-m grid; at
    # alpha = 1 the estimate is the most likely outcome of 2^(m+1)-point phase
    # estimation on the eigenphase sigma/2
    for probs in ([0.25] * 4, [1.0, 0.0], [1.0, 0.0, 0.0, 0.0]):
        enc = projected_encoding_classical(
            build_purified_oracle_classical(Distribution(np.array(probs))))
        for m in (1, 2, 3):
            big = 2 ** (m + 1)
            likeliest = [2.0 * np.argmax(_phase_estimation(0.5 * s, big)[1]) / big
                         for s in enc.sigma]
            ok = ok and np.array_equal(qsve(enc, m), likeliest)
    report(6, ok, "singular value estimates land within half a grid step and are "
                  "the most likely phase-estimation outcome on representable spectra")


def test_criterion_07_qae_coverage():
    ok = True
    rng = np.random.default_rng(24)
    floor = 8.0 / math.pi ** 2 - 0.03
    for p in (0.1, 0.3, 0.7):
        for m in (16, 64, 256):
            bound = qae_error_bound(p, m)
            hits = sum(
                abs(qae(p, m, "sampled", rng) - p) <= bound
                for _ in range(1000))
            ok = ok and hits / 1000.0 >= floor
    report(7, ok, "sampled amplitude estimation hits its error bound at the 8/pi^2 rate")


def test_criterion_08_end_to_end_guarantee():
    ok = True
    sampled_hits = sampled_total = 0
    for n in (64, 256, 1024):
        for gamma in (1.5, 2.0):
            params = EstimatorParams(n=n, gamma=gamma, eps=0.1)
            target = promise_threshold(gamma, 0.1)
            for i in range(20):
                # one plan per input; estimate_entropy would re-plan at every seed
                plan = plan_estimate(high_entropy_distribution(n, target, seed=i), params)
                for seed in range(5):
                    rep = plan.run("bound_only", seed)
                    ok = ok and rep.within_guarantee
                    rep = plan.run("sampled", seed, repetitions=9)
                    sampled_total += 1
                    sampled_hits += int(rep.within_guarantee)
    ok = ok and sampled_hits / sampled_total >= 0.95
    report(8, ok, "bound-only runs always meet the guarantee; 9-fold sampled "
                  f"medians meet it in {sampled_hits}/{sampled_total} runs")


def test_criterion_09_quantum_path():
    ok = True
    for n in (8, 16, 32):
        rho = DensityMatrix.random(n, np.random.default_rng(n), alpha=20.0)
        params = EstimatorParams(n=n, gamma=1.5, eps=0.1)
        q = estimate_entropy(rho, params)
        ok = ok and check_guarantee(q.h_tilde, q.h_true, 1.5, 0.1)
        c = estimate_entropy(rho.spectrum(), params)
        ratio = q.ledger["total_queries"] / c.ledger["total_queries"]
        ok = ok and 0.5 * math.sqrt(n) <= ratio <= 2.0 * math.sqrt(n)
    report(9, ok, "density-matrix estimates meet the guarantee at sqrt(n)-scaled cost")


def test_criterion_10_query_scaling():
    ok = True
    ns = [2 ** k for k in range(6, 15)]
    for gamma in (1.5, 2.0):
        for quantum in (False, True):
            res = query_scaling_sweep(ns, gamma, 0.1, quantum=quantum)
            ok = ok and res.passed
            ok = ok and abs(res.slope - res.target) <= res.tolerance
            ok = ok and all(r.within_bound for r in res.rows)
    report(10, ok, "the query totals that runs report scale with the "
                   "advertised exponents and stay under the closed-form bound")


def test_criterion_11_lower_bound_families():
    ok = True
    for eps in (0.05, 0.1, 0.2):
        p, q, _ = gen_near_deterministic_pair(256, eps)
        h = hellinger(p, q)
        ok = ok and math.sqrt(eps / 2.0) - 1e-12 <= h <= math.sqrt(eps) + 1e-12
    for n in (16, 256, 4096):
        p, q, rep = gen_two_point_vs_spread_pair(n, 0.1)
        ok = ok and rep.entropy_ratio >= 1.0 + 0.1 * math.log2(n - 1) - 1e-9
    for n, gamma in ((64, 1.5), (256, 2.0), (1024, 3.0)):
        p, q, rep = gen_collision_pair(n, gamma)
        # subset size is rounded to an integer, so bracket the realized
        # ratio by the two neighbouring subset sizes
        raw = n ** (1.0 / gamma ** 2)
        cands = [max(2, int(math.floor(raw))), max(2, int(math.ceil(raw)))]
        rats = [math.log2(n * m) / math.log2(m) for m in cands]
        ok = ok and min(rats) - 1e-9 <= rep.entropy_ratio <= max(rats) + 1e-9
        ok = ok and abs(rep.extras["ideal_ratio"] - (gamma ** 2 + 1.0)) < 1e-12
    report(11, ok, "hard-instance generators meet their separation certificates")


def test_criterion_12_additive_recovery():
    ok = True
    for n in (64, 256):
        for eps_add in (0.25, 0.5):
            for src in (Distribution.uniform(n), Distribution.zipf(n)):
                rep = estimate_additive(src, eps_add, mode="exact")
                ok = ok and abs(rep.h_tilde - rep.h_true) <= eps_add
    report(12, ok, "additive mode recovers H within eps_add on uniform and Zipf inputs")
