import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qentropy import (
    Distribution,
    EstimatorParams,
    ProjectedUnitaryEncoding,
    ValidationError,
    boost_median,
    build_purified_oracle_classical,
    derive_params,
    projected_encoding_classical,
    qae,
    qae_error_bound,
    qae_outcome_distribution,
    qsve,
    qsvt_apply,
    query_ledger,
    round_to_grid,
    sve_heavy,
    M_for_precision,
)
from qentropy.logapprox import taylor_poly_pos
from qentropy.qsub import ANCILLAS, _draw_phase_estimation, _phase_estimation, sve_rounds


def uses_U(derived, **changes):
    """Uses of U that `query_ledger` charges one repetition of `derived` with `changes`."""
    return query_ledger(dataclasses.replace(derived, **changes))["uses_U"]


def make_enc(probs):
    return projected_encoding_classical(
        build_purified_oracle_classical(Distribution(np.asarray(probs, float))))


def test_round_to_grid_ties_toward_zero():
    # grid spacing 0.25 at m = 2; 0.375 sits exactly between 0.25 and 0.5
    got = round_to_grid(np.array([0.0, 0.375, 0.4, 0.625, 1.0]), 2)
    assert np.allclose(got, [0.0, 0.25, 0.5, 0.5, 1.0])


# values every split must agree on whatever m is: signed zeros, negatives,
# subnormals, NaN, infinities and values at or above 1
SPLIT_SPECIALS = (0.0, -0.0, -0.25, -5e-324, 5e-324, 1e-310, 2.2250738585072014e-308,
                  np.nan, np.inf, -np.inf, 1.0, np.nextafter(1.0, 2.0), 1.5, 1e300, 1.7e308)


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 60), data=st.data())
def test_sve_heavy_is_the_rounded_split(m, data):
    # k * 2^-m + 2^-(m+1) is a double only while 2k + 1 < 2^53
    k = data.draw(st.one_of(st.integers(0, 2), st.integers(0, min(2**m, 2**52) - 1)))
    half_ways = np.array([(2 * k + 1) * 2.0 ** -(m + 1), 2.0 ** -(m + 1)])
    above = np.nextafter(half_ways, np.inf)
    values = np.concatenate((half_ways, above, np.nextafter(above, np.inf),
                             np.nextafter(half_ways, -np.inf), SPLIT_SPECIALS,
                             data.draw(st.lists(st.floats(), max_size=8))))
    with np.errstate(over="ignore"):
        want = round_to_grid(values, m) >= 2.0**-m
    np.testing.assert_array_equal(sve_heavy(values, m), want)


def test_sve_heavy_cut_is_the_first_half_way_point():
    # ties go toward zero: the half-way point 2^-(m+1) and the double above it
    # are light, the next double is the first heavy one
    for m in range(1, 61):
        half = 2.0 ** -(m + 1)
        above = np.nextafter(half, 1.0)
        values = np.array([half, above, np.nextafter(above, 1.0)])
        np.testing.assert_array_equal(sve_heavy(values, m), [False, False, True])
        np.testing.assert_array_equal(round_to_grid(values, m) > 0, [False, False, True])


def test_qsve_ideal_contract():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(2, 24))
        p = Distribution.dirichlet(n, rng)
        enc = make_enc(p.probs)
        for m in (2, 4, 6):
            est = qsve(enc, m)
            err = np.abs(np.sort(est) - np.sort(enc.true_values()))
            assert np.max(err) <= 2.0 ** (-(m + 1)) + 1e-15
            assert sve_rounds(enc.alpha, m) >= 1


def test_phase_estimation_mode_is_ideal_rounding():
    # at alpha = 1 an m-bit SVE is 2^(m+1)-point phase estimation on the
    # eigenphase sigma/2; its most likely outcome, ties to the lower one, is
    # sigma rounded to the 2^-m grid, ties toward zero
    rng = np.random.default_rng(12)
    for m in range(1, 8):
        big, step = 2 ** (m + 1), 2.0 ** -m
        on_grid = np.arange(2 ** m + 1) * step
        half_way = (np.arange(2 ** m) + 0.5) * step
        sigma = np.concatenate((rng.random(300), on_grid, half_way))
        likeliest = [2.0 * np.argmax(_phase_estimation(0.5 * s, big)[1]) / big for s in sigma]
        np.testing.assert_array_equal(qsve(ProjectedUnitaryEncoding(sigma, 1.0), m), likeliest)


DERIVED = derive_params(EstimatorParams(n=64, gamma=1.5, eps=0.1), alpha=2.5)


def test_qsve_ledger_charging():
    # an m-bit SVE runs ceil(alpha * 2^(m+1)) rounds of U and of U dagger
    assert sve_rounds(2.5, 3) == math.ceil(2.5 * 2 ** 4) == 40
    rounds = sve_rounds(DERIVED.alpha, DERIVED.m_bits)
    degrees = DERIVED.poly_pos.degree + DERIVED.poly_neg.degree
    # with no amplitude-estimation rounds, a repetition is two SVEs and the two QSVTs
    assert uses_U(DERIVED, M_light=0, M_heavy=0) == 2 * rounds + degrees
    # one more SVE bit doubles the SVE rounds at alpha 2.5
    assert (uses_U(DERIVED, M_light=0, M_heavy=0, m_bits=DERIVED.m_bits + 1)
            == 4 * rounds + degrees)
    ledger = query_ledger(DERIVED, 3)
    assert ledger["uses_U"] == ledger["uses_U_dagger"] == 3 * uses_U(DERIVED)
    assert ledger["total_queries"] == 2 * ledger["uses_U"]


def test_qsvt_transforms_singular_values():
    enc = make_enc([0.64, 0.36])
    poly = taylor_poly_pos(1.0, 0.1, 1e-6)  # exact x/2
    out = qsvt_apply(enc.sigma, poly)
    want = np.sort(np.abs([poly(s) for s in enc.sigma]))
    assert np.allclose(np.sort(out), want, atol=1e-12)
    # each transformation costs its degree in uses, one controlled U and
    # (ANCILLAS + 1) gates per degree: swapping this polynomial in for
    # poly_pos moves the uses by the change in degree
    d_pos, d_neg = DERIVED.poly_pos.degree, DERIVED.poly_neg.degree
    swapped = dataclasses.replace(DERIVED, poly_pos=poly, M_light=0, M_heavy=0)
    assert uses_U(swapped) == uses_U(DERIVED, M_light=0, M_heavy=0) - d_pos + poly.degree
    ledger = query_ledger(DERIVED)
    assert ledger["controlled_U"] == 2
    assert ledger["extra_gates"] == (ANCILLAS + 1) * (d_pos + d_neg)


def test_qae_error_bound_formula():
    p, m = 0.3, 64
    want = 2 * math.pi * math.sqrt(p * (1 - p)) / m + math.pi ** 2 / m ** 2
    assert abs(qae_error_bound(p, m) - want) < 1e-15


def test_m_for_precision():
    # M = ceil(2 pi (2 sqrt(p) / eps + 1 / sqrt(eps)))
    assert M_for_precision(0.25, 0.01) == 692
    assert M_for_precision(0.5, 1.0) == 16
    assert M_for_precision(0.0, 0.1) == math.ceil(2 * math.pi / math.sqrt(0.1))


def test_qae_exact_mode():
    assert qae(0.3, 64, "exact", np.random.default_rng(0)) == 0.3
    # a light round prepares with one SVE (R uses); a heavy round, once per
    # polynomial, with one SVE and that polynomial's transformation
    rounds = sve_rounds(DERIVED.alpha, DERIVED.m_bits)
    d_pos, d_neg = DERIVED.poly_pos.degree, DERIVED.poly_neg.degree
    base = uses_U(DERIVED, M_light=0, M_heavy=0)
    assert uses_U(DERIVED, M_light=64, M_heavy=0) == base + 64 * rounds
    assert uses_U(DERIVED, M_light=0, M_heavy=64) == base + 64 * (2 * rounds + d_pos + d_neg)
    assert uses_U(DERIVED) == (base + DERIVED.M_light * rounds
                               + DERIVED.M_heavy * (2 * rounds + d_pos + d_neg))


def test_qae_bound_only_within_bound():
    rng = np.random.default_rng(1)
    for p in (0.05, 0.3, 0.7, 0.95):
        for m in (16, 128):
            est = qae(p, m, "bound_only", rng)
            assert abs(est - p) <= qae_error_bound(p, m) + 1e-12
            assert 0.0 <= est <= 1.0


def test_qae_outcome_distribution_is_normalized():
    vals, probs = qae_outcome_distribution(0.3, 32)
    assert abs(probs.sum() - 1.0) < 1e-9
    assert np.all(probs >= 0)
    assert np.all((vals >= 0) & (vals <= 1))
    # mass concentrates near the true amplitude
    near = probs[np.abs(vals - 0.3) <= qae_error_bound(0.3, 32)].sum()
    assert near >= 8.0 / math.pi ** 2 - 1e-9



@pytest.mark.parametrize("p, rounds", [(0.3, 32), (0.0, 7), (1.0, 64), (0.25, 4),
                                       (math.sin(math.pi * 3 / 40) ** 2, 40), (0.61, 5003)])
def test_qae_outcome_distribution_matches_closed_form(p, rounds):
    # the in-place construction must equal the plain formula bit for bit
    theta = math.asin(math.sqrt(p)) / math.pi
    j = np.arange(rounds)
    d = theta - j / rounds
    with np.errstate(divide="ignore", invalid="ignore"):
        want = np.sin(rounds * np.pi * d) ** 2 / (rounds**2 * np.sin(np.pi * d) ** 2)
    want[np.isclose(np.sin(np.pi * d), 0.0, atol=1e-15)] = 1.0
    want = want / want.sum()
    vals, probs = qae_outcome_distribution(p, rounds)
    assert np.array_equal(probs, want)
    assert np.array_equal(vals, np.sin(np.pi * j / rounds) ** 2)

def test_qae_sampled_coverage():
    rng = np.random.default_rng(2)
    hits = 0
    trials = 400
    for _ in range(trials):
        est = qae(0.3, 64, "sampled", rng)
        if abs(est - 0.3) <= qae_error_bound(0.3, 64):
            hits += 1
    assert hits / trials >= 8.0 / math.pi ** 2 - 0.05


def _chi2_critical(dof: int, z: float = 3.09) -> float:
    """Wilson-Hilferty approximation of the chi-square quantile at normal score z (0.999)."""
    h = 2.0 / (9.0 * dof)
    return dof * (1.0 - h + z * math.sqrt(h)) ** 3


# (M, theta): four spread-out phases, the last one wrapping past M; small M; theta
# on the grid; M = 1; and f = M theta - floor(M theta) of about 1e-12
@pytest.mark.parametrize("rounds, theta", [(64, 0.1234), (257, 0.49), (1000, 0.0007),
                                           (4096, 0.9999), (7, 0.3), (40, 3 / 40), (1, 0.3),
                                           (1000, 0.4 + 1e-15)])
def test_exact_draw_matches_phase_estimation_distribution(rounds, theta):
    draws_n = 20_000
    rng = np.random.default_rng(11)
    draws = np.array([_draw_phase_estimation(theta, rounds, rng) for _ in range(draws_n)])
    assert draws.min() >= 0 and draws.max() < rounds
    probs = _phase_estimation(theta, rounds)[1]
    if probs.max() > 1.0 - 1e-9:  # one outcome holds all but 1e-9 of the mass
        assert np.all(draws == np.argmax(probs))
        return
    counts = np.bincount(draws, minlength=rounds).astype(float)
    expected = probs * draws_n
    kept = expected >= 5.0
    obs, exp = list(counts[kept]), list(expected[kept])
    pooled_obs, pooled_exp = counts[~kept].sum(), expected[~kept].sum()
    if pooled_exp >= 5.0:     # the tail bins pooled into one
        obs.append(pooled_obs)
        exp.append(pooled_exp)
    else:                     # too small even pooled: fold it into the last kept bin
        obs[-1] += pooled_obs
        exp[-1] += pooled_exp
    obs, exp = np.array(obs), np.array(exp)
    stat = float(((obs - exp) ** 2 / exp).sum())
    assert stat <= _chi2_critical(obs.size - 1)


@pytest.mark.parametrize("theta", [0.4, 0.4 + 2.0**-53, 0.4 - 2.0**-53])
def test_a_draw_on_the_grid_from_either_side_takes_no_random_number(theta):
    # M theta within 1.2e-13 of 400, above or below: outcome 400, as in _phase_estimation,
    # and the generator is left as it was, so the draws that follow do not move
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    assert _draw_phase_estimation(theta, 1000, rng) == 400
    assert np.argmax(_phase_estimation(theta, 1000)[1]) == 400
    assert rng.bit_generator.state == state


def test_sampled_qae_returns_the_reference_outcome_value():
    p, rounds = 0.3, 1000
    values, probs = qae_outcome_distribution(p, rounds)
    rng = np.random.default_rng(12)
    draws = [qae(p, rounds, "sampled", rng) for _ in range(200)]
    # bit for bit, the value of the modal outcome is among the draws
    assert float(values[np.argmax(probs)]) in draws
    assert set(draws) <= set(values.tolist())


def test_qae_exact_amplitude_is_fixed_point():
    # sin^2(pi j / M) grid contains p when theta/pi is a multiple of 1/M
    p = math.sin(math.pi * 3 / 16) ** 2
    est = qae(p, 16, "sampled", np.random.default_rng(3))
    assert abs(est - p) < 1e-12


def test_boost_median():
    assert boost_median([3.0, 1.0, 2.0]) == 2.0
    with pytest.raises(ValidationError):
        boost_median([1.0, 2.0])
