import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qentropy import EstimatorParams, derive_params
from qentropy.estimator import CERT_GRID_POINTS
from qentropy.logapprox import (
    TaylorPolynomial,
    _cert_grid,
    certify,
    choose_exponent,
    degree_bound,
    f_power_log,
    taylor_poly_neg,
    taylor_poly_pos,
)


def test_choose_exponent_worked_value():
    # gamma = 2 and beta = 1/16 gives a = ln 2 / ln 16 = 1/4
    assert abs(choose_exponent(2.0, 1.0 / 16.0) - 0.25) < 1e-15


def test_f_power_log_worked_value():
    assert abs(f_power_log(0.5, 0.25) - 1.005012238432913) < 1e-12


def test_f_power_log_one_sided():
    for gamma in (1.5, 2.0, 3.0):
        for n in (64, 1024):
            beta = n ** (-1.0 / gamma ** 2)
            a = choose_exponent(gamma, beta)
            xs = np.linspace(beta, 1.0, 5000)
            f = f_power_log(xs, a)
            lg = np.log2(1.0 / xs)
            assert np.all(f >= lg - 1e-12)
            assert np.all(f <= gamma * lg + 1e-12)


def test_taylor_pos_degree_one_exact():
    poly = taylor_poly_pos(1.0, 0.1, 1e-6)
    assert poly.degree == 1
    xs = np.linspace(-1.0, 1.0, 101)
    assert np.allclose([poly(x) for x in xs], np.abs(xs) / 2.0, atol=1e-15)


def test_taylor_pos_accuracy_and_boundedness():
    for c in (0.1, 0.25, 0.5):
        for delta in (0.05, 0.1, 0.25):
            poly = taylor_poly_pos(c, delta, 1e-3)
            rep = certify(poly, grid_points=4001)
            assert rep.sup_error <= 1e-3
            assert rep.max_abs <= 1.0 + 1e-12
            # target on [delta, 1] is x^c / 2 scaled by the stored normalization
            x = 0.5 * (1.0 + delta)
            assert abs(poly(x) - poly.normalization * x ** c) <= 1e-3


def test_taylor_neg_accuracy_and_boundedness():
    for c in (0.1, 0.25, 0.5):
        for delta in (0.05, 0.1, 0.25):
            poly = taylor_poly_neg(c, delta, 1e-3)
            rep = certify(poly, grid_points=4001)
            assert rep.sup_error <= 1e-3
            assert rep.max_abs <= 1.0 + 1e-12
            x = 0.5 * (1.0 + delta)
            assert abs(poly(x) - poly.normalization * x ** (-c)) <= 1e-3


@pytest.mark.parametrize("build", [taylor_poly_pos, taylor_poly_neg])
def test_taylor_neg_delta_one_is_constant(build):
    # at delta = 1 the geometric tail bound is 0, so the series stops at once
    poly = build(0.5, 1.0, 1e-4)
    assert poly.degree == 0
    assert poly.eps_cert == 0.0
    assert abs(poly(1.0) - 0.5) < 1e-12


def test_even_symmetry():
    poly = taylor_poly_pos(0.5, 0.1, 1e-4)
    for x in (0.3, 0.77, 0.05):
        assert poly(-x) == poly(x)


def test_degree_within_bound():
    for c in (0.1, 0.25, 0.5):
        for delta in (0.05, 0.1, 0.25):
            for eps in (1e-2, 1e-3, 1e-4):
                cap = degree_bound(c, delta, eps)
                assert taylor_poly_pos(c, delta, eps).degree <= cap
                assert taylor_poly_neg(c, delta, eps).degree <= cap


def test_rescale_keeps_error_budget():
    # small c, small delta pushes the raw series above 1 at x = 0, so the
    # builder divides it by its coefficient sum, the maximum of |poly|
    poly = taylor_poly_neg(0.5, 0.05, 1e-3)
    assert poly.normalization < 0.5 * 0.05 ** 0.5
    rep = certify(poly, grid_points=8001)
    assert abs(rep.max_abs - 1.0) <= 1e-12
    assert rep.sup_error <= 1e-3


@pytest.mark.parametrize("make", [lambda: taylor_poly_pos(0.3, 0.05, 1e-6),
                                  lambda: taylor_poly_neg(0.3, 0.05, 1e-6)])
def test_certify_matches_separate_grid_passes(make):
    # certify evaluates both grids in one pass; the neg case comes rescaled
    poly = make()
    rep = certify(poly, 4001)
    full = _cert_grid(-1.0, 1.0, 4001)
    dom = _cert_grid(poly.delta, 1.0, 4001)
    assert rep.max_abs == float(np.abs(poly(full)).max())
    assert rep.sup_error == float(np.abs(poly(dom) - poly.target(dom)).max())


def test_certify_leaves_the_polynomial_unchanged():
    # certify once divided a polynomial above 1 in place; the first one here it
    # rescaled, the second has max |poly| = 2
    built = taylor_poly_neg(0.5, 0.05, 1e-3)
    doubled = dataclasses.replace(built, coeffs=2.0 * built.coeffs,
                                  normalization=2.0 * built.normalization)
    for poly in (built, doubled, taylor_poly_pos(0.3, 0.05, 1e-6)):
        before = (poly.coeffs.tobytes(), poly.normalization, poly.eps_cert)
        certify(poly, 4001)
        assert (poly.coeffs.tobytes(), poly.normalization, poly.eps_cert) == before
    assert abs(certify(doubled, 4001).max_abs - 2.0) <= 1e-12
    with pytest.raises(dataclasses.FrozenInstanceError):
        built.normalization = 1.0
    with pytest.raises(ValueError, match="read-only"):
        built.coeffs[0] = 1.0


# (n, gamma, eps, alpha, m_bits, degrees) of the benchmark workloads mult_zipf_large,
# additive_zipf, vn_spectral and oracle_dense, then of the goldens in test_estimator.py
# (zipf4096_sampled, density32, additive_zipf256, dense_oracle8 and statevector_qpe8)
DERIVED_CASES = [
    (2**18, 1.5, 0.1, 1.0, None, (378, 399)),
    (4096, 1.0 + 0.25 / 12, 0.25 / 48, 1.0, 12, (91405, 91544)),
    (1024, 1.5, 0.1, 32.0, None, (3354, 3662)),
    (64, 1.5, 0.1, 8.0, None, (261, 292)),
    (4096, 1.5, 0.1, 1.0, None, (126, 135)),
    (32, 1.5, 0.1, math.sqrt(32), None, (146, 157)),
    (256, 1.0 + 0.25 / 8, 0.25 / 32, 1.0, 8, (4232, 4247)),
    (8, 1.5, 0.1, 1.0, None, (9, 10)),
]


def test_tail_bound_and_builder_scale_cover_the_grid_measurements():
    # the analytic tail bound eps_cert must dominate the grid's sup error, and
    # the builder's scale must keep the grid's max |poly| within the bound 1
    polys = []
    for n, gamma, eps, alpha, m_bits, degrees in DERIVED_CASES:
        d = derive_params(EstimatorParams(n=n, gamma=gamma, eps=eps), alpha=alpha, m_bits=m_bits)
        assert (d.poly_pos.degree, d.poly_neg.degree) == degrees
        polys += [(d.poly_pos, CERT_GRID_POINTS), (d.poly_neg, CERT_GRID_POINTS)]
    for c in (0.1, 0.25, 0.5):  # the grid of acceptance criterion 04
        for delta in (0.05, 0.1, 0.25):
            for eps in (1e-2, 1e-3, 1e-4):
                polys += [(build(c, delta, eps), 20001)
                          for build in (taylor_poly_pos, taylor_poly_neg)]
    for poly, points in polys:
        rep = certify(poly, points)
        assert rep.sup_error <= poly.eps_cert, (poly.degree, poly.sign, rep)
        assert rep.max_abs <= 1.0 + 1e-12, (poly.degree, poly.sign, rep)


def _horner_out_of_place(poly, x):
    y = np.abs(x) - 1.0
    acc = np.full_like(y, poly.coeffs[poly.degree])
    for k in range(poly.degree - 1, -1, -1):
        acc = acc * y + poly.coeffs[k]
    return acc


def _truncated(poly, degree):
    return TaylorPolynomial(coeffs=poly.coeffs[:degree + 1].copy(), c=poly.c,
                            sign=poly.sign, delta=poly.delta,
                            normalization=poly.normalization, eps_cert=poly.eps_cert)


# points where the powers of |x| - 1 fall below the normal range at high degree
EDGE_POINTS = np.array([*(1.0 - 10.0**-k for k in range(1, 17)), 1.0 - 2.0**-53,
                        1.0, -1.0, 0.0, -(1.0 - 2.0**-53)])


def _assert_matches_horner(poly, x):
    with np.errstate(under="raise"):  # no power or block sum is computed as a subnormal
        got = poly(x)
    # blocked evaluation sums in another order: allow 64 ulps of sum |c_k|
    tol = 64 * np.finfo(float).eps * np.abs(poly.coeffs).sum()
    assert np.max(np.abs(got - _horner_out_of_place(poly, x))) <= tol


# degrees 15, 16 and 17 sit around a block width squared (b = 4, b^2 = 16)
@pytest.mark.parametrize("make", [
    *[pytest.param(lambda d=d: _truncated(taylor_poly_neg(0.3, 0.05, 1e-6), d), id=f"deg{d}")
      for d in (0, 1, 15, 16, 17)],
    pytest.param(lambda: taylor_poly_pos(0.25, 0.04, 1e-7), id="deg248"),
    # four chunks of points, the last one short
    pytest.param(lambda: taylor_poly_neg(0.05, 0.004, 1e-9), id="deg3623"),
])
def test_blocked_evaluation_matches_out_of_place_horner(make):
    poly = make()
    _assert_matches_horner(poly, np.concatenate((np.linspace(-1.0, 1.0, 2001), EDGE_POINTS)))
    assert poly(0.4) == float(poly(np.array([0.4]))[0])
    assert poly(np.array([])).shape == (0,)


def test_blocked_evaluation_matches_horner_on_additive_certify_grid():
    # the degree-91k polynomials of additive mode at n = 4096, eps_add = 0.25;
    # every eighth point of the certification grids keeps the reference loop short
    d = derive_params(EstimatorParams(n=4096, gamma=1.0 + 0.25 / 12, eps=0.25 / 48), m_bits=12)
    for poly in (d.poly_pos, d.poly_neg):
        assert poly.degree > 90_000
        grid = np.concatenate((_cert_grid(-1.0, 1.0, CERT_GRID_POINTS),
                               _cert_grid(poly.delta, 1.0, CERT_GRID_POINTS)))
        with np.errstate(under="raise"):  # the whole grid, powers flushed below 2^-511
            poly(np.concatenate((grid, EDGE_POINTS)))
        _assert_matches_horner(poly, np.concatenate((grid[::8], EDGE_POINTS)))


@settings(max_examples=30, deadline=None)
@given(c=st.floats(0.01, 1.0), delta=st.floats(1.5e-3, 0.5), log_eps=st.floats(-12.0, -2.0),
       build=st.sampled_from([taylor_poly_pos, taylor_poly_neg]))
@example(c=0.99, delta=1.5e-3, log_eps=-12.0, build=taylor_poly_neg)  # degree 17,919, b = 133
def test_blocked_evaluation_matches_horner_without_underflow(c, delta, log_eps, build):
    # degrees up to about 18k, so some block widths exceed 128 and take MIN_ROWS points
    poly = build(c, delta, 10.0**log_eps)
    _assert_matches_horner(poly, np.concatenate((np.linspace(-1.0, 1.0, 601), EDGE_POINTS)))
