import contextlib
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qentropy import Distribution, EstimatorParams, derive_params, logapprox, plan_additive
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


def _separate_grid(lo, hi, m):
    # the uniform grid joined with Chebyshev nodes on [lo, hi]: certify once measured
    # max |poly| on this grid over [-1, 1] and the error on it over [delta, 1]
    uni = np.linspace(lo, hi, m)
    k = np.arange(1, m + 1)
    cheb = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos((2 * k - 1) * np.pi / (2 * m))
    return np.union1d(uni, cheb)


def _assert_certify_covers_the_separate_grids(poly, points, rep, tol):
    # the one grid holds every |x| of both separate grids, so each figure is at least
    # the figure of a separate pass over them, less the tolerance
    full, dom = _separate_grid(-1.0, 1.0, points), _separate_grid(poly.delta, 1.0, points)
    grid = _cert_grid(poly.delta, points)
    assert np.isin(np.abs(full), grid).all() and np.isin(dom, grid).all()
    assert rep.max_abs >= float(np.abs(poly(full)).max()) - tol
    assert rep.sup_error >= float(np.abs(poly(dom) - poly.target(dom)).max()) - tol


def _ulps_of_coeff_sum(poly):
    return 4 * np.finfo(float).eps * np.abs(poly.coeffs).sum()


@pytest.mark.parametrize("make", [lambda: taylor_poly_pos(0.3, 0.05, 1e-6),
                                  lambda: taylor_poly_neg(0.3, 0.05, 1e-6)])
def test_certify_matches_separate_grid_passes(make):
    # certify evaluates the distinct |x| of both grids in one pass: max |poly| over all
    # of them, the error over those >= delta; the neg case comes rescaled
    poly = make()
    rep = certify(poly, 4001)
    grid = _cert_grid(poly.delta, 4001)
    dom = grid[grid >= poly.delta]
    assert np.all(np.diff(grid) < 0) and grid[0] == 1.0 and grid[-1] == 0.0
    assert rep.max_abs == float(np.abs(poly(grid)).max())
    assert rep.sup_error == float(np.abs(poly(dom) - poly.target(dom)).max())
    _assert_certify_covers_the_separate_grids(poly, 4001, rep, _ulps_of_coeff_sum(poly))


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


def _horner_long_double(poly, x):
    # the reference must be accurate well inside the tolerance: float64 Horner
    # errs by up to 2 * degree ulps of sum |c_k| (7.2e-14 at x = 0 for the
    # degree-2,606 example below, against a tolerance of 1.42e-14), while the
    # 64-bit significand of np.longdouble keeps it 2^11 times smaller
    y = np.abs(x).astype(np.longdouble) - 1
    coeffs = poly.coeffs.astype(np.longdouble)
    acc = np.full_like(y, coeffs[poly.degree])
    for k in range(poly.degree - 1, -1, -1):
        acc *= y
        acc += coeffs[k]
    return acc


def _truncated(poly, degree):
    return TaylorPolynomial(coeffs=poly.coeffs[:degree + 1].copy(), c=poly.c,
                            sign=poly.sign, delta=poly.delta,
                            normalization=poly.normalization, eps_cert=poly.eps_cert)


# points where the powers of |x| - 1 fall below the normal range at high degree
EDGE_POINTS = np.array([*(1.0 - 10.0**-k for k in range(1, 17)), 1.0 - 2.0**-53,
                        1.0, -1.0, 0.0, -(1.0 - 2.0**-53)])


def _assert_matches_horner(poly, x):
    # with the closed form and on the blocked path alone
    want = _horner_long_double(poly, x)
    # blocked evaluation sums in another order: allow 64 ulps of sum |c_k|
    tol = 64 * np.finfo(float).eps * np.abs(poly.coeffs).sum()
    for path in (contextlib.nullcontext(), _no_closed_form()):
        with path, np.errstate(under="raise"):  # no power or block sum is a subnormal
            got = poly(x)
        assert np.max(np.abs(got - want)) <= tol


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
        grid = _cert_grid(poly.delta, CERT_GRID_POINTS)
        with _no_closed_form(), np.errstate(under="raise"):  # the whole grid, flushed
            poly(np.concatenate((grid, EDGE_POINTS)))
        _assert_matches_horner(poly, np.concatenate((grid[::8], EDGE_POINTS)))


@settings(max_examples=30, deadline=None)
@given(c=st.floats(0.01, 1.0), delta=st.floats(1.5e-3, 0.5), log_eps=st.floats(-12.0, -2.0),
       build=st.sampled_from([taylor_poly_pos, taylor_poly_neg]))
@example(c=0.99, delta=1.5e-3, log_eps=-12.0, build=taylor_poly_neg)  # degree 17,919, b = 133
@example(c=1.0, delta=1.5e-3, log_eps=-2.0, build=taylor_poly_neg)  # degree 2,606, see above
def test_blocked_evaluation_matches_horner_without_underflow(c, delta, log_eps, build):
    # degrees up to about 18k, so some block widths exceed 128 and take MIN_ROWS points
    poly = build(c, delta, 10.0**log_eps)
    _assert_matches_horner(poly, np.concatenate((np.linspace(-1.0, 1.0, 601), EDGE_POINTS)))


@contextlib.contextmanager
def _patched(name, fn):
    # logapprox.<name> is fn inside the block, which fails unless fn was called: a
    # patch that is never called proves nothing
    calls = []

    def counted(*args):
        calls.append(args)
        return fn(*args)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(logapprox, name, counted)
        yield
    assert calls, f"logapprox.{name} was never called"


def _no_closed_form():
    # every point evaluated inside the block takes the blocked path
    return _patched("_closed_form", lambda poly, abs_x: np.zeros(abs_x.size, dtype=bool))


@contextlib.contextmanager
def _spy_closed_form():
    # yields the (degree, points, points on the blocked path) of every call inside the block
    seen, rule = [], logapprox._closed_form

    def spy(poly, abs_x):
        closed = rule(poly, abs_x)
        seen.append((poly.degree, abs_x.size, int(closed.size - closed.sum())))
        return closed
    with _patched("_closed_form", spy):
        yield seen


def _wide_series_points(rng):
    # uniform on [-1, 1], crowded at |x| -> 1 and at |x| -> 0, in (1, 2), at +-2 and at
    # EDGE_POINTS, each with either sign
    x = np.concatenate((rng.uniform(-1.0, 1.0, 150), 1.0 - np.geomspace(1e-15, 0.5, 80),
                        np.geomspace(1e-15, 0.5, 80), rng.uniform(1.0, 2.0, 40),
                        [2.0, -2.0], EDGE_POINTS))
    return x * rng.choice([-1.0, 1.0], x.size)


@settings(max_examples=5, deadline=None)
@given(c=st.floats(0.02, 0.98), log_delta=st.floats(math.log10(2e-5), -3.0),
       log_eps=st.floats(-6.0, -2.0), build=st.sampled_from([taylor_poly_pos, taylor_poly_neg]),
       seed=st.integers(0, 2**32 - 1))
@example(c=0.5, log_delta=math.log10(2e-5), log_eps=-3.0, build=taylor_poly_pos, seed=0)  # b = 161
def test_wide_series_take_the_closed_form_within_rounding(c, log_delta, log_eps, build, seed):
    # closed-form values lie within 64 ulps of sum |c_k| of long-double Horner, and every
    # other value is byte-equal to evaluating those points alone on the blocked path
    poly = build(c, 10.0**log_delta, 10.0**log_eps)
    # degrees from 16,641 to 100k: the reference loop takes about 3 us per degree, and its
    # own error grows with the degree (7 ulps of sum |c_k| at 400k, where the closed form
    # is within 0.3 of a long-double target)
    assume(math.isqrt(poly.coeffs.size) > 128 and poly.degree <= 100_000)
    x = _wide_series_points(np.random.default_rng(seed))
    with np.errstate(all="raise"):
        got = poly(x)
        closed = logapprox._closed_form(poly, np.abs(x))
        with _no_closed_form():
            alone = poly(x[~closed])
    assert closed.any() and not closed.all()
    assert got[~closed].tobytes() == alone.tobytes()
    tol = 64 * np.finfo(float).eps * np.abs(poly.coeffs).sum()
    assert np.max(np.abs(got[closed] - _horner_long_double(poly, x[closed]))) <= tol


def test_hand_built_wide_polynomial_never_takes_the_closed_form():
    # the same coefficients with no next_coeff: every point takes the blocked path
    series = taylor_poly_neg(0.3, 3e-4, 1e-6)
    hand = _truncated(series, series.degree)
    assert math.isqrt(series.coeffs.size) > 128 and hand.next_coeff == math.inf
    x = _wide_series_points(np.random.default_rng(0))
    assert logapprox._closed_form(series, np.abs(x)).any()
    assert not logapprox._closed_form(hand, np.abs(x)).any()
    with _no_closed_form():
        want = series(x)
    assert hand(x).tobytes() == want.tobytes()


def test_closed_form_only_above_block_width_128():
    # the polynomials of mult_zipf_large, vn_spectral, oracle_dense and the goldens have
    # block widths up to 128 and take no closed form; the additive ones at n = 4096 do,
    # and so does a series cut at b = 129, but not one cut at b = 128
    with _spy_closed_form() as seen:
        for n, gamma, eps, alpha, m_bits, _ in DERIVED_CASES:  # certifies both polynomials
            derive_params(EstimatorParams(n=n, gamma=gamma, eps=eps), alpha=alpha, m_bits=m_bits)
    assert len(seen) == 2 * len(DERIVED_CASES)
    wide = {degree for degree, _, _ in seen if math.isqrt(degree + 1) > 128}
    assert wide == {91405, 91544}
    assert all((blocked < points) == (degree in wide) for degree, points, blocked in seen)
    long = taylor_poly_neg(0.99, 1.5e-3, 1e-12)
    for b in (128, 129):
        cut = dataclasses.replace(long, coeffs=long.coeffs[:b * b].copy(),
                                  next_coeff=abs(float(long.coeffs[b * b])))
        assert logapprox._closed_form(cut, np.array([1.0, 0.9])).tolist() == [b > 128] * 2


def test_closed_form_needs_abs_y_below_one():
    # |x| = 0 and |x| >= 2 put |y| >= 1, where the tail bound does not hold; inf and nan
    # raise nothing
    poly = taylor_poly_neg(0.3, 3e-4, 1e-6)
    x = np.array([0.0, -0.0, 2.0, -2.0, 3.5, np.inf, -np.inf, np.nan, 1.0, 0.999])
    with np.errstate(all="raise"):
        assert logapprox._closed_form(poly, np.abs(x)).tolist() == [False] * 8 + [True, True]


def test_additive_plan_sends_few_points_to_the_blocked_path():
    # the n = 4096 additive plan, degrees 91k: every heavy label of the benchmark's
    # permuted Zipf input takes the closed form, and all but 38 of the 14,257 points
    # of the certification grid do
    p = Distribution.zipf(4096, 1.0).probs
    with _spy_closed_form() as certifying:
        plan = plan_additive(Distribution(p[np.random.default_rng(0).permutation(p.size)]), 0.25)
    with _spy_closed_form() as heavy:
        plan.run(mode="exact")
    assert plan.derived.poly_pos.degree > 90_000
    assert [(points, blocked) for _, points, blocked in heavy] == [(4096, 0)] * 2
    assert [points for _, points, _ in certifying] == [14257] * 2
    assert all(0 < blocked <= 40 for _, _, blocked in certifying)


def _scan_every_row():
    # the last flush of every flush chunk inside the block scans every row
    return _patched("_flush_band", lambda b, abs_y: (0, b))


def _one_row_per_block(b, row, values):
    coeffs = np.zeros(b * b)
    coeffs[row::b] = values
    return TaylorPolynomial(coeffs=coeffs, c=1.0, sign=1, delta=1.0, normalization=1.0,
                            eps_cert=0.0)


@settings(max_examples=30, deadline=None)
@given(b=st.integers(129, 160), row=st.integers(12, 126), seed=st.integers(0, 2**32 - 1))
def test_flush_band_keeps_every_bit(b, row, seed):
    # each block's one nonzero coefficient multiplies y^row, and |y| = 2^(-511/d) with d
    # spread over [row - 1, row + 2), so chunks of points sorted by |y| put the band's
    # edges on that row; the powers of every point fall below 2^-511 by y^b.  Some
    # chunks also hold |x| >= 2, where every row is formed and scanned, or |x| = 1.
    # The values must not move by a bit against a band of every row
    rng = np.random.default_rng(seed)
    poly = _one_row_per_block(b, row, rng.uniform(0.5, 2.0, b) * rng.choice([-1.0, 1.0], b))
    y = np.sort(np.exp2(-511.0 / rng.uniform(row - 1.0, row + 2.0, 3000)))
    x = 1.0 + y * rng.choice([-1.0, 1.0], y.size)
    x[rng.choice(x.size, 4, replace=False)] = rng.uniform(2.0, 2.01, 4)
    x[rng.choice(x.size, 4, replace=False)] = [1.0, -1.0, -2.0, -2.005]
    with np.errstate(under="raise"):
        got = poly(x)
        with _scan_every_row():
            want = poly(x)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("row", [55, 100, 135])
def test_flush_band_keeps_every_bit_at_its_rounding_edge(row):
    # points within 8 ulps of |y| = 2^(-511/row), each a chunk of its own: there the
    # running product can round y^row to the other side of 2^-511, which the band's
    # ROUNDING_MARGIN covers; with no margin, the values nearest the edge move
    poly = _one_row_per_block(140, row, 1.0)
    x = 1.0 - 2.0 ** (-511.0 / row) + np.arange(-8, 9) * 2.0**-53
    x = np.concatenate((x, 2.0 - x))
    with np.errstate(under="raise"):
        got = [poly(x[i:i + 1]).tobytes() for i in range(x.size)]
        with _scan_every_row():
            want = [poly(x[i:i + 1]).tobytes() for i in range(x.size)]
    assert got == want


def _binomial_series_per_term(c, sign, delta, eps, norm):
    # the series builder as it was before the stop test ran once per chunk: the
    # vector test over every chunk of terms
    s, r = sign * c, 1.0 - delta
    chunks, last, k, size = [np.ones(1)], 1.0, 0, 64
    while True:
        ks = np.arange(k, k + size, dtype=float)
        terms = (s - ks) / (ks + 1.0)
        terms[0] *= last
        np.cumprod(terms, out=terms)
        stop = norm * (np.abs(terms) * r ** (ks + 1.0) / delta) <= eps
        hit = int(np.argmax(stop)) if stop.any() else size
        if hit < size:
            chunks.append(terms[:hit])
            k += hit
            b_next = float(terms[hit])
            break
        chunks.append(terms)
        k += size
        last = float(terms[-1])
        size = min(2 * size, logapprox.SERIES_CHUNK)
    coeffs = norm * np.concatenate(chunks)
    scale = max(1.0, float(np.abs(coeffs).sum()))
    coeffs /= scale
    return coeffs, norm / scale, norm * abs(b_next) * r ** (k + 1) / delta / scale


def _assert_series_matches_per_term_stop_test(c, sign, delta, eps):
    norm = 0.5 if sign > 0 else 0.5 * delta**c
    poly = logapprox._binomial_series(c, sign, delta, eps, norm)
    coeffs, normalization, eps_cert = _binomial_series_per_term(c, sign, delta, eps, norm)
    assert poly.coeffs.tobytes() == coeffs.tobytes() and poly.degree == coeffs.size - 1
    assert (poly.eps_cert.hex(), poly.normalization.hex()) == (eps_cert.hex(), normalization.hex())
    return poly


@settings(max_examples=60, deadline=None)
@given(c=st.floats(0.001, 1.0), sign=st.sampled_from([1, -1]), log_delta=st.floats(-4.0, 0.0),
       log_eps=st.floats(-14.0, -1.0))
@example(c=0.5, sign=1, log_delta=0.0, log_eps=-4.0)  # delta = 1: degree 0
@example(c=1.0, sign=-1, log_delta=-4.0, log_eps=-14.0)  # slowest-falling terms
def test_series_stop_test_per_chunk_matches_the_per_term_test(c, sign, log_delta, log_eps):
    # the stop test runs over a chunk only when its last term is within 1 + 1e-9 of eps:
    # the tested terms shrink by at least r = 1 - delta per step, so no earlier term of
    # a chunk whose last term fails can pass, and every coefficient and bound is kept
    _assert_series_matches_per_term_stop_test(c, sign, 10.0**log_delta, 10.0**log_eps)


@pytest.mark.parametrize("logn", [12, 14])
def test_additive_series_matches_the_per_term_stop_test(logn):
    # the degree-91k and degree-412k series of additive mode at n = 4096 and 16384
    d = derive_params(EstimatorParams(n=2**logn, gamma=1.0 + 0.25 / logn, eps=0.25 / (4 * logn)),
                      m_bits=logn)
    for sign in (1, -1):
        poly = _assert_series_matches_per_term_stop_test(d.a, sign, d.delta, d.eps2)
        assert poly.degree == (d.poly_pos if sign > 0 else d.poly_neg).degree > 90_000


def test_series_chunk_changes_no_coefficient(monkeypatch):
    # the binomial series runs one cumulative product across its chunks, so the chunk
    # size changes no bit of the degree-91k coefficients of additive mode at n = 4096
    d = derive_params(EstimatorParams(n=4096, gamma=1.0 + 0.25 / 12, eps=0.25 / 48), m_bits=12)
    monkeypatch.setattr(logapprox, "SERIES_CHUNK", 2**16)
    for built, build in ((d.poly_pos, taylor_poly_pos), (d.poly_neg, taylor_poly_neg)):
        wide = build(d.a, d.delta, d.eps2)
        assert built.degree > 90_000 and wide.degree == built.degree
        assert built.coeffs.tobytes() == wide.coeffs.tobytes()
        assert (built.eps_cert, built.normalization) == (wide.eps_cert, wide.normalization)


# certify's (sup_error, max_abs) of the additive polynomials at n = 2^logn, by sign,
# recorded with every row formed (OpenBLAS 0.3.31, one thread).  Their last bits move
# with the BLAS kernel and thread count (at n = 16384 two threads read 2^-54 higher),
# so they bound the report within 4 ulps of sum |c_k|, and the same process's certify
# on the blocked path alone pins it bit for bit
ADDITIVE_CERT_REPORTS = {
    (12, 1): ("0x1.8bc9p-31", "0x1p-1"),
    (12, -1): ("0x1.8bf0dap-31", "0x1.00f35144fd826p-1"),
    (14, 1): ("0x1.f81f2p-34", "0x1p-1"),
    (14, -1): ("0x1.f8394p-34", "0x1.00ba1e914e915p-1"),
}


@pytest.mark.parametrize("logn", [12, 14])
def test_additive_certify_reports_match_recorded_values(logn):
    # certify reads the same report with the closed form as without it
    d = derive_params(EstimatorParams(n=2**logn, gamma=1.0 + 0.25 / logn, eps=0.25 / (4 * logn)),
                      m_bits=logn)
    for poly in (d.poly_pos, d.poly_neg):
        rep = certify(poly, CERT_GRID_POINTS)
        with _no_closed_form():
            full = certify(poly, CERT_GRID_POINTS)
        assert (rep.sup_error.hex(), rep.max_abs.hex()) == (full.sup_error.hex(),
                                                            full.max_abs.hex())
        sup_error, max_abs = map(float.fromhex, ADDITIVE_CERT_REPORTS[logn, poly.sign])
        tol = _ulps_of_coeff_sum(poly)
        assert abs(rep.sup_error - sup_error) <= tol and abs(rep.max_abs - max_abs) <= tol


@pytest.mark.parametrize("logn", [12, 14])
def test_certify_with_skipped_chunks_matches_full_evaluation(logn):
    # the additive polynomials at n = 4096 and 16384, degrees 91k and 412k: all but at
    # most 40 points of the certification grid skip the blocked path, their closed-form
    # values lie within 16 ulps of sum |c_k| of the blocked path's, and the report lies
    # within 4 ulps of the blocked path's figures
    d = derive_params(EstimatorParams(n=2**logn, gamma=1.0 + 0.25 / logn, eps=0.25 / (4 * logn)),
                      m_bits=logn)
    for poly in (d.poly_pos, d.poly_neg):
        grid = _cert_grid(poly.delta, CERT_GRID_POINTS)
        dom = grid >= poly.delta
        with _spy_closed_form() as seen:
            rep, got = certify(poly, CERT_GRID_POINTS), poly(grid)
        assert [points for _, points, _ in seen] == [grid.size] * 2
        assert all(blocked <= 40 for _, _, blocked in seen)
        with _no_closed_form():
            want = poly(grid)
        tol = _ulps_of_coeff_sum(poly)
        assert np.max(np.abs(got - want)) <= 4 * tol
        assert abs(rep.max_abs - np.abs(want).max()) <= tol
        assert abs(rep.sup_error - np.abs(want[dom] - poly.target(grid[dom])).max()) <= tol
        _assert_certify_covers_the_separate_grids(poly, CERT_GRID_POINTS, rep, tol)
