import contextlib
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qentropy import Distribution, EstimatorParams, derive_params, logapprox, plan_additive
from qentropy.estimator import CERT_GRID_POINTS
from qentropy.logapprox import (
    EVAL_CHUNK,
    MIN_ROWS,
    ROUNDING_MARGIN,
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
    with np.errstate(under="raise"):  # no power or block sum is computed as a subnormal
        got = poly(x)
    # blocked evaluation sums in another order: allow 64 ulps of sum |c_k|
    tol = 64 * np.finfo(float).eps * np.abs(poly.coeffs).sum()
    assert np.max(np.abs(got - _horner_long_double(poly, x))) <= tol


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
        with np.errstate(under="raise"):  # the whole grid, powers flushed below 2^-511
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


def _block_sums_and_horner(poly, y):
    # the blocked evaluation in full, written independently of TaylorPolynomial.__call__:
    # powers by a running product, every block sum from one product, Horner over all blocks
    b = math.isqrt(poly.coeffs.size)
    n_blocks = -(-poly.coeffs.size // b)
    blocks = np.zeros(n_blocks * b)
    blocks[:poly.coeffs.size] = poly.coeffs
    powers = np.cumprod(np.vstack((np.ones_like(y), np.broadcast_to(y, (b - 1, y.size)))), axis=0)
    sums = blocks.reshape(n_blocks, b) @ powers
    z = powers[b - 1] * y
    acc = sums[n_blocks - 1].copy()
    for j in range(n_blocks - 2, -1, -1):
        acc = acc * z + sums[j]
    return sums, acc


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


@contextlib.contextmanager
def _spy_blocks_kept():
    # yields the (polynomial, J) of every chunk evaluated inside the block
    kept, rule = [], logapprox._blocks_kept

    def spy(poly, abs_y, rows):
        counts = rule(poly, abs_y, rows)
        kept.extend((poly, int(j)) for j in counts)
        return counts
    with _patched("_blocks_kept", spy):
        yield kept


def _keep_every_block():
    # every chunk evaluated inside the block keeps every block
    return _patched("_blocks_kept",
                    lambda poly, abs_y, rows: np.full(-(-abs_y.size // rows), poly.block_norms.size))


def _kept(poly, abs_y):
    # J at each |y| of abs_y, every point a chunk of its own
    return logapprox._blocks_kept(poly, np.atleast_1d(np.asarray(abs_y, dtype=float)), 1)


def _blocks_kept_per_chunk(poly, abs_y):
    # the block rule of TaylorPolynomial, written for one chunk at a time
    norms = poly.block_norms
    b = math.isqrt(poly.coeffs.size)
    if b <= EVAL_CHUNK // MIN_ROWS:
        return norms.size
    y_max = float(np.max(abs_y))
    if y_max >= 1.0:
        return norms.size
    log_z = b * math.log2(max(y_max, 2.0**-500))
    tails = np.exp2(np.maximum(np.arange(1.0, norms.size) * log_z, -500.0))
    tails *= norms[1:]
    tails = np.cumsum(tails[::-1])[::-1]
    c0 = abs(float(poly.coeffs[0]))
    low = c0 - y_max * (norms[0] - c0) - tails[0] - ROUNDING_MARGIN * float(norms.sum())
    bound = 2.0**-55 * low
    fits = tails * (1.0 + ROUNDING_MARGIN) < bound
    if bound < 2.0**-1000 or not fits[-1]:
        return norms.size
    return 1 + int(np.argmax(fits))


def _assert_one_pass_matches_per_chunk(poly, x):
    # the chunks of poly(x): every J of the one pass equals the per-chunk rule's
    abs_y = np.abs(np.abs(x) - 1.0)
    rows = min(abs_y.size, max(MIN_ROWS, EVAL_CHUNK // math.isqrt(poly.coeffs.size)))
    with _spy_blocks_kept() as kept:
        poly(x)
    want = [_blocks_kept_per_chunk(poly, abs_y[s:s + rows]) for s in range(0, abs_y.size, rows)]
    assert [j for _, j in kept] == want


def test_one_pass_block_counts_match_the_per_chunk_rule_on_every_certify_grid():
    wide = 0
    for n, gamma, eps, alpha, m_bits, _ in DERIVED_CASES:
        d = derive_params(EstimatorParams(n=n, gamma=gamma, eps=eps), alpha=alpha, m_bits=m_bits)
        for poly in (d.poly_pos, d.poly_neg):
            _assert_one_pass_matches_per_chunk(poly, _cert_grid(poly.delta, CERT_GRID_POINTS))
            wide += math.isqrt(poly.coeffs.size) > 128
    assert wide == 2


@settings(max_examples=15, deadline=None)
@given(c=st.floats(0.05, 0.95), delta=st.floats(2e-4, 6e-4), log_eps=st.floats(-10.0, -3.0),
       build=st.sampled_from([taylor_poly_pos, taylor_poly_neg]),
       seed=st.integers(0, 2**32 - 1))
def test_one_pass_block_counts_match_the_per_chunk_rule(c, delta, log_eps, build, seed):
    # chunks of points spread over [-1.2, 1.2], of points crowded at |x| -> 1, and of both
    poly = build(c, delta, 10.0**log_eps)
    assume(math.isqrt(poly.coeffs.size) > 128)
    rng = np.random.default_rng(seed)
    x = np.concatenate((rng.uniform(-1.2, 1.2, 1500), 1.0 - np.geomspace(1e-15, 0.5, 1000),
                        rng.uniform(-1.0, 1.0, 700)))
    x[1700:1900] = 1.0 - rng.uniform(0.0, 1e-3, 200)
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_one_pass_matches_per_chunk(poly, x)


def _assert_one_block_keeps_every_bit(poly):
    # wherever a chunk keeps one block, the blocks past the first cannot change a bit:
    # the full Horner result equals block sum 0 of the same product, however BLAS summed
    # it.  J falls as |y| does, so the points with J = 1 are those with |y| <= r
    assert _kept(poly, 0.0)[0] == 1
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _kept(poly, mid)[0] == 1 else (lo, mid)
    r = lo
    assert 0.0 < r < 1.0
    edge = r * (1.0 - np.geomspace(1e-15, 0.5, 60))  # the rule is tightest at |y| = r
    y = np.concatenate((np.linspace(-1.0, 1.0, 201), edge, -edge, [r, -r]))
    with np.errstate(under="ignore"):
        sums, acc = _block_sums_and_horner(poly, y)
    one = _kept(poly, np.abs(y)) == 1
    assert one.sum() >= 120
    assert np.array_equal(one, np.abs(y) <= r)
    assert np.array_equal(acc[one], sums[0][one])


@settings(max_examples=25, deadline=None)
@given(c=st.floats(0.05, 0.95), delta=st.floats(2e-4, 6e-4), log_eps=st.floats(-10.0, -3.0),
       build=st.sampled_from([taylor_poly_pos, taylor_poly_neg]))
def test_one_kept_block_keeps_every_bit_of_the_full_horner_result(c, delta, log_eps, build):
    poly = build(c, delta, 10.0**log_eps)
    assume(math.isqrt(poly.coeffs.size) > 128)
    _assert_one_block_keeps_every_bit(poly)


@settings(max_examples=25, deadline=None)
@given(b=st.integers(129, 160), c0=st.sampled_from([1.0, -1.0]), head=st.floats(-0.5, 0.5),
       spike=st.floats(1e-3, 1e3), spike_sign=st.sampled_from([1.0, -1.0]))
def test_one_kept_block_keeps_every_bit_where_the_rule_is_tight(b, c0, head, spike, spike_sign):
    # a Taylor tail spreads over many blocks, so |z * acc_1| stays far below the
    # rule's bound sum_{j>=1} U_j Y^(jb); a lone tail coefficient at k = b meets it,
    # so a rule even 8x too generous (2^-52 for 2^-55) changes bits at its edge
    coeffs = np.zeros(b * b)
    coeffs[[0, 1, b]] = c0, head, spike_sign * spike
    poly = TaylorPolynomial(coeffs=coeffs, c=1.0, sign=1, delta=1.0, normalization=1.0,
                            eps_cert=0.0)
    _assert_one_block_keeps_every_bit(poly)


def test_every_block_is_kept_up_to_block_width_128():
    # block widths up to EVAL_CHUNK // MIN_ROWS = 128 keep every block in every chunk:
    # the polynomials of mult_zipf_large, vn_spectral and oracle_dense, and a series cut
    # at b = 128; cut at b = 129 it keeps one block at |x| = 1
    long = taylor_poly_neg(0.99, 1.5e-3, 1e-12)
    cut128, cut129 = _truncated(long, 128**2 - 1), _truncated(long, 129**2 - 1)
    assert _kept(cut129, 0.0)[0] == 1
    with _spy_blocks_kept() as kept:
        cut128(np.concatenate((np.linspace(-1.0, 1.0, 4001), [1.0] * 256)))
        for n, gamma, eps, alpha, m_bits, _ in DERIVED_CASES:  # certifies both polynomials
            derive_params(EstimatorParams(n=n, gamma=gamma, eps=eps), alpha=alpha, m_bits=m_bits)
    narrow = [(poly, j) for poly, j in kept if math.isqrt(poly.coeffs.size) <= 128]
    assert len({id(poly) for poly, _ in narrow}) == 2 * len(DERIVED_CASES) - 1
    assert all(j == poly.block_norms.size for poly, j in narrow)
    wide = {poly.degree for poly, j in kept if math.isqrt(poly.coeffs.size) > 128 and j == 1}
    assert wide == {91405, 91544}


def test_every_block_is_kept_at_abs_x_two_and_beyond():
    # |x| >= 2 puts |y| >= 1, where no block can be dropped
    poly = taylor_poly_neg(0.3, 3e-4, 1e-6)
    assert math.isqrt(poly.coeffs.size) > 128
    with _spy_blocks_kept() as kept, np.errstate(over="ignore", invalid="ignore"):
        poly(np.array([2.0, -2.0, 3.5]))
    assert [j for _, j in kept] == [poly.block_norms.size]
    assert _kept(poly, [1.0, 2.5, np.inf]).tolist() == [poly.block_norms.size] * 3


@settings(max_examples=20, deadline=None)
@given(c=st.floats(0.05, 0.95), delta=st.floats(2e-4, 6e-4), log_eps=st.floats(-10.0, -3.0),
       build=st.sampled_from([taylor_poly_pos, taylor_poly_neg]),
       seed=st.integers(0, 2**32 - 1))
def test_kept_blocks_match_every_block_within_4_ulps(c, delta, log_eps, build, seed):
    # points spread over [-1, 1], so chunks keep anything from one block to all of them;
    # every value lies within 4 ulps of sum |c_k| of the same evaluation keeping all
    poly = build(c, delta, 10.0**log_eps)
    assume(math.isqrt(poly.coeffs.size) > 128)
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, 3000)
    x[::7] = 1.0 - np.geomspace(1e-12, 1.0, x[::7].size)
    got = poly(x)
    with _keep_every_block():
        want = poly(x)
    assert np.max(np.abs(got - want)) <= _ulps_of_coeff_sum(poly)


def test_additive_plan_keeps_few_blocks():
    # the n = 4096 additive plan, degrees 91k: a heavy chunk of the benchmark's permuted
    # Zipf input, sigma down to 0.0052, keeps at most 20 of about 303 blocks, and most
    # chunks of the certification grid keep one
    p = Distribution.zipf(4096, 1.0).probs
    with _spy_blocks_kept() as certifying:
        plan = plan_additive(Distribution(p[np.random.default_rng(0).permutation(p.size)]), 0.25)
    with _spy_blocks_kept() as heavy:
        plan.run(mode="exact")
    assert plan.derived.poly_pos.degree > 90_000 and len(heavy) == 2 * 16
    assert max(j for _, j in heavy) <= 20
    assert np.mean([j == 1 for _, j in certifying]) >= 0.8


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


@contextlib.contextmanager
def _spy_rows_kept():
    # yields the (b, K) of every chunk evaluated inside the block
    seen, rule = [], logapprox._rows_kept

    def spy(poly, abs_y, rows, kept):
        counts = rule(poly, abs_y, rows, kept)
        seen.extend((poly.blocks.shape[1], int(k)) for k in counts)
        return counts
    with _patched("_rows_kept", spy):
        yield seen


def _form_every_row():
    # every chunk evaluated inside the block forms all b power rows
    return _patched("_rows_kept",
                    lambda poly, abs_y, rows, kept: np.full(kept.size, poly.blocks.shape[1]))


def _series_or_spike(kind, b, extra, c, build, row, spike):
    # b * b + extra coefficients, so the block width is b: a Taylor series cut short,
    # or c_0 = 1 with one spike at `row` of block 0 and another at row 0 of block 1,
    # where dropping the spike's row moves the value by far more than an ulp
    size = b * b + extra
    if kind == "series":
        poly = build(c, 2e-5, 1e-9)
        assume(poly.coeffs.size >= size)
        return _truncated(poly, size - 1)
    coeffs = np.zeros(size)
    coeffs[[0, row, b]] = 1.0, spike, spike
    return TaylorPolynomial(coeffs=coeffs, c=1.0, sign=1, delta=1.0, normalization=1.0,
                            eps_cert=0.0)


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(["series", "spike"]), b=st.integers(129, 800),
       extra=st.integers(0, 2 * 800), c=st.floats(0.02, 0.98),
       build=st.sampled_from([taylor_poly_pos, taylor_poly_neg]), row=st.integers(1, 127),
       spike=st.floats(1e-3, 1.0), top=st.floats(0.3, 0.95),
       order=st.permutations(range(4)), seed=st.integers(0, 2**32 - 1))
@example(kind="series", b=642, extra=0, c=0.3, build=taylor_poly_pos, row=1, spike=1.0,
         top=0.92, order=[0, 1, 2, 3], seed=0)  # K from 256 to 512 moves bits at this b
def test_short_chunks_keep_every_bit_of_every_row(kind, b, extra, c, build, row, spike, top,
                                                  order, seed):
    # chunks of 256 points uniform on [-1, 1] (every block, every row), crowded at
    # |x| -> 1 (one block, few rows), uniform on [0.5, 1] and in a narrow band of
    # |y| below `top` (one block, rows up to the cap and past it), in any order: a
    # chunk forming K < b rows returns the same bytes as one forming all b, and some
    # chunk does.  Only chunks whose |y| all sit near their largest show a wrong K
    poly = _series_or_spike(kind, b, min(extra, 2 * b), c, build, row, spike)
    rng = np.random.default_rng(seed)
    sets = [rng.uniform(-1.0, 1.0, 512), 1.0 - np.geomspace(1e-15, 0.5, 512),
            rng.uniform(0.5, 1.0, 512), 1.0 - top * rng.uniform(0.98, 1.0, 512)]
    x = np.concatenate([sets[i] for i in order])
    with np.errstate(under="raise"):
        with _spy_rows_kept() as seen:
            got = poly(x)
        with _form_every_row():
            want = poly(x)
    assert got.tobytes() == want.tobytes()
    assert any(k < b for _, k in seen)
    assert all(k == b or k <= EVAL_CHUNK // MIN_ROWS for _, k in seen)


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
# so they bound the report within 4 ulps of sum |c_k|, and the same process's
# every-row evaluation pins it bit for bit
ADDITIVE_CERT_REPORTS = {
    (12, 1): ("0x1.8bc9p-31", "0x1p-1"),
    (12, -1): ("0x1.8bf0dap-31", "0x1.00f35144fd826p-1"),
    (14, 1): ("0x1.f81f2p-34", "0x1p-1"),
    (14, -1): ("0x1.f8394p-34", "0x1.00ba1e914e915p-1"),
}


@pytest.mark.parametrize("logn", [12, 14])
def test_additive_certify_reports_match_recorded_values(logn):
    d = derive_params(EstimatorParams(n=2**logn, gamma=1.0 + 0.25 / logn, eps=0.25 / (4 * logn)),
                      m_bits=logn)
    for poly in (d.poly_pos, d.poly_neg):
        with _spy_rows_kept() as seen:
            rep = certify(poly, CERT_GRID_POINTS)
        with _form_every_row():
            full = certify(poly, CERT_GRID_POINTS)
        b = poly.blocks.shape[1]
        assert sum(k < b for _, k in seen) >= 40  # of 56 chunks
        assert (rep.sup_error.hex(), rep.max_abs.hex()) == (full.sup_error.hex(),
                                                            full.max_abs.hex())
        sup_error, max_abs = map(float.fromhex, ADDITIVE_CERT_REPORTS[logn, poly.sign])
        tol = _ulps_of_coeff_sum(poly)
        assert abs(rep.sup_error - sup_error) <= tol and abs(rep.max_abs - max_abs) <= tol


@pytest.mark.parametrize("logn", [12, 14])
def test_certify_with_skipped_chunks_matches_full_evaluation(logn):
    # the additive polynomials at n = 4096 and 16384, degrees 91k and 412k: most chunks
    # of the certification grid keep one block, and no value moves by more than 4 ulps
    # of sum |c_k| against the same evaluation keeping every block
    d = derive_params(EstimatorParams(n=2**logn, gamma=1.0 + 0.25 / logn, eps=0.25 / (4 * logn)),
                      m_bits=logn)
    for poly in (d.poly_pos, d.poly_neg):
        grid = _cert_grid(poly.delta, CERT_GRID_POINTS)
        dom = grid >= poly.delta
        with _spy_blocks_kept() as kept:
            rep, got = certify(poly, CERT_GRID_POINTS), poly(grid)
        assert np.mean([j == 1 for _, j in kept]) >= 0.8
        with _keep_every_block():
            want = poly(grid)
        tol = _ulps_of_coeff_sum(poly)
        assert np.max(np.abs(got - want)) <= tol
        assert abs(rep.max_abs - np.abs(want).max()) <= tol
        assert abs(rep.sup_error - np.abs(want[dom] - poly.target(grid[dom])).max()) <= tol
        _assert_certify_covers_the_separate_grids(poly, CERT_GRID_POINTS, rep, tol)
