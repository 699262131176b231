"""Power-function approximations of the logarithm and their Taylor realizations.

The antisymmetric combination (x^-a - x^a) / (2a ln 2) approximates
log2(1/x) from above on [beta, 1] when a = ln(gamma) / ln(1/beta), with a
one-sided multiplicative overshoot of at most gamma at x = beta.  The two
power functions are realized as truncated binomial (Taylor) series around
x = 1, stored in the shifted basis (powers of x - 1) and evaluated at |x|,
so they act as even functions of the singular value.  The builder scales
each series to the QSVT bound |poly| <= 1 on [-1, 1]; `certify` only measures.
Evaluation is blocked, one matrix product per chunk of points, and flushes
powers below 2^-511 to 0 near |x| = 1, so high degrees run no subnormal
arithmetic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dists import ValidationError

MAX_DEGREE = 5_000_000
EVAL_CHUNK = 2**15      # entries of a chunk's power matrix (256 KB) while b <= 128
MIN_ROWS = 256          # fewest points per chunk: above b = 128 the matrix grows with b
FLUSH_BELOW = 2.0**-511  # smaller powers become 0: two survivors multiply to a normal
SERIES_CHUNK = 2**16    # most binomial-series terms built per cumulative product


def choose_exponent(gamma: float, beta: float) -> float:
    """Exponent a = ln(gamma)/ln(1/beta) making x^-a/x^a a gamma-factor log proxy."""
    if gamma <= 1.0:
        raise ValidationError("gamma must exceed 1")
    if not (0.0 < beta < 1.0):
        raise ValidationError("beta must be in (0, 1)")
    return math.log(gamma) / math.log(1.0 / beta)


def f_power_log(x, a: float):
    """(x^-a - x^a) / (2 a ln 2): a base-2 logarithm proxy, exact as a -> 0."""
    if a <= 0:
        raise ValidationError("exponent a must be positive")
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0) or np.any(x > 1):
        raise ValidationError("f_power_log is defined on (0, 1]")
    out = (x**-a - x**a) / (2.0 * a * math.log(2.0))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Taylor polynomials for x^c and x^-c
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TaylorPolynomial:
    """Truncated binomial series for normalization * x^(sign*c), shifted basis.

    coeffs[k] multiplies (|x| - 1)^k; evaluation at |x| makes the realized
    function even in x, matching how it is applied to singular values.
    Evaluation is blocked (Paterson-Stockmeyer): the coefficients split into
    b ~ sqrt(degree) blocks of b terms, the block sums come from one matrix
    product per chunk of max(MIN_ROWS, EVAL_CHUNK // b) points, and Horner
    runs over the blocks.  In a chunk holding some 0 < |y| < 2^(-511/b),
    y = |x| - 1, each power y^k and the Horner step z = y^b is flushed to 0
    below FLUSH_BELOW, so the powers and their products stay normal; a
    dropped term is below FLUSH_BELOW * sum |coeffs|.  The last bits of
    poly(x) can depend on the chunk a point falls in, so on where it sits
    in x.
    `normalization` is the scale of the approximated target: poly(x) is
    within eps_cert of normalization * x^(sign*c) on [delta, 1].
    """

    coeffs: np.ndarray
    c: float
    sign: int  # +1 approximates x^c, -1 approximates x^-c
    delta: float
    normalization: float
    eps_cert: float

    def __post_init__(self):
        self.coeffs.setflags(write=False)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, x):
        x = np.abs(np.asarray(x, dtype=float))
        if x.size == 0:  # no heavy labels: nothing to evaluate
            return x
        y = x.ravel() - 1.0
        # Paterson-Stockmeyer blocking: sum_k c_k y^k = sum_j z^j B_j(y) with
        # z = y^b and B_j the degree-(b-1) block j, so one GEMM forms every
        # block sum and Horner runs over K ~ sqrt(degree) blocks, not degree terms
        b = max(1, math.isqrt(self.coeffs.size))
        n_blocks = -(-self.coeffs.size // b)
        blocks = np.zeros(n_blocks * b)
        blocks[:self.coeffs.size] = self.coeffs
        blocks = blocks.reshape(n_blocks, b)        # row j: coefficients of block j
        rows = min(y.size, max(MIN_ROWS, EVAL_CHUNK // b))
        # only a chunk holding some 0 < |y| < 2^(-511/b) can have a power up to
        # y^b below FLUSH_BELOW; there powers are flushed, so their products stay normal.
        # `out` holds |y| first: a fresh array that size costs more than the test
        out = np.empty_like(y)
        near = np.flatnonzero(np.abs(y, out=out) < FLUSH_BELOW ** (1.0 / b))
        flush_chunks = set((near[y[near] != 0.0] // rows).tolist()) if near.size else ()
        # buffers reused by every chunk: fresh ones per chunk cost more than the work
        powers = np.empty((b, rows))                # row k: y^k over the chunk
        sums = np.empty((n_blocks, rows))           # row j: B_j(y) over the chunk
        z = np.empty(rows)
        powers[0] = 1.0
        for chunk, start in enumerate(range(0, y.size, rows)):
            yc = y[start:start + rows]
            if yc.size < rows:                      # the last, shorter chunk
                powers, sums, z = powers[:, :yc.size], sums[:, :yc.size], z[:yc.size]
            flush = chunk in flush_chunks
            w = 1
            while w < b:                            # rows [w, 2w) = rows [0, w) * y^w
                step = min(w, b - w)
                np.multiply(powers[w - 1], yc, out=z)
                if flush:
                    _flush_tiny(z)
                np.multiply(powers[:step], z, out=powers[w:w + step])
                w += step
            if flush:  # y^k times a flushed y^w (k < w) is normal or 0; drop those below 2^-511
                _flush_tiny(powers, scratch=sums[:b])
            np.matmul(blocks, powers, out=sums)
            np.multiply(powers[b - 1], yc, out=z)   # z = y^b
            if flush:
                _flush_tiny(z)
            acc = sums[n_blocks - 1]
            for j in range(n_blocks - 2, -1, -1):
                acc *= z
                acc += sums[j]
            out[start:start + yc.size] = acc
        return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)

    def target(self, x):
        x = np.asarray(x, dtype=float)
        out = self.normalization * x ** (self.sign * self.c)
        return float(out) if out.ndim == 0 else out


def _flush_tiny(a: np.ndarray, scratch: np.ndarray | None = None):
    """Set the entries of `a` below FLUSH_BELOW in magnitude to 0, in place.

    `scratch`, of a's shape, receives |a|; by default a fresh array does.
    """
    np.copyto(a, 0.0, where=np.abs(a, out=scratch) < FLUSH_BELOW)


def taylor_poly_pos(c: float, delta: float, eps: float) -> TaylorPolynomial:
    """Polynomial approximation of x^c / 2 on [delta, 1].

    The binomial series of (1+y)^c, built by `_binomial_series`.  Since
    1 + sum_k>=1 |binom(c,k)| = 2 for c in (0,1], the truncation is bounded
    by 1 in magnitude for |y| <= 1, i.e. on x in [0, 2].
    """
    _check_cde(c, delta, eps)
    if c == 1.0:  # series terminates: x/2 exactly
        return TaylorPolynomial(coeffs=np.array([0.5, 0.5]), c=c, sign=+1, delta=delta,
                                normalization=0.5, eps_cert=0.0)
    return _binomial_series(c, +1, delta, eps, 0.5)


def taylor_poly_neg(c: float, delta: float, eps: float) -> TaylorPolynomial:
    """Polynomial approximation of (delta^c / 2) * x^-c on [delta, 1], scaled to |poly| <= 1.

    The binomial series of (1+y)^-c with the normalization delta^c / 2,
    built by `_binomial_series`.  Its terms are non-negative at y = |x| - 1,
    so max |poly| on [-1, 1] is the coefficient sum, the builder's scale.
    """
    _check_cde(c, delta, eps)
    return _binomial_series(c, -1, delta, eps, 0.5 * delta**c)


def _binomial_series(c: float, sign: int, delta: float, eps: float,
                     norm: float) -> TaylorPolynomial:
    """norm * (1+y)^(sign*c) truncated at the first degree whose tail is below eps.

    The tail is bounded by a geometric majorant at ratio r = 1 - delta: for
    sign +1 the terms decrease in magnitude, and for sign -1 the summand
    ratios r*(c+j)/(j+1) increase toward r.  At delta = 1 the tail is 0 and
    the series stops at degree 0.  Dividing by s = max(1, sum |coeffs|) bounds
    |poly| by 1 on [-1, 1], where |y| <= 1; for sign +1 the sum is below 1.
    """
    s = sign * c
    r = 1.0 - delta
    chunks = [np.ones(1)]
    last = 1.0  # binom(s, k), signed, of the last term built
    k = 0       # terms [1, k] are built and none of them meets the stop test
    size = 64   # chunks double up to SERIES_CHUNK, so low degrees build few terms
    while True:
        ks = np.arange(k, k + size, dtype=float)
        terms = (s - ks) / (ks + 1.0)             # binom(s, j+1) / binom(s, j), j in ks
        terms[0] *= last
        np.cumprod(terms, out=terms)              # binom(s, j+1), j in ks
        stop = norm * (np.abs(terms) * r ** (ks + 1.0) / delta) <= eps
        hit = int(np.argmax(stop)) if stop.any() else size
        if k + hit > MAX_DEGREE:
            raise ValidationError(f"binomial series of x^{s:.4g} exceeds degree {MAX_DEGREE}")
        if hit < size:
            chunks.append(terms[:hit])
            k += hit
            b_next = float(terms[hit])
            break
        chunks.append(terms)
        k += size
        last = float(terms[-1])
        size = min(2 * size, SERIES_CHUNK)
    coeffs = norm * np.concatenate(chunks)
    scale = max(1.0, float(np.abs(coeffs).sum()))
    coeffs /= scale
    return TaylorPolynomial(
        coeffs=coeffs, c=c, sign=sign, delta=delta, normalization=norm / scale,
        eps_cert=norm * abs(b_next) * r ** (k + 1) / delta / scale,
    )


def _check_cde(c: float, delta: float, eps: float):
    if not (0.0 < c <= 1.0):
        raise ValidationError("power c must be in (0, 1]")
    if not (0.0 < delta <= 1.0):
        raise ValidationError("delta must be in (0, 1]")
    if eps <= 0:
        raise ValidationError("eps must be positive")


# ---------------------------------------------------------------------------
# Grid certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertReport:
    sup_error: float        # max |poly - target| on [delta, 1]
    max_abs: float          # max |poly| on [-1, 1]


def _cert_grid(lo: float, hi: float, m: int) -> np.ndarray:
    """Uniform grid joined with Chebyshev nodes on [lo, hi]."""
    uni = np.linspace(lo, hi, m)
    k = np.arange(1, m + 1)
    cheb = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos((2 * k - 1) * np.pi / (2 * m))
    return np.union1d(uni, cheb)


def certify(poly: TaylorPolynomial, grid_points: int = 20001) -> CertReport:
    """Dense-grid measurement of approximation error and magnitude.

    Measures |poly - normalization * x^(sign*c)| on [delta, 1] and |poly| on
    [-1, 1] (via the even realization) in one evaluation pass over both
    grids.  The polynomial is only read; judging the report against an
    error budget and the bound 1 is the caller's job (see `derive_params`).
    """
    if grid_points < 1000:
        raise ValidationError("grid_points must be at least 1000")
    full = _cert_grid(-1.0, 1.0, grid_points)
    dom = _cert_grid(poly.delta, 1.0, grid_points)
    vals = poly(np.concatenate((full, dom)))
    return CertReport(sup_error=float(np.abs(vals[full.size:] - poly.target(dom)).max()),
                      max_abs=float(np.abs(vals[:full.size]).max()))


def degree_bound(c: float, delta: float, eps: float, constant: float = 20.0) -> int:
    """Analytic cap constant * (max(1, c)/delta) * ln(1/eps) on the degree."""
    return int(math.ceil(constant * (max(1.0, c) / delta) * math.log(1.0 / eps)))
