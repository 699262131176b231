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
arithmetic; the powers that the flush would zero are never formed.  Each chunk
forms only the leading blocks that the rest cannot move: near |x| = 1 a
wide-block polynomial keeps one block, and the result is exact; elsewhere the
dropped blocks lie below the rounding of the result.  A chunk that keeps one
block also forms only the leading power rows that the rest cannot move, up to
128 of them, and its product reads only those columns; the result is the same
byte for byte, as BLAS sums a reduction that short in one run, while longer
ones are split where the BLAS build and thread count say.  The binomial series
tests its stop rule once per chunk of terms.  `certify` evaluates once, at the
distinct |x| of its grids on [-1, 1] and on [delta, 1].
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dists import ValidationError

MAX_DEGREE = 5_000_000
EVAL_CHUNK = 2**15      # entries of a chunk's power matrix (256 KB) while b <= 128
MIN_ROWS = 256          # fewest points per chunk: above b = 128 the matrix grows with b
FLUSH_BELOW = 2.0**-511  # smaller powers become 0: two survivors multiply to a normal
SERIES_CHUNK = 2**13    # most binomial-series terms built per cumulative product
MIN_PRODUCT_ROWS = 8    # fewest block sums a chunk forms: fewer rows are summed in another order
ROUNDING_MARGIN = 1e-9  # relative rounding of block sums, powers and Horner steps, with room


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
    b ~ sqrt(degree) blocks of b terms, the rows of `blocks` (built once, with
    `coeffs` a read-only view of it), the block sums s_j come from one matrix
    product per chunk of max(MIN_ROWS, EVAL_CHUNK // b) points, and Horner runs
    over the blocks with z = y^b, y = |x| - 1.  In a chunk holding some
    0 < |y| < 2^(-511/b), each power y^k and z is flushed to 0 below
    FLUSH_BELOW, so the powers and their products stay normal; a dropped term
    is below FLUSH_BELOW * sum |coeffs|.  There, with Y and y_min the chunk's
    largest and smallest nonzero |y| and Y < 1, the rows k >= hi of the power
    matrix, where Y^k (1 + kappa) < FLUSH_BELOW, would be flushed whole, so
    they are set to 0 and never formed, and the rows k < lo, where
    y_min^k (1 - kappa) >= FLUSH_BELOW, hold nothing to flush, so the last
    flush scans rows [lo, hi) alone: the matrix is the same byte for byte.
    A chunk keeps only its leading J block sums, J from the chunk's largest
    |y| = Y and the per-block coefficient sums U_j = sum_i |c_(jb+i)| in
    `block_norms`.  With kappa = ROUNDING_MARGIN,
        L = |c_0| - Y (U_0 - |c_0|) - sum_{j>=1} U_j Y^(jb) - kappa sum U
    is a lower bound on |s_0| and on |poly(x)|, and J is the fewest blocks
    with (1 + kappa) sum_{j>=J} U_j Y^(jb) < 2^-55 L and 2^-55 L >= 2^-1000;
    J = n_blocks when none fits, when Y >= 1, or while b <= EVAL_CHUNK //
    MIN_ROWS = 128.  At J = 1 the result is exact: the last Horner step
    returns s_0 + z * acc_1, and fl(s + t) = s for a normal s when
    |t| < 2^-55 |s|.  At J > 1 the dropped blocks are below 2^-55 |poly(x)|,
    so the result is within rounding of the full evaluation.  A chunk with
    J = 1 forms only the first K power rows, and its product reads only K
    columns of `blocks`: K is the fewest rows with
        (1 + kappa) (Y^K sum_{K<=i<b} |c_i| + sum_{j>=1} U_j Y^(jb)) < 2^-55 L,
    Y^K clamped as Y^(jb) is, or K = b when that K exceeds EVAL_CHUNK //
    MIN_ROWS = 128.  Each row the product skips adds a term below half an ulp
    of s_0, which cannot move it while the product sums its reduction in one
    run from k = 0.  BLAS splits a long reduction into runs whose length
    depends on the build and the thread count (about b / 2 for OpenBLAS at
    b = 642): there a K of 378 or 484 moved 309 of the 14,257 values of the
    certification grid.  The OpenBLAS kernels for SkylakeX, SapphireRapids,
    Haswell, Zen and Sandybridge, on one thread and on two, split no
    reduction of 128 terms, and with the cap no value moved.  The rows a
    short chunk skips keep whatever an earlier chunk left in them.
    The product forms at least MIN_PRODUCT_ROWS block sums: at b = 642,
    products of 6 or fewer rows summed in another order and moved 1,898 of
    16,384 heavy values by up to 18 ulps against every block kept; with 8
    rows none moved by more than 1.
    The last bits of poly(x) can depend on the chunk a point falls in, so on
    where it sits in x: the flush and J are per chunk, and a product of fewer
    rows may be summed in another order.
    `normalization` is the scale of the approximated target: poly(x) is
    within eps_cert of normalization * x^(sign*c) on [delta, 1].
    """

    coeffs: np.ndarray
    c: float
    sign: int  # +1 approximates x^c, -1 approximates x^-c
    delta: float
    normalization: float
    eps_cert: float
    blocks: np.ndarray = field(init=False, repr=False)
    block_norms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        size = self.coeffs.size
        b = _block_width(size)
        blocks = np.zeros((-(-size // b), b))       # row j: coefficients of block j
        blocks.reshape(-1)[:size] = self.coeffs
        blocks.setflags(write=False)
        coeffs = blocks.reshape(-1)[:size]           # a read-only view: the caller's array is copied
        norms = np.add.reduceat(np.abs(coeffs), np.arange(0, size, b))
        norms.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "block_norms", norms)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, x):
        x = np.abs(np.asarray(x, dtype=float))
        if x.size == 0:  # no heavy labels: nothing to evaluate
            return x
        y = x.ravel()
        y -= 1.0  # in place where ravel is a view: only x's shape is read again
        # Paterson-Stockmeyer blocking: sum_k c_k y^k = sum_j z^j B_j(y) with
        # z = y^b and B_j the degree-(b-1) block j, so one GEMM forms the block
        # sums and Horner runs over at most n_blocks ~ sqrt(degree) blocks, not degree terms
        n_blocks, b = self.blocks.shape
        rows = min(y.size, max(MIN_ROWS, EVAL_CHUNK // b))
        # only a chunk holding some 0 < |y| < 2^(-511/b) can have a power up to
        # y^b below FLUSH_BELOW; there powers are flushed, so their products stay normal.
        # `out` holds |y| first: a fresh array that size costs more than the test
        out = np.empty_like(y)
        near = np.flatnonzero(np.abs(y, out=out) < FLUSH_BELOW ** (1.0 / b))
        flush_chunks = set((near[y[near] != 0.0] // rows).tolist()) if near.size else ()
        kept = _blocks_kept(self, out, rows)        # J of each chunk, from |y|
        kept_rows = _rows_kept(self, out, rows, kept).tolist()  # K of each chunk
        kept = kept.tolist()
        formed = [min(n_blocks, max(j, MIN_PRODUCT_ROWS)) for j in kept]
        # buffers reused by every chunk: fresh ones per chunk cost more than the work
        powers = np.empty((b, rows))                # row k: y^k over the chunk
        # row j: B_j(y) over the chunk, and |powers| while a chunk is flushed
        sums = np.empty((max(*formed, b if flush_chunks else 0), rows))
        z = np.empty(rows)
        powers[0] = 1.0
        for chunk, start in enumerate(range(0, y.size, rows)):
            yc = y[start:start + rows]
            if yc.size < rows:                      # the last, shorter chunk
                powers, sums, z = powers[:, :yc.size], sums[:, :yc.size], z[:yc.size]
            flush = chunk in flush_chunks
            k_rows = kept_rows[chunk]               # the product reads rows [0, k_rows) alone
            # rows [lo, hi) to scan in the last flush, from |y|, which `out` still holds
            lo, hi = _flush_band(b, out[start:start + yc.size]) if flush else (b, b)
            lo, hi = min(lo, k_rows), min(hi, k_rows)
            w = 1
            while w < hi:                           # rows [w, 2w) = rows [0, w) * y^w
                step = min(w, hi - w)
                np.multiply(powers[w - 1], yc, out=z)
                if flush:
                    _flush_tiny(z)
                np.multiply(powers[:step], z, out=powers[w:w + step])
                w += step
            powers[hi:k_rows] = 0.0                 # rows the flush would zero whole
            if lo < hi:  # y^k times a flushed y^w (k < w) is normal or 0; drop those below 2^-511
                _flush_tiny(powers[lo:hi], scratch=sums[:hi - lo])
            np.matmul(self.blocks[:formed[chunk], :k_rows], powers[:k_rows],
                      out=sums[:formed[chunk]])
            if kept[chunk] > 1:
                np.multiply(powers[b - 1], yc, out=z)   # z = y^b
                if flush:
                    _flush_tiny(z)
            acc = sums[kept[chunk] - 1]
            for j in range(kept[chunk] - 2, -1, -1):
                acc *= z
                acc += sums[j]
            out[start:start + yc.size] = acc
        return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)

    def target(self, x):
        x = np.asarray(x, dtype=float)
        out = self.normalization * x ** (self.sign * self.c)
        return float(out) if out.ndim == 0 else out


def _block_width(size: int) -> int:
    """Block width b ~ sqrt(size) of the blocked evaluation of `size` coefficients."""
    return max(1, math.isqrt(size))


def _blocks_kept(poly: TaylorPolynomial, abs_y: np.ndarray, rows: int) -> np.ndarray:
    """Leading blocks J to evaluate in each chunk of `rows` points of |y| = abs_y; see TaylorPolynomial.

    One pass takes every chunk's largest |y|, and one (chunks x n_blocks) array
    gives every J.  abs_y is read only above the floor on b, so block widths up
    to 128 make no extra pass over the points.
    """
    norms = poly.block_norms
    starts = np.arange(0, abs_y.size, rows)
    if poly.blocks.shape[1] <= EVAL_CHUNK // MIN_ROWS:
        return np.full(starts.size, norms.size)
    y_max = np.maximum.reduceat(abs_y, starts)
    tails, bound = _block_tails(poly, y_max)
    fits = tails * (1.0 + ROUNDING_MARGIN) < bound[:, None]  # False, then True: tails fall in J
    kept = 1 + np.argmax(fits, axis=1)
    kept[(y_max >= 1.0) | (bound < 2.0**-1000) | ~fits[:, -1]] = norms.size
    return kept


def _rows_kept(poly: TaylorPolynomial, abs_y: np.ndarray, rows: int,
               kept: np.ndarray) -> np.ndarray:
    """Power rows K to form in each chunk of `rows` points of |y| = abs_y; see TaylorPolynomial.

    `kept` holds each chunk's J.  Only a chunk with J = 1, so with Y < 1 and
    2^-55 L >= 2^-1000, forms fewer than b rows, and only K <= EVAL_CHUNK //
    MIN_ROWS; Y^K is clamped at 2^-500 as Y^(jb) is.
    """
    b = poly.blocks.shape[1]
    k_rows = np.full(kept.size, b)
    one = np.flatnonzero(kept == 1)
    if b <= EVAL_CHUNK // MIN_ROWS or one.size == 0:
        return k_rows
    y_max = np.maximum.reduceat(abs_y, np.arange(0, abs_y.size, rows))[one]
    tails, bound = _block_tails(poly, y_max)
    ks = np.arange(1.0, EVAL_CHUNK // MIN_ROWS + 1)
    row_tails = np.cumsum(np.abs(poly.blocks[0, ::-1]))[::-1][1:ks.size + 1]  # sum_{K<=i<b} |c_i|
    log_y = np.log2(np.maximum(y_max, 2.0**-500))
    drop = np.exp2(np.maximum(ks * log_y[:, None], -500.0)) * row_tails + tails[:, :1]
    fits = drop * (1.0 + ROUNDING_MARGIN) < bound[:, None]  # False, then True: drop falls in K
    short = fits[:, -1]
    k_rows[one[short]] = 1 + np.argmax(fits[short], axis=1)
    return k_rows


def _block_tails(poly: TaylorPolynomial, y_max: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(tails, bound) of chunks whose largest |y| is y_max; see TaylorPolynomial.

    tails[:, J - 1] = sum_{j>=J} U_j Y^(jb) and bound = 2^-55 L.  Y^(jb) is
    clamped at 2^-500, an over-estimate, so nothing underflows, and Y at 1,
    where J = n_blocks anyway, so nothing overflows.
    """
    norms = poly.block_norms
    b = poly.blocks.shape[1]
    y_cut = np.minimum(y_max, 1.0)
    log_z = np.array([b * math.log2(max(v, 2.0**-500)) for v in y_cut.tolist()])
    tails = np.exp2(np.maximum(np.arange(1.0, norms.size) * log_z[:, None], -500.0))
    tails *= norms[1:]
    tails = np.cumsum(tails[:, ::-1], axis=1)[:, ::-1]  # tails[:, J - 1] = sum_{j>=J} U_j Y^(jb)
    c0 = abs(float(poly.coeffs[0]))
    low = c0 - y_cut * (norms[0] - c0) - tails[:, 0] - ROUNDING_MARGIN * float(norms.sum())
    return tails, 2.0**-55 * low


def _flush_band(b: int, abs_y: np.ndarray) -> tuple[int, int]:
    """Rows [lo, hi) of a flush chunk's b powers, at |y| = abs_y, that the last flush must scan.

    The rule is TaylorPolynomial's; ROUNDING_MARGIN also covers the rounding of
    the logarithms.  Every row is in the band when some |y| >= 1.
    """
    y_max = float(abs_y.max())
    if y_max >= 1.0:
        return 0, b
    y_min = float(abs_y.min(initial=1.0, where=abs_y > 0.0))  # a flush chunk has some |y| > 0
    log_flush = -math.log2(FLUSH_BELOW)
    hi = min(b, int((log_flush + math.log2(1.0 + ROUNDING_MARGIN)) / -math.log2(y_max)) + 1)
    lo = min(hi, int((log_flush + math.log2(1.0 - ROUNDING_MARGIN)) / -math.log2(y_min)) + 1)
    return lo, hi


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
        hit = size
        # the tested term shrinks by at least r per step, so when the last one fails
        # with room for the few ulps between scalar and vector powers, every one fails
        if norm * (abs(float(terms[-1])) * r ** (k + size) / delta) <= eps * (1.0 + 1e-9):
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


def _cert_grid(delta: float, m: int) -> np.ndarray:
    """Distinct |x| of the uniform and Chebyshev grids of m points on [-1, 1] and on [delta, 1].

    Sorted in descending order, so the points near |x| = 1, where a chunk keeps
    few blocks and forms few powers, fill the first chunks of an evaluation.
    """
    k = np.arange(1, m + 1)
    grids = []
    for lo, hi in ((-1.0, 1.0), (delta, 1.0)):
        grids += [np.linspace(lo, hi, m),
                  0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos((2 * k - 1) * np.pi / (2 * m))]
    grid = np.sort(np.abs(np.concatenate(grids)))[::-1]
    return grid[np.concatenate(([True], grid[1:] != grid[:-1]))]


def certify(poly: TaylorPolynomial, grid_points: int = 20001) -> CertReport:
    """Dense-grid measurement of approximation error and magnitude.

    The polynomial is evaluated at |x|, so one pass over the distinct |x| of the
    uniform and Chebyshev grids on [-1, 1] and on [delta, 1] (`_cert_grid`)
    measures both figures: max_abs is the largest |poly| over the whole grid,
    and sup_error the largest |poly - normalization * x^(sign*c)| over its
    points >= delta.  Each figure covers every point of the two grids and more.
    The polynomial is only read; judging the report against an error budget and
    the bound 1 is the caller's job (see `derive_params`).
    """
    if grid_points < 1000:
        raise ValidationError("grid_points must be at least 1000")
    grid = _cert_grid(poly.delta, grid_points)
    vals = poly(grid)
    dom = grid >= poly.delta
    return CertReport(sup_error=float(np.abs(vals[dom] - poly.target(grid[dom])).max()),
                      max_abs=float(np.abs(vals).max()))


def degree_bound(c: float, delta: float, eps: float, constant: float = 20.0) -> int:
    """Analytic cap constant * (max(1, c)/delta) * ln(1/eps) on the degree."""
    return int(math.ceil(constant * (max(1.0, c) / delta) * math.log(1.0 / eps)))
