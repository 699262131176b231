"""Probability distributions, density matrices, entropies, and hard instance pairs.

All entropies are in bits (log base 2) with the convention 0*log(0) = 0.
Labels are 0-based indices into the probability vector.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

SUM_TOL = 1e-12
EIG_CLAMP = 1e-12
_HERMITIAN_BLOCK = 2**16  # entries of one row block of the Hermitian check (1 MB)


class ValidationError(ValueError):
    """Raised when an input fails a structural check (negativity, bad sum, ...)."""


def _record_field(rec: dict, key: str, convert=lambda v: np.asarray(v, dtype=float)):
    """convert(rec[key]); a ragged or non-numeric field raises ValidationError."""
    try:
        return convert(rec[key])
    except (TypeError, ValueError):
        raise ValidationError(f"record field {key!r} is ragged or not numeric") from None


def _is_hermitian(m: np.ndarray, rows: int | None = None) -> bool:
    """np.allclose(m, m.conj().T, atol=1e-10), decided block by block.

    Each block of `rows` rows (default: about _HERMITIAN_BLOCK entries) is
    compared with the matching column block under the same elementwise rule,
    so the decision is the same and no n x n temporary is made.
    """
    n = m.shape[0]
    rows = rows or max(1, _HERMITIAN_BLOCK // max(n, 1))
    return all(np.allclose(m[i:i + rows], m[:, i:i + rows].conj().T, atol=1e-10)
               for i in range(0, n, rows))


def _as_prob_vector(probs) -> np.ndarray:
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValidationError("probability vector must be a non-empty 1-d array")
    if not np.all(np.isfinite(p)):
        raise ValidationError("probabilities must be finite (found NaN or inf)")
    if np.any(p < 0):
        raise ValidationError("probabilities must be non-negative")
    s = float(p.sum())
    if abs(s - 1.0) > SUM_TOL:
        raise ValidationError(f"probabilities must sum to 1 within {SUM_TOL}, got {s!r}")
    return p


@dataclass(frozen=True, eq=False)
class Distribution:
    """A probability distribution over {0, ..., n-1}.

    A float array is not copied: `probs` is a read-only view of it, and the
    caller's array stays writable, so writing to it changes the distribution.
    """

    probs: np.ndarray

    def __post_init__(self):
        p = _as_prob_vector(self.probs).view()
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def n(self) -> int:
        return int(self.probs.size)

    # -- constructors -------------------------------------------------
    @staticmethod
    def uniform(n: int) -> "Distribution":
        if n < 1:
            raise ValidationError(f"a uniform distribution needs n >= 1, got n={n}")
        return Distribution(np.full(n, 1.0 / n))

    @staticmethod
    def point_mass(n: int, i: int = 0) -> "Distribution":
        if not 0 <= i < n:
            raise ValidationError(f"a point mass needs 0 <= i < n, got i={i} with n={n}")
        p = np.zeros(n)
        p[i] = 1.0
        return Distribution(p)

    @staticmethod
    def zipf(n: int, s: float = 1.0) -> "Distribution":
        k = np.arange(1, n + 1, dtype=float)
        if s < 0:  # k^-s up to scale, without overflow
            w = (k / n) ** -s
        else:
            with np.errstate(over="ignore"):  # k^s = inf gives the right weight 0
                w = 1.0 / k ** s
        return Distribution(w / w.sum())

    @staticmethod
    def dirichlet(n: int, rng: np.random.Generator, alpha: float = 1.0) -> "Distribution":
        """Symmetric Dirichlet(alpha) sample; alpha=1 is uniform on the simplex."""
        p = rng.dirichlet(np.full(n, alpha))
        p = np.clip(p, 0.0, None)
        return Distribution(p / p.sum())

    # -- serialization ------------------------------------------------
    def to_record(self) -> dict:
        return {"n": self.n, "probs": [float(x) for x in self.probs]}

    @staticmethod
    def from_record(rec: dict) -> "Distribution":
        p = _record_field(rec, "probs")
        if _record_field(rec, "n", int) != p.size:
            raise ValidationError("record field 'n' disagrees with probs length")
        return Distribution(p)

    def to_json(self) -> str:
        return json.dumps(self.to_record())

    @staticmethod
    def from_json(s: str) -> "Distribution":
        return Distribution.from_record(json.loads(s))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A density matrix: Hermitian, PSD, unit trace.

    Validation computes the eigenvalues to check PSD; they are kept, ascending
    and read-only, in `eigenvalues`, so `spectrum()` and every estimate on the
    matrix reuse them instead of decomposing it again.  A complex matrix is
    not copied: `mat` is a read-only view of it, and the caller's array stays
    writable, so writing to it changes the matrix behind the stored
    eigenvalues.  The Hermitian check runs over row blocks of about
    _HERMITIAN_BLOCK entries, so the checks before `eigvalsh` make no n x n
    temporary but the finite check's boolean mask.
    """

    mat: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex).view()
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError("density matrix must be square")
        if not np.all(np.isfinite(m)):
            raise ValidationError("density matrix entries must be finite (found NaN or inf)")
        if not _is_hermitian(m):
            raise ValidationError("density matrix must be Hermitian")
        tr = float(np.real(np.trace(m)))
        if abs(tr - 1.0) > 1e-10:
            raise ValidationError(f"density matrix must have unit trace, got {tr!r}")
        ev = np.linalg.eigvalsh(m)
        if ev.min() < -1e-10:
            raise ValidationError("density matrix must be positive semidefinite")
        m.setflags(write=False)
        ev.setflags(write=False)
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "eigenvalues", ev)

    @property
    def n(self) -> int:
        return int(self.mat.shape[0])

    def spectrum(self) -> Distribution:
        """Eigenvalue spectrum as a distribution, tiny negatives clamped to 0.

        Reads the eigenvalues that validation computed; no decomposition runs.
        """
        ev = np.where(self.eigenvalues < EIG_CLAMP, 0.0, self.eigenvalues)
        return Distribution(ev / ev.sum())

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_distribution(p: Distribution) -> "DensityMatrix":
        return DensityMatrix(np.diag(p.probs.astype(complex)))

    @staticmethod
    def maximally_mixed(n: int) -> "DensityMatrix":
        m = np.eye(n, dtype=complex)
        m /= n
        return DensityMatrix(m)

    @staticmethod
    def random(n: int, rng: np.random.Generator, alpha: float = 1.0) -> "DensityMatrix":
        """Random eigenbasis (Haar via QR, Mezzadri's phase fix) with
        Dirichlet(alpha) eigenvalues.

        At most the four n x n arrays of the QR are live at once, and none
        of the intermediates outlives the product q diag(ev) q^H.
        """
        ev = Distribution.dirichlet(n, rng, alpha).probs
        g = np.empty((n, n), dtype=complex)
        g.real = rng.normal(size=(n, n))
        g.imag = rng.normal(size=(n, n))
        q, r = np.linalg.qr(g)
        del g
        d = np.diagonal(r)
        q *= d / np.abs(d)
        del r, d
        qh = q.conj()
        q *= ev
        rho = q @ qh.T
        del q, qh
        return DensityMatrix(rho)

    # -- serialization ------------------------------------------------
    def to_record(self) -> dict:
        return {
            "n": self.n,
            "re": np.real(self.mat).tolist(),
            "im": np.imag(self.mat).tolist(),
        }

    @staticmethod
    def from_record(rec: dict) -> "DensityMatrix":
        re, im = _record_field(rec, "re"), _record_field(rec, "im")
        if re.ndim != 2 or im.shape != re.shape:
            raise ValidationError(f"record fields 're' and 'im' must be matrices of one shape, "
                                  f"got {re.shape} and {im.shape}")
        if _record_field(rec, "n", int) != re.shape[0]:
            raise ValidationError("record field 'n' disagrees with matrix shape")
        m = np.empty(re.shape, dtype=complex)
        m.real = re
        m.imag = im
        return DensityMatrix(m)

    def to_json(self) -> str:
        return json.dumps(self.to_record())

    @staticmethod
    def from_json(s: str) -> "DensityMatrix":
        return DensityMatrix.from_record(json.loads(s))


# ---------------------------------------------------------------------------
# Entropies and restricted entropies
# ---------------------------------------------------------------------------

def shannon_entropy(p: Distribution | np.ndarray) -> float:
    """Shannon entropy in bits, H(p) = -sum p_i log2 p_i, with 0 log 0 = 0."""
    v = p.probs if isinstance(p, Distribution) else np.asarray(p, dtype=float)
    nz = v[v > 0]
    return float(-(nz * np.log2(nz)).sum())


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy in bits: Shannon entropy of the eigenvalue spectrum."""
    return shannon_entropy(rho.spectrum())


def restricted_entropy(p: Distribution, labels) -> float:
    """-sum_{i in labels} p_i log2 p_i (an unnormalized partial entropy)."""
    idx = np.asarray(sorted(set(int(i) for i in labels)), dtype=int)
    if idx.size == 0:
        return 0.0
    if idx.min() < 0 or idx.max() >= p.n:
        raise ValidationError("labels out of range")
    v = p.probs[idx]
    nz = v[v > 0]
    return float(-(nz * np.log2(nz)).sum())


def weight(p: Distribution, labels) -> float:
    """Total probability mass sum_{i in labels} p_i."""
    idx = np.asarray(sorted(set(int(i) for i in labels)), dtype=int)
    if idx.size == 0:
        return 0.0
    if idx.min() < 0 or idx.max() >= p.n:
        raise ValidationError("labels out of range")
    return float(p.probs[idx].sum())


@dataclass(frozen=True)
class SplitReport:
    """Heavy/light split of a distribution at threshold beta."""

    beta: float
    heavy: tuple  # labels with p_i >= beta (inclusive)
    light: tuple  # complement
    heavy_weight: float
    light_weight: float
    heavy_entropy: float
    light_entropy: float


def split_heavy_light(p: Distribution, beta: float) -> SplitReport:
    """Partition labels into heavy (p_i >= beta, inclusive) and light (p_i < beta)."""
    if not (0.0 < beta <= 1.0):
        raise ValidationError("beta must be in (0, 1]")
    mask = p.probs >= beta
    heavy = tuple(int(i) for i in np.nonzero(mask)[0])
    light = tuple(int(i) for i in np.nonzero(~mask)[0])
    return SplitReport(
        beta=beta,
        heavy=heavy,
        light=light,
        heavy_weight=weight(p, heavy),
        light_weight=weight(p, light),
        heavy_entropy=restricted_entropy(p, heavy),
        light_entropy=restricted_entropy(p, light),
    )


def lightweight_bounds(p: Distribution, beta: float) -> tuple[float, float]:
    """Sandwich on the light-part entropy.

    Returns (lower, upper) with
        w * log2(1/beta) <= H_light <= w * log2(n) + 1/e
    where w is the light mass (all elements below beta).
    """
    rep = split_heavy_light(p, beta)
    w = rep.light_weight
    lo = w * math.log2(1.0 / beta)
    hi = w * math.log2(p.n) + 1.0 / math.e
    return lo, hi


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------

def hellinger(p: Distribution, q: Distribution) -> float:
    """Hellinger distance sqrt(1 - sum sqrt(p_i q_i))."""
    if p.n != q.n:
        raise ValidationError("distributions must share a label set")
    bc = float(np.sqrt(p.probs * q.probs).sum())
    return math.sqrt(max(0.0, 1.0 - min(1.0, bc)))


# ---------------------------------------------------------------------------
# Hard instance pairs for lower-bound demonstrations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeparationReport:
    kind: str
    n: int
    param: float
    entropy_p: float
    entropy_q: float
    entropy_ratio: float | None  # H(p)/H(q); None when H(q) = 0
    hellinger: float
    extras: dict


def gen_near_deterministic_pair(n: int, eps: float) -> tuple[Distribution, Distribution, SeparationReport]:
    """p = (1-eps, eps/(n-1), ...) versus the point mass q = (1, 0, ...).

    The pair is Hellinger-close (distance between sqrt(eps/2) and sqrt(eps))
    but has entropy gap Theta(eps * log n).
    """
    if n < 2 or not (0.0 < eps < 1.0):
        raise ValidationError("need n >= 2 and eps in (0,1)")
    p = np.full(n, eps / (n - 1))
    p[0] = 1.0 - eps
    dp = Distribution(p)
    dq = Distribution.point_mass(n)
    rep = SeparationReport(
        kind="near_deterministic",
        n=n,
        param=eps,
        entropy_p=shannon_entropy(dp),
        entropy_q=0.0,
        entropy_ratio=None,
        hellinger=hellinger(dp, dq),
        extras={"hellinger_lower": math.sqrt(eps / 2.0), "hellinger_upper": math.sqrt(eps)},
    )
    return dp, dq, rep


def gen_two_point_vs_spread_pair(n: int, eps: float) -> tuple[Distribution, Distribution, SeparationReport]:
    """p spreads mass eps over the tail; q = (1-eps, eps, 0, ...).

    H(q) = h(eps) <= 1 while H(p) >= h(eps) + eps*log2(n-1), so the
    ratio is at least 1 + eps*log2(n-1) when h(eps) <= 1.
    """
    if n < 3 or not (0.0 < eps < 1.0):
        raise ValidationError("need n >= 3 and eps in (0,1)")
    p = np.full(n, eps / (n - 1))
    p[0] = 1.0 - eps
    dp = Distribution(p)
    q = np.zeros(n)
    q[0], q[1] = 1.0 - eps, eps
    dq = Distribution(q)
    hq = shannon_entropy(dq)
    hp = shannon_entropy(dp)
    rep = SeparationReport(
        kind="two_point_vs_spread",
        n=n,
        param=eps,
        entropy_p=hp,
        entropy_q=hq,
        entropy_ratio=hp / hq,
        hellinger=hellinger(dp, dq),
        extras={"ratio_lower": 1.0 + eps * math.log2(n - 1)},
    )
    return dp, dq, rep


def gen_collision_pair(n: int, gamma: float, size_cap: int = 1 << 22) -> tuple[Distribution, Distribution, SeparationReport]:
    """Uniform over N = n*M labels versus uniform over a subset of size M = n^(1/gamma^2).

    The subset size is rounded to the nearest integer >= 2; the realized
    entropy ratio log2(N)/log2(M) (ideally gamma^2 + 1) is recorded.
    """
    if n < 2 or not (math.isfinite(gamma * gamma) and gamma > 1.0):
        raise ValidationError(f"need n >= 2 and a gamma > 1 with a finite square, "
                              f"got n={n}, gamma={gamma}")
    m = max(2, round(n ** (1.0 / gamma**2)))
    big = n * m
    if big > size_cap:
        raise ValidationError(f"instance size {big} exceeds cap {size_cap}")
    dp = Distribution.uniform(big)
    q = np.zeros(big)
    q[:m] = 1.0 / m
    dq = Distribution(q)
    hp, hq = math.log2(big), math.log2(m)
    rep = SeparationReport(
        kind="collision",
        n=n,
        param=gamma,
        entropy_p=hp,
        entropy_q=hq,
        entropy_ratio=hp / hq,
        hellinger=hellinger(dp, dq),
        extras={"subset_size": m, "big_size": big, "ideal_ratio": gamma**2 + 1.0},
    )
    return dp, dq, rep


def gen_lower_bound_pair(kind: str, n: int, param: float, **kw):
    """Dispatch over the three hard-instance families."""
    if kind == "near_deterministic":
        return gen_near_deterministic_pair(n, param)
    if kind == "two_point_vs_spread":
        return gen_two_point_vs_spread_pair(n, param)
    if kind == "collision":
        return gen_collision_pair(n, param, **kw)
    raise ValidationError(f"unknown instance kind {kind!r}")
