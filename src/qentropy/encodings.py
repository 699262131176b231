"""Purified-query oracles and projected unitary encodings.

Oracles prepare a purification from the all-zeros state.  Each is stored
as the unit vector w of its Householder reflector U = I - 2 w w^dag, so the
prepared state and the unitarity residual cost O(d) for total dimension d;
the d x d matrix is built only when `unitary` is read.

Encodings expose the projected block Pi W Pi~ in a compressed form whose
singular values carry sqrt(p_i) (classical, scale 1), sqrt(p_i / n) (quantum
purified access, scale sqrt(n)), or the density matrix itself (SWAP trick,
scale 1).  For sizes where dense matrices are impractical a spectral
representation (singular value list only) is provided and is bit-compatible
with the dense path.

A probability of 0 encodes an exact 0 on both routes.  The spectral route
sets eigenvalues below EIG_CLAMP = 1e-12 to 0 (`DensityMatrix.spectrum`), and
so does `build_purified_oracle_quantum`, so both see the same spectrum.  The
dense encoders set to 0 every singular value below a round-off floor of order
d u sigma_max (`_singular_values`), where the SVD would leave about 1e-16.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dists import EIG_CLAMP, DensityMatrix, Distribution, ValidationError

DENSE_ORACLE_CAP = 16384     # max total dimension of an oracle's registers
DENSE_UNITARY_CAP = 1024     # max total dimension for fully dense 3-register checks
SVD_FLOOR = 8 * 2.0**-53     # times d * sigma_max: smaller singular values of a dense block are 0


def _householder_completion(v: np.ndarray) -> np.ndarray | None:
    """Unit vector w with (I - 2 w w^dag) e0 = v for a unit vector v; None if v = e0."""
    d = v.size
    if abs(np.linalg.norm(v) - 1.0) > 1e-10:
        raise ValidationError("column to complete must be a unit vector")
    e0 = np.zeros(d, dtype=complex)
    e0[0] = 1.0
    w = e0 - v
    nw = np.linalg.norm(w)
    if nw < 1e-14:
        return None
    return w / nw


@dataclass
class PurifiedOracle:
    """A unitary preparing a purification of a distribution or density matrix.

    The unitary is the Householder reflector I - 2 w w^dag on `dim` levels,
    stored as `reflector` = w (None for the identity).  `register_dims` is
    (d0, d1); the prepared state, the unitary's first column, reshaped to
    (d0, d1) purifies the target after tracing out `ancilla_axis`.
    """

    reflector: np.ndarray | None
    dim: int
    register_dims: tuple
    ancilla_axis: int
    kind: str  # "classical" | "quantum" | "frequency"

    @property
    def unitary(self) -> np.ndarray:
        """The dense dim x dim unitary, built on every access."""
        u = np.eye(self.dim, dtype=complex)
        if self.reflector is None:
            return u
        w = self.reflector
        return u - 2.0 * np.outer(w, w.conj())

    def prepared_state(self) -> np.ndarray:
        e0 = np.zeros(self.dim, dtype=complex)
        e0[0] = 1.0
        if self.reflector is None:
            return e0
        w = self.reflector
        return e0 - 2.0 * (w * np.conj(w[0]))

    def reduced_state(self) -> np.ndarray:
        """Partial trace of the prepared pure state over the ancilla register."""
        psi = self.prepared_state().reshape(self.register_dims)
        if self.ancilla_axis == 0:
            return np.einsum("ai,aj->ij", psi, psi.conj())
        return np.einsum("ia,ja->ij", psi, psi.conj())

    def unitarity_residual(self) -> float:
        """max |U^dag U - I|, exactly 4 |(|w|^2 - 1)| max_i |w_i|^2 for U = I - 2 w w^dag."""
        w = self.reflector
        if w is None:
            return 0.0
        mag2 = np.abs(w) ** 2
        return float(4.0 * abs(mag2.sum() - 1.0) * mag2.max())


def build_purified_oracle_classical(p: Distribution) -> PurifiedOracle:
    """Two-register oracle with U|00> = sum_i sqrt(p_i) |i>|i>."""
    n = p.n
    if n * n > DENSE_ORACLE_CAP:
        raise ValidationError(f"classical oracle needs n^2 <= {DENSE_ORACLE_CAP}")
    v = np.zeros(n * n, dtype=complex)
    v[np.arange(n) * n + np.arange(n)] = np.sqrt(p.probs)
    return PurifiedOracle(
        reflector=_householder_completion(v),
        dim=v.size,
        register_dims=(n, n),
        ancilla_axis=0,
        kind="classical",
    )


def build_purified_oracle_quantum(rho: DensityMatrix) -> PurifiedOracle:
    """Oracle with U|00> = sum_i sqrt(p_i) |psi_i>|i> for rho = sum p_i |psi_i><psi_i|."""
    n = rho.n
    if n * n > DENSE_ORACLE_CAP:
        raise ValidationError(f"quantum oracle needs n^2 <= {DENSE_ORACLE_CAP}")
    ev, vec = np.linalg.eigh(rho.mat)
    ev = np.where(ev < EIG_CLAMP, 0.0, ev)  # the spectral route's clamp: one spectrum on both
    ev = ev / ev.sum()
    psi = (vec * np.sqrt(ev)).astype(complex)  # psi[s, i] = sqrt(p_i) <s|psi_i>
    return PurifiedOracle(
        reflector=_householder_completion(psi.reshape(-1)),
        dim=psi.size,
        register_dims=(n, n),
        ancilla_axis=1,
        kind="quantum",
    )


@dataclass(frozen=True)
class FrequencyVector:
    """A vector of m labels from {0..n-1}, emulated as an empirical distribution."""

    values: tuple
    n: int

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValidationError("frequency vector must be non-empty")
        labels = np.asarray(self.values)
        if (labels.ndim != 1 or labels.dtype.kind not in "iu"
                or labels.min() < 0 or labels.max() >= self.n):
            raise ValidationError(f"labels must be integers in [0, {self.n})")

    @property
    def m(self) -> int:
        return len(self.values)

    def counts(self) -> np.ndarray:
        return np.bincount(np.asarray(self.values, dtype=np.int64), minlength=self.n)

    def induced_distribution(self) -> Distribution:
        """Empirical distribution counts/m (normalized by the vector length)."""
        return Distribution(self.counts() / self.m)


def build_frequency_oracle(vec: FrequencyVector) -> PurifiedOracle:
    """Oracle preparing sum_i sqrt(c_i/m) |pos_i>|i> from a frequency vector.

    |pos_i> is uniform over the positions j with vec[j] = i; the reduced
    state on the label register is diag(counts/m) exactly.
    """
    m, n = vec.m, vec.n
    if m * n > DENSE_ORACLE_CAP:
        raise ValidationError(f"frequency oracle needs m*n <= {DENSE_ORACLE_CAP}")
    v = np.zeros(m * n, dtype=complex)
    # amplitude sqrt(c/m) * 1/sqrt(c) = 1/sqrt(m) at (position j, label vec[j])
    v[np.arange(m) * n + np.asarray(vec.values, dtype=np.int64)] = 1.0 / math.sqrt(m)
    return PurifiedOracle(
        reflector=_householder_completion(v),
        dim=v.size,
        register_dims=(m, n),
        ancilla_axis=0,
        kind="frequency",
    )


# ---------------------------------------------------------------------------
# Projected unitary encodings
# ---------------------------------------------------------------------------

@dataclass
class ProjectedUnitaryEncoding:
    """A projected block of a unitary, alpha-scaled: block has SVD sigma/alpha.

    `block` is a compressed dense form (may be None for spectral
    representations); `sigma` lists the encoded singular values in descending
    order (already the block's, i.e. true value / alpha).
    """

    sigma: np.ndarray
    alpha: float
    block: np.ndarray | None = None
    oracle: PurifiedOracle | None = None

    def true_values(self) -> np.ndarray:
        """Unnormalized singular values alpha * sigma."""
        return self.alpha * self.sigma


def _singular_values(block: np.ndarray, dim: int) -> np.ndarray:
    """Singular values of `block`, descending, with those below the round-off floor set to 0.

    The floor is SVD_FLOOR * d * sigma_max, d the oracle's dimension.  The
    SVD's backward error is of order d u ||block||_2, u = 2^-53 (Golub and
    Van Loan, Matrix Computations, sec. 8.6), and by Weyl's inequality no
    singular value moves by more; the prepared state adds a few u per entry,
    which the factor 8 covers at small d (2u at d = 2 was measured).  So a
    value below the floor is read as an exact 0.  At d = 16,384 the floor
    clears probabilities near 2e-22, far below any that a test input holds.
    """
    sigma = np.linalg.svd(block, compute_uv=False)
    sigma[sigma < SVD_FLOOR * dim * sigma[0]] = 0.0
    return sigma


def projected_encoding_classical(oracle: PurifiedOracle) -> ProjectedUnitaryEncoding:
    """Three-register projected encoding of a classical oracle; sigma_i = sqrt(p_i).

    W = U (x) I on registers (ancilla, label, copy); the right projector fixes
    the first two registers to |00> and the left projector enforces label =
    copy.  The block's columns are orthogonal, supported on distinct copy
    indices, so an (d_a * n) x n compression is exact.
    """
    if oracle.ancilla_axis != 0:
        raise ValidationError("expected a classical-layout oracle (ancilla first)")
    d_a, n = oracle.register_dims
    u = oracle.prepared_state().reshape(d_a, n)
    block = np.zeros((d_a, n, n), dtype=complex)
    i = np.arange(n)
    block[:, i, i] = u
    block = block.reshape(d_a * n, n)
    sigma = _singular_values(block, oracle.dim)
    return ProjectedUnitaryEncoding(sigma=sigma, alpha=1.0, block=block, oracle=oracle)


def projected_encoding_quantum(oracle: PurifiedOracle) -> ProjectedUnitaryEncoding:
    """Projected encoding from purified quantum access; sigma_i = sqrt(p_i / n).

    U' = (I (x) U_rho^dag)(W (x) I) with W preparing the maximally entangled
    state; projecting the middle registers to |00> leaves the n x n block
    conj(psi)/sqrt(n) where psi is the prepared purification.
    """
    if oracle.ancilla_axis != 1:
        raise ValidationError("expected a quantum-layout oracle (ancilla second)")
    n, _ = oracle.register_dims
    psi = oracle.prepared_state().reshape(oracle.register_dims)
    block = psi.conj() / math.sqrt(n)
    sigma = _singular_values(block, oracle.dim)
    return ProjectedUnitaryEncoding(sigma=sigma, alpha=math.sqrt(n), block=block, oracle=oracle)


def block_encoding_density_swap(oracle: PurifiedOracle) -> ProjectedUnitaryEncoding:
    """SWAP-trick block encoding whose top-left block is rho itself (alpha = 1)."""
    if oracle.ancilla_axis != 1:
        raise ValidationError("expected a quantum-layout oracle (ancilla second)")
    psi = oracle.prepared_state().reshape(oracle.register_dims)
    block = psi @ psi.conj().T
    sigma = _singular_values(block, oracle.dim)
    return ProjectedUnitaryEncoding(sigma=sigma, alpha=1.0, block=block, oracle=oracle)


def swap_encoding_dense_unitary(oracle: PurifiedOracle) -> np.ndarray:
    """Explicit (U^dag (x) I) SWAP_{s,s'} (U (x) I) on registers (s, a, s').

    Small-dimension cross-check for the SWAP block encoding.
    """
    n, d_a = oracle.register_dims
    dim = n * d_a * n
    if dim > DENSE_UNITARY_CAP:
        raise ValidationError(f"dense SWAP unitary needs n^2*d_a <= {DENSE_UNITARY_CAP}")
    u = np.kron(oracle.unitary, np.eye(n, dtype=complex))
    swap = np.zeros((dim, dim))
    for s in range(n):
        for a in range(d_a):
            for sp in range(n):
                swap[(sp * d_a + a) * n + s, (s * d_a + a) * n + sp] = 1.0
    return u.conj().T @ swap @ u


# ---------------------------------------------------------------------------
# Spectral (large-n) representations
# ---------------------------------------------------------------------------

def spectral_encoding_classical(p: Distribution) -> ProjectedUnitaryEncoding:
    """Spectral shortcut: classical encoding without dense matrices."""
    sigma = np.sqrt(p.probs)
    sigma.sort()  # in place: np.sort would copy
    return ProjectedUnitaryEncoding(sigma=sigma[::-1], alpha=1.0)


def spectral_encoding_quantum(spectrum: Distribution) -> ProjectedUnitaryEncoding:
    """Spectral shortcut for purified quantum access: sigma = sqrt(p_i / n)."""
    n = spectrum.n
    sigma = spectrum.probs / n
    np.sqrt(sigma, out=sigma)
    sigma.sort()
    return ProjectedUnitaryEncoding(sigma=sigma[::-1], alpha=math.sqrt(n))


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    max_sv_deviation: float
    unitarity_residual: float
    tol: float


def verify_encoding(enc: ProjectedUnitaryEncoding, expected: np.ndarray,
                    tol: float = 1e-10) -> VerificationReport:
    """Check the encoded singular multiset against expectation.

    Recomputes singular values from the stored block when available and
    checks the underlying oracle's unitarity residual.
    """
    if enc.block is not None:
        got = np.sort(np.linalg.svd(enc.block, compute_uv=False))[::-1]
    else:
        got = np.sort(np.array(enc.sigma))[::-1]
    exp = np.sort(np.asarray(expected, dtype=float))[::-1]
    if got.size < exp.size:
        got = np.pad(got, (0, exp.size - got.size))
    elif exp.size < got.size:
        exp = np.pad(exp, (0, got.size - exp.size))
    dev = float(np.abs(got - exp).max())
    resid = enc.oracle.unitarity_residual() if enc.oracle is not None else 0.0
    return VerificationReport(ok=dev <= tol and resid <= tol,
                              max_sv_deviation=dev, unitarity_residual=resid, tol=tol)
