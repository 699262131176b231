"""Simulated quantum subroutines with query accounting.

Singular value estimation (ideal grid-rounding semantics plus a small-scale
statevector phase-estimation cross-check), singular value transformation
(matrix-function semantics), and amplitude estimation (exact value, adversarial
within-bound perturbation, or sampling from the exact phase-estimation outcome
distribution).  Every subroutine charges a shared query ledger.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dists import ValidationError
from .encodings import ProjectedUnitaryEncoding
from .logapprox import TaylorPolynomial

# Cost-model constants (documented, not tunable per instance).
SVE_ROUNDS_FACTOR = 2          # an m-bit SVE runs ceil(alpha * 2^(m+1)) rounds
STATEVECTOR_DIM_CAP = 512
ANCILLAS = 2                   # ancilla qubits of every projected unitary encoding


def sve_rounds(alpha: float, m_bits: int) -> int:
    """Oracle uses (of U, and again of U-dagger) of one m-bit singular value estimation."""
    return math.ceil(alpha * SVE_ROUNDS_FACTOR * 2**m_bits)


@dataclass
class QueryLedger:
    """Running account of oracle uses and auxiliary gate costs."""

    uses_U: int = 0
    uses_U_dagger: int = 0
    controlled_U: int = 0
    extra_gates: int = 0

    def charge_sve(self, alpha: float, m_bits: int):
        rounds = sve_rounds(alpha, m_bits)
        self.uses_U += rounds
        self.uses_U_dagger += rounds

    def charge_svt(self, degree: int):
        self.uses_U += degree
        self.uses_U_dagger += degree
        self.controlled_U += 1
        self.extra_gates += (ANCILLAS + 1) * degree

    def total_queries(self) -> int:
        return self.uses_U + self.uses_U_dagger

    def snapshot(self) -> dict:
        return {
            "uses_U": self.uses_U,
            "uses_U_dagger": self.uses_U_dagger,
            "controlled_U": self.controlled_U,
            "extra_gates": self.extra_gates,
            "total_queries": self.total_queries(),
        }


# ---------------------------------------------------------------------------
# Singular value estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SVEResult:
    estimates: np.ndarray   # m-bit grid values, aligned with enc.singular_values()
    m_bits: int
    mode: str


def round_to_grid(values: np.ndarray, m_bits: int) -> np.ndarray:
    """Round to the nearest multiple of 2^-m; exact half-way ties go toward zero."""
    step = 2.0**-m_bits
    v = np.asarray(values, dtype=float) / step
    idx = np.floor(v + 0.5)
    ties = (v + 0.5) == idx  # v sits exactly half-way below idx
    idx = np.where(ties, idx - 1.0, idx)
    return np.clip(idx * step, 0.0, 1.0)


def qsve(enc: ProjectedUnitaryEncoding, m_bits: int, ledger: QueryLedger,
         mode: str = "ideal_svd") -> SVEResult:
    """Estimate the unnormalized singular values alpha*sigma to m bits.

    ideal_svd: exact values rounded to the 2^-m grid (ties toward zero), so
    every estimate is within 2^-(m+1) of the truth.  statevector_qpe: runs
    textbook phase estimation on exp(2*pi*i*H) for the symmetrized block
    H = [[0, P], [P^dag, 0]] and reports the per-eigenvector outcome mode.
    """
    if m_bits < 1:
        raise ValidationError("m_bits must be >= 1")
    ledger.charge_sve(enc.alpha, m_bits)
    if mode == "ideal_svd":
        est = round_to_grid(enc.true_values(), m_bits)
        return SVEResult(estimates=est, m_bits=m_bits, mode=mode)
    if mode == "statevector_qpe":
        return _qsve_statevector(enc, m_bits)
    raise ValidationError(f"unknown qsve mode {mode!r}")


def _qsve_statevector(enc: ProjectedUnitaryEncoding, m_bits: int) -> SVEResult:
    if enc.block is None:
        raise ValidationError("statevector qsve needs a dense block")
    dl, dr = enc.block.shape
    if dl + dr > STATEVECTOR_DIM_CAP:
        raise ValidationError("block too large for statevector qsve")
    h = np.zeros((dl + dr, dl + dr), dtype=complex)
    h[:dl, dl:] = enc.block
    h[dl:, :dl] = enc.block.conj().T
    # eigenphases of exp(pi i H) are +/- sigma/2, so sigma in [0,1] maps to
    # [0, 1/2] with no wraparound at sigma = 1; one extra phase bit keeps
    # the effective grid on sigma at spacing 2^-m
    sig = np.linalg.svd(enc.block, compute_uv=False)
    big = 2 ** (m_bits + 1)
    est = np.empty_like(sig)
    for i, s in enumerate(sig):
        _, probs = _phase_estimation(0.5 * float(s), big)
        est[i] = 2.0 * np.argmax(probs) / big
    # sig is descending, matching the descending order of enc.sigma
    return SVEResult(estimates=np.clip(enc.alpha * est, 0.0, 1.0), m_bits=m_bits,
                     mode="statevector_qpe")


# ---------------------------------------------------------------------------
# Singular value transformation
# ---------------------------------------------------------------------------

def qsvt_apply(enc: ProjectedUnitaryEncoding, poly: TaylorPolynomial,
               ledger: QueryLedger) -> ProjectedUnitaryEncoding:
    """Transform the encoding's singular values by poly(sigma/alpha).

    Returns a new encoding (alpha 1, no dense block) with singular values
    |poly(sigma_i)|.
    """
    ledger.charge_svt(poly.degree)
    return ProjectedUnitaryEncoding(sigma=np.abs(poly(enc.sigma)), alpha=1.0, oracle=enc.oracle)


# ---------------------------------------------------------------------------
# Amplitude estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AmplitudeEstimate:
    value: float
    error_bound: float


def qae_error_bound(p: float, rounds: int) -> float:
    """Error bound 2*pi*sqrt(p(1-p))/M + pi^2/M^2 on |p_hat - p|."""
    return 2.0 * math.pi * math.sqrt(max(0.0, p * (1.0 - p))) / rounds + math.pi**2 / rounds**2


def M_for_precision(p_hint: float, eps: float) -> int:
    """Rounds M = ceil(2*pi*(2*sqrt(p_hint)/eps + 1/sqrt(eps))) giving error <= eps."""
    if eps <= 0:
        raise ValidationError("eps must be positive")
    if not (0.0 <= p_hint <= 1.0):
        raise ValidationError("p_hint must be in [0, 1]")
    return math.ceil(2.0 * math.pi * (2.0 * math.sqrt(p_hint) / eps + 1.0 / math.sqrt(eps)))


def _phase_estimation(theta: float, rounds: int) -> tuple[np.ndarray, np.ndarray]:
    """Outcome grid sin^2(pi j / M) and probabilities of M-point phase estimation.

    P(j) = sin^2(M pi d) / (M^2 sin^2(pi d)) with d = theta - j/M, and 1
    where d is an integer, normalized.  M reaches millions at small error
    budgets, so the arrays are built in place in three length-M buffers
    rather than through fresh temporaries.
    """
    values = np.arange(rounds, dtype=float)
    d = values / rounds
    np.subtract(theta, d, out=d)                  # d = theta - j/M
    den = np.multiply(np.pi, d)
    np.sin(den, out=den)                          # sin(pi d)
    on_grid = den >= -1e-15                       # |sin(pi d)| <= 1e-15
    on_grid &= den <= 1e-15
    np.square(den, out=den)
    den *= rounds**2
    probs = np.multiply(rounds * np.pi, d, out=d)
    np.sin(probs, out=probs)
    np.square(probs, out=probs)
    with np.errstate(divide="ignore", invalid="ignore"):
        probs /= den                              # sin^2(M pi d) / (M^2 sin^2(pi d))
    probs[on_grid] = 1.0
    probs /= probs.sum()
    values *= np.pi
    values /= rounds
    np.sin(values, out=values)
    np.square(values, out=values)
    return values, probs


def qae_outcome_distribution(p: float, rounds: int) -> tuple[np.ndarray, np.ndarray]:
    """Support sin^2(pi j / M) and probabilities of M-round amplitude estimation."""
    return _phase_estimation(math.asin(math.sqrt(p)) / math.pi, rounds)


def qae(p: float, rounds: int, mode: str, rng: np.random.Generator,
        ledger: QueryLedger, prep_cost_U: int = 1) -> AmplitudeEstimate:
    """Estimate amplitude p with M Grover rounds.

    exact: returns p itself.  bound_only: seeded uniform perturbation within
    the error bound (adversarial but admissible).  sampled: draws
    from the exact M-round phase-estimation outcome distribution.

    Each round costs one preparation and one inverse preparation, each of
    which is `prep_cost_U` oracle uses.
    """
    if not (0.0 <= p <= 1.0):
        raise ValidationError("amplitude must be in [0, 1]")
    if rounds < 1:
        raise ValidationError("rounds must be >= 1")
    ledger.uses_U += rounds * prep_cost_U
    ledger.uses_U_dagger += rounds * prep_cost_U
    bound = qae_error_bound(p, rounds)
    if mode == "exact":
        val = p
    elif mode == "bound_only":
        val = min(1.0, max(0.0, p + rng.uniform(-bound, bound)))
    elif mode == "sampled":
        values, probs = qae_outcome_distribution(p, rounds)
        val = float(rng.choice(values, p=probs))
    else:
        raise ValidationError(f"unknown qae mode {mode!r}")
    return AmplitudeEstimate(value=val, error_bound=bound)


def boost_median(draws) -> float:
    """Median of an odd number of repetitions (success amplification)."""
    vals = [float(v) for v in draws]
    if len(vals) % 2 == 0:
        raise ValidationError("median boosting needs an odd repetition count")
    return float(np.median(vals))
