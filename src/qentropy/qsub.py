"""Simulated quantum subroutines with query accounting.

Singular value estimation (the most likely outcome of phase estimation: the
exact value rounded to the 2^-m grid; the estimator's light/heavy split reads
only whether that rounding reaches 2^-m, which `sve_heavy` decides with one
comparison per value and no rounded array), singular value transformation
(matrix-function semantics), and amplitude estimation (exact value, adversarial
within-bound perturbation, or one exact draw from the phase-estimation outcome
distribution, made by rejection in O(1) time rather than by building all M
outcomes).  Each takes and returns plain arrays and floats.  QSVT and QAE
charge a shared query ledger; SVE is charged by the estimator stages that use
it, through `QueryLedger.charge_sve`.
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

def round_to_grid(values: np.ndarray, m_bits: int) -> np.ndarray:
    """Round to the nearest multiple of 2^-m; exact half-way ties go toward zero."""
    step = 2.0**-m_bits
    v = np.asarray(values, dtype=float) / step
    idx = np.floor(v + 0.5)
    ties = (v + 0.5) == idx  # v sits exactly half-way below idx
    idx = np.where(ties, idx - 1.0, idx)
    return np.clip(idx * step, 0.0, 1.0)


def sve_heavy(values: np.ndarray, m_bits: int) -> np.ndarray:
    """`round_to_grid(values, m_bits) >= 2^-m` in one comparison, without rounding.

    Scaled by 2^m, a value v rounds to at least one grid step exactly when
    fl(v + 0.5) > 1.  The smallest double above 1/2, v = 1/2 + 2^-53, sums
    to the tie 1 + 2^-53, which rounds to even (1) and then toward zero; the
    next one sums to 1 + 2^-52.  So the cut is v > 1/2 + 2^-53, and scaling
    by a power of two keeps it exact while the cut is a normal double
    (m_bits <= 1021).  NaN and negative values are light.
    """
    return np.asarray(values, dtype=float) > (0.5 + 2.0**-53) * 2.0**-m_bits


def qsve(enc: ProjectedUnitaryEncoding, m_bits: int) -> np.ndarray:
    """Estimate the unnormalized singular values alpha*sigma to m bits.

    Returns the estimates in the order of `enc.sigma`: the exact values
    rounded to the 2^-m grid (ties toward zero), so every estimate is within
    2^-(m+1) of the truth.  That is the most likely outcome of 2^(m+1)-point
    phase estimation on the eigenphase alpha*sigma/2, which the tests check
    against `_phase_estimation`; the ledger charges ceil(alpha * 2^(m+1))
    rounds, enough to resolve alpha*sigma to that grid's spacing.  Charges
    nothing: each stage that uses an SVE charges its own ledger.
    """
    if m_bits < 1:
        raise ValidationError("m_bits must be >= 1")
    return round_to_grid(enc.true_values(), m_bits)


# ---------------------------------------------------------------------------
# Singular value transformation
# ---------------------------------------------------------------------------

def qsvt_apply(sigma: np.ndarray, poly: TaylorPolynomial, ledger: QueryLedger) -> np.ndarray:
    """Transformed singular values |poly(sigma)| of an encoding with singular values sigma."""
    ledger.charge_svt(poly.degree)
    return np.abs(poly(sigma))


# ---------------------------------------------------------------------------
# Amplitude estimation
# ---------------------------------------------------------------------------

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


def _draw_phase_estimation(theta: float, rounds: int, rng: np.random.Generator) -> int:
    """One outcome j of M-point phase estimation, distributed as `_phase_estimation`.

    With x = M theta = j0 + f, outcome j0 + k (mod M) has probability
    sin^2(pi f) / (M^2 sin^2(pi u)), u = (f - k)/M taken in (-1/2, 1/2].  As
    2|u| <= sin(pi |u|) <= pi |u| there, it is proportional to 1/(f-k)^2 up
    to a factor in [4/pi^2, 1], so rejection from the envelope 1/(f-k)^2 is
    exact.  The envelope is two atoms, k = 0 (mass 1/f^2) and k = 1 (mass
    1/(1-f)^2), and two tails whose cell masses telescope,
    1/((k-1-f)(k-f)) for k >= 2 (total 1/(1-f)) and 1/((m-1+f)(m+f)) for
    k = -m <= -1 (total 1/f), each drawn by inverting its closed-form CDF.
    Every attempt is accepted with probability at least 1/3.
    """
    x = rounds * theta
    j0 = math.floor(x)
    f = x - j0
    if abs(math.sin(math.pi * f / rounds)) <= 1e-15:  # on the grid, as in _phase_estimation
        return j0 % rounds
    atom0, atom1, tail_up, tail_down = 1.0 / f**2, 1.0 / (1.0 - f) ** 2, 1.0 / (1.0 - f), 1.0 / f
    total = atom0 + atom1 + tail_up + tail_down
    while True:
        pick = rng.random() * total
        v = 1.0 - rng.random()  # in (0, 1]
        if pick < atom0:
            k, env = 0, atom0
        elif pick < atom0 + atom1:
            k, env = 1, atom1
        elif pick < atom0 + atom1 + tail_up:
            k = math.floor(1.0 + f + (1.0 - f) / v)
            env = 1.0 / ((k - 1 - f) * (k - f))
        else:
            m = math.floor(1.0 - f + f / v)
            k, env = -m, 1.0 / ((m - 1 + f) * (m + f))
        u = (f - k) / rounds
        # accept with probability 4u^2 / sin^2(pi u) * (1/(f-k)^2) / env <= 1
        if -0.5 < u <= 0.5 and (rng.random() * env * (f - k) ** 2 * math.sin(math.pi * u) ** 2
                                <= 4.0 * u * u):
            return (j0 + k) % rounds


def _qae_phase(p: float) -> float:
    """Phase theta in [0, 1/2] with sin^2(pi theta) = p."""
    return math.asin(math.sqrt(p)) / math.pi


def qae_outcome_distribution(p: float, rounds: int) -> tuple[np.ndarray, np.ndarray]:
    """Support sin^2(pi j / M) and probabilities of M-round amplitude estimation."""
    return _phase_estimation(_qae_phase(p), rounds)


def qae(p: float, rounds: int, mode: str, rng: np.random.Generator,
        ledger: QueryLedger, prep_cost_U: int = 1) -> float:
    """Estimate amplitude p with M Grover rounds.

    exact: returns p itself.  bound_only: seeded uniform perturbation within
    the error bound (adversarial but admissible).  sampled: one exact draw
    from the M-round phase-estimation outcome distribution, made in O(1)
    time by `_draw_phase_estimation`; the returned value sin^2(pi j / M) is
    computed as in `qae_outcome_distribution`.

    Each round costs one preparation and one inverse preparation, each of
    which is `prep_cost_U` oracle uses.
    """
    if not (0.0 <= p <= 1.0):
        raise ValidationError("amplitude must be in [0, 1]")
    if rounds < 1:
        raise ValidationError("rounds must be >= 1")
    ledger.uses_U += rounds * prep_cost_U
    ledger.uses_U_dagger += rounds * prep_cost_U
    if mode == "exact":
        return p
    if mode == "bound_only":
        bound = qae_error_bound(p, rounds)
        return min(1.0, max(0.0, p + rng.uniform(-bound, bound)))
    if mode == "sampled":
        j = _draw_phase_estimation(_qae_phase(p), rounds, rng)
        return float(np.square(np.sin(j * np.pi / rounds)))
    raise ValidationError(f"unknown qae mode {mode!r}")


def boost_median(draws) -> float:
    """Median of an odd number of repetitions (success amplification)."""
    vals = [float(v) for v in draws]
    if len(vals) % 2 == 0:
        raise ValidationError("median boosting needs an odd repetition count")
    return float(np.median(vals))
