"""Multiplicative entropy estimation from purified oracle access.

Pipeline: derive the split threshold and power exponent from (n, gamma, eps);
flag light elements by singular value estimation and estimate their mass by
amplitude estimation; transform heavy singular values by the two power
polynomials and estimate the resulting power sums; recombine into an
entropy estimate
    H_tilde = H_heavy + w_light * log2(n) / gamma'
that is (1+2*eps)*gamma-multiplicative whenever the entropy promise holds.

The seed-independent work is an `EstimationPlan`, built once per source; each
repetition of its `run` only transforms the heavy singular values and draws
its amplitude estimates.  A run's oracle-query cost is a closed form of the
derived parameters, `query_ledger`: the run reports it, and the query sweeps
read it without building an input.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .dists import DensityMatrix, Distribution, ValidationError, shannon_entropy
from .encodings import (
    ProjectedUnitaryEncoding,
    PurifiedOracle,
    projected_encoding_classical,
    projected_encoding_quantum,
    spectral_encoding_classical,
    spectral_encoding_quantum,
)
from .logapprox import (
    TaylorPolynomial,
    certify,
    choose_exponent,
    taylor_poly_neg,
    taylor_poly_pos,
)
from .qsub import (
    ANCILLAS,
    M_for_precision,
    boost_median,
    qae,
    qsvt_apply,
    sve_heavy,
    sve_rounds,
)

LN2 = math.log(2.0)
TOTAL_BOUND_CONSTANT = 5000.0  # calibrated constant in the total-query bound
GAMMA_DEGENERATE_TOL = 1e-9
CERT_GRID_POINTS = 4001  # grid on which the power polynomials are certified


@dataclass(frozen=True)
class EstimatorParams:
    """Target instance size and accuracy.

    gamma > 1 is the multiplicative target; eps in (0, 1) the slack in the
    (1+2*eps)*gamma guarantee, 0.1 if not given.  Giving `eta` instead sets
    eps = eta/8 (the promise-slack interface); giving both is an error.
    """

    n: int
    gamma: float
    eps: float | None = None
    eta: float | None = None

    def __post_init__(self):
        if not 2 <= self.n <= sys.float_info.max:
            raise ValidationError(f"n must be >= 2 and at most the largest float, got {self.n}")
        if not (math.isfinite(self.gamma * self.gamma) and self.gamma > 1.0):
            raise ValidationError(f"gamma must exceed 1 and have a finite square, got {self.gamma}")
        if self.eps is not None and self.eta is not None:
            raise ValidationError(f"give eps or eta, not both: eps = {self.eps}, "
                                  f"eta = {self.eta}")
        if self.eps is None:
            object.__setattr__(self, "eps", 0.1 if self.eta is None else self.eta / 8.0)
        if not (0.0 < self.eps < 1.0):
            raise ValidationError(f"eps must be in (0, 1), got {self.eps}"
                                  + ("" if self.eta is None else f" from eta = {self.eta}"))


@dataclass(frozen=True)
class DerivedParams:
    m_bits: int
    sqrt_beta_prime: float
    beta_prime: float
    gamma_prime: float      # light-term divisor, sqrt(log2(n) / (2*m)) floored at 1
    gamma_heavy: float      # factor backing the power exponent
    a: float
    delta: float            # polynomial domain edge on the encoded scale
    eps1: float
    eps2: float
    eps3: float
    M_light: int
    M_heavy: int
    alpha: float
    poly_pos: TaylorPolynomial
    poly_neg: TaylorPolynomial


def derive_params(params: EstimatorParams, alpha: float = 1.0,
                  m_bits: int | None = None) -> DerivedParams:
    """Derive threshold, exponent, error budgets, polynomials, and QAE rounds.

    sqrt(beta') = 2^-m with m = ceil(log2(n) / (2*gamma^2)), so that
    beta' = n^(-1/gamma'^2) for the rounded gamma' = sqrt(log2(n)/(2m)) <= gamma.
    If the rounding degenerates to gamma' = 1 the power exponent falls back
    to the requested gamma (still a valid one-sided factor) and the light
    term uses the exact divisor 1.  Raises ValidationError if `certify`
    measures a polynomial above the QSVT bound 1, or if the larger of its
    tail bound eps_cert and measured error exceeds its budget eps2.
    """
    n, gamma, eps = params.n, params.gamma, params.eps
    logn = math.log2(n)
    if m_bits is None:
        m_bits = max(1, math.ceil(logn / (2.0 * gamma**2)))
    sqrt_beta = 2.0**-m_bits
    beta_prime = sqrt_beta**2
    gp = math.sqrt(logn / (2.0 * m_bits))
    if gp > 1.0 + GAMMA_DEGENERATE_TOL:
        gamma_prime = gp
        gamma_heavy = gp
    else:
        gamma_prime = 1.0
        gamma_heavy = gamma
    a = choose_exponent(gamma_heavy, beta_prime)
    if a > 1.0:
        raise ValidationError(f"gamma={gamma} is too large for n={n}: the power "
                              f"exponent a={a:.4g} exceeds 1")
    log_inv_beta = math.log(1.0 / beta_prime)
    eps1 = eps / logn**2
    eps2 = eps * math.log(gamma) / (2.0 * n * math.sqrt(gamma) * log_inv_beta)
    eps3 = eps * math.log(gamma) / (4.0 * math.sqrt(gamma) * log_inv_beta)
    delta = sqrt_beta / (2.0 * alpha)
    poly_pos = taylor_poly_pos(a, delta, eps2)
    poly_neg = taylor_poly_neg(a, delta, eps2)
    for poly in (poly_pos, poly_neg):
        rep = certify(poly, CERT_GRID_POINTS)
        name = f"the degree-{poly.degree} polynomial for x^{poly.sign * a:.4g}"
        if rep.max_abs > 1.0 + 1e-12:
            raise ValidationError(f"{name} reaches {rep.max_abs:.6g}, above the QSVT bound 1")
        err = max(poly.eps_cert, rep.sup_error)
        if err > eps2:
            raise ValidationError(f"{name} is certified to {err:.3g}, "
                                  f"{err / eps2:.4g}x its budget eps2 = {eps2:.3g} "
                                  f"at gamma = {gamma}")
    return DerivedParams(
        m_bits=m_bits, sqrt_beta_prime=sqrt_beta, beta_prime=beta_prime,
        gamma_prime=gamma_prime, gamma_heavy=gamma_heavy, a=a, delta=delta,
        eps1=eps1, eps2=eps2, eps3=eps3,
        M_light=M_for_precision(1.0, eps1), M_heavy=M_for_precision(1.0, eps3),
        alpha=alpha, poly_pos=poly_pos, poly_neg=poly_neg,
    )


def query_ledger(derived: DerivedParams, repetitions: int = 1) -> dict:
    """Oracle uses of `repetitions` runs of a plan with these derived parameters.

    Each repetition runs two SVEs (the light stage's and the heavy stage's) of
    R = sve_rounds(alpha, m) uses each; a light QAE of M_light rounds, each
    round one R-use preparation; and for each power polynomial of degree d, a
    QSVT of d uses, one controlled U and (ANCILLAS + 1) * d extra gates, then
    a heavy QAE of M_heavy rounds of an (R + d)-use preparation.  Every use
    of U comes with one of U-dagger.
    """
    rounds = sve_rounds(derived.alpha, derived.m_bits)
    degrees = (derived.poly_pos.degree, derived.poly_neg.degree)
    uses = (2 * rounds + derived.M_light * rounds
            + sum(d + derived.M_heavy * (rounds + d) for d in degrees))
    return {"uses_U": repetitions * uses, "uses_U_dagger": repetitions * uses,
            "controlled_U": repetitions * len(degrees),
            "extra_gates": repetitions * (ANCILLAS + 1) * sum(degrees),
            "total_queries": repetitions * 2 * uses}


# ---------------------------------------------------------------------------
# Stage results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeavyResult:
    # kept while the benchmark's tracer reads `heavy_flags`; goes with ROADMAP item 1's refresh
    h_heavy: float
    heavy_flags: np.ndarray


def lightweight(plan: EstimationPlan, mode: str, rng: np.random.Generator) -> float:
    """Estimate the total mass of elements below the split threshold."""
    return qae(min(1.0, plan.w_true), plan.derived.M_light, mode, rng)


def heavy_entropy(plan: EstimationPlan, mode: str, rng: np.random.Generator) -> HeavyResult:
    """Estimate the entropy carried by elements at or above the threshold.

    Runs the two power-polynomial transformations, amplitude-estimates the
    resulting power sums F+- = sum_heavy p_i * poly(sigma_i/alpha)^2, and
    reconstructs the heavy entropy with the exact stored normalizations:
        H_heavy = (F-/(nu_-^2 alpha^(2a)) - F+/(nu_+^2 alpha^(-2a))) / (2 a ln 2).
    """
    derived = plan.derived
    hats = {}
    for label, poly in (("plus", derived.poly_pos), ("minus", derived.poly_neg)):
        transformed = qsvt_apply(plan.sigma_heavy, poly)
        amp = float((plan.p_heavy * transformed ** 2).sum())
        hats[label] = qae(min(1.0, amp), derived.M_heavy, mode, rng)
    a, alpha = derived.a, derived.alpha
    nu_p = derived.poly_pos.normalization
    nu_m = derived.poly_neg.normalization
    f_plus = hats["plus"] / (nu_p**2 * alpha ** (-2.0 * a))
    f_minus = hats["minus"] / (nu_m**2 * alpha ** (2.0 * a))
    h_heavy = (f_minus - f_plus) / (2.0 * a * LN2)
    return HeavyResult(h_heavy=h_heavy, heavy_flags=plan.heavy_flags)


# ---------------------------------------------------------------------------
# Top-level estimation
# ---------------------------------------------------------------------------

@dataclass
class EstimateReport:
    h_tilde: float
    h_true: float
    gamma: float
    eps: float
    mode: str
    seed: int
    repetitions: int
    n: int
    alpha: float
    h_heavy: float
    w_light: float
    m_bits: int
    gamma_prime: float
    a: float
    deg_pos: int
    deg_neg: int
    ledger: dict
    within_guarantee: bool
    promise_satisfied: bool

    def to_record(self) -> dict:
        rec = dict(self.__dict__)
        rec["ledger"] = dict(self.ledger)
        return rec


def _resolve_encoding(source):
    """Map a distribution / density matrix / oracle onto (encoding, H_true).

    An oracle becomes its projected encoding, and the entropy of an encoding
    is that of its encoded spectrum, so an oracle's input is decomposed once,
    by the encoding's SVD.
    """
    if isinstance(source, Distribution):
        return spectral_encoding_classical(source), shannon_entropy(source)
    if isinstance(source, DensityMatrix):
        spec = source.spectrum()
        return spectral_encoding_quantum(spec), shannon_entropy(spec)
    if isinstance(source, PurifiedOracle):
        source = (projected_encoding_quantum if source.kind == "quantum"
                  else projected_encoding_classical)(source)
    if isinstance(source, ProjectedUnitaryEncoding):
        p = np.square(source.true_values())
        p /= p.sum()
        return source, shannon_entropy(p)
    raise ValidationError(f"cannot interpret source of type {type(source).__name__}")


def promise_threshold(gamma: float, eps: float) -> float:
    """Entropy promise 3*gamma + 1/(2*eps) backing the guarantee."""
    return 3.0 * gamma + 1.0 / (2.0 * eps)


def check_guarantee(h_tilde: float, h_true: float, gamma: float, eps: float) -> bool:
    """Inclusive check H/((1+2eps)gamma) <= H_tilde <= (1+2eps)*gamma*H."""
    g = (1.0 + 2.0 * eps) * gamma
    return h_true / g <= h_tilde <= g * h_true


@dataclass(frozen=True)
class EstimationPlan:
    """The seed-independent part of an estimate: the encoding, its true entropy,
    the derived parameters and the light/heavy split of one singular value
    estimation.  The polynomials act on `sigma_heavy`, at most 1/beta' values,
    not n.  The arrays are read-only and `run` keeps no state between seeds.

    A label is heavy when its SVE estimate, alpha*sigma rounded to the 2^-m
    grid, reaches sqrt(beta') = 2^-m.  The planner decides that with
    `sve_heavy`, one comparison per label, and squares only the heavy values
    into `p_heavy` and the light ones, in place, into `w_true`: no rounded
    or full-length squared array is built."""

    enc: ProjectedUnitaryEncoding
    h_true: float
    params: EstimatorParams
    derived: DerivedParams
    heavy_flags: np.ndarray
    w_true: float                    # true mass of the light labels
    p_heavy: np.ndarray              # (alpha * sigma)^2 on the heavy labels
    sigma_heavy: np.ndarray          # the heavy singular values only

    def run(self, mode: str = "exact", seed: int = 0, repetitions: int = 1) -> EstimateReport:
        """Light mass + heavy power sums, median-boosted over `repetitions` (odd).

        `mode` is the amplitude-estimation noise model: exact (noise-free),
        bound_only (adversarial within each error bound), sampled (exact outcome
        distribution).  Repetition k draws from seed + k; the ledger,
        `query_ledger(derived, repetitions)`, sums them all.
        """
        if repetitions < 1 or repetitions % 2 == 0:
            raise ValidationError("repetitions must be a positive odd number")
        params, derived = self.params, self.derived
        estimates, heavies, lights = [], [], []
        for k in range(repetitions):
            rng = np.random.default_rng(seed + k)
            w_tilde = lightweight(self, mode, rng)
            hv = heavy_entropy(self, mode, rng)
            h_k = max(0.0, hv.h_heavy + w_tilde * math.log2(params.n) / derived.gamma_prime)
            estimates.append(h_k)
            heavies.append(hv.h_heavy)
            lights.append(w_tilde)
        h_tilde = boost_median(estimates) if repetitions > 1 else estimates[0]
        return EstimateReport(
            h_tilde=h_tilde, h_true=self.h_true, gamma=params.gamma, eps=params.eps,
            mode=mode, seed=seed, repetitions=repetitions, n=params.n,
            alpha=self.enc.alpha, h_heavy=float(np.median(heavies)),
            w_light=float(np.median(lights)), m_bits=derived.m_bits,
            gamma_prime=derived.gamma_prime, a=derived.a,
            deg_pos=derived.poly_pos.degree, deg_neg=derived.poly_neg.degree,
            ledger=query_ledger(derived, repetitions),
            within_guarantee=check_guarantee(h_tilde, self.h_true, params.gamma, params.eps),
            promise_satisfied=self.h_true >= promise_threshold(params.gamma, params.eps),
        )


def _plan(enc: ProjectedUnitaryEncoding, h_true: float, params: EstimatorParams,
          m_bits: int | None = None) -> EstimationPlan:
    """Derive the parameters, estimate the singular values once and split them at sqrt(beta')."""
    if params.n != enc.sigma.size:
        raise ValidationError(
            f"params.n = {params.n} does not match the source size {enc.sigma.size}")
    derived = derive_params(params, alpha=enc.alpha, m_bits=m_bits)
    t = enc.true_values()
    heavy = sve_heavy(t, derived.m_bits)
    p_heavy, sigma_heavy = np.square(t[heavy]), enc.sigma[heavy]
    light = t[~heavy]
    np.square(light, out=light)
    for arr in (heavy, p_heavy, sigma_heavy):
        arr.setflags(write=False)
    return EstimationPlan(
        enc=enc, h_true=h_true, params=params, derived=derived, heavy_flags=heavy,
        w_true=float(light.sum()), p_heavy=p_heavy, sigma_heavy=sigma_heavy)


def _plan_given(given: str, enc: ProjectedUnitaryEncoding, h_true: float,
                params: EstimatorParams, m_bits: int | None = None) -> EstimationPlan:
    """`_plan`, whose errors lead with `given`: the caller's values that set `params`."""
    try:
        return _plan(enc, h_true, params, m_bits)
    except ValidationError as err:
        raise ValidationError(f"{given}, and {err}") from err


def plan_estimate(source, params: EstimatorParams) -> EstimationPlan:
    """Plan a multiplicative estimate of a distribution, density matrix, oracle or encoding."""
    return _plan(*_resolve_encoding(source), params)


def estimate_entropy(source, params: EstimatorParams, mode: str = "exact",
                     seed: int = 0, repetitions: int = 1) -> EstimateReport:
    """Full estimator: `plan_estimate(source, params).run(mode, seed, repetitions)`."""
    return plan_estimate(source, params).run(mode, seed, repetitions)


def plan_additive(source, eps_add: float) -> EstimationPlan:
    """Plan an additive estimate via gamma = 1 + eps_add/log2(n).

    Uses a deepened split threshold beta' = n^-2 so the light remainder
    (bounded by 2*log2(n)/n) stays inside the additive budget; the heavy
    power sums then carry the whole estimate up to the gamma factor.
    """
    if not (math.isfinite(eps_add) and eps_add > 0):
        raise ValidationError(f"eps_add must be positive and finite, got {eps_add}")
    enc, h_true = _resolve_encoding(source)
    n = enc.sigma.size
    if n < 2:
        raise ValidationError(f"n must be >= 2, got {n}")
    logn = math.log2(n)
    gamma = 1.0 + eps_add / logn
    given = f"eps_add = {eps_add} at n = {n} gives gamma = 1 + eps_add/log2(n) = {gamma!r}"
    if not (gamma > 1.0 and math.isfinite(gamma * gamma)):
        raise ValidationError(f"{given}, which must exceed 1 and have a finite square")
    params = EstimatorParams(n=n, gamma=gamma, eps=min(0.5, eps_add / (4.0 * logn)))
    return _plan_given(given, enc, h_true, params, m_bits=math.ceil(logn))


def estimate_additive(source, eps_add: float, mode: str = "exact", seed: int = 0,
                      repetitions: int = 1) -> EstimateReport:
    """Additive estimate: `plan_additive(source, eps_add).run(mode, seed, repetitions)`."""
    return plan_additive(source, eps_add).run(mode, seed, repetitions)


@dataclass(frozen=True)
class ThresholdReport:
    high: bool
    h_tilde: float
    gamma: float
    cut: float
    estimate: EstimateReport

    @classmethod
    def decide(cls, rep: EstimateReport, h_high: float, h_low: float) -> ThresholdReport:
        """Cut a run of `plan_threshold(source, h_high, h_low, eps)` at sqrt(h_high*h_low)."""
        cut = math.sqrt(h_high * h_low)
        return cls(rep.h_tilde > cut, rep.h_tilde, rep.gamma, cut, rep)


def plan_threshold(source, h_high: float, h_low: float, eps: float = 0.1) -> EstimationPlan:
    """Plan the estimate that decides H >= h_high versus H <= h_low.

    gamma = sqrt(h_high/h_low)/(1+2*eps) keeps the (1+2*eps)*gamma window of
    H >= h_high at or above the cut sqrt(h_high*h_low) and that of H <= h_low
    at or below it; a gap too small for the slack (gamma <= 1) raises
    ValidationError.
    """
    if not (0.0 < eps < 1.0 and h_high > h_low > 0):
        raise ValidationError(f"need 0 < eps < 1 and h_high > h_low > 0, got eps = {eps}, "
                              f"h_high = {h_high}, h_low = {h_low}")
    gamma = math.sqrt(h_high / h_low) / (1.0 + 2.0 * eps)
    given = (f"h_high = {h_high} and h_low = {h_low} at eps = {eps} give gamma = "
             f"sqrt(h_high/h_low)/(1+2*eps) = {gamma:.4g}")
    if not (gamma > 1.0 and math.isfinite(gamma * gamma)):
        raise ValidationError(f"{given}, which must exceed 1 (a gap wider than the guarantee "
                              "slack) and have a finite square")
    enc, h_true = _resolve_encoding(source)
    return _plan_given(given, enc, h_true, EstimatorParams(n=enc.sigma.size, gamma=gamma, eps=eps))


def entropy_threshold_test(source, h_high: float, h_low: float, eps: float = 0.1,
                           mode: str = "exact", seed: int = 0,
                           repetitions: int = 1) -> ThresholdReport:
    """Decide H >= h_high versus H <= h_low: `ThresholdReport.decide` on a plan's run."""
    rep = plan_threshold(source, h_high, h_low, eps).run(mode, seed, repetitions)
    return ThresholdReport.decide(rep, h_high, h_low)


def total_query_bound(n: int, gamma: float, eps: float, alpha: float = 1.0,
                      constant: float = TOTAL_BOUND_CONSTANT) -> float:
    """Budget C * alpha * n^(1/(2 gamma^2)) * log2(n)^2 / (eps * log2(gamma))."""
    return (constant * alpha * n ** (1.0 / (2.0 * gamma**2))
            * math.log2(n) ** 2 / (eps * math.log2(gamma)))
