"""Benchmark harness: classical baseline, query-scaling sweeps, hard-instance demos.

Sweeps read `query_ledger`, the closed form that every estimate reports as
its ledger.  It depends only on the derived parameters of (n, gamma, eps,
alpha), not on the input, so a sweep builds no length-n array: its size is
capped by what `derive_params` can certify, not by memory.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .dists import (
    Distribution,
    ValidationError,
    gen_lower_bound_pair,
    shannon_entropy,
)
from .estimator import (
    EstimatorParams,
    derive_params,
    estimate_entropy,
    query_ledger,
    total_query_bound,
)

FIT_EXCLUDE_SMALLEST = 2    # default number of smallest n excluded from fits
MAX_BASELINE_SAMPLES = 2**26  # about 1 GiB of int64 draws


@dataclass(frozen=True)
class SweepRow:
    n: int
    queries: int
    bound: float
    within_bound: bool


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    gamma: float
    eps: float
    quantum: bool
    slope: float
    target: float
    tolerance: float
    passed: bool

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["n", "queries", "bound", "within_bound"])
        for r in self.rows:
            w.writerow([r.n, r.queries, f"{r.bound:.6e}", int(r.within_bound)])
        w.writerow([])
        w.writerow(["slope", f"{self.slope:.6f}"])
        w.writerow(["target", f"{self.target:.6f}"])
        w.writerow(["passed", int(self.passed)])
        return buf.getvalue()


def query_scaling_sweep(n_list, gamma: float, eps: float, quantum: bool = False,
                        exclude_smallest: int = FIT_EXCLUDE_SMALLEST,
                        tolerance: float = 0.1) -> SweepResult:
    """Fit the scaling exponent of query totals against the predicted rate.

    Each size's total is `query_ledger` of its derived parameters, the ledger
    of one run on any input of that size through the classical spectral
    encoding (alpha 1) or the quantum one (alpha sqrt(n)).  Fits the least-squares
    slope of log2(queries / log2(n)^2) versus log2(n), excluding the
    `exclude_smallest` smallest sizes, and compares against 1/(2 gamma^2)
    classically or 1/2 + 1/(2 gamma^2) for quantum (diagonal) inputs,
    within `tolerance`.
    """
    ns = sorted(int(n) for n in n_list)
    if exclude_smallest < 0:
        raise ValidationError(f"exclude_smallest must be >= 0, got {exclude_smallest}")
    if len(ns) - exclude_smallest < 3:
        raise ValidationError("need at least 3 sizes after exclusion for the fit")
    rows = []
    for n in ns:
        alpha = math.sqrt(n) if quantum else 1.0
        try:
            derived = derive_params(EstimatorParams(n=n, gamma=gamma, eps=eps), alpha)
        except ValidationError as err:
            raise ValidationError(f"at n = {n}, {err}") from err
        q = query_ledger(derived)["total_queries"]
        b = total_query_bound(n, gamma, eps, alpha)
        rows.append(SweepRow(n=n, queries=q, bound=b, within_bound=q <= b))
    xs = np.array([math.log2(r.n) for r in rows[exclude_smallest:]])
    ys = np.array([math.log2(r.queries / math.log2(r.n) ** 2)
                   for r in rows[exclude_smallest:]])
    slope = float(np.polyfit(xs, ys, 1)[0])
    target = 1.0 / (2.0 * gamma**2) + (0.5 if quantum else 0.0)
    passed = abs(slope - target) <= tolerance and all(r.within_bound for r in rows)
    return SweepResult(rows=tuple(rows), gamma=gamma, eps=eps, quantum=quantum,
                       slope=slope, target=target, tolerance=tolerance, passed=passed)


# ---------------------------------------------------------------------------
# Classical sampling baseline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BaselineReport:
    h_hat: float
    h_true: float
    samples: int
    beta: float
    gamma: float
    eta: float
    seed: int

    def to_record(self) -> dict:
        return dict(self.__dict__)


def classical_baseline(p: Distribution, gamma: float, eta: float = 0.0,
                       seed: int = 0) -> BaselineReport:
    """Plug-in estimate from s = ceil(n^((1+eta)/gamma^2) * log2(n)) i.i.d. samples.

    Empirical frequencies above beta = n^(-1/gamma^2) enter the plug-in sum;
    the remaining mass is booked at log2(n)/gamma per unit, mirroring the
    light-term treatment.  s follows the O(n^((1+eta)/gamma^2) log n) rate of
    the gamma-multiplicative estimator of Batu, Dasgupta, Kumar and Rubinfeld
    (SICOMP 2005); Valiant (2011) shows Omega(n^(1/gamma^2)) samples are
    needed.  Without the log factor s is about 1/beta, so every sampled label
    is heavy and h_hat falls below H/gamma on high-entropy inputs.  The light
    mass is a ratio of integer counts, so an all-light sample books exactly
    log2(n)/gamma.  More than MAX_BASELINE_SAMPLES samples raise ValidationError.
    """
    if not (math.isfinite(gamma * gamma) and gamma > 1.0):
        raise ValidationError(f"gamma must exceed 1 and have a finite square, got {gamma}")
    if not math.isfinite(eta):
        raise ValidationError(f"eta must be finite, got {eta}")
    n = p.n
    e = (1.0 + eta) / gamma**2
    # s >= n^e for n >= 2, so an exponent past the cap is rejected before n^e can overflow
    log_cap = math.log2(MAX_BASELINE_SAMPLES)
    s = max(1, math.ceil(n ** e * math.log2(n))) if e * math.log2(n) <= log_cap else math.inf
    if s > MAX_BASELINE_SAMPLES:
        raise ValidationError(f"eta = {eta} and gamma = {gamma} ask for more than "
                              f"{MAX_BASELINE_SAMPLES} samples at n = {n}")
    rng = np.random.default_rng(seed)
    counts = np.bincount(rng.choice(n, size=s, p=p.probs), minlength=n)
    q = counts / s
    beta = n ** (-1.0 / gamma**2)
    heavy = q >= beta  # beta > 0, so every heavy frequency is positive
    h_heavy = shannon_entropy(q[heavy])
    w_light = int(counts[~heavy].sum()) / s
    h_hat = h_heavy + w_light * math.log2(n) / gamma
    return BaselineReport(h_hat=h_hat, h_true=shannon_entropy(p), samples=s,
                          beta=beta, gamma=gamma, eta=eta, seed=seed)


# ---------------------------------------------------------------------------
# Hard-instance demonstrations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LowerBoundDemo:
    kind: str
    n: int
    param: float
    report: dict
    chain: dict | None  # estimator separation chain (collision family)
    passed: bool


def lower_bound_demo(kind: str, n: int, param: float) -> LowerBoundDemo:
    """Build a hard pair, report its separation, and (for the collision
    family) verify the distinguishing chain
        H_tilde(q) <= gamma*H(q) <= H(p)/gamma <= H_tilde(p)
    with noise-free estimates at the instance's gamma."""
    p, q, rep = gen_lower_bound_pair(kind, n, param)
    report = {
        "entropy_p": rep.entropy_p, "entropy_q": rep.entropy_q,
        "entropy_ratio": rep.entropy_ratio, "hellinger": rep.hellinger,
        **rep.extras,
    }
    chain = None
    passed = True
    if kind == "near_deterministic":
        passed = rep.extras["hellinger_lower"] <= rep.hellinger <= rep.extras["hellinger_upper"]
        report["hellinger_in_bounds"] = passed
    elif kind == "two_point_vs_spread":
        passed = rep.entropy_q <= 1.0 and rep.entropy_ratio >= rep.extras["ratio_lower"]
        report["ratio_meets_lower"] = passed
    elif kind == "collision":
        gamma = param
        big = rep.extras["big_size"]
        params = EstimatorParams(n=big, gamma=gamma, eps=0.1)
        ep = estimate_entropy(p, params, mode="exact")
        eq = estimate_entropy(q, params, mode="exact")
        chain = {
            "h_tilde_q": eq.h_tilde,
            "gamma_h_q": gamma * rep.entropy_q,
            "h_p_over_gamma": rep.entropy_p / gamma,
            "h_tilde_p": ep.h_tilde,
        }
        passed = (chain["h_tilde_q"] <= chain["gamma_h_q"]
                  <= chain["h_p_over_gamma"] <= chain["h_tilde_p"])
    return LowerBoundDemo(kind=kind, n=n, param=param, report=report,
                          chain=chain, passed=passed)


# ---------------------------------------------------------------------------
# Test-distribution generators
# ---------------------------------------------------------------------------

def random_distribution(n: int, seed: int) -> Distribution:
    return Distribution.dirichlet(n, np.random.default_rng(seed))


def high_entropy_distribution(n: int, target: float, seed: int) -> Distribution:
    """Dirichlet sample mixed toward uniform until H >= min(target, cap).

    Entropy is concave, so mixing weight lam >= (target - H)/(log2(n) - H)
    suffices.  Targets above the capped fraction of log2(n) are clipped (no
    distribution on n labels can reach them if target > log2(n)).
    """
    logn = math.log2(n)
    target = min(target, 0.98 * logn)
    p = random_distribution(n, seed)
    h = shannon_entropy(p)
    if h >= target:
        return p
    lam = (target - h) / (logn - h)
    lam = min(1.0, lam * 1.05)  # small headroom over the concavity bound
    mixed = (1.0 - lam) * p.probs + lam / n
    return Distribution(mixed / mixed.sum())
