"""The benchmark's workloads: inputs made from the seed, one call, output checks.

Every workload drives the library through its public entry points, looked up
on the `qentropy` package at call time so that a traced run sees them.  Each
targets the layer that dominates one input shape:

- mult_zipf_large: polynomial evaluation in `qsub.qsvt_apply` over n = 2^18.
- additive_zipf: polynomial build and certification (`logapprox`) and QAE
  outcome distributions (`qsub`) at Taylor degree ~91k.
- vn_spectral: eigendecompositions in `dists` on the purified-access path.
- oracle_dense: the dense n^2 x n^2 oracle unitary in `encodings`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import qentropy as qe

GAMMA = 1.5
EPS = 0.1
REPETITIONS = 9
EPS_ADD = 0.25
H_TRUE_TOL = 1e-9


@dataclass(frozen=True)
class Input:
    source: Any                 # what the library is given
    h_ref: float | None = None  # entropy in bits, computed by the benchmark
    expected_sigma: np.ndarray | None = None


@dataclass(frozen=True)
class Outcome:
    seed: int                   # estimator seed of the call
    report: Any                 # qentropy.EstimateReport
    verified: Any = None        # qentropy VerificationReport (oracle_dense)


@dataclass(frozen=True)
class Workload:
    name: str
    make_input: Callable[[int, int], Input]     # (workload seed, set-up index)
    call: Callable[[Input, int], Outcome]       # (input, estimator seed)
    reference: Callable[[Input], float]         # entropy the estimate is judged by
    check: Callable[[Input, Outcome, float], list[str]]  # (input, outcome, reference)


def entropy_bits(p: np.ndarray) -> float:
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def spectrum_entropy(mat: np.ndarray) -> float:
    ev = np.clip(np.linalg.eigvalsh(mat), 0.0, None)
    return entropy_bits(ev / ev.sum())


def _rng(seed: int, setup: int) -> np.random.Generator:
    return np.random.default_rng([seed, setup])


def _zipf_input(n: int) -> Callable[[int, int], Input]:
    def make(seed: int, setup: int) -> Input:
        base = qe.Distribution.zipf(n, 1.0).probs
        p = base[_rng(seed, setup).permutation(n)]
        return Input(source=qe.Distribution(p), h_ref=entropy_bits(p))
    return make


def _given_reference(inp: Input) -> float:
    return inp.h_ref


def _matrix_reference(inp: Input) -> float:
    return spectrum_entropy(inp.source.mat)


def _check_h_true(inp_h: float, report) -> list[str]:
    if abs(report.h_true - inp_h) > H_TRUE_TOL * max(1.0, inp_h):
        return [f"h_true {report.h_true!r} != reference {inp_h!r}"]
    return []


def _check_guarantee(report, promise: bool = True) -> list[str]:
    bad = []
    if not report.within_guarantee:
        bad.append(f"h_tilde {report.h_tilde!r} outside the (1+2eps)gamma window of {report.h_true!r}")
    if promise and not report.promise_satisfied:
        bad.append(f"promise not satisfied: H = {report.h_true!r}")
    bound = qe.total_query_bound(report.n, report.gamma, report.eps, report.alpha)
    if report.ledger["total_queries"] > bound:
        bad.append(f"total_queries {report.ledger['total_queries']} > bound {bound!r}")
    return bad


def _multiplicative(n: int) -> Callable[[Input, int], Outcome]:
    params = qe.EstimatorParams(n=n, gamma=GAMMA, eps=EPS)

    def call(inp: Input, seed: int) -> Outcome:
        return Outcome(seed, qe.estimate_entropy(inp.source, params, mode="sampled",
                                                 seed=seed, repetitions=REPETITIONS))
    return call


def _check_multiplicative(inp: Input, out: Outcome, h_ref: float) -> list[str]:
    return _check_h_true(h_ref, out.report) + _check_guarantee(out.report)


# -- additive_zipf ----------------------------------------------------------

def _additive_call(inp: Input, seed: int) -> Outcome:
    return Outcome(seed, qe.estimate_additive(inp.source, EPS_ADD, mode="sampled",
                                              seed=seed, repetitions=1))


def _check_additive(inp: Input, out: Outcome, h_ref: float) -> list[str]:
    bad = _check_h_true(h_ref, out.report)
    if abs(out.report.h_tilde - h_ref) > EPS_ADD:
        bad.append(f"|h_tilde - H| = {abs(out.report.h_tilde - h_ref)!r} > {EPS_ADD}")
    return bad


# -- vn_spectral ------------------------------------------------------------

VN_N = 1024
VN_DIRICHLET = 4.0  # H ~ 9.83 bits at n=1024, above the promise 3*gamma + 1/(2 eps) = 9.5


def _vn_input(seed: int, setup: int) -> Input:
    return Input(source=qe.DensityMatrix.random(VN_N, _rng(seed, setup), VN_DIRICHLET))


# -- oracle_dense -----------------------------------------------------------

ORACLE_N = 64
ORACLE_PARAMS = qe.EstimatorParams(n=ORACLE_N, gamma=GAMMA, eps=EPS)


def _oracle_input(seed: int, setup: int) -> Input:
    rho = qe.DensityMatrix.random(ORACLE_N, _rng(seed, setup))
    ev = np.clip(np.linalg.eigvalsh(rho.mat), 0.0, None)
    return Input(source=rho, expected_sigma=np.sqrt(ev / ev.sum() / ORACLE_N))


def _oracle_call(inp: Input, seed: int) -> Outcome:
    oracle = qe.build_purified_oracle_quantum(inp.source)
    enc = qe.projected_encoding_quantum(oracle)
    verified = qe.verify_encoding(enc, inp.expected_sigma)
    report = qe.estimate_entropy(oracle, ORACLE_PARAMS, mode="sampled", seed=seed,
                                 repetitions=REPETITIONS)
    return Outcome(seed, report, verified)


def _check_oracle(inp: Input, out: Outcome, h_ref: float) -> list[str]:
    # log2(64) = 6 bits is below the promise 9.5, so the promise is not checked here
    bad = _check_h_true(h_ref, out.report) + _check_guarantee(out.report, promise=False)
    if not out.verified.ok:
        bad.append(f"verify_encoding failed: {out.verified}")
    spectral = qe.estimate_entropy(inp.source, ORACLE_PARAMS, mode="sampled", seed=out.seed,
                                   repetitions=REPETITIONS)
    if spectral.h_tilde != out.report.h_tilde or spectral.ledger != out.report.ledger:
        bad.append(f"dense route ({out.report.h_tilde!r}, {out.report.ledger}) differs from "
                   f"spectral route ({spectral.h_tilde!r}, {spectral.ledger})")
    return bad


WORKLOADS = {w.name: w for w in (
    Workload("mult_zipf_large", _zipf_input(2**18), _multiplicative(2**18), _given_reference,
             _check_multiplicative),
    Workload("additive_zipf", _zipf_input(4096), _additive_call, _given_reference,
             _check_additive),
    Workload("vn_spectral", _vn_input, _multiplicative(VN_N), _matrix_reference,
             _check_multiplicative),
    Workload("oracle_dense", _oracle_input, _oracle_call, _matrix_reference, _check_oracle),
)}
