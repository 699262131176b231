"""In-memory span tracer for the qentropy layer modules.

`Tracer.installed()` wraps the public functions of `dists`, `logapprox`,
`encodings`, `qsub` and `estimator` by rebinding each name wherever a qentropy
module looks it up (a class attribute for methods), and restores every name on
exit.  Each wrapped call records one span (name, parent, start, end) plus the
counts its boundary can see; self times and per-call layer metrics are derived
after the run.  Nothing in the library changes.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, attribute) pairs that are traced; "Class.method" names a method.
TARGETS = (
    ("dists", "DensityMatrix.__post_init__"),
    ("dists", "DensityMatrix.spectrum"),
    ("logapprox", "taylor_poly_pos"),
    ("logapprox", "taylor_poly_neg"),
    ("logapprox", "certify"),
    ("logapprox", "TaylorPolynomial.__call__"),
    ("encodings", "build_purified_oracle_classical"),
    ("encodings", "build_purified_oracle_quantum"),
    ("encodings", "projected_encoding_classical"),
    ("encodings", "projected_encoding_quantum"),
    ("encodings", "spectral_encoding_classical"),
    ("encodings", "spectral_encoding_quantum"),
    ("encodings", "verify_encoding"),
    ("encodings", "PurifiedOracle.unitarity_residual"),
    ("qsub", "qsve"),
    ("qsub", "qsvt_apply"),
    ("qsub", "qae"),
    ("qsub", "qae_outcome_distribution"),
    ("estimator", "derive_params"),
    ("estimator", "lightweight"),
    ("estimator", "heavy_entropy"),
    ("estimator", "estimate_entropy"),
    ("estimator", "estimate_additive"),
)

POLY_CALL = "logapprox.TaylorPolynomial.__call__"
QSVT = "qsub.qsvt_apply"
CERTIFY = "logapprox.certify"
HEAVY = "estimator.heavy_entropy"


def _poly_counts(args, result):
    points = int(getattr(args["x"], "size", 1))
    return {"points": points, "terms": args["self"].degree * points}


def _oracle_counts(args, result):
    return {"bytes": int(result.unitary.nbytes)}


# Counts recorded at a span's boundary from its bound arguments and result.
COUNTERS = {
    POLY_CALL: _poly_counts,
    "encodings.build_purified_oracle_classical": _oracle_counts,
    "encodings.build_purified_oracle_quantum": _oracle_counts,
    "qsub.qae_outcome_distribution": lambda args, result: {"outcomes": int(args["rounds"])},
    HEAVY: lambda args, result: {"heavy": int(result.heavy_flags.sum())},
}

# Per-layer time metrics: inclusive time of the outermost span of each group.
TIME_GROUPS = {
    "qsub.qsvt_s": ("qsub.qsvt_apply",),
    "qsub.qsve_s": ("qsub.qsve",),
    "qsub.qae_s": ("qsub.qae",),
    "qsub.qae_dist_s": ("qsub.qae_outcome_distribution",),
    "logapprox.build_s": ("logapprox.taylor_poly_pos", "logapprox.taylor_poly_neg"),
    "logapprox.certify_s": (CERTIFY,),
    "estimator.derive_s": ("estimator.derive_params",),
    "estimator.light_s": ("estimator.lightweight",),
    "estimator.heavy_s": (HEAVY,),
    "dists.eig_s": ("dists.DensityMatrix.__post_init__", "dists.DensityMatrix.spectrum"),
    "encodings.oracle_build_s": ("encodings.build_purified_oracle_classical",
                                 "encodings.build_purified_oracle_quantum"),
    "encodings.encode_s": ("encodings.projected_encoding_classical",
                           "encodings.projected_encoding_quantum",
                           "encodings.spectral_encoding_classical",
                           "encodings.spectral_encoding_quantum"),
    "encodings.verify_s": ("encodings.verify_encoding",),
    "encodings.residual_s": ("encodings.PurifiedOracle.unitarity_residual",),
}
GROUP_OF = {name: group for group, names in TIME_GROUPS.items() for name in names}

# Per-layer span counts.
CALL_COUNTS = {
    "qsub.qsvt_calls": QSVT,
    "qsub.qsve_calls": "qsub.qsve",
    "estimator.repetitions": "estimator.lightweight",
}
EIG_SPANS = TIME_GROUPS["dists.eig_s"]
TOP_LEVEL = ("estimator.estimate_entropy", "estimator.estimate_additive")


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; `installed()` puts the layer wrappers in place."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._open: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        s = Span(name, parent)
        self._open.append(len(self.spans))
        self.spans.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if counter is not None:
                s.counts.update(counter(sig.bind(*args, **kwargs).arguments, result))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind every traced name for the duration of the block."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
            yield self
        finally:
            for owner, attr, original in reversed(self._bindings):
                setattr(owner, attr, original)
            self._bindings.clear()

    def _install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "qentropy" or name.startswith("qentropy.")]
        for module_name, qualname in TARGETS:
            name = f"{module_name}.{qualname}"
            home = importlib.import_module(f"qentropy.{module_name}")
            cls_name, _, method = qualname.rpartition(".")
            if cls_name:
                cls = getattr(home, cls_name, None)
                original = vars(cls).get(method) if cls is not None else None
                if original is None:
                    self.missing.append(name)
                    continue
                self._bind(cls, method, original, self.wrap(name, original))
                continue
            original = getattr(home, qualname, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._bind(m, attr, original, wrapper)

    def _bind(self, owner, attr, original, wrapper):
        self._bindings.append((owner, attr, original))
        setattr(owner, attr, wrapper)


def children_of(spans: list[Span]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            kids[s.parent].append(i)
    return kids


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time its children cover (calls are sequential)."""
    kids = children_of(spans)
    return [s.duration - sum(spans[k].duration for k in kids[i])
            for i, s in enumerate(spans)]


def subtree(spans: list[Span], root: int) -> list[int]:
    kids = children_of(spans)
    out, todo = [], [root]
    while todo:
        i = todo.pop()
        out.append(i)
        todo.extend(kids[i])
    return sorted(out)


def call_metrics(spans: list[Span], root: int) -> dict[str, float]:
    """Per-layer metrics of the call traced under span `root`."""
    idx = subtree(spans, root)
    selfs = self_times(spans)
    m = {group: 0.0 for group in TIME_GROUPS}
    for i in idx:
        group = GROUP_OF.get(spans[i].name)
        if group is None:
            continue
        p = spans[i].parent
        while p is not None and GROUP_OF.get(spans[p].name) != group:
            p = spans[p].parent
        if p is None:
            m[group] += spans[i].duration
    for metric, name in CALL_COUNTS.items():
        m[metric] = sum(spans[i].name == name for i in idx)
    m["dists.eig_calls"] = sum(spans[i].name in EIG_SPANS for i in idx)
    m["qsub.qae_outcomes"] = sum(spans[i].counts.get("outcomes", 0) for i in idx)
    m["encodings.oracle_bytes"] = sum(spans[i].counts.get("bytes", 0) for i in idx)
    m["estimator.self_s"] = sum(selfs[i] for i in idx if spans[i].name in TOP_LEVEL)
    m["bench.call_self_s"] = selfs[root]

    poly = [i for i in idx if spans[i].name == POLY_CALL]
    parent_name = {i: spans[spans[i].parent].name if spans[i].parent is not None else ""
                   for i in poly}
    m["logapprox.poly_eval_s"] = sum(selfs[i] for i in poly)
    m["logapprox.poly_eval_s.qsvt"] = sum(selfs[i] for i in poly if parent_name[i] == QSVT)
    m["logapprox.poly_eval_s.certify"] = sum(selfs[i] for i in poly if parent_name[i] == CERTIFY)
    m["qsub.qsvt_terms"] = sum(spans[i].counts["terms"] for i in poly if parent_name[i] == QSVT)
    m["logapprox.cert_terms"] = sum(spans[i].counts["terms"] for i in poly
                                    if parent_name[i] == CERTIFY)
    evaluated = sum(spans[i].counts["points"] for i in poly if parent_name[i] == QSVT)
    useful = 0
    for i in idx:
        p = spans[i].parent
        if spans[i].name == QSVT and p is not None and spans[p].name == HEAVY:
            useful += spans[p].counts.get("heavy", 0)
    m["qsub.qsvt_useful_ratio"] = useful / evaluated if evaluated else 0.0
    return m


def median_metrics(per_call: list[dict[str, float]]) -> dict[str, float]:
    return {k: float(statistics.median(c[k] for c in per_call)) for k in per_call[0]}
