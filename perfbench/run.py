"""qentropy benchmark: one workload per process, timed end to end or traced.

    python3 perfbench/run.py                      # every workload, untraced then traced
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --workload the run prints human-readable lines and, as its last line, one
JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  Without it,
each workload runs in its own child process (ru_maxrss is a high-water mark),
untraced and then traced, and a summary table with the tracing overhead is
printed.  See README.md in this directory for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

START = time.perf_counter()  # setup_s counts the imports of numpy and qentropy from here

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
FINGERPRINT = HERE / "fingerprint.json"
WORKLOAD_NAMES = ("mult_zipf_large", "additive_zipf", "vn_spectral", "oracle_dense")
SETUPS = 3            # set-ups per untraced run; setup_s reports their median
CHILD_TIMEOUT_S = 600

E2E_UNITS = {
    "setup_s": "s",
    "estimate_s_p50": "s",
    "estimates_per_s": "1/s",
    "queries_per_estimate": "count",
    "rel_err": "ratio",
    "peak_rss_mb": "MB",
}
# Per-layer metrics the runner adds to the tracer's own (tracer.call_metrics).
RUN_LAYER_METRICS = ("bench.traced_call_p50_s", "logapprox.degree")
# Counts that must repeat exactly between calls and runs.
EXACT_COUNTS = ("queries_per_estimate", "logapprox.degree", "qsub.qsvt_terms",
                "qsub.qae_outcomes", "dists.eig_calls", "estimator.repetitions")


def layer_unit(name: str) -> str:
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; call before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def import_library() -> None:
    """Import qentropy from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import qentropy
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import qentropy from {SRC}: {exc}")
    if not Path(qentropy.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: qentropy was imported from {qentropy.__file__}, not {SRC}")


def environment(nproc: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {"nproc": nproc, "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def attempt(wl, inp, seed, quiet: bool = False):
    """One call of the workload, or None if it raised; the traceback goes to stderr unless quiet."""
    try:
        return wl.call(inp, seed)
    except Exception:
        if not quiet:
            traceback.print_exc(file=sys.stderr)
        return None


def fingerprint(out) -> dict:
    r = out.report
    return {"h_tilde": r.h_tilde, "ledger": dict(r.ledger),
            "deg_pos": r.deg_pos, "deg_neg": r.deg_neg}


def compare_recorded(name: str, seed: int, first: dict, counts: dict) -> list[str]:
    """Differences from the fingerprint and exact counts recorded in fingerprint.json."""
    if not FINGERPRINT.exists():
        return [f"{FINGERPRINT.name} missing"]
    recorded = json.loads(FINGERPRINT.read_text())
    want = recorded["workloads"].get(name)
    if want is None:
        return [f"no recorded fingerprint for {name}"]
    flags = [f"{k}: recorded {want['counts'][k]!r}, got {v!r}"
             for k, v in counts.items() if k in want["counts"] and want["counts"][k] != v]
    if seed == recorded["seed"]:
        flags += [f"{k}: recorded {want[k]!r}, got {v!r}"
                  for k, v in first.items() if want[k] != v]
    return flags


def set_up(wl, seed: int, count: int) -> tuple[list, list[float]]:
    """`count` set-ups, each a fresh input and one untimed warm-up call."""
    checked, times = [], []
    for j in range(count):
        t = time.perf_counter()
        inp = wl.make_input(seed, j)
        out = attempt(wl, inp, seed, quiet=None in [c[2] for c in checked])
        times.append(time.perf_counter() - t)
        checked.append((f"set-up {j}", inp, out))
    return checked, times


def timed_loop(wl, inp, seed: int, seconds: float, tracer):
    """Closed loop, one client: call i (estimator seed seed + i) starts when call i-1 returns."""
    durations, outcomes, roots = [], [], []
    t0 = time.perf_counter()
    while not durations or time.perf_counter() - t0 < seconds:
        seed_i = seed + len(durations)
        c0 = time.perf_counter()
        quiet = None in outcomes
        if tracer:
            roots.append(len(tracer.spans))
            with tracer.span("bench.call"):
                out = attempt(wl, inp, seed_i, quiet)
        else:
            out = attempt(wl, inp, seed_i, quiet)
        durations.append(time.perf_counter() - c0)
        outcomes.append(out)
    return durations, outcomes, roots, time.perf_counter() - t0


def check_outputs(wl, checked: list, warm, first) -> tuple[dict, dict]:
    """Failed checks by call label, and the reference entropy of each input by id."""
    references, failures = {}, {}
    for label, inp, out in checked:
        if out is None:
            failures[label] = ["raised (the first traceback of each phase is on stderr)"]
            continue
        if id(inp) not in references:
            references[id(inp)] = wl.reference(inp)
        bad = wl.check(inp, out, references[id(inp)])
        if bad:
            failures[label] = bad
    if warm is not None and first is not None and fingerprint(warm) != fingerprint(first):
        failures.setdefault("call 0", []).append(
            f"repeating the set-up 0 call (same input and seed) gave {fingerprint(first)}, "
            f"not {fingerprint(warm)}")
    return failures, references


def exact_count_flags(name: str, seed: int, per_call: list[dict], first) -> list[str]:
    exact = {k: per_call[0][k] for k in EXACT_COUNTS if per_call and k in per_call[0]}
    flags = [f"{k} differs between calls: {sorted({c[k] for c in per_call})}"
             for k in exact if len({c[k] for c in per_call}) > 1]
    if first is not None:
        print("fingerprint " + json.dumps({"workload": name, "seed": seed, **fingerprint(first),
                                           "counts": exact}))
        flags += compare_recorded(name, seed, fingerprint(first), exact)
    return flags


def run_workload(name: str, seed: int, seconds: float, trace: bool, nproc: int,
                 import_s: float) -> dict:
    from tracer import Span, Tracer, call_metrics, median_metrics
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    print(f"workload {name}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    print("environment " + json.dumps(environment(nproc)))

    checked, setup_times = set_up(wl, seed, 1 if trace else SETUPS)
    _, inp, warm = checked[0]
    tracer = Tracer() if trace else None
    with tracer.installed() if tracer else nullcontext():
        durations, outcomes, roots, timed_s = timed_loop(wl, inp, seed, seconds, tracer)
    if tracer and tracer.missing:
        print("not traced (name not found): " + ", ".join(tracer.missing))

    checked += [(f"call {i}", inp, out) for i, out in enumerate(outcomes)]
    failures, references = check_outputs(wl, checked, warm, outcomes[0])
    for label, bad in failures.items():
        print(f"FAILED {label}: " + "; ".join(bad))
    attempted, failed = len(checked), len(failures)

    per_call = []
    for i, o in enumerate(outcomes):
        if o is None:
            continue
        counts = {"queries_per_estimate": o.report.ledger["total_queries"],
                  "logapprox.degree": o.report.deg_pos + o.report.deg_neg}
        if tracer:
            counts.update(call_metrics(tracer.spans, roots[i]))
        per_call.append(counts)
    flags = exact_count_flags(name, seed, per_call, outcomes[0])
    print("exact counts: " + ("FLAG " + "; ".join(flags) if flags else
                              "identical across calls and equal to the recorded ones"))
    print(f"error_ratio = {failed / attempted:.4g} ({failed} failed of {attempted} attempted, "
          f"{len(setup_times)} set-up and {len(outcomes)} timed calls)")

    if trace:
        if per_call:
            layer = median_metrics(per_call)
        else:
            layer = dict.fromkeys([*call_metrics([Span("bench.call", None)], 0),
                                   *RUN_LAYER_METRICS], 0.0)
        layer.pop("queries_per_estimate", None)
        layer["bench.traced_call_p50_s"] = median(durations)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layer.items())}
    else:
        values = {
            "setup_s": import_s + median(setup_times),
            "estimate_s_p50": median(durations),
            "estimates_per_s": len(per_call) / timed_s,
            "queries_per_estimate": median(c["queries_per_estimate"] for c in per_call),
            # every call of the run, set-up calls included: more draws, steadier median
            "rel_err": median(abs(out.report.h_tilde / references[id(inp_c)] - 1.0)
                              for _, inp_c, out in checked if out is not None),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
        print(f"set-ups: import {import_s:.4f} s + median of "
              f"{[round(t, 4) for t in setup_times]} s")
        print(f"timed calls: {len(durations)} in {timed_s:.3f} s: "
              f"{[round(t, 4) for t in durations]} s")
    for k, m in metrics.items():
        print(f"  {k:34s} {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args) -> int:
    """Run every workload untraced and traced, each in its own process; print a summary."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            try:
                proc = subprocess.run(cmd, capture_output=True, text=True,
                                      timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                print(f"{name} trace {trace}: no result within {CHILD_TIMEOUT_S} s")
                status = 1
                continue
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                print(f"{name} trace {trace}: exited {proc.returncode} without a result")
                status = 1
                continue
            print("\n".join(lines[:-1]))
            results[name, trace] = json.loads(lines[-1])
    print("\nsummary (seed %d, %s s per run)" % (args.seed, args.seconds))
    for name in WORKLOAD_NAMES:
        print(f"{name}:")
        plain, traced = results.get((name, 0)), results.get((name, 1))
        for res in (plain, traced):
            if res is None:
                continue
            ratio = res["failed"] / res["attempted"]
            print(f"  error_ratio {ratio:.4g} ({res['failed']} of {res['attempted']} attempted), "
                  f"correct {res['correct']}")
            for k, m in res["metrics"].items():
                print(f"  {k:34s} {m['value']:.6g} {m['unit']}")
        if plain and traced:
            overhead = (traced["metrics"]["bench.traced_call_p50_s"]["value"]
                        - plain["metrics"]["estimate_s_p50"]["value"])
            print(f"  {'tracing overhead':34s} {overhead:.6g} s per call")
        if not (plain and traced and plain["correct"] and traced["correct"]):
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload in this process (default: all, in children)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload is None:
        return run_all(args)
    nproc = cap_blas_threads()
    import_library()
    import tracer, workloads  # noqa: F401,E401  (loaded here so import time counts them)
    import_s = time.perf_counter() - START
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), nproc,
                          import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
