"""Command-line benchmark front end.

Subcommands: estimate, additive, threshold, sweep, lowerbound, baseline.
Trial results are written one JSON record per line; sweeps are written as
CSV.  Exit codes: 0 success, 2 invalid input, 3 a requested check failed.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from .dists import DensityMatrix, Distribution, ValidationError
from .bench import (
    FIT_EXCLUDE_SMALLEST,
    classical_baseline,
    high_entropy_distribution,
    lower_bound_demo,
    query_scaling_sweep,
    random_distribution,
)
from .estimator import (
    EstimatorParams,
    ThresholdReport,
    plan_additive,
    plan_estimate,
    plan_threshold,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CHECK_FAILED = 3

MODE_MAP = {"ideal": "exact", "bound": "bound_only", "sampled": "sampled"}  # CLI name -> QAE mode

GEN_KEYS = {  # generator name -> the spec keys it reads
    "uniform": {"n"},
    "point": {"n", "i"},
    "zipf": {"n", "s"},
    "dirichlet": {"n", "seed"},
    "highent": {"n", "target", "seed"},
}


def config_flags(path: str) -> list[str]:
    """A flat `key = value` file as flags; `true` gives a bare flag, `false` none.

    A line holding only `key` reads as `key = true`.
    """
    flags = []
    with open(path) as fh:
        for line in fh:
            key, sep, val = (tok.strip() for tok in line.partition("="))
            if not key or key.startswith("#"):
                continue
            try:
                val = json.loads(val if sep else "true")
            except json.JSONDecodeError:
                pass
            if val is not False:
                flags += ["--" + key.replace("_", "-")] + ([] if val is True else [str(val)])
    return flags


def _gen_spec(spec: str) -> tuple[str, dict]:
    """Generator spec 'name:key=val,...' -> (name, {key: number}), every key checked."""
    name, _, rest = spec.partition(":")
    if name not in GEN_KEYS:
        raise ValidationError(f"unknown generator {name!r}")
    kw = {}
    if rest:
        for part in rest.split(","):
            k, _, v = part.partition("=")
            k = k.strip()
            if k not in GEN_KEYS[name]:
                raise ValidationError(f"generator {name!r} has no key {k!r}")
            try:
                kw[k] = float(v) if "." in v or "e" in v.lower() else int(v)
            except ValueError:
                raise ValidationError(f"generator key {k!r} needs a number, got {v!r}") from None
            if k in ("n", "i", "seed"):
                low = 1 if k == "n" else 0
                if not (isinstance(kw[k], int) and kw[k] >= low):
                    raise ValidationError(f"generator key {k!r} needs an integer >= {low}, "
                                          f"got {v!r}")
            elif not math.isfinite(kw[k]):
                raise ValidationError(f"generator key {k!r} needs a finite number, got {v!r}")
    return name, kw


def parse_gen(spec: str, seed: int = 0):
    """Generator spec 'name:key=val,...' -> Distribution.

    Names: uniform, point, zipf, dirichlet, highent.
    """
    name, kw = _gen_spec(spec)
    n = int(kw.get("n", 64))
    if name == "uniform":
        return Distribution.uniform(n)
    if name == "point":
        return Distribution.point_mass(n, int(kw.get("i", 0)))
    if name == "zipf":
        return Distribution.zipf(n, float(kw.get("s", 1.0)))
    if name == "dirichlet":
        return random_distribution(n, int(kw.get("seed", seed)))
    return high_entropy_distribution(n, float(kw.get("target", 0.9 * math.log2(n))),
                                     int(kw.get("seed", seed)))


def load_input(path: str):
    with open(path) as fh:
        try:
            rec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(rec, dict):
        raise ValidationError(f"{path} must hold a JSON object, not {type(rec).__name__}")
    try:
        if "probs" in rec:
            return Distribution.from_record(rec)
        if "re" in rec:
            return DensityMatrix.from_record(rec)
    except KeyError as exc:
        raise ValidationError(f"{path} lacks the field {exc}") from None
    raise ValidationError("input file is neither a distribution nor a density matrix")


def _plans(args, plan, seeds):
    """plan(source) for each seed.  An --input file, or a --gen spec that does not
    read the seed, is read, validated and planned once per run; dirichlet and
    highent without seed= build a new input, and so a new plan, at each seed."""
    if args.input:
        return [plan(load_input(args.input))] * len(seeds)
    if not args.gen:
        raise ValidationError("provide --input or --gen")
    name, kw = _gen_spec(args.gen)
    if "seed" in GEN_KEYS[name] and "seed" not in kw:
        return (plan(parse_gen(args.gen, seed)) for seed in seeds)
    return [plan(parse_gen(args.gen))] * len(seeds)


def _write(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(records, out_path):
    _write("\n".join(json.dumps(r, sort_keys=True, allow_nan=False) for r in records) + "\n",
           out_path)


def _exit_code(args, ok: bool) -> int:
    return EXIT_OK if (ok or not args.check) else EXIT_CHECK_FAILED


def _trials(args, plan, trial) -> int:
    """Run trial(plan(source), seed) -> (record, ok) at each seed and write the records."""
    first, count = (0, args.seeds) if args.trials is None else (args.seeds, args.trials)
    if first < 0:
        raise ValidationError(f"the base seed --seeds must be >= 0, got {first}")
    if count < 1:
        raise ValidationError(f"--{'seeds' if args.trials is None else 'trials'} "
                              f"must be >= 1, got {count}")
    seeds = range(first, first + count)
    results = [trial(p, seed) for p, seed in zip(_plans(args, plan, seeds), seeds)]
    _emit([rec for rec, _ in results], args.out)
    return _exit_code(args, all(ok for _, ok in results))


def cmd_estimate(args) -> int:
    mode = MODE_MAP[args.mode]

    def trial(plan, seed):
        rep = plan.run(mode, seed, args.repetitions)
        return rep.to_record(), rep.within_guarantee
    return _trials(args, lambda src: plan_estimate(src, EstimatorParams(
        n=src.n, gamma=args.gamma, eps=args.eps, eta=args.eta)), trial)


def cmd_additive(args) -> int:
    mode = MODE_MAP[args.mode]

    def trial(plan, seed):
        rep = plan.run(mode, seed, args.repetitions)
        rec = rep.to_record()
        rec["eps_add"] = args.eps_add
        rec["additive_error"] = abs(rep.h_tilde - rep.h_true)
        return rec, rec["additive_error"] <= args.eps_add
    return _trials(args, lambda src: plan_additive(src, args.eps_add), trial)


def cmd_threshold(args) -> int:
    mode = MODE_MAP[args.mode]

    def trial(plan, seed):
        rep = ThresholdReport.decide(plan.run(mode, seed, args.repetitions), args.high, args.low)
        rec = {"high": rep.high, "h_tilde": rep.h_tilde, "gamma": rep.gamma,
               "cut": rep.cut, "seed": seed, "n": rep.estimate.n}
        # nothing to check when H lies strictly inside the gap (low, high)
        h = rep.estimate.h_true
        return rec, not ((h >= args.high and not rep.high) or (h <= args.low and rep.high))
    return _trials(args, lambda src: plan_threshold(src, args.high, args.low, args.eps), trial)


def cmd_sweep(args) -> int:
    try:
        ns = [int(x) for x in args.n_list.split(",")]
    except ValueError:
        raise ValidationError(f"--n-list needs comma-separated integers, got {args.n_list!r}") from None
    res = query_scaling_sweep(ns, args.gamma, args.eps, quantum=args.quantum,
                              exclude_smallest=args.exclude_smallest)
    _write(res.to_csv(), args.out)
    return _exit_code(args, res.passed)


def cmd_lowerbound(args) -> int:
    demo = lower_bound_demo(args.kind, args.n, args.param)
    rec = {"kind": demo.kind, "n": demo.n, "param": demo.param,
           "passed": demo.passed, **demo.report}
    if demo.chain:
        rec["chain"] = demo.chain
    _emit([rec], args.out)
    return _exit_code(args, demo.passed)


def cmd_baseline(args) -> int:
    def trial(src, seed):
        if not isinstance(src, Distribution):
            raise ValidationError("baseline runs on distributions only")
        rep = classical_baseline(src, args.gamma, eta=args.eta_sample, seed=seed)
        return rep.to_record(), rep.h_true / args.gamma <= rep.h_hat <= args.gamma * rep.h_true
    return _trials(args, lambda src: src, trial)


# Finds --config on either side of the subcommand; also the main parser's parent.
CONFIG = argparse.ArgumentParser(prog="qentropy-bench", add_help=False)
CONFIG.add_argument("--config", help="flat key = value file whose entries are read as "
                    "flags placed before the command line's own")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qentropy-bench", parents=[CONFIG],
                                 description="entropy-estimation benchmarks")
    sub = ap.add_subparsers(dest="task", required=True)

    def subcommand(name, help, func):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--check", action="store_true",
                       help="exit 3 if a guarantee/check fails")
        return p

    def trials(p, mode=True):
        p.add_argument("--input", help="JSON distribution or density matrix")
        p.add_argument("--gen", help="generator spec, e.g. dirichlet:n=64,seed=3")
        p.add_argument("--seeds", type=int, default=1,
                       help="number of seeds (0..k-1), or base seed with --trials")
        p.add_argument("--trials", type=int, default=None,
                       help="run this many trials at seeds base..base+t-1")
        p.add_argument("--repetitions", type=int, default=1,
                       help="odd median-boosting count")
        if mode:
            p.add_argument("--mode", choices=sorted(MODE_MAP), default="ideal")

    p = subcommand("estimate", "multiplicative entropy estimate", cmd_estimate)
    trials(p)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--eps", type=float, default=None, help="guarantee slack (default 0.1)")
    p.add_argument("--eta", type=float, default=None, help="promise slack; sets eps = eta/8")

    p = subcommand("additive", "additive-error estimate", cmd_additive)
    trials(p)
    p.add_argument("--eps-add", dest="eps_add", type=float, required=True)

    p = subcommand("threshold", "entropy threshold test", cmd_threshold)
    trials(p)
    p.add_argument("--high", type=float, required=True)
    p.add_argument("--low", type=float, required=True)
    p.add_argument("--eps", type=float, default=0.1)

    p = subcommand("sweep", "query-scaling sweep over the estimator's ledger", cmd_sweep)
    p.add_argument("--n-list", dest="n_list", required=True,
                   help="comma-separated sizes, e.g. 64,128,...,16384")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--quantum", action="store_true",
                   help="quantum diagonal inputs (alpha = sqrt(n))")
    p.add_argument("--exclude-smallest", type=int, default=FIT_EXCLUDE_SMALLEST)

    p = subcommand("lowerbound", "hard-instance separation demo", cmd_lowerbound)
    p.add_argument("--kind", required=True,
                   choices=["near_deterministic", "two_point_vs_spread", "collision"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--param", type=float, required=True,
                   help="eps for the first two kinds, gamma for collision")

    p = subcommand("baseline", "classical sampling baseline", cmd_baseline)
    trials(p, mode=False)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--eta-sample", dest="eta_sample", type=float, default=0.0,
                   help="sampling exponent boost in s = n^((1+eta)/gamma^2) log2(n)")

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        pre, argv = CONFIG.parse_known_args(sys.argv[1:] if argv is None else argv)
        if pre.config:
            # the top-level parser has no flag but --config, so the first bare
            # token is the subcommand; the command line's flags follow the config's
            task = next((k for k, tok in enumerate(argv) if not tok.startswith("-")), len(argv))
            argv[task + 1:task + 1] = config_flags(pre.config)
        args = ap.parse_args(argv)
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
