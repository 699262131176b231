import contextlib
import io
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qentropy import (
    DensityMatrix,
    Distribution,
    EstimatorParams,
    ValidationError,
    build_purified_oracle_classical,
    build_purified_oracle_quantum,
    classical_baseline,
    derive_params,
    estimate_entropy,
    high_entropy_distribution,
    lower_bound_demo,
    plan_estimate,
    query_ledger,
    query_scaling_sweep,
    random_distribution,
    shannon_entropy,
    spectral_encoding_quantum,
)
import qentropy.cli as cli_module
import qentropy.estimator as estimator_module
from qentropy.cli import main


def test_sweep_total_grows_with_n():
    # ledgers depend only on (n, gamma, eps, alpha), so a run on a Zipf input
    # reports what the sweep computes from the parameters alone
    for quantum in (False, True):
        res = query_scaling_sweep([2 ** k for k in range(6, 11)], 1.5, 0.1,
                                  quantum=quantum)
        vals = [r.queries for r in res.rows]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(r.within_bound for r in res.rows)
        for r in res.rows:
            src = Distribution.zipf(r.n)
            if quantum:
                src = spectral_encoding_quantum(src)
            rep = estimate_entropy(src, EstimatorParams(n=r.n, gamma=1.5, eps=0.1))
            assert r.queries == rep.ledger["total_queries"]
        # golden totals at n=64
        assert vals[0] == (6486444 if quantum else 783768)


def test_sweep_short_range_fields():
    res = query_scaling_sweep([2 ** k for k in range(6, 12)], 2.0, 0.1)
    assert res.target == pytest.approx(1.0 / 8.0)
    assert len(res.rows) == 6
    assert all(r.within_bound for r in res.rows)
    lines = res.to_csv().splitlines()
    assert lines[0] == "n,queries,bound,within_bound"
    assert lines[1].startswith("64,")
    assert lines[-1].startswith("passed,")


def test_sweep_quantum_target():
    res = query_scaling_sweep([2 ** k for k in range(6, 12)], 2.0, 0.1,
                              quantum=True)
    assert res.target == pytest.approx(0.5 + 1.0 / 8.0)


def _sources(n, quantum, rng):
    """Six kinds of input of size n on one access model.

    Classical access (alpha 1): four distributions, a density matrix's
    spectrum and a dense classical oracle.  Quantum access (alpha sqrt(n)):
    the quantum spectral encodings of the four distributions, a density
    matrix and a dense quantum oracle.
    """
    dists = [Distribution.uniform(n), Distribution.zipf(n), Distribution.point_mass(n, n // 2),
             Distribution.dirichlet(n, rng)]
    rho = DensityMatrix.random(n, rng)
    if quantum:
        return [*map(spectral_encoding_quantum, dists), rho, build_purified_oracle_quantum(rho)]
    return [*dists, rho.spectrum(), build_purified_oracle_classical(dists[3])]


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 128), gamma=st.floats(1.2, 3.0), eps=st.floats(0.05, 0.5),
       quantum=st.booleans(), repetitions=st.sampled_from([1, 3]), seed=st.integers(0, 2**16))
def test_ledger_is_the_closed_form_for_every_source_and_mode(n, gamma, eps, quantum,
                                                             repetitions, seed):
    params = EstimatorParams(n=n, gamma=gamma, eps=eps)
    want = query_ledger(derive_params(params, math.sqrt(n) if quantum else 1.0), repetitions)
    for source in _sources(n, quantum, np.random.default_rng(seed)):
        plan = plan_estimate(source, params)
        for mode in ("exact", "bound_only", "sampled"):
            assert plan.run(mode, seed, repetitions).ledger == want
    sweep = query_scaling_sweep([n, n + 1, n + 2], gamma, eps, quantum=quantum,
                                exclude_smallest=0)
    assert sweep.rows[0].queries * repetitions == want["total_queries"]


def test_sweep_builds_no_length_n_array():
    # n floats would take 128 MB at n = 2^24
    tracemalloc.start()
    try:
        res = query_scaling_sweep([2 ** k for k in range(6, 25)], 2.0, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.passed
    assert peak < 16 * 2**20


def test_classical_baseline_sane():
    p = Distribution.uniform(256)
    rep = classical_baseline(p, 2.0, seed=0)
    assert rep.samples == math.ceil(256 ** 0.25 * 8) == 32
    assert rep.h_true == 8.0
    assert 0.0 <= rep.h_hat <= 2.0 * 8.0 + 1.0


def test_lower_bound_demo_all_kinds():
    for kind in ("near_deterministic", "two_point_vs_spread", "collision"):
        demo = lower_bound_demo(kind, 64, 0.1 if kind != "collision" else 1.5)
        assert demo.passed, kind
    with pytest.raises(ValidationError):
        lower_bound_demo("nope", 64, 0.1)


def test_collision_demo_chain_ordering():
    demo = lower_bound_demo("collision", 64, 1.5)
    ch = demo.chain
    assert ch is not None
    vals = list(ch.values())
    assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))


def test_random_distribution_seeded():
    a = random_distribution(50, 3)
    b = random_distribution(50, 3)
    assert np.array_equal(a.probs, b.probs)


def test_high_entropy_distribution_hits_target():
    for n in (64, 1024):
        for seed in range(5):
            target = 0.9 * math.log2(n)
            d = high_entropy_distribution(n, target, seed)
            assert shannon_entropy(d) >= target - 1e-9
    # targets above the cap are clipped rather than rejected
    d = high_entropy_distribution(64, 100.0, 0)
    assert shannon_entropy(d) >= 0.98 * 6.0 - 1e-9


def run_cli(args):
    return main(args)


# numbers that sit outside most parameters' ranges, drawn next to valid ones
EDGE_NUMBERS = [0.0, -1.0, -0.5, 0.5, 1.0, 2.5, math.nan, math.inf, -math.inf]
SPEC_VALUES = st.one_of(st.integers(-5, 128), st.floats().map(repr),
                        st.sampled_from(["", "abc", "2.5", "-0", "1e999", "-1e999"]))


def _number(lo, hi):
    return st.one_of(st.floats(lo, hi), st.sampled_from(EDGE_NUMBERS)).map(repr)


@st.composite
def gen_specs(draw):
    """'name:key=val,...' with any generator (or none), keys and values."""
    name = draw(st.sampled_from(sorted(cli_module.GEN_KEYS) + ["nosuch"]))
    keys = sorted(cli_module.GEN_KEYS.get(name, {"n"}))
    picked = draw(st.lists(st.sampled_from(keys), unique=True, max_size=3))
    return name + "".join((":" if k == 0 else ",") + f"{key}={draw(SPEC_VALUES)}"
                          for k, key in enumerate(picked))


@example(spec="uniform:n=1", task="additive", gamma="2.0", eps="0.1", eps_add="0.5",
         seeds=1, trials=None, mode="ideal")  # eps_add / log2(1) raised ZeroDivisionError
@example(spec="uniform:n=64", task="additive", gamma="2.0", eps="0.1", eps_add="1e+300",
         seeds=1, trials=None, mode="ideal")  # named a gamma the command does not take
@example(spec="uniform:n=64", task="threshold", gamma="6.0", eps="nan", eps_add="0.5",
         seeds=1, trials=None, mode="ideal")
@example(spec="uniform:n=64", task="threshold", gamma="inf", eps="0.1", eps_add="0.5",
         seeds=1, trials=None, mode="ideal")
@settings(max_examples=50, deadline=None)
@given(spec=gen_specs(), task=st.sampled_from(["estimate", "additive", "threshold"]),
       gamma=_number(1.01, 6.0), eps=_number(0.01, 0.99), eps_add=_number(0.25, 4.0),
       seeds=st.integers(-2, 2), trials=st.one_of(st.none(), st.integers(-1, 2)),
       mode=st.sampled_from(["ideal", "bound", "sampled"]))
def test_cli_input_errors_exit_2(spec, task, gamma, eps, eps_add, seeds, trials, mode):
    # every run either succeeds or rejects its input with exit code 2; any other
    # exception is a traceback the boundary checks let through
    argv = [task, "--gen", spec, "--mode", mode, f"--seeds={seeds}", "--out", os.devnull]
    # --name=value, since argparse reads a lone "-inf" as an unknown flag; threshold
    # takes `gamma` as its --high, against --low 1
    argv += {"estimate": [f"--gamma={gamma}", f"--eps={eps}"],
             "additive": [f"--eps-add={eps_add}"],
             "threshold": [f"--high={gamma}", "--low=1", f"--eps={eps}"]}[task]
    if trials is not None:
        argv += [f"--trials={trials}"]
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            assert run_cli(argv) in (0, 2)
    except SystemExit as exc:
        assert exc.code == 2
    if task != "estimate":  # the gamma of these commands is derived, so no error names it alone
        assert "error: gamma must exceed 1" not in err.getvalue()


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_cli_estimate_jsonl(tmp_path, capsys):
    out = tmp_path / "trials.jsonl"
    code = run_cli(["estimate", "--gen", "uniform:n=64", "--gamma", "2.0",
                    "--seeds", "3", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    rec = json.loads(lines[0])
    assert rec["n"] == 64
    assert list(rec.keys()) == sorted(rec.keys())
    # every JSONL subcommand writes strict JSON: the near-deterministic pair has
    # H(q) = 0, and its entropy ratio was once written as Infinity
    for argv in (["estimate", "--gen", "uniform:n=64", "--gamma", "2.0", "--eta", "0.4"],
                 ["additive", "--gen", "uniform:n=64", "--eps-add", "0.5"],
                 ["threshold", "--gen", "uniform:n=256", "--high", "6", "--low", "3"],
                 ["baseline", "--gen", "zipf:n=128", "--gamma", "2.0"],
                 *(["lowerbound", "--kind", kind, "--n", "64", "--param", param]
                   for kind, param in (("collision", "1.5"), ("two_point_vs_spread", "0.1"),
                                       ("near_deterministic", "0.1")))):
        assert run_cli([*argv, "--out", str(out)]) == 0, argv
        for line in out.read_text().splitlines():
            json.loads(line, parse_constant=_reject_constant)
    assert json.loads(out.read_text())["entropy_ratio"] is None


def test_cli_estimate_check_pass_and_fail(tmp_path):
    assert run_cli(["estimate", "--gen", "uniform:n=64", "--gamma", "2.0",
                    "--check", "--out", str(tmp_path / "a.jsonl")]) == 0


def test_cli_invalid_args_exit_2(tmp_path, capsys):
    assert run_cli(["estimate", "--gen", "uniform:n=64", "--gamma", "0.5",
                    "--out", str(tmp_path / "x.jsonl")]) == 2
    for gen in ("nosuch:n=64", "zipf:n=", "zipf:n=64,bogus=3"):
        assert run_cli(["estimate", "--gen", gen, "--gamma", "2.0",
                        "--out", str(tmp_path / "y.jsonl")]) == 2
    (tmp_path / "bad.json").write_text('{"probs": [0.5,')
    (tmp_path / "scalar.json").write_text("5")
    (tmp_path / "no_n.json").write_text('{"probs": [0.5, 0.5]}')
    for name in ("missing.json", "bad.json", "scalar.json", "no_n.json"):
        assert run_cli(["estimate", "--input", str(tmp_path / name),
                        "--gamma", "2.0"]) == 2
    assert run_cli(["sweep", "--n-list", "64,abc", "--gamma", "2.0"]) == 2
    assert "'bogus'" in capsys.readouterr().err
    # malformed record fields (re and im of different shapes, ragged rows,
    # non-numeric entries) are refused by the name of the field
    records = {
        "shapes.json": ('{"n": 2, "re": [[0.5, 0], [0, 0.5]], "im": [[0, 0, 0]]}', "'im'"),
        "ragged_re.json": ('{"n": 2, "re": [[0.5, 0], [0]], "im": [[0, 0], [0, 0]]}', "'re'"),
        "text_re.json": ('{"n": 2, "re": [[0.5, "x"], [0, 0.5]], "im": [[0, 0], [0, 0]]}',
                         "'re'"),
        "ragged_im.json": ('{"n": 2, "re": [[0.5, 0], [0, 0.5]], "im": [[0, 0], 0]}', "'im'"),
        "text_probs.json": ('{"n": 2, "probs": [0.5, "x"]}', "'probs'"),
        "ragged_probs.json": ('{"n": 2, "probs": [0.5, [0.5]]}', "'probs'"),
        "text_n.json": ('{"n": "two", "probs": [0.5, 0.5]}', "'n'"),
    }
    for name, (text, field) in records.items():
        (tmp_path / name).write_text(text)
        assert run_cli(["estimate", "--input", str(tmp_path / name), "--gamma", "2.0"]) == 2, name
        assert field in capsys.readouterr().err, name
    # there is one SVE model, so no command offers a statevector mode
    for task, flags in (("estimate", ["--gamma", "1.5"]),
                        ("additive", ["--eps-add", "0.5"]),
                        ("threshold", ["--high", "6", "--low", "3"])):
        with pytest.raises(SystemExit) as excinfo:
            run_cli([task, "--gen", "uniform:n=64", *flags, "--mode", "statevector"])
        assert excinfo.value.code == 2
    # bad numbers are rejected at the boundary by the name of the parameter
    for argv, name in (
            (["estimate", "--gen", "uniform:n=0", "--gamma", "2"], "'n'"),
            (["estimate", "--gen", "uniform:n=-3", "--gamma", "2"], "'n'"),
            (["estimate", "--gen", "point:n=4,i=9", "--gamma", "2"], "i=9"),
            (["estimate", "--gen", "point:n=4,i=-1", "--gamma", "2"], "'i'"),
            (["estimate", "--gen", "dirichlet:n=64,seed=-1", "--gamma", "2"], "'seed'"),
            (["estimate", "--gen", "uniform:n=64", "--gamma", "2", "--seeds", "-1",
              "--trials", "2"], "--seeds"),
            (["estimate", "--gen", "uniform:n=64", "--gamma", "2", "--seeds", "-1"], "--seeds"),
            (["estimate", "--gen", "uniform:n=64", "--gamma", "nan"], "gamma"),
            (["estimate", "--gen", "uniform:n=64", "--gamma", "inf"], "gamma"),
            (["baseline", "--gen", "uniform:n=64", "--gamma", "nan"], "gamma"),
            # a gamma whose square overflows a float
            (["estimate", "--gen", "uniform:n=64", "--gamma", "1e200"], "gamma"),
            (["baseline", "--gen", "uniform:n=64", "--gamma", "1e200"], "gamma"),
            (["lowerbound", "--kind", "collision", "--n", "64", "--param", "1e200"], "gamma"),
            # a finite square, but a budget eps2 no polynomial can meet
            (["estimate", "--gen", "uniform:n=64", "--gamma", "1e100"], "gamma = 1e+100"),
            # a sweep builds no input, so a size past certification is refused at
            # once (2^37 is the first at gamma = 1.5) and a size past the float range too
            (["sweep", "--n-list", "64,128,256,512,1099511627776", "--gamma", "1.5"],
             "at n = 1099511627776, the degree-27214 polynomial"),
            (["sweep", "--n-list", "64,128,256,512,137438953472", "--gamma", "1.5"],
             "certified to 9.88e-15, 1.024x its budget"),
            (["sweep", "--n-list", f"64,128,256,512,{2**1024}", "--gamma", "2"],
             "at most the largest float"),
            (["baseline", "--gen", "uniform:n=64", "--gamma", "2", "--eta-sample", "nan"],
             "eta"),
            # s = n^((1+eta)/gamma^2) log2(n) overflowed a float at eta = 1000 and
            # asked for about 2e10 samples at eta = 20; more than 2^26 is refused
            (["baseline", "--gen", "uniform:n=64", "--gamma", "2", "--eta-sample", "1000"],
             "eta = 1000.0 and gamma = 2.0"),
            (["baseline", "--gen", "uniform:n=64", "--gamma", "2", "--eta-sample", "20"],
             "eta = 20.0 and gamma = 2.0"),
            (["estimate", "--gen", "uniform:n=256", "--gamma", "2", "--eps", "0.3",
              "--eta", "0.8"], "eps = 0.3, eta = 0.8"),
            (["lowerbound", "--kind", "collision", "--n", "64", "--param", "nan"], "gamma"),
            (["additive", "--gen", "uniform:n=64", "--eps-add", "nan"], "eps_add"),
            # additive and threshold derive gamma from what they are given, and name
            # that: these four once named "gamma = nan", "gamma = inf", a gamma near
            # 1.7e299 and "gamma = 1.0", and --eps -0.5 divided by zero
            (["additive", "--gen", "uniform:n=64", "--eps-add", "1e300"], "eps_add = 1e+300"),
            (["additive", "--gen", "uniform:n=64", "--eps-add", "1e-300"], "eps_add = 1e-300"),
            (["threshold", "--gen", "uniform:n=64", "--high", "6", "--low", "3", "--eps", "nan"],
             "eps = nan"),
            (["threshold", "--gen", "uniform:n=64", "--high", "inf", "--low", "3"],
             "h_high = inf"),
            (["threshold", "--gen", "uniform:n=64", "--high", "6", "--low", "3", "--eps", "-0.5"],
             "eps = -0.5"),
            # a gap or a precision that cannot be planned at this n is refused by the
            # values given: these once named only "gamma=8.333333333333334" and
            # "the degree-4018 polynomial"
            (["threshold", "--gen", "uniform:n=4", "--high", "100", "--low", "1"],
             "h_high = 100.0 and h_low = 1.0 at eps = 0.1"),
            (["additive", "--gen", "uniform:n=64", "--eps-add", "1e-12"], "eps_add = 1e-12 at n = 64"),
            (["sweep", "--n-list", "64,128,256", "--gamma", "2", "--exclude-smallest", "-2"],
             "exclude_smallest")):
        assert run_cli([*argv, "--out", str(tmp_path / "w.out")]) == 2, argv
        assert name in capsys.readouterr().err, argv


def test_cli_input_file_round_trip(tmp_path):
    d = Distribution.zipf(32)
    inp = tmp_path / "d.json"
    inp.write_text(d.to_json())
    out = tmp_path / "o.jsonl"
    assert run_cli(["estimate", "--input", str(inp), "--gamma", "1.5",
                    "--out", str(out)]) == 0
    rec = json.loads(out.read_text().splitlines()[0])
    assert abs(rec["h_true"] - shannon_entropy(d)) < 1e-9


def test_cli_additive_and_threshold(tmp_path):
    assert run_cli(["additive", "--gen", "uniform:n=64", "--eps-add", "0.5",
                    "--out", str(tmp_path / "a.jsonl"), "--check"]) == 0
    t_out = tmp_path / "t.jsonl"
    assert run_cli(["threshold", "--gen", "uniform:n=256", "--high", "6",
                    "--low", "3", "--out", str(t_out)]) == 0
    rec = json.loads(t_out.read_text().splitlines()[0])
    assert rec["high"] is True
    # --check: H = 6 <= low decided low passes; H = 8 = high decided high
    # passes; H inside the gap checks nothing; a gap within the (1+2 eps)
    # slack is invalid input
    for gen, high, low, code in (("uniform:n=64", "100", "50", 0),
                                 ("uniform:n=256", "8", "2", 0),
                                 ("uniform:n=256", "9", "5", 0),
                                 ("uniform:n=256", "9", "7", 2)):
        assert run_cli(["threshold", "--gen", gen, "--high", high, "--low", low,
                        "--check", "--out", str(t_out)]) == code


def test_cli_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    ns = ",".join(str(2 ** k) for k in range(6, 12))
    code = run_cli(["sweep", "--gamma", "2.0", "--n-list", ns,
                    "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,queries,bound,within_bound"
    assert lines[1].startswith("64,")


def test_cli_lowerbound_and_baseline(tmp_path):
    assert run_cli(["lowerbound", "--kind", "collision", "--n", "64",
                    "--param", "1.5", "--out", str(tmp_path / "lb.jsonl"),
                    "--check"]) == 0
    assert run_cli(["baseline", "--gen", "zipf:n=128", "--gamma", "2.0",
                    "--out", str(tmp_path / "b.jsonl")]) == 0
    # --check: h_hat must lie in [H/gamma, gamma*H]; five samples of a Zipf
    # n=16 give h_hat = 1.24 bits against H/gamma = 1.70
    for gen, eta, code in (("zipf:n=256", "3", 0), ("zipf:n=16", "-0.9", 3)):
        assert run_cli(["baseline", "--gen", gen, "--gamma", "2.0", "--eta-sample", eta,
                        "--check", "--out", str(tmp_path / "b.jsonl")]) == code


@pytest.mark.parametrize("gen, gamma", [("uniform:n=256", "2"), ("zipf:n=128", "2"),
                                        ("dirichlet:n=256", "2"), ("uniform:n=1024", "1.5"),
                                        ("uniform:n=64", "2")])
def test_cli_baseline_meets_check_at_eta_zero(gen, gamma, tmp_path):
    # with s = n^(1/gamma^2) samples, not n^(1/gamma^2) log2(n), every sampled
    # label was heavy and h_hat <= log2(n)/gamma^2 < H/gamma: the first four
    # exited 3. At n=64 all 17 samples are light, and summing the float
    # frequencies booked 2.9999999999999996 < H/gamma = 3
    assert run_cli(["baseline", "--gen", gen, "--gamma", gamma, "--check",
                    "--out", str(tmp_path / "b.jsonl")]) == 0


def test_cli_reads_input_file_once(tmp_path, monkeypatch):
    path = tmp_path / "rho.json"
    path.write_text(DensityMatrix.random(8, np.random.default_rng(0)).to_json())
    calls = []
    load_input = cli_module.load_input

    def counting(p):
        calls.append(p)
        return load_input(p)

    monkeypatch.setattr(cli_module, "load_input", counting)
    out = tmp_path / "o.jsonl"
    assert run_cli(["estimate", "--input", str(path), "--gamma", "1.5", "--seeds", "3",
                    "--out", str(out)]) == 0
    assert calls == [str(path)]
    assert [json.loads(line)["seed"] for line in out.read_text().splitlines()] == [0, 1, 2]

    # each source is resolved, derived and planned once per run, unless the
    # generator reads the seed: dirichlet without seed= is a new input at each seed
    derived = []
    derive_params = estimator_module.derive_params

    def counting_derive(*args, **kwargs):
        derived.append(args)
        return derive_params(*args, **kwargs)

    monkeypatch.setattr(estimator_module, "derive_params", counting_derive)
    flags = {"estimate": ["--gamma", "1.5"], "additive": ["--eps-add", "0.5"],
             "threshold": ["--high", "3", "--low", "1"]}
    sources = ((["--input", str(path)], 1), (["--gen", "zipf:n=256"], 1),
               (["--gen", "dirichlet:n=64"], 4), (["--gen", "dirichlet:n=64,seed=2"], 1))
    for task, task_flags in flags.items():
        for source, plans in sources:
            argv = [task, *source, *task_flags, "--mode", "sampled", "--repetitions", "3",
                    "--out", str(out)]
            derived.clear()
            assert run_cli([*argv, "--seeds", "4"]) == 0
            assert len(derived) == plans, (task, source)
            records = out.read_text().splitlines()
            # the same records as one run per seed
            for seed in range(4):
                assert run_cli([*argv, "--seeds", str(seed), "--trials", "1"]) == 0
                assert out.read_text().splitlines() == [records[seed]], (task, source, seed)


def test_cli_config_file(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("gamma = 2.0\nseeds = 2\n")
    out = tmp_path / "o.jsonl"
    assert run_cli(["estimate", "--gen", "uniform:n=64", "--config",
                    str(cfg), "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) == 2
    # a config given before the subcommand still applies
    assert run_cli(["--config", str(cfg), "estimate", "--gen", "uniform:n=64",
                    "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) == 2
    # a flag given as --name=value beats the config file
    cfg.write_text("gamma = 3.0\n")
    assert run_cli(["estimate", "--gen", "uniform:n=64", "--gamma=2",
                    "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads(out.read_text().splitlines()[0])["gamma"] == 2.0
    # so does an abbreviated flag
    assert run_cli(["estimate", "--gen", "uniform:n=64", "--gam", "2",
                    "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads(out.read_text().splitlines()[0])["gamma"] == 2.0
    # a bare key reads as `key = true`: a bare flag
    cfg.write_text("gamma = 2.0\ncheck\n")
    assert run_cli(["estimate", "--gen", "uniform:n=64", "--config", str(cfg),
                    "--out", str(out)]) == 0
    # config values are checked like flags; a key that names no flag is rejected
    for line in ("mode = bogus", "gamma = abc", "seeds = 2.5", "bogus = 1", "bogus"):
        cfg.write_text("gamma = 2.0\n" + line + "\n")
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["estimate", "--gen", "uniform:n=64", "--config", str(cfg),
                     "--out", str(out)])
        assert excinfo.value.code == 2
