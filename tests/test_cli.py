import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import langopt
from langopt import SolverConfig, solve_batch
from langopt.cli import main
from langopt.problems import get_problem

FAST = ["--iters", "50", "--stride", "25"]


def run_args(tmp_path, *extra):
    out = tmp_path / "out"
    return ["run", "--problem", "toy_kkt", "--out", str(out), *FAST, *extra], out


class TestRun:
    def test_writes_outputs(self, tmp_path):
        args, out = run_args(tmp_path)
        assert main(args) == 0
        trace = (out / "trace_0.csv").read_text().splitlines()
        assert trace[0] == "iter,cost,hsq,energy,sigma"
        assert len(trace) == 51
        snaps = (out / "snapshots_0.csv").read_text().splitlines()
        assert len(snaps) == 3  # header + iters 0, 25
        summary = json.loads((out / "summary.json").read_text())
        assert summary["problem"] == "toy_kkt"
        assert len(summary["chains"]) == 1
        assert summary["chains"][0]["success"] is True

    def test_batch_files(self, tmp_path):
        args, out = run_args(tmp_path, "--batch", "3")
        assert main(args) == 0
        for i in range(3):
            assert (out / f"trace_{i}.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["batch"] == 3

    def test_record_rebuilds_a_chain(self, tmp_path):
        # chain 2 of a batch, rebuilt as a one-chain solve from its summary.json record alone
        args, out = run_args(tmp_path, "--batch", "3", "--iters", "200")
        assert main(args) == 0
        chains = json.loads((out / "summary.json").read_text())["chains"]
        assert [c["config"]["seed"] for c in chains] == [c["guess_seed"] for c in chains] == [0, 1, 2]
        rec = chains[2]
        bundle = get_problem("toy_kkt")
        (sol,) = solve_batch(bundle.nlp, bundle.guesses(1, rec["guess_seed"]), SolverConfig(**rec["config"]))
        for name, write in (("trace", sol.trace.to_csv), ("snapshots", sol.trace.snapshots_to_csv)):
            buf = io.StringIO()
            write(buf)
            assert (out / f"{name}_2.csv").read_bytes() == buf.getvalue().encode()

    def test_rerun_byte_identical(self, tmp_path):
        args1, out1 = run_args(tmp_path, "--seed", "5")
        main(args1)
        out2 = tmp_path / "out2"
        args2 = ["run", "--problem", "toy_kkt", "--out", str(out2), *FAST, "--seed", "5"]
        main(args2)
        assert (out1 / "trace_0.csv").read_bytes() == (out2 / "trace_0.csv").read_bytes()
        assert (out1 / "snapshots_0.csv").read_bytes() == (out2 / "snapshots_0.csv").read_bytes()

    def test_gd_and_bfgs_solvers(self, tmp_path):
        for solver in ("gd", "bfgs"):
            args, out = run_args(tmp_path, "--solver", solver)
            assert main(args) == 0
            summary = json.loads((out / "summary.json").read_text())
            assert summary["solver"] == solver

    def test_gd_chain_failure_exits_2_with_outputs(self, tmp_path):
        out = tmp_path / "gd"
        argv = ["run", "--problem", "toy_kkt", "--solver", "gd", "--alpha", "1e6",
                "--iters", "50", "--batch", "2", "--out", str(out)]
        assert main(argv) == 2
        for i in range(2):
            assert (out / f"trace_{i}.csv").exists()
            assert (out / f"snapshots_{i}.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert [c["success"] for c in summary["chains"]] == [False, False]

    def test_unknown_problem(self, tmp_path, capsys):
        assert main(["run", "--problem", "nope", "--out", str(tmp_path / "o")]) == 1
        assert "unknown problem" in capsys.readouterr().err

    def test_unknown_solver(self, tmp_path):
        args, _ = run_args(tmp_path, "--solver", "nope")
        assert main(args) == 1

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "toy_kkt", "iters": 10, "seed": 3}))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--iters", "20"]) == 0
        trace = (out / "trace_0.csv").read_text().splitlines()
        assert len(trace) == 21  # flag --iters 20 wins over file's 10
        summary = json.loads((out / "summary.json").read_text())
        assert summary["chains"][0]["config"]["seed"] == 3

    def test_config_file_unknown_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "toy_kkt", "bogus": 1}))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("solver", ["diffusion", "gd"])
    def test_negative_seed(self, tmp_path, capsys, solver):
        args, out = run_args(tmp_path, "--seed", "-1", "--solver", solver)
        assert main(args) == 1
        assert "seed" in capsys.readouterr().err
        assert not out.exists()  # rejected before any output

    def test_config_file_bad_seed(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "toy_kkt", "seed": 1.5}))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "seed" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--problem", "toy_kkt", "--config", str(tmp_path / "nope.json")]) == 1


class TestOneKeyTable:
    def test_hold_flag_equals_file_key(self, tmp_path):
        args, out = run_args(tmp_path, "--hold", "20")
        assert main(args) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "toy_kkt", "hold": 20, "iters": 50, "stride": 25}))
        out2 = tmp_path / "o2"
        assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("trace_0.csv", "snapshots_0.csv"):
            assert (out / name).read_bytes() == (out2 / name).read_bytes()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["chains"][0]["config"]["hold"] == 20

    def test_seed_offsets_every_phase(self, tmp_path):
        out = tmp_path / "bt"
        args = ["run", "--problem", "bugtrap", "--seed", "3", "--hold", "0", "--iters", "20"]
        assert main([*args, "--out", str(out)]) == 0
        phases = json.loads((out / "summary.json").read_text())["phases"]
        assert [p["seed"] for p in phases] == [3, 4]
        assert [p["iterations"] for p in phases] == [20, 20]
        assert [p["sigma0"] for p in phases] == [1.5, 0.3]  # the rest of the recipe is kept
        assert len((out / "trace_0.csv").read_text().splitlines()) == 1 + 40

    def test_toy_matches_direct_solve_batch(self, tmp_path):
        args, out = run_args(tmp_path, "--batch", "2", "--seed", "4", "--mu", "3")
        assert main(args) == 0
        x0s = [np.random.default_rng([4 + i, 0xA5]).uniform(-2.0, 2.0, size=2) for i in range(2)]
        nlp = langopt.get_problem("toy_kkt").nlp
        cfg = SolverConfig(seed=4, mu=3.0, iterations=50, snapshot_stride=25)
        for i, sol in enumerate(solve_batch(nlp, x0s, cfg)):
            for name, write in (("trace", sol.trace.to_csv), ("snapshots", sol.trace.snapshots_to_csv)):
                buf = io.StringIO()
                write(buf)
                assert (out / f"{name}_{i}.csv").read_bytes() == buf.getvalue().encode()


# toy_kkt keys with values on both sides of their valid ranges; iters is
# always set, since the default 20000 iterations would make each example slow
ITERS = {"iters": st.integers(0, 60)}
DRAWN_KEYS = {
    "mu": st.floats(-1.0, 50.0),
    "alpha": st.floats(-0.01, 0.3),
    "sigma0": st.floats(0.0, 2.0),  # below sigma_min = 1e-4 is invalid
    "hold": st.integers(-1, 30),
    "stride": st.integers(0, 30),
    "barrier_weight": st.floats(-0.002, 0.01),
    "seed": st.integers(-2, 2**31),
    "batch": st.integers(0, 3),
}
FIELDS = {"iters": "iterations", "stride": "snapshot_stride"}


def without_times(summary):
    """``summary.json`` text with its wall-clock fields dropped, keys sorted."""
    summary = dict(summary, wall_ms=None)
    summary["chains"] = [dict(c, duration_ms=None) for c in summary["chains"]]
    return json.dumps(summary, sort_keys=True)


class TestFlagsEqualFile:
    @given(keys=st.fixed_dictionaries(ITERS, optional=DRAWN_KEYS))
    @settings(max_examples=100, deadline=None)
    def test_flags_and_config_file_agree(self, keys):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            flags = [a for k, v in keys.items() for a in ("--" + k.replace("_", "-"), str(v))]
            code = main(["run", "--problem", "toy_kkt", "--out", str(tmp / "flags"), *flags])
            (tmp / "cfg.json").write_text(json.dumps({"problem": "toy_kkt", **keys}))
            assert main(["run", "--config", str(tmp / "cfg.json"), "--out", str(tmp / "file")]) == code
            event(f"exit {code}")

            seed, batch = keys.get("seed", 0), keys.get("batch", 1)
            fields = {FIELDS.get(k, k): v for k, v in keys.items() if k not in ("seed", "batch")}
            try:
                cfg = SolverConfig(**fields, seed=seed)
            except ValueError:
                cfg = None
            if cfg is None or batch < 1:
                assert code == 1
                return
            bundle = langopt.get_problem("toy_kkt")
            x0s = [bundle.guess(np.random.default_rng([seed + i, 0xA5])) for i in range(batch)]
            sols = solve_batch(bundle.nlp, x0s, cfg)
            assert code == (0 if all(s.success for s in sols) else 2)

            summaries = [json.loads((tmp / d / "summary.json").read_text()) for d in ("flags", "file")]
            assert without_times(summaries[0]) == without_times(summaries[1])
            chains = [{"guess_seed": seed + i, **s.summary()} for i, s in enumerate(sols)]
            direct = json.loads(json.dumps({**summaries[0], "chains": chains}))
            assert without_times(direct) == without_times(summaries[0])
            for i, sol in enumerate(sols):
                for name, write in (("trace", sol.trace.to_csv), ("snapshots", sol.trace.snapshots_to_csv)):
                    buf = io.StringIO()
                    write(buf)
                    for d in ("flags", "file"):
                        assert (tmp / d / f"{name}_{i}.csv").read_bytes() == buf.getvalue().encode()


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["run", "--problem", "toy_kkt", "--iters", "abc"], 1),
            (["run", "--problem", "toy_kkt", "--bogus", "1"], 1),
            (["run", "--mus", "1,2"], 1),  # a sweep-only flag
            ([], 1),
            (["--help"], 0),
            (["run", "--help"], 0),
        ],
    )
    def test_parser_exit_codes(self, argv, code, capsys):
        assert main(argv) == code
        assert (capsys.readouterr().err != "") == (code != 0)

    @pytest.mark.parametrize(
        "command, value",
        [
            ("run", {"iters": "5"}),
            ("run", {"alpha": "0.1"}),
            ("sweep", {"mus": 10}),
            ("sweep", {"mus": [1, "a"]}),
            ("run", {"iters": 5.5}),
            ("run", {"batch": True}),
            ("run", {"mu": None}),
            ("run", {"out": 5}),
        ],
    )
    def test_config_value_of_wrong_type(self, tmp_path, capsys, command, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "toy_kkt", "mus": "1", **value}))
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert repr(next(iter(value))) in capsys.readouterr().err
        assert not out.exists()  # rejected before any output

    def test_run_rejects_mus_in_file(self, tmp_path, capsys):
        # the file-borne twin of the sweep-only --mus flag above
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"iters": 5, "mus": [1, 2.5]}))
        out = tmp_path / "o"
        assert main(["run", "--problem", "toy_kkt", "--config", str(cfg), "--out", str(out)]) == 1
        assert "mus" in capsys.readouterr().err
        assert not out.exists()  # rejected before any output

    @pytest.mark.parametrize("solver", ["diffusion", "gd", "bfgs"])
    def test_bad_thread_count(self, tmp_path, capsys, solver):
        out = tmp_path / "o"
        argv = ["run", "--problem", "toy_kkt", "--solver", solver, "--threads", "0", "--out", str(out)]
        assert main(argv) == 1
        assert "threads" in capsys.readouterr().err
        assert not out.exists()  # rejected before any output

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("run", ["--iters", "0"], "iterations must be an integer of at least 1, got 0"),
            ("run", ["--stride", "0"], "snapshot_stride must be an integer of at least 1, got 0"),
            ("run", ["--solver", "bfgs", "--iters", "0"], "iterations must be an integer of at least 1, got 0"),
            ("sweep", ["--mus", "1,-2"], "mu must be positive"),
        ],
    )
    def test_rejected_config_value_creates_no_directory(self, tmp_path, capsys, command, flags, message):
        # the configs are built, and so checked, before the output directory is made
        out = tmp_path / "o"
        assert main([command, "--problem", "toy_kkt", "--out", str(out), *flags]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_mus_not_numbers(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["sweep", "--problem", "toy_kkt", "--mus", "1,a", "--out", str(out)]) == 1
        assert "mus" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, code", [(["run", "--iters", "abc"], 1), (["--help"], 0)])
    def test_module_exit_codes(self, argv, code):
        env = {**os.environ, "PYTHONPATH": str(Path(langopt.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "langopt.cli", *argv], env=env, capture_output=True, text=True
        )
        assert proc.returncode == code


class TestSweep:
    def test_sweep_outputs(self, tmp_path):
        out = tmp_path / "sw"
        args = [
            "sweep", "--problem", "toy_kkt", "--out", str(out),
            "--mus", "0.1,1,10", *FAST,
        ]
        assert main(args) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "mu,iter,hsq"
        assert len(lines) == 1 + 3 * 50
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mus"] == [0.1, 1.0, 10.0]
        assert len(summary["chains"]) == 3

    def test_sweep_csv_bytes_of_the_row_by_row_writer(self, tmp_path, monkeypatch, capsys):
        # a huge mu blows up: its chain fails and its hsq column holds non-finite values
        runs = []
        run_solver = langopt.cli._run_solver
        monkeypatch.setattr(langopt.cli, "_run_solver", lambda *a: runs.append(run_solver(*a)) or runs[-1])
        out = tmp_path / "sw"
        with np.errstate(all="ignore"):
            code = main(["sweep", "--problem", "toy_kkt", "--out", str(out), "--mus", "0.1,2.5,1e300", *FAST])
        assert code == 2
        assert "some chains failed; partial outputs retained" in capsys.readouterr().err
        ref = "mu,iter,hsq\n"
        for mu, sol in zip([0.1, 2.5, 1e300], runs[0]):
            for it, hsq in zip(sol.trace.iters, sol.trace.hsq):
                ref += f"{mu!r},{int(it)},{float(hsq)!r}\n"
        assert (out / "sweep.csv").read_text() == ref
        assert "inf" in ref or "nan" in ref

    def test_two_phase_sweep_with_an_early_failure_bytes_of_the_row_by_row_writer(self, tmp_path, monkeypatch, capsys):
        # the chains share one iteration column; the failed chain's is a prefix of it
        toy = get_problem("toy_kkt")
        oracle, calls = toy.nlp.cost_and_gradient, []

        def poisoned(X):  # one call per iteration over the whole stack
            c, g = oracle(X)
            if len(calls) == 12:
                g = g.copy()
                g[1] = np.nan
            calls.append(None)
            return c, g

        bundle = dataclasses.replace(
            toy,
            nlp=dataclasses.replace(toy.nlp, cost_and_gradient=poisoned),
            phases=(SolverConfig(hold=5, sigma0=0.5), SolverConfig(sigma0=0.2, seed=9)),
        )
        monkeypatch.setattr(langopt.cli, "get_problem", lambda name: bundle)
        runs = []
        run_solver = langopt.cli._run_solver
        monkeypatch.setattr(langopt.cli, "_run_solver", lambda *a: runs.append(run_solver(*a)) or runs[-1])
        out = tmp_path / "sw"
        assert main(["sweep", "--problem", "toy_kkt", "--out", str(out), "--mus", "0.1,2.5,10", "--iters", "30"]) == 2
        assert "some chains failed" in capsys.readouterr().err
        sols = runs[0]
        assert [(s.success, len(s.trace)) for s in sols] == [(True, 60), (False, 13), (True, 60)]
        ref = "mu,iter,hsq\n"
        for mu, sol in zip([0.1, 2.5, 10.0], sols):
            for i in range(len(sol.trace)):
                ref += f"{mu!r},{int(sol.trace.iters[i])},{float(sol.trace.hsq[i])!r}\n"
        assert (out / "sweep.csv").read_text() == ref

    def test_sweep_rejects_a_trace_whose_columns_differ_in_length(self, tmp_path, monkeypatch, capsys):
        # a chain whose hsq column lost its last row: no sweep.csv cut to the shorter column
        run_solver = langopt.cli._run_solver

        def short_hsq(*a):
            sols = run_solver(*a)
            sols[1].trace.hsq = sols[1].trace.hsq[:-1]
            return sols

        monkeypatch.setattr(langopt.cli, "_run_solver", short_hsq)
        out = tmp_path / "sw"
        assert main(["sweep", "--problem", "toy_kkt", "--out", str(out), "--mus", "0.1,2.5", *FAST]) == 1
        assert "trace columns differ in length (iters 50, hsq 49)" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    def test_sweep_negative_seed(self, tmp_path, capsys):
        args = ["sweep", "--problem", "toy_kkt", "--out", str(tmp_path / "o"), "--mus", "1", "--seed", "-2"]
        assert main(args) == 1
        assert "seed" in capsys.readouterr().err

    def test_sweep_requires_mus(self, tmp_path, capsys):
        assert main(["sweep", "--problem", "toy_kkt", "--out", str(tmp_path / "o")]) == 1
        assert "non-empty" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["flag", "file"])
    def test_sweep_rejects_batch(self, tmp_path, capsys, where):
        out = tmp_path / "o"
        argv = ["sweep", "--problem", "toy_kkt", "--mus", "1,10", "--out", str(out)]
        if where == "flag":
            argv += ["--batch", "5"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"batch": 5}))
            argv += ["--config", str(cfg)]
        assert main(argv) == 1
        assert "batch" in capsys.readouterr().err
        assert not out.exists()  # rejected before any output

    def test_sweep_shares_guess_across_mus(self, tmp_path):
        out = tmp_path / "sw"
        args = ["sweep", "--problem", "toy_kkt", "--out", str(out), "--mus", "1,1", *FAST]
        assert main(args) == 0
        lines = (out / "sweep.csv").read_text().splitlines()[1:]
        half = len(lines) // 2
        # identical mu twice from the shared guess: identical hsq columns
        assert [l.split(",")[2] for l in lines[:half]] == [
            l.split(",")[2] for l in lines[half:]
        ]


def test_sweep_csv_rows_across_write_blocks(tmp_path, monkeypatch):
    # 600 rows per mu: each chain's mu-led rows span three 256-row writes
    runs = []
    run_solver = langopt.cli._run_solver
    monkeypatch.setattr(langopt.cli, "_run_solver", lambda *a: runs.append(run_solver(*a)) or runs[-1])
    out = tmp_path / "sw"
    assert main(["sweep", "--problem", "toy_kkt", "--out", str(out), "--mus", "0.1,3", "--iters", "600"]) == 0
    ref = "mu,iter,hsq\n"
    for mu, sol in zip([0.1, 3.0], runs[0]):
        for it, hsq in zip(sol.trace.iters, sol.trace.hsq):
            ref += f"{mu!r},{int(it)},{float(hsq)!r}\n"
    assert (out / "sweep.csv").read_text() == ref
