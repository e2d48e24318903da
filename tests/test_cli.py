import json

import pytest

from langopt.cli import main

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

    def test_sweep_negative_seed(self, tmp_path, capsys):
        args = ["sweep", "--problem", "toy_kkt", "--out", str(tmp_path / "o"), "--mus", "1", "--seed", "-2"]
        assert main(args) == 1
        assert "seed" in capsys.readouterr().err

    def test_sweep_requires_mus(self, tmp_path, capsys):
        assert main(["sweep", "--problem", "toy_kkt", "--out", str(tmp_path / "o")]) == 1
        assert "non-empty" in capsys.readouterr().err

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
