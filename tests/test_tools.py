import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", TOOL)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


class TestDigestCompare:
    base = {"trap": {"0": "a", "10": "b", "20": "c"}, "swingup": {"0": "x", "64": "y"}}

    def test_equal_common_seeds_pass(self):
        change = {"trap": {"0": "a", "10": "b"}, "swingup": {"0": "x", "64": "y", "128": "z"}}
        report, failing = ab.compare_digests(self.base, change, set())
        assert failing == []
        assert report == {"trap": {"common": ["0", "10"], "differ": []}, "swingup": {"common": ["0", "64"], "differ": []}}

    def test_a_differing_seed_fails_its_workload(self):
        change = {"trap": {"0": "a", "10": "B", "20": "c"}, "swingup": self.base["swingup"]}
        report, failing = ab.compare_digests(self.base, change, set())
        assert failing == ["trap"]
        assert report["trap"]["differ"] == ["10"]

    def test_allowed_change_is_reported_not_failed(self):
        change = {"trap": {"0": "A", "10": "B"}, "swingup": self.base["swingup"]}
        report, failing = ab.compare_digests(self.base, change, {"trap"})
        assert failing == []
        assert report["trap"] == {"common": ["0", "10"], "differ": ["0", "10"]}

    @pytest.mark.parametrize("change", [{"swingup": {"0": "x"}}, {"trap": {"30": "d"}, "swingup": {"0": "x"}}])
    def test_a_workload_without_common_seeds_fails(self, change):
        assert ab.compare_digests(self.base, change, set())[1] == ["trap"]


def test_summary_reproduces_a_committed_record():
    # BENCH_28.json's summary was computed from its pairs by a driver of its own; every number must match
    record = json.loads((ROOT / "BENCH_28.json").read_text())
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for workload, runs in record["pairs"].items():
        summary = ab.summarise_runs(runs, metrics)
        assert summary["correct"] == record["summary"][workload]["correct"]
        for name, committed in record["summary"][workload].items():
            if name != "correct":
                assert {k: summary[name][k] for k in committed} == committed, (workload, name)


def test_summary_of_one_pair():
    out = ab.summarise([2.0], [1.0], "lower", bound=0.25)
    assert (out["parent_q1"], out["parent_q3"], out["change_q1"], out["change_q3"]) == (2.0, 2.0, 1.0, 1.0)
    assert (out["change_wins"], out["change_losses"], out["median_pair_ratio"], out["worse_than_bound"]) == (1, 0, 0.5, False)
    assert ab.summarise([2.0], [1.0], "higher", bound=0.25)["worse_than_bound"] is True


@pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="reads the resident set from /proc")
def test_batch_memory_reports_a_tiny_batch():
    tool = Path(__file__).resolve().parents[1] / "tools" / "batch_memory.py"
    out = subprocess.run(
        [sys.executable, str(tool), "--chains", "2", "--iters", "50"], capture_output=True, text=True, check=True
    ).stdout
    report = json.loads(out)
    assert (report["chains"], report["iters"]) == (2, 50)
    # 50 rows of three columns and one snapshot (stride 100) of 152 entries, per chain
    assert report["trace_mb"] * 2**20 == 2 * (24 * 50 + 8 * 152)
    assert report["peak_rss_mb"] >= report["rss_before_mb"] > 0
    assert report["rise_mb"] == pytest.approx(report["peak_rss_mb"] - report["rss_before_mb"])
    assert report["wall_s"] > 0


def _in_git_checkout():
    root = Path(__file__).resolve().parents[1]
    try:
        subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, check=True, capture_output=True)
    except (OSError, subprocess.CalledProcessError):
        return False
    return True


@pytest.mark.skipif(not _in_git_checkout(), reason="exports HEAD's tree with git archive")
def test_kernel_ab_head_against_the_working_tree():
    # HEAD's package against the working tree's: their bytes are equal unless an uncommitted edit changes them
    args = ["kernel", "HEAD", "--chains", "3", "--iters", "40", "--pairs", "2"]
    out = subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True, check=True).stdout
    report = json.loads(out)
    assert (report["problem"], report["chains"], report["iters"], report["pairs"]) == ("toy_kkt", 3, 40, 2)
    assert report["digests_equal"] == {"trace": True, "snapshots": True, "xbar": True}
    times = report["time_ms"]
    assert times["median_pair_ratio"] > 0 and 0 <= times["change_wins"] + times["change_losses"] <= 2
    assert times["parent_median"] > 0 and times["change_median"] > 0


@pytest.mark.skipif(not _in_git_checkout(), reason="exports HEAD's tree with git archive")
def test_bench_ab_head_against_the_working_tree():
    args = ["bench", "HEAD", "--pairs", "1", "--workload", "kkt-cli", "--seconds", "0.1"]
    out = subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True, check=True).stdout
    report = json.loads(out)
    assert [(r["pair"], r["side"], r["correct"]) for r in report["runs"]] == [(0, "parent", True), (0, "change", True)]
    assert report["digests"]["kkt-cli"]["common"] and report["digests"]["kkt-cli"]["differ"] == []
    assert report["failing"] == [] and report["summary"]["kkt-cli"]["wall_s"]["pairs"] == 1


@pytest.mark.skipif(not _in_git_checkout(), reason="asks git for a revision")
@pytest.mark.parametrize("mode", ["bench", "kernel"])
def test_an_unknown_ref_exits_2(mode):
    out = subprocess.run([sys.executable, str(TOOL), mode, "no-such-ref"], capture_output=True, text=True)
    assert out.returncode == 2 and out.stdout == ""
