import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "digest_diff.py"
_spec = importlib.util.spec_from_file_location("digest_diff", _PATH)
digest_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest_diff)


class TestDigestCompare:
    base = {"trap": {"0": "a", "10": "b", "20": "c"}, "swingup": {"0": "x", "64": "y"}}

    def test_equal_common_seeds_pass(self, capsys):
        change = {"trap": {"0": "a", "10": "b"}, "swingup": {"0": "x", "64": "y", "128": "z"}}
        assert digest_diff.compare(self.base, change, set()) == []
        out = capsys.readouterr().out
        assert "trap: 2 common seeds, 0 differ" in out and "swingup: 2 common seeds, 0 differ" in out

    def test_a_differing_seed_fails_its_workload(self, capsys):
        change = {"trap": {"0": "a", "10": "B", "20": "c"}, "swingup": self.base["swingup"]}
        assert digest_diff.compare(self.base, change, set()) == ["trap"]
        assert "differing seeds: 10" in capsys.readouterr().out

    def test_allowed_change_is_reported_not_failed(self, capsys):
        change = {"trap": {"0": "A", "10": "B"}, "swingup": self.base["swingup"]}
        assert digest_diff.compare(self.base, change, {"trap"}) == []
        out = capsys.readouterr().out
        assert "trap: 2 common seeds, 2 differ (change allowed)" in out and "differing seeds: 0 10" in out

    @pytest.mark.parametrize("change", [{"swingup": {"0": "x"}}, {"trap": {"30": "d"}, "swingup": {"0": "x"}}])
    def test_a_workload_without_common_seeds_fails(self, change):
        assert digest_diff.compare(self.base, change, set()) == ["trap"]


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


@pytest.mark.skipif(not _in_git_checkout(), reason="exports HEAD's package with git archive")
def test_kernel_ab_head_against_the_working_tree():
    # HEAD's package against the working tree's: their bytes are equal unless an uncommitted edit changes them
    tool = Path(__file__).resolve().parents[1] / "tools" / "kernel_ab.py"
    args = ["HEAD", "--chains", "3", "--iters", "40", "--pairs", "2"]
    out = subprocess.run([sys.executable, str(tool), *args], capture_output=True, text=True, check=True).stdout
    report = json.loads(out)
    assert (report["problem"], report["chains"], report["iters"], report["pairs"]) == ("toy_kkt", 3, 40, 2)
    assert report["digests_equal"] == {"trace": True, "snapshots": True, "xbar": True}
    assert report["ratio"] > 0 and 0 <= report["wins"] <= 2
    assert report["base_ms"] > 0 and report["change_ms"] > 0
