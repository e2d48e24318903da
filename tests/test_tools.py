import importlib.util
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
