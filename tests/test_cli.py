"""Tests for repro.cli — the unified command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import _parse_faults, main


class TestParseFaults:
    def test_empty(self):
        assert _parse_faults("") == []

    def test_list(self):
        assert _parse_faults("3,5,16") == [3, 5, 16]

    def test_spaces_tolerated(self):
        assert _parse_faults("3, 5 ,16") == [3, 5, 16]


class TestSortCommand:
    def test_sort_ok(self, capsys):
        rc = main(["sort", "--n", "4", "--faults", "1,6", "--keys", "500"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verified : True" in out
        assert "D_beta" in out
        assert "breakdown" in out

    def test_sort_fault_free(self, capsys):
        rc = main(["sort", "--n", "3", "--keys", "100"])
        assert rc == 0
        assert "verified : True" in capsys.readouterr().out

    def test_sort_total_kind(self, capsys):
        rc = main(["sort", "--n", "4", "--faults", "2,9", "--keys", "200",
                   "--kind", "total"])
        assert rc == 0
        assert "(total)" in capsys.readouterr().out

    def test_sort_spmd_engine(self, capsys):
        rc = main(["sort", "--n", "3", "--faults", "1,6", "--keys", "60", "--spmd"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "message-level engine" in out
        assert "messages" in out


class TestTraceCommand:
    def test_acceptance_invocation(self, capsys, tmp_path):
        """The ISSUE's canonical invocation: Q_6, faults 7,25,52."""
        out_path = tmp_path / "trace.json"
        rc = main(["trace", "--n", "6", "--faults", "7,25,52",
                   "--out", str(out_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verified : True" in out
        # Per-step durations for steps 1-8 appear in the summary.
        for k in range(1, 9):
            assert f"step{k}" in out
        assert "sort.messages" in out
        assert "hottest spans" in out
        # The file is a loadable Chrome trace_event JSON array.
        events = json.loads(out_path.read_text())
        assert isinstance(events, list) and events
        complete = [e for e in events if e.get("ph") == "X"]
        assert complete, "no complete events in trace"
        for ev in complete:
            for field in ("name", "ph", "ts", "dur", "pid", "tid"):
                assert field in ev, field
        names = {e["name"] for e in complete}
        assert "ftsort" in names
        assert any(n.startswith("step7") for n in names)

    def test_trace_spmd_engine(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        rc = main(["trace", "--n", "4", "--faults", "1,6", "--keys", "240",
                   "--out", str(out_path), "--spmd"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "message-level engine" in out
        events = json.loads(out_path.read_text())
        cats = {e.get("cat") for e in events if e.get("ph") == "X"}
        assert {"link", "msg", "proc"} <= cats

    def test_trace_fault_free(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        rc = main(["trace", "--n", "3", "--keys", "64", "--out", str(out_path)])
        assert rc == 0
        assert "verified : True" in capsys.readouterr().out
        assert json.loads(out_path.read_text())


class TestPlanCommand:
    def test_paper_example(self, capsys):
        rc = main(["plan", "--n", "5", "--faults", "3,5,16,24"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "mincut m = 3" in out
        assert "[0, 1, 3]" in out

    def test_single_fault_plan(self, capsys):
        rc = main(["plan", "--n", "4", "--faults", "9"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "no partition needed" in out


class TestDiagnoseCommand:
    def test_roundtrip(self, capsys):
        rc = main(["diagnose", "--n", "5", "--faults", "3,5,16,24"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "diagnosis correct: True" in out


class TestPassthrough:
    def test_table1_passthrough(self, capsys):
        rc = main(["table1", "--trials", "20", "--ns", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Table 1" in out

    def test_figure7_passthrough(self, capsys):
        rc = main(["figure7", "--n", "3", "--points", "2", "--placements", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Figure 7" in out


class TestChaosCommand:
    def test_fast_campaign_passes(self, capsys, tmp_path):
        report = tmp_path / "chaos.jsonl"
        rc = main(["chaos", "--scenarios", "6", "--seed", "12",
                   "--out", str(report), "--no-shrink"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "passed            : 6/6" in out
        lines = report.read_text().splitlines()
        assert len(lines) == 7  # 6 scenarios + summary
        assert all(json.loads(ln) for ln in lines)

    def test_single_backend_selection(self, capsys, tmp_path):
        rc = main(["chaos", "--scenarios", "2", "--backend", "phase",
                   "--out", str(tmp_path / "r.jsonl")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "backends phase" in out and "spmd" not in out


class TestFaultsValidation:
    """--faults mistakes exit with a one-line message, never a traceback."""

    def _message(self, argv) -> str:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        return str(exc.value)

    def test_non_integer_token(self):
        msg = self._message(["sort", "--n", "3", "--faults", "banana"])
        assert "not an integer" in msg

    def test_negative_address(self):
        msg = self._message(["sort", "--n", "3", "--faults=-2"])
        assert "negative" in msg

    def test_out_of_range_address(self):
        msg = self._message(["trace", "--n", "3", "--faults", "1,9"])
        assert "out of range" in msg and "0..7" in msg

    def test_duplicate_address(self):
        msg = self._message(["plan", "--n", "4", "--faults", "3,5,3"])
        assert "listed twice" in msg

    def test_too_many_faults(self):
        msg = self._message(["sort", "--n", "3", "--faults", "1,2,3"])
        assert "at most r = n - 1 = 2" in msg

    def test_valid_input_unaffected(self, capsys):
        rc = main(["plan", "--n", "4", "--faults", "3,5,9"])
        assert rc == 0


class TestErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_missing_required(self):
        with pytest.raises(SystemExit):
            main(["plan", "--n", "4"])

    def test_unknown_extra_args(self):
        with pytest.raises(SystemExit):
            main(["sort", "--n", "3", "--bogus"])

    def test_retired_kernel_name(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sort", "--n", "3", "--kernels", "numpy"])
        assert exc.value.code == 2
        assert "invalid choice: 'numpy'" in capsys.readouterr().err
