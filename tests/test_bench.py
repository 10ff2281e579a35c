"""Tests for the benchmark harness, metrics and tables."""

from __future__ import annotations

import pytest

from repro.bench.harness import DETECTOR_FACTORIES, compare_detectors, measure
from repro.bench.metrics import DetectorStats
from repro.bench.tables import format_table, print_table
from repro.detectors import Lattice2DDetector
from repro.forkjoin import fork, join, read, run, write


def program(self):
    c = yield fork(child)
    yield read("x")
    yield join(c)


def child(self):
    yield write("x")


class TestMeasure:
    def test_baseline_run(self):
        stats = measure(program)
        assert stats.detector == "none"
        assert stats.tasks == 2
        assert stats.races == 0
        assert stats.wall_seconds > 0
        assert stats.overhead == 1.0

    def test_detector_run(self):
        stats = measure(program, detector=Lattice2DDetector())
        assert stats.detector == "lattice2d"
        assert stats.races == 1
        assert stats.locations == 1
        assert stats.shadow_peak_per_loc <= 2

    def test_seconds_per_op(self):
        stats = measure(program, detector=Lattice2DDetector())
        assert stats.seconds_per_op == stats.wall_seconds / stats.ops

    def test_overhead_none_without_baseline(self):
        stats = measure(program, detector=Lattice2DDetector())
        assert stats.overhead is None


class TestCompare:
    def test_default_trio_plus_baseline(self):
        rows = compare_detectors(program)
        names = [s.detector for s in rows]
        assert names == ["none", "lattice2d", "vectorclock", "fasttrack"]
        assert all(s.races == 1 for s in rows[1:])
        assert all(s.overhead is not None for s in rows[1:])

    def test_custom_detector_list(self):
        rows = compare_detectors(
            program, detectors=["naive"], include_baseline=False
        )
        assert [s.detector for s in rows] == ["naive"]

    def test_registry_complete(self):
        assert set(DETECTOR_FACTORIES) == {
            "lattice2d", "vectorclock", "vectorclock-dense", "fasttrack",
            "spbags", "espbags", "offsetspan", "shb", "naive",
        }


class TestTables:
    def test_format_alignment_and_columns(self):
        rows = [
            {"detector": "lattice2d", "races": 1},
            {"detector": "vc", "races": 10, "extra": "x"},
        ]
        text = format_table(rows, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "detector" in lines[1] and "extra" in lines[1]
        assert len(lines) == 5

    def test_empty_rows(self):
        assert "(no rows)" in format_table([], title="nothing")

    def test_print_table(self, capsys):
        print_table([{"a": 1}], title="hello")
        out = capsys.readouterr().out
        assert "hello" in out and "a" in out

    def test_stats_row_shape(self):
        stats = measure(program, detector=Lattice2DDetector())
        row = stats.row()
        assert row["detector"] == "lattice2d"
        assert "us/op" in row and "shadow/loc(peak)" in row


class TestReport:
    def test_build_report_tables(self):
        from repro.bench.report import build_report

        text = build_report()
        assert "Theorem 5" in text and "Theorem 3" in text
        assert "| tasks |" in text
        assert "lattice2d" in text

    def test_report_to_file(self, tmp_path, capsys):
        from repro.bench.report import main as report_main

        out = tmp_path / "report.md"
        assert report_main([str(out)]) == 0
        assert out.read_text().startswith("# Regenerated headline tables")

    def test_theorem5_table_is_deterministic(self):
        """The space columns of the regenerated Theorem 5 table are
        exact integers, reproducible on any machine."""
        from repro.bench.report import _theorem5_space

        rows = _theorem5_space()
        assert [r["tasks"] for r in rows] == [9, 65, 257, 1025]
        assert [r["lattice2d shadow/loc"] for r in rows] == [2, 2, 2, 2]
        assert [r["vectorclock shadow/loc"] for r in rows] == [
            9, 65, 257, 1025,
        ]
