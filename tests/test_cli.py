"""Tests for the command-line interface."""

from __future__ import annotations

import textwrap

import pytest

from repro.cli import build_parser, main

PROGRAM = textwrap.dedent(
    """
    from repro.forkjoin import fork, join, read, write

    def child(self):
        yield write("x")

    def main(self):
        c = yield fork(child)
        yield read("x")
        yield join(c)

    def clean(self):
        yield write("y")
        yield read("y")
    """
)


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.py"
    path.write_text(PROGRAM)
    return str(path)


class TestCommands:
    def test_demo(self, capsys):
        assert main(["demo"]) == 1  # a race was found
        out = capsys.readouterr().out
        assert "race on 'l'" in out

    def test_detectors_listing(self, capsys):
        assert main(["detectors"]) == 0
        out = capsys.readouterr().out.split()
        assert "lattice2d" in out and "fasttrack" in out

    def test_run_detects_race(self, program_file, capsys):
        assert main(["run", program_file]) == 1
        out = capsys.readouterr().out
        assert "1 race(s)" in out

    def test_run_clean_entry(self, program_file, capsys):
        assert main(["run", program_file, "--entry", "clean"]) == 0
        assert "0 race(s)" in capsys.readouterr().out

    def test_run_with_other_detector(self, program_file, capsys):
        assert main(
            ["run", program_file, "--detector", "vectorclock"]
        ) == 1
        assert "vectorclock" in capsys.readouterr().out

    def test_compare_table(self, program_file, capsys):
        assert main(["run", program_file, "--compare"]) == 1
        out = capsys.readouterr().out
        assert "lattice2d" in out and "fasttrack" in out and "none" in out

    def test_dot_export(self, program_file, tmp_path, capsys):
        dot = tmp_path / "out.dot"
        assert main(["run", program_file, "--dot", str(dot)]) == 1
        assert dot.read_text().startswith("digraph")

    def test_missing_entry_errors(self, program_file, capsys):
        assert main(["run", program_file, "--entry", "nope"]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_errors(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.py")]) == 2

    def test_parser_rejects_unknown_detector(self, program_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", program_file, "--detector", "magic"]
            )

    @pytest.mark.parametrize(
        "argv, name",
        [
            pytest.param(["replay", "t.rtrc"], "jobs", id="replay"),
            pytest.param(["stats", "t.rtrc"], "jobs", id="stats"),
            pytest.param(["serve"], "jobs", id="serve"),
            pytest.param(["bench-engine"], "jobs", id="bench-engine"),
            pytest.param(["replay", "t.rtrc"], "shards", id="replay-shards"),
            pytest.param(["stats", "t.rtrc"], "shards", id="stats-shards"),
            pytest.param(["bench-engine"], "shards", id="bench-engine-shards"),
        ],
    )
    def test_process_pool_option_is_gone(self, argv, name, capsys):
        """There is no process-pool tier and no in-process sharded
        engine: their ``jobs`` and ``shards`` options are unknown to
        every command (``serve --workers`` is the one location-sharded,
        multi-process path)."""
        option = "--" + name
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*argv, option, "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {option} 2" in err

    def test_record_then_replay(self, program_file, tmp_path, capsys):
        trace = str(tmp_path / "run.jsonl")
        assert main(["record", program_file, "-o", trace]) == 0
        out = capsys.readouterr().out
        assert "recorded" in out and "2 tasks" in out
        assert main(["replay", trace]) == 1
        out = capsys.readouterr().out
        assert "1 race(s)" in out

    def test_replay_clean_under_other_detector(
        self, program_file, tmp_path, capsys
    ):
        trace = str(tmp_path / "clean.jsonl")
        main(["record", program_file, "--entry", "clean", "-o", trace])
        capsys.readouterr()
        assert main(["replay", trace, "--detector", "fasttrack"]) == 0
        assert "0 race(s)" in capsys.readouterr().out

    def test_record_compact_then_replay(self, program_file, tmp_path, capsys):
        trace = str(tmp_path / "run.rtrc")
        assert main(["record", program_file, "--compact", "-o", trace]) == 0
        assert "compact" in capsys.readouterr().out
        assert main(["replay", trace]) == 1
        out = capsys.readouterr().out
        assert "batched" in out and "1 race(s)" in out and "'x'" in out

    @pytest.mark.parametrize("command", ["replay", "stats"])
    def test_lattice2d_takes_the_kernel(
        self, command, program_file, tmp_path, capsys
    ):
        """The default detector runs the lattice2d batch kernel, not the
        generic per-event loop, and keeps its printed name."""
        import json

        trace = str(tmp_path / "run.rtrc")
        metrics = tmp_path / "m.json"
        main(["record", program_file, "--compact", "-o", trace])
        capsys.readouterr()
        assert main(["--metrics", str(metrics), command, trace]) == 1
        out = capsys.readouterr().out
        assert "1 race(s)" in out
        counters = json.loads(metrics.read_text())["counters"]
        series = 'engine_dispatch_total{engine="batch",path="%s"}'
        assert counters[series % "kernel"] == 1
        assert counters[series % "generic"] == 0
        if command == "replay":
            assert out.startswith("lattice2d: replayed")
        else:
            assert 'detector_races{detector="lattice2d"}' in out

    def test_replay_backend_misuse_errors(self, program_file, tmp_path, capsys):
        # The engine has one exact detector per mode: there is no
        # --backend to pick, and no depa detector to name.
        trace = str(tmp_path / "run.rtrc")
        main(["record", program_file, "--compact", "-o", trace])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc_info:
            main(["replay", trace, "--backend", "lattice2d"])
        assert exc_info.value.code == 2
        assert "--backend" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc_info:
            main(["replay", trace, "--detector", "depa"])
        assert exc_info.value.code == 2
        assert "'depa'" in capsys.readouterr().err

    def test_replay_predict(self, program_file, tmp_path, capsys):
        trace = str(tmp_path / "run.rtrc")
        main(["record", program_file, "--compact", "-o", trace])
        capsys.readouterr()
        assert main(["replay", trace, "--predict"]) == 1
        out = capsys.readouterr().out
        assert "shb predict" in out and "1 race(s)" in out and "'x'" in out

    def test_replay_predict_jsonl(self, program_file, tmp_path, capsys):
        trace = str(tmp_path / "run.jsonl")
        main(["record", program_file, "-o", trace])
        capsys.readouterr()
        assert main(["replay", trace, "--predict"]) == 1
        assert "1 race(s)" in capsys.readouterr().out

    def test_replay_predict_misuse_errors(self, program_file, tmp_path, capsys):
        trace = str(tmp_path / "run.rtrc")
        main(["record", program_file, "--compact", "-o", trace])
        capsys.readouterr()
        assert main(
            ["replay", trace, "--predict", "--detector", "fasttrack"]
        ) == 2
        assert "--detector" in capsys.readouterr().err

    def test_diff_agrees_on_both_formats(self, program_file, tmp_path, capsys):
        compact = str(tmp_path / "run.rtrc")
        jsonl = str(tmp_path / "run.jsonl")
        main(["record", program_file, "--compact", "-o", compact])
        main(["record", program_file, "-o", jsonl])
        capsys.readouterr()
        for trace in (compact, jsonl):
            assert main(["diff", trace]) == 0
            assert "all detectors agree" in capsys.readouterr().out

    def test_diff_custom_detector_list(self, program_file, tmp_path, capsys):
        trace = str(tmp_path / "run.rtrc")
        main(["record", program_file, "--compact", "-o", trace])
        capsys.readouterr()
        assert main(
            ["diff", trace, "--detectors", "lattice2d,vectorclock"]
        ) == 0
        out = capsys.readouterr().out
        assert "lattice2d=1" in out and "vectorclock=1" in out

    def test_diff_sharded_row_is_unknown(self, program_file, tmp_path, capsys):
        """The in-process sharded engine's rows left the matrix."""
        trace = str(tmp_path / "run.rtrc")
        main(["record", program_file, "--compact", "-o", trace])
        capsys.readouterr()
        assert main(
            ["diff", trace, "--detectors", "lattice2d,sharded:2:lattice2d"]
        ) == 2
        assert "unknown detector" in capsys.readouterr().err

    def test_bench_engine_smoke(self, tmp_path, capsys):
        out_json = tmp_path / "rec.json"
        assert main(
            [
                "bench-engine",
                "--accesses", "600",
                "--fanout", "2",
                "--accesses-per-task", "30",
                "--repeats", "1",
                "--json", str(out_json),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "batched" in out and "0 divergence(s)" in out
        import json

        record = json.loads(out_json.read_text())
        assert record["bench"] == "engine_batch"
        assert record["differential"]["divergences"] == 0

    def test_replay_retired_container_errors(self, tmp_path, capsys):
        """A file of the retired compressed container format is
        refused by name, with the usage-error exit."""
        old = tmp_path / "run.rpr2trz"
        old.write_bytes(b"RPR2TRZ\x01" + bytes(56))
        for command in ("replay", "stats"):
            assert main([command, str(old)]) == 2
            assert "retired format" in capsys.readouterr().err

    def test_replay_bad_file_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"format":"nope"}\n')
        assert main(["replay", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_timeline_command(self, program_file, capsys):
        assert main(["timeline", program_file]) == 0
        out = capsys.readouterr().out
        assert "fork 0->1" in out and "[0]" in out

    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert repro.__version__ in capsys.readouterr().out
