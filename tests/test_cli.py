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
        "argv",
        [
            ["replay", "t.rtrc"],
            ["stats", "t.rtrc"],
            ["serve"],
            ["bench-engine"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_process_pool_option_is_gone(self, argv, capsys):
        """There is no process-pool tier: its ``jobs`` option is unknown
        to every command (``serve --workers`` is the one multi-process
        path)."""
        option = "--" + "jobs"
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

    def test_replay_compact_sharded(self, program_file, tmp_path, capsys):
        trace = str(tmp_path / "run.rtrc")
        main(["record", program_file, "--compact", "-o", trace])
        capsys.readouterr()
        assert main(["replay", trace, "--shards", "3"]) == 1
        assert "x3 shards" in capsys.readouterr().out

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
        assert main(["replay", trace, "--predict", "--shards", "2"]) == 1
        out = capsys.readouterr().out
        assert "shb predict" in out and "x2 shards" in out

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

    def test_bench_engine_smoke(self, tmp_path, capsys):
        out_json = tmp_path / "rec.json"
        assert main(
            [
                "bench-engine",
                "--accesses", "600",
                "--fanout", "2",
                "--accesses-per-task", "30",
                "--repeats", "1",
                "--shards", "2",
                "--json", str(out_json),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "batched" in out and "0 divergence(s)" in out
        import json

        record = json.loads(out_json.read_text())
        assert record["bench"] == "engine_batch"
        assert record["differential"]["divergences"] == 0
        assert record["differential"]["compressed_agrees"] is True
        # Tiny smoke workloads barely dedup; the >= 3x ratio bar lives
        # in benchmarks/bench_engine_batch.py on the real loops run.
        assert record["compression_ratio"] > 0
        assert "compressed" in record["events_per_sec"]

    def test_compress_decompress_round_trip(
        self, program_file, tmp_path, capsys
    ):
        """compress then decompress reproduces the raw RPR2TRC file
        byte-identically."""
        raw = tmp_path / "run.rtrc"
        z = tmp_path / "run.rpr2trz"
        back = tmp_path / "back.rtrc"
        main(["record", program_file, "--compact", "-o", str(raw)])
        capsys.readouterr()
        assert main(["compress", str(raw), "-o", str(z)]) == 0
        assert "compressed" in capsys.readouterr().out
        assert main(["decompress", str(z), "-o", str(back)]) == 0
        assert "decompressed" in capsys.readouterr().out
        assert back.read_bytes() == raw.read_bytes()

    def test_replay_compressed_trace(self, program_file, tmp_path, capsys):
        """replay accepts .rpr2trz directly and detects over the
        compressed form without decompressing."""
        raw = tmp_path / "run.rtrc"
        z = tmp_path / "run.rpr2trz"
        main(["record", program_file, "--compact", "-o", str(raw)])
        main(["compress", str(raw), "-o", str(z)])
        capsys.readouterr()
        assert main(["replay", str(z)]) == 1
        out = capsys.readouterr().out
        assert "memoized" in out and "1 race(s)" in out and "'x'" in out

    def test_stats_compressed_trace(self, program_file, tmp_path, capsys):
        raw = tmp_path / "run.rtrc"
        z = tmp_path / "run.rpr2trz"
        main(["record", program_file, "--compact", "-o", str(raw)])
        main(["compress", str(raw), "-o", str(z)])
        capsys.readouterr()
        assert main(["stats", str(z)]) == 1
        assert "engine_memo" in capsys.readouterr().out

    def test_compress_racegen_loops(self, tmp_path, capsys):
        """--racegen-loops generates the repetitive loop workload
        straight into a container that actually dedups."""
        z = tmp_path / "loops.rpr2trz"
        assert main(
            ["compress", "--racegen-loops", "2000", "-o", str(z)]
        ) == 0
        assert "racegen-loops" in capsys.readouterr().out
        assert main(["replay", str(z)]) == 1  # loop workload is racy
        assert "memoized" in capsys.readouterr().out

    def test_compress_needs_a_source(self, tmp_path, capsys):
        assert main(["compress", "-o", str(tmp_path / "z.rpr2trz")]) == 2
        assert "--racegen-loops" in capsys.readouterr().err

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
