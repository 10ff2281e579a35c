"""The benchmark's own tests: output schema, failure detection, corpus.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import corpus  # noqa: E402
import run  # noqa: E402

SEED = 4242
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", str(SEED),
                  "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = _result(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    group = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in group]
    for m in group:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0, m["name"]
        # Every metric is also printed by name with its unit.
        assert any(line.split()[:1] == [m["name"]]
                   and line.split()[-1] == m["unit"]
                   for line in proc.stdout.splitlines())


@pytest.mark.parametrize("workload", ["replay", "serve"])
def test_corrupted_reference_counts_as_failure(workload, monkeypatch, capsys):
    real = corpus.build_reference
    victim = corpus.load_manifest(corpus.generate(run.CACHE, SEED))[0]
    assert victim["name"] == "sp_bulk-00"  # a warm-up trace: always run

    def corrupted(root, kind):
        reference = json.loads(json.dumps(real(root, kind)))
        reference[victim["name"]][0][1] += 1  # blame another task
        return reference

    monkeypatch.setattr(corpus, "build_reference", corrupted)
    code = run.main(["--workload", workload, "--seed", str(SEED),
                     "--seconds", "0.5"])
    result = _result(capsys.readouterr().out)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_runs_refuse_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "replay", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_seed_regenerates_the_identical_corpus(tmp_path):
    first = corpus.generate(tmp_path / "a", 7)
    second = corpus.generate(tmp_path / "b", 7)
    manifest = corpus.load_manifest(first)
    assert manifest == corpus.load_manifest(second)
    for entry in manifest:
        assert (first / entry["file"]).read_bytes() == \
            (second / entry["file"]).read_bytes()
    shapes = {entry["shape"] for entry in manifest}
    assert shapes == set(corpus.SHAPES)
    sizes = [entry["events"] for entry in manifest]
    assert max(sizes) / min(sizes) >= 8  # about a decade
    assert all(1 <= entry["injected_pairs"] <= 3 for entry in manifest)
    assert corpus.load_manifest(corpus.generate(tmp_path / "c", 8)) != manifest
