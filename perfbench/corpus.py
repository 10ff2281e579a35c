"""The seeded trace corpus every workload shares, and its reference verdicts.

One ``--seed`` names one corpus.  It is generated once, written as
``RPR2TRC`` trace files plus a ``manifest.json`` under
``.perfbench_cache/corpus/v<version>-seed-<n>/``, and reused by every
later run with the same seed, so generation never lands in a measured
window.

The corpus is *stratified*: each of the three shapes gets the same number
of traces at the same log-spaced target sizes (one decade from the
smallest to the largest), and every generator parameter is fixed per
stratum.  The seed draws the random lattice programs, which ``sp_bulk``
rounds race and how many pairs each trace injects.  Two seeds therefore
give corpora with the same mix of shapes, sizes and parallel widths, which
is what lets runs on different seeds be compared at all.

Shapes:

* ``sp_bulk`` -- series-parallel fork-join rounds whose children write
  many private locations (a large shadow map) and read a small shared
  read-only pool;
* ``lattice`` -- random non-SP 2D lattices (:mod:`repro.workloads.
  synthetic` with ``leftover_probability > 0``): many small tasks and
  ``join_left`` leftovers, over private locations only;
* ``grid`` -- pipelines and wavefronts, i.e. grid lattices.

Races are rare and known by construction: each trace carries one to three
injected racing pairs (``racy_rounds`` for ``sp_bulk``,
:func:`~repro.workloads.racegen.with_injected_race` otherwise) and
nothing else can race, which :func:`build_reference` checks.

Reference verdicts come from a different path than any workload
measures: the per-event observer API of :class:`RaceDetector2D` (for
``replay``, ``serve``, ``gateway``) or :class:`SHBDetector` (for
``predict``), driven one event at a time from the trace columns.
"""

from __future__ import annotations

import json
import os
import random
import shutil
from pathlib import Path
from typing import Dict, List, Tuple

from repro.core.detector import RaceDetector2D
from repro.detectors.shb import SHBDetector
from repro.engine.batch import (
    OP_FORK,
    OP_HALT,
    OP_JOIN,
    OP_READ,
    OP_STEP,
    OP_WRITE,
    BatchBuilder,
    EventBatch,
)
from repro.engine.tracefile import read_trace, write_trace
from repro.forkjoin.interpreter import run
from repro.forkjoin.pipeline import PipelineSpec, pipeline_body
from repro.workloads.access_patterns import private
from repro.workloads.pipelines import clean_pipeline
from repro.workloads.racegen import bulk_access_program, with_injected_race
from repro.workloads.synthetic import SyntheticConfig, random_program
from repro.workloads.wavefront import blocked_wavefront, wavefront

#: bump when the generator changes, so stale cached corpora are rebuilt
CORPUS_VERSION = 1
SHAPES = ("sp_bulk", "lattice", "grid")
TRACES_PER_SHAPE = 12
MIN_EVENTS = 2500  #: target size of the smallest trace of each shape
SIZE_DECADES = 1.0  #: largest target = MIN_EVENTS * 10 ** SIZE_DECADES
#: the two batch sizes served jobs stream at (see :func:`_batch_sizes`)
SMALL_BATCH, LARGE_BATCH = 1024, 8192
#: reference detector per verdict kind
REFERENCES = {"lattice2d": RaceDetector2D, "shb": SHBDetector}


def _injected(body, pairs: int):
    for _ in range(pairs):
        body = with_injected_race(body)
    return body


def _sp_bulk(target: int, i: int,
             rng: random.Random) -> Tuple[object, int, dict]:
    fanout = (4, 6, 8)[i % 3]
    per_task = 32
    rounds = max(3, round(target / (fanout * (per_task + 3))))
    racy = sorted(rng.sample(range(rounds), rng.randint(1, 3)))
    body = bulk_access_program(
        rounds, fanout, per_task, racy_rounds=racy, n_shared=4
    )
    params = {"rounds": rounds, "fanout": fanout, "per_task": per_task,
              "racy_rounds": racy}
    return body, len(racy), params


def _lattice(target: int, i: int,
             rng: random.Random) -> Tuple[object, int, dict]:
    ops = rng.randint(9, 11)
    cfg = SyntheticConfig(
        seed=rng.getrandbits(32),
        max_tasks=max(16, target // (ops + 2)),
        max_depth=12,
        ops_per_task=ops,
        leftover_probability=rng.uniform(0.3, 0.4),
        pattern=private(),
    )
    pairs = rng.randint(1, 3)
    params = {"max_tasks": cfg.max_tasks, "ops_per_task": ops,
              "leftover_probability": round(cfg.leftover_probability, 4),
              "program_seed": cfg.seed}
    return _injected(random_program(cfg), pairs), pairs, params


def _grid(target: int, i: int,
          rng: random.Random) -> Tuple[object, int, dict]:
    kind = ("wavefront", "pipeline", "blocked")[i % 3]
    if kind == "wavefront":
        rows = cols = max(4, round((target / 8) ** 0.5))
        items, stages = wavefront(rows, cols)
        params = {"rows": rows, "cols": cols}
        parallel: frozenset = frozenset()
    elif kind == "pipeline":
        n_stages, work = 5, 2
        n_items = max(2, round(target / (n_stages * (work + 6))))
        items, stages = clean_pipeline(n_items, n_stages, work)
        # One parallel middle stage: its segments are absorbed as
        # leftovers by the next serial stage's joins.
        parallel = frozenset({1})
        params = {"items": n_items, "stages": n_stages, "work": work}
    else:
        bh = bw = (2, 4)[i // 3 % 2]
        side = max(2, round((target / (bh * bw + 2 * bh + 3)) ** 0.5))
        items, stages = blocked_wavefront(side * bh, side * bw, bh, bw)
        parallel = frozenset()
        params = {"blocks": side, "block": bh}
    params["kind"] = kind
    pairs = rng.randint(1, 3)
    body = pipeline_body(PipelineSpec(tuple(items), tuple(stages), parallel))
    return _injected(body, pairs), pairs, params


_BUILDERS = {"sp_bulk": _sp_bulk, "lattice": _lattice, "grid": _grid}


def _batch_sizes(entries: List[dict]) -> None:
    """Give each trace the batch size its served jobs stream at.

    Within each shape, traces alternate between the two sizes in size
    order, so about half of all events -- and half of each shape's --
    travel at each size, and small-batch frames are ~8/9 of all frames.
    """
    for shape in SHAPES:
        ranked = sorted(
            (e for e in entries if e["shape"] == shape),
            key=lambda e: e["events"],
        )
        for i, entry in enumerate(ranked):
            entry["batch_size"] = SMALL_BATCH if i % 2 == 0 else LARGE_BATCH


def corpus_dir(cache: Path, seed: int) -> Path:
    return cache / "corpus" / f"v{CORPUS_VERSION}-seed-{seed}"


def generate(cache: Path, seed: int) -> Path:
    """The corpus directory for ``seed``, generated on first use."""
    root = corpus_dir(cache, seed)
    if (root / "manifest.json").is_file():
        return root
    staging = root.with_name(root.name + f".tmp{os.getpid()}")
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    rng = random.Random(f"perfbench-corpus-{seed}")
    entries = []
    for shape in SHAPES:
        for i in range(TRACES_PER_SHAPE):
            exponent = SIZE_DECADES * i / (TRACES_PER_SHAPE - 1)
            target = round(MIN_EVENTS * 10 ** exponent)
            # A random lattice can die out early; redraw it until it
            # lands near its stratum's size.
            for _ in range(50):
                body, pairs, params = _BUILDERS[shape](target, i, rng)
                builder = BatchBuilder()
                run(body, observers=[builder])
                batch = builder.batch
                if len(batch) >= 0.6 * target:
                    break
            else:
                raise RuntimeError(f"no {shape} trace near {target} events")
            name = f"{shape}-{i:02d}"
            write_trace(str(staging / f"{name}.rpr2trc"), batch,
                        builder.interner)
            counts = batch.counts()
            entries.append({
                "name": name,
                "shape": shape,
                "file": f"{name}.rpr2trc",
                "target_events": target,
                "events": len(batch),
                "tasks": counts["fork"] + 1,
                "locations": len(builder.interner),
                "injected_pairs": pairs,
                "params": params,
            })
    _batch_sizes(entries)
    manifest = {"version": CORPUS_VERSION, "seed": seed, "traces": entries}
    (staging / "manifest.json").write_text(json.dumps(manifest, indent=1))
    try:
        staging.rename(root)
    except OSError:  # another process finished the same seed first
        shutil.rmtree(staging, ignore_errors=True)
    return root


def load_manifest(root: Path) -> List[dict]:
    return json.loads((root / "manifest.json").read_text())["traces"]


def per_event_races(detector, batch: EventBatch) -> List[list]:
    """Drive ``detector`` through the observer API one event at a time
    and return its reports as ``[lid, task, kind, prior_kind,
    prior_repr, op_index]`` rows (every field the wire keeps)."""
    detector.on_root(0)
    calls = {OP_READ: detector.on_read, OP_WRITE: detector.on_write,
             OP_FORK: detector.on_fork, OP_JOIN: detector.on_join}
    on_halt, on_step = detector.on_halt, detector.on_step
    for op, a, b in zip(batch.ops, batch.a, batch.b):
        if op == OP_HALT:
            on_halt(a)
        elif op == OP_STEP:
            on_step(a)
        else:
            calls[op](a, b)
    return [
        [r.loc, r.task, r.kind.value, r.prior_kind.value, r.prior_repr,
         r.op_index]
        for r in detector.races
    ]


def build_reference(root: Path, kind: str) -> Dict[str, List[list]]:
    """Reference verdicts of kind ``lattice2d`` or ``shb`` for every
    trace, cached next to the manifest.

    Raises :class:`RuntimeError` when a reference reports a different
    number of races than the trace has injected pairs: the corpus is
    race-free by construction apart from those pairs.
    """
    path = root / f"reference-{kind}.json"
    if path.is_file():
        return json.loads(path.read_text())
    reference = {}
    for entry in load_manifest(root):
        batch, _ = read_trace(str(root / entry["file"]))
        rows = per_event_races(REFERENCES[kind](), batch)
        if len(rows) != entry["injected_pairs"]:
            raise RuntimeError(
                f"{entry['name']}: the {kind} reference reports "
                f"{len(rows)} races but {entry['injected_pairs']} pairs "
                f"were injected"
            )
        reference[entry["name"]] = rows
    staging = path.with_name(path.name + f".tmp{os.getpid()}")
    staging.write_text(json.dumps(reference))
    os.replace(staging, path)
    return reference
