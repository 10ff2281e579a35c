"""The repository benchmark: one command, four workloads, verdicts checked.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload replay|predict|serve|gateway \\
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes the per-layer run (an untraced window, then a traced
one, plus the wire probe for served workloads).  Every metric is printed
by name with its unit; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
status is 0 only when every verdict matched the reference and the system
under test started and stopped cleanly.  ``error_rate`` (failed jobs over
attempted jobs) is printed with the metrics and carried by ``attempted``
and ``failed`` in the JSON.  End-to-end timings are reported at nominal
host speed (:class:`sut.HostSpeed`); the raw values are printed too.

The seeded corpus, its reference verdicts, the system-under-test logs and
the span files live under ``.perfbench_cache/`` in the checkout.  See
``perfbench/README.md`` for the workloads, metrics and how they interact.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".perfbench_cache"
#: the benchmark builds nothing: it runs the checkout's own sources
HAVE_SOURCES = (ROOT / "src" / "repro").is_dir()
if HAVE_SOURCES:
    sys.path.insert(0, str(ROOT / "src"))
    import corpus  # noqa: E402
    import layers  # noqa: E402
    import load  # noqa: E402
    import sut  # noqa: E402
WORKLOADS = ("replay", "predict", "serve", "gateway")
#: system-under-test start-ups per end-to-end run; setup_s is their median
SETUPS = 3
#: an end-to-end window is cut into this many rounds; every timing metric
#: is the median of its per-round values, so a slow spell on a shared
#: host moves at most a minority of rounds
ROUNDS = 5
#: a run needs this many jobs in its window for p90 to have 10 beyond it
MIN_JOBS = 100
#: events of the traced window pushed through the wire probe
PROBE_EVENTS = 400_000


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Run:
    """One workload on one seed: corpus, load, system under test."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.offline = workload in ("replay", "predict")
        self.root = corpus.generate(CACHE, seed)
        self.manifest = corpus.load_manifest(self.root)
        self.reference = corpus.build_reference(
            self.root, "shb" if workload == "predict" else "lattice2d"
        )
        logs = CACHE / "logs"
        logs.mkdir(parents=True, exist_ok=True)
        self.log = logs / f"{workload}-seed{seed}.log"
        self.log.write_bytes(b"")
        self.harness_errors: List[str] = []
        self.legs: list = []
        if self.offline:
            self.load = load.OfflineLoad(self.root, self.manifest,
                                         self.reference, seed)
        else:
            self.load = load.ServedLoad(self.root, self.manifest,
                                        self.reference, seed,
                                        gateway=workload == "gateway")

    def start(self, workers: int = 0):
        if self.offline:
            return sut.Replayer(self.workload, CACHE, self.log)
        workers = workers or (2 if self.workload == "gateway" else 1)
        return sut.Server(workers, CACHE, self.log)

    def stop(self, system) -> None:
        try:
            system.stop()
        except sut.HarnessError as exc:
            self.harness_errors.append(str(exc))

    def cpu(self, system) -> Dict[str, float]:
        """CPU seconds so far, per process role."""
        out = {"client": time.process_time()}
        if self.offline:
            out["replayer"] = sut.cpu_seconds(system.proc.pid)
        elif self.workload == "serve":
            out["server"] = sut.cpu_seconds(system.proc.pid)
        else:
            out["gateway"] = sut.cpu_seconds(system.proc.pid)
            out["gateway.workers"] = sum(
                sut.cpu_seconds(p) for p in system.worker_pids)
        return out

    def keep(self, leg):
        """Record ``leg`` so its jobs count as attempted (and failed)."""
        self.legs.append(leg)
        return leg

    # -- end-to-end -----------------------------------------------------------

    def end_to_end(self) -> Dict[str, float]:
        setups = []
        system = None
        for i in range(SETUPS):
            t0 = time.perf_counter()
            system = self.start()
            setups.append(time.perf_counter() - t0)
            if i < SETUPS - 1:
                self.stop(system)
        try:
            self.load.attach(system)
            self.keep(self.load.warmup(load.warmup_entries(self.manifest)))
            host = sut.HostSpeed()
            legs = []
            for _ in range(ROUNDS):
                host.sample(system.pids())
                legs.append(self.keep(
                    self.load.leg(self.seconds / ROUNDS, False)))
            host.sample(system.pids())
            rss_kb = sum(sut.peak_rss_kb(p) for p in system.pids())
            if not self.offline:
                self.scrape_summary(system)
        finally:
            self.stop(system)
        try:
            host.check_idle()
        except sut.HarnessError as exc:
            self.harness_errors.append(str(exc))
        jobs = sum(len(leg.jobs) for leg in legs)
        if jobs < MIN_JOBS:
            print(f"warning: only {jobs} jobs in the window "
                  f"(want >= {MIN_JOBS})", file=sys.stderr)
        rounds = [self.round_metrics(leg) for leg in legs]
        print(f"  {jobs} jobs, {sum(len(leg.batch_ns) for leg in legs)} "
              f"batches; events_per_s by round "
              + ", ".join(f"{r['events_per_s']:.0f}" for r in rounds)
              + "; setups " + ", ".join(f"{s:.3f}s" for s in setups))
        raw = {name: median(r[name] for r in rounds) for name in rounds[0]}
        raw["setup_s"] = median(setups)
        print(f"  host speed factor {host.factor:.4f} (mean calibration "
              f"pass {host.factor * sut.NOMINAL_PASS_S * 1e3:.2f} ms); raw "
              + ", ".join(f"{k}={v:.6g}" for k, v in raw.items()))
        # Timings at nominal host speed: a rate scales with the factor,
        # a duration against it.
        metrics = {
            name: value * host.factor if name == "events_per_s"
            else value / host.factor
            for name, value in raw.items()
        }
        metrics["peak_rss_mb"] = rss_kb / 1024
        return metrics

    @staticmethod
    def round_metrics(leg) -> Dict[str, float]:
        job_ms = [job.job_ns / 1e6 for job in leg.jobs if job.ok]
        batch_ms = [ns / 1e6 for ns in leg.batch_ns]
        return {
            "events_per_s": leg.events / leg.wall_s,
            "job_latency_p50_ms": layers.pct(job_ms, 50),
            "job_latency_p90_ms": layers.pct(job_ms, 90),
            "batch_latency_p50_ms": layers.pct(batch_ms, 50),
            "batch_latency_p99_ms": layers.pct(batch_ms, 99),
        }

    def scrape_summary(self, system) -> None:
        samples = system.scrape()
        names = ("serve_events_total", "serve_credit_stalls_total",
                 "serve_queue_depth_max", "cluster_events_total",
                 "cluster_credit_stalls_total",
                 "cluster_worker_respawns_total")
        shown = {n: sut.sample(samples, n) for n in names
                 if any(s[0] == n for s in samples)}
        print("  metrics port: " + ", ".join(
            f"{n}={v:g}" for n, v in shown.items()))

    # -- per-layer ------------------------------------------------------------

    def per_layer(self, names: List[str]) -> Dict[str, float]:
        system = self.start()
        served = None
        try:
            self.load.attach(system)
            self.keep(self.load.warmup(load.warmup_entries(self.manifest)))
            before = None if self.offline else system.scrape()
            cpu0 = self.cpu(system)
            untraced = self.keep(self.load.leg(self.seconds / 2, False))
            cpu1 = self.cpu(system)
            after = None if self.offline else system.scrape()
            traced = self.keep(self.load.leg(self.seconds / 2, True))
        finally:
            self.stop(system)
        cpu = {k: cpu1[k] - cpu0[k] for k in cpu0}
        if not self.offline:
            served = self.served_inputs(untraced, traced, before, after)
        spans = CACHE / "spans" / f"{self.workload}-seed{self.seed}.json"
        wall_ns = int(traced.wall_s * 1e9)
        layers.write_spans(spans, [lane.spans for lane in traced.lanes], {
            "workload": self.workload, "seed": self.seed,
            "wall_ns": wall_ns, "lanes": len(traced.lanes),
        })
        times = layers.self_times(spans)
        print(f"  spans written to {spans.relative_to(ROOT)}; self time "
              f"by layer, share of lane time: " + ", ".join(
                  f"{layer} {share:.3f}" for layer, share in
                  layers.layer_shares(times, len(traced.lanes) * wall_ns)
                  .items()))
        return layers.per_layer(
            self.workload, names, times,
            traced_events=traced.events,
            traced_races=sum(lane.races for lane in traced.lanes),
            wall_ns=wall_ns, lanes=len(traced.lanes),
            untraced_eps=untraced.events / untraced.wall_s,
            traced_eps=traced.events / traced.wall_s,
            cpu=cpu, untraced_events=untraced.events, served=served,
        )

    def served_inputs(self, untraced, traced, before, after) -> dict:
        def delta(name: str) -> float:
            return sut.sample(after, name) - sut.sample(before, name)

        names = ("serve_batch_service_seconds_sum",
                 "serve_batch_service_seconds_count",
                 "serve_credit_stalls_total",
                 "cluster_lifecycle_events_total",
                 "cluster_credit_stalls_total")
        gateway = self.workload == "gateway"
        streams = (self.load.pieces[name] for name in self.load.traced_jobs)
        served = {
            "probe": layers.wire_probe(streams, gateway, PROBE_EVENTS),
            "bytes_in": sum(lane.bytes_in for lane in traced.lanes),
            "bytes_out": sum(lane.bytes_out for lane in traced.lanes),
            "batch_ns": untraced.batch_ns,
            "delta": {name: delta(name) for name in names},
            "queue_depth_max": sut.sample(after, "serve_queue_depth_max"),
        }
        if gateway:
            routed0 = sut.by_label(before, "cluster_routed_accesses_total",
                                   "worker")
            routed1 = sut.by_label(after, "cluster_routed_accesses_total",
                                   "worker")
            served["routed"] = [routed1[k] - routed0.get(k, 0.0)
                                for k in sorted(routed1)]
            # The same traffic against one server: the gateway's added
            # batch latency is the difference of the two medians.
            control = load.ServedLoad(self.root, self.manifest,
                                      self.reference, self.seed,
                                      gateway=False)
            system = self.start(workers=1)
            try:
                control.attach(system)
                self.keep(control.warmup(
                    load.warmup_entries(self.manifest)))
                leg = self.keep(control.leg(self.seconds / 2, False))
            finally:
                self.stop(system)
            served["control_ns"] = leg.batch_ns
        return served


def _print_metrics(title: str, metrics: Dict[str, float],
                   units: Dict[str, str]) -> None:
    print(f"  {title}:")
    for name, value in metrics.items():
        print(f"    {name:38s} {value:16.6f} {units[name]}")


def _terminate(signum, frame):
    # Unwind through the finally blocks that stop the system under test.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not HAVE_SOURCES:
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    run = Run(args.workload, args.seed, args.seconds)
    if args.trace:
        metrics = run.per_layer(list(units))
    else:
        metrics = run.end_to_end()
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} do not match "
            f"BENCHMARK.json's {group}"
        )
    jobs = [job for leg in run.legs for job in leg.jobs]
    failed = [job for job in jobs if not job.ok]
    for job in failed[:10]:
        print(f"  FAILED {job.name}: {job.error}", file=sys.stderr)
    for error in run.harness_errors:
        print(f"  HARNESS {error}", file=sys.stderr)
    correct = not failed and not run.harness_errors and bool(jobs)
    _print_metrics(group.replace("_", "-"), metrics, units)
    print(f"    {'error_rate':38s} {len(failed) / max(1, len(jobs)):16.6f} "
          f"share ({len(failed)} of {len(jobs)} jobs failed)")
    print(json.dumps({
        "correct": correct,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
