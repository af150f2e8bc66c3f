"""Serving benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload warm-thread --seed 1 --seconds 10 --trace 0

It compresses and publishes the bench CNN, serves it through the
public serving API behind a ``ServingHost``, drives it from one load
generator thread, and checks every served row against a reference
(each layer's codec decode installed into a fresh skeleton, then the
autograd forward).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Workloads (each takes its inputs from ``--seed``):

- ``warm-thread``: one engine, unbounded warmed cache, two thread
  workers, batches of up to 16 (2 ms wait), a closed loop of 32 in
  flight.  The forward pass dominates; decode does almost nothing.
- ``rebuild-always``: four engines, one per codec (smartexchange,
  prune-csr, quant-pow2, quant-fp8), ``cache_bytes=0``, one thread
  worker each, batches of up to 4, a closed loop of 16 in flight
  pinned to bundles by a seeded uniform mix.  Every layer is decoded
  on every batch, the paper's accelerator mode.
- ``open-process``: two replicas of the smartexchange bundle behind
  ``least-loaded`` routing, one process worker each, warm unbounded
  caches, Poisson arrivals at 1500/s.  Queue wait, the batch wait
  budget, the pipe round trip and routing dominate.

``--trace 0`` measures ``--seconds`` with tracing off and reports the
end-to-end metrics: throughput; p50 latency; p99 latency as the median
over sub-windows of at least 1000 requests each (one host stall moves
one sub-window, not the whole tail); set-up time as the median of 15
full set-ups; peak RSS.  ``--trace 1`` runs half the
window untraced and half with ``Observability`` spans on, then times
direct calls into each layer, and reports the per-layer metrics; each
one's source (program spans, program counters, or the benchmark's own
timing) is printed beside it and written to ``perfbench/.out/``.

In a directory without the ``repro`` sources the command exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from typing import Dict

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / ".out"
WORK_DIR = HERE / ".work"
SETUP_REPEATS = 15
RAMP_S = 1.0
PROBE_REPS = 30
# Span-derived timings need this many samples; with fewer the
# benchmark's direct timing of the same call is reported instead.
MIN_SPAN_SAMPLES = 20


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Serving benchmark (see the module docstring)."
    )
    parser.add_argument(
        "--workload",
        required=True,
        choices=("warm-thread", "rebuild-always", "open-process"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def commit_id(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git;
    ``unknown`` outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp() -> Dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit_id(ROOT),
    }


def percentile_ms(values, q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if len(values) else float("nan")


def run_end_to_end(fleet_mod, workload, seed: int, seconds: float, work: Path):
    """``SETUP_REPEATS`` full set-ups (the last one serves), then one
    measured window."""
    setups = []
    # The measured fleet is the interpreter's first, so the window does
    # not depend on what earlier set-ups left in the heap; the other
    # set-ups only add samples to setup_s.
    fleet = fleet_mod.Fleet(workload, work / "setup-0")
    setups.append(fleet.setup_s)
    try:
        traffic = fleet_mod.Traffic(workload, seed)
        refs = fleet_mod.reference_outputs(
            fleet.registry, workload.codecs, traffic.samples
        )
        outcome = traffic.run(fleet.host, refs, seconds, RAMP_S)
    finally:
        fleet.close()
    for index in range(1, SETUP_REPEATS):
        fleet = fleet_mod.Fleet(workload, work / f"setup-{index}")
        setups.append(fleet.setup_s)
        fleet.close()
    run = outcome.run
    latencies = run.latencies_s()
    p99_s, p99_windows = run.windowed_percentile_s(99)
    metrics = {
        "throughput_rps": run.throughput_rps(),
        "latency_p50_ms": percentile_ms(latencies, 50),
        "latency_p99_ms": p99_s * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    sources = {name: "bench" for name in metrics}
    sources["latency_p99_ms"] = f"bench, median of {p99_windows} sub-windows"
    notes = {
        "latency_samples": int(len(latencies)),
        "latency_p99_ms_whole_window": percentile_ms(latencies, 99),
        "error_rate": outcome.failed / max(run.count, 1),
        "max_abs_error": outcome.max_abs_error,
        "timed_out": run.timed_out,
        "setup_s_each": setups,
    }
    return metrics, sources, run.count, outcome.failed, notes, []


def run_traced(fleet_mod, workload, seed: int, seconds: float, work: Path):
    """Half the window untraced, half traced, then the direct probes."""
    from repro.observability import Observability

    half = seconds / 2
    traffic = fleet_mod.Traffic(workload, seed)
    fleet = fleet_mod.Fleet(workload, work / "untraced")
    try:
        refs = fleet_mod.reference_outputs(
            fleet.registry, workload.codecs, traffic.samples
        )
        plain = traffic.run(fleet.host, refs, half, RAMP_S)
    finally:
        fleet.close()
    publish_s = [fleet.publish_s]

    obs = Observability(trace_capacity=1 << 19)
    fleet = fleet_mod.Fleet(workload, work / "traced", observability=obs)
    spans = fleet_mod.BenchSpans()
    try:
        publish_s.append(fleet.publish_s)
        obs.collector.drain()  # drop the warm-up's spans
        traced = traffic.run(fleet.host, refs, half, RAMP_S)
        summary = fleet.host.summary()
        dropped = obs.collector.dropped
        phases = obs.latency_breakdown()
        install_share = {}  # process spans overlap (see below): threads only
        for key in summary["per_engine"] if workload.backend == "thread" else ():
            engine_phases = obs.latency_breakdown(engine=key)
            install = engine_phases["rebuild"]["total_s"]
            compute = engine_phases["compute"]["total_s"]
            install_share[key] = install / max(install + compute, 1e-12)
        # Per-layer rebuild spans exist only where the rebuild engine
        # runs in this process (thread backend); process workers emit
        # none.
        layer_spans = {True: [], False: []}
        for span in obs.collector.drain():
            if span["name"] == "rebuild.layer":
                layer_spans[span["tags"].get("hit")].append(span["duration_s"])
        gc.collect()  # the drained spans would slow the probes' GC passes
        per_engine = summary["per_engine"].values()
        batches = sum(s["batches"] for s in per_engine)
        requests = sum(s["requests"] for s in per_engine)
        mean_batch = requests / max(batches, 1)
        payload_bytes = fleet_mod.probe_codecs(
            fleet.store, fleet.registry, spans, PROBE_REPS
        )
        fleet_mod.probe_forward(fleet.registry, traffic.samples, spans, PROBE_REPS)
        fleet_mod.probe_rebuild(fleet.registry, workload.codecs, spans, PROBE_REPS)
        batch_size = max(1, int(round(mean_batch)))
        fleet_mod.probe_batch(
            fleet.registry, traffic.samples, batch_size, spans, PROBE_REPS
        )
        fleet_mod.probe_procpool(fleet.registry, traffic.samples, spans, PROBE_REPS)
        handle = fleet.registry.get(fleet_mod.bundle_name("smartexchange"))
        layers = len(handle.layer_specs)
    finally:
        fleet.close()

    values: Dict[str, float] = {}
    sources: Dict[str, str] = {}

    def put(name: str, value: float, source: str) -> None:
        values[name] = float(value)
        sources[name] = source

    def median_us(durations) -> float:
        return float(np.median(durations)) * 1e6

    for codec in fleet_mod.ALL_CODECS:
        by_layer = spans.durations_by("codecs.decode", "layer", codec=codec)
        per_layer = [np.median(d) for d in by_layer.values()]
        put(f"codecs.decode_us.{codec}", np.mean(per_layer) * 1e6, "direct")
        put(f"codecs.payload_bytes.{codec}", payload_bytes[codec], "manifest")

    for kind, hit in (("hit", True), ("miss", False)):
        found = np.array(layer_spans[hit])
        if found.size >= MIN_SPAN_SAMPLES:
            put(f"rebuild.{kind}_us", found.mean() * 1e6, "spans")
        else:
            direct = spans.durations("rebuild.layer_weight", hit=hit)
            put(f"rebuild.{kind}_us", median_us(direct), "direct")
    hit_rate = summary["rebuild_hit_rate"]
    put("rebuild.hit_rate", hit_rate, "summary")
    if workload.backend == "thread":
        layer_seconds = sum(layer_spans[True]) + sum(layer_spans[False])
        put("rebuild.seconds_per_batch", layer_seconds / max(batches, 1), "spans")
        put("engine.install_ms", phases["rebuild"]["mean_ms"], "spans")
        put("engine.compute_ms", phases["compute"]["mean_ms"], "spans")
        busy = sum(s["busy_seconds"] for s in per_engine)
        put("engine.batch_ms", busy / max(batches, 1) * 1e3, "summary")
    else:
        # The process pool anchors its rebuild/compute spans at the
        # parent's send time, so under its depth-2 pipeline they
        # overlap; time the same per-batch work directly instead.
        per_access = (
            hit_rate * values["rebuild.hit_us"]
            + (1 - hit_rate) * values["rebuild.miss_us"]
        ) * 1e-6
        put("rebuild.seconds_per_batch", per_access * layers, "direct+summary")
        for part in ("install", "compute", "batch"):
            durations = spans.durations(f"engine.{part}", batch=batch_size)
            put(f"engine.{part}_ms", float(np.median(durations)) * 1e3, "direct")
    for size in (16, 4):
        forward = spans.durations("nn.forward", batch=size)
        put(f"nn.forward_ms.b{size}", float(np.median(forward)) * 1e3, "direct")
    put("batching.queue_wait_ms.p50", phases["queue_wait"]["p50_ms"], "spans")
    put("batching.queue_wait_ms.p95", phases["queue_wait"]["p95_ms"], "spans")
    put("batching.mean_batch", mean_batch, "summary")
    procpool = spans.durations("procpool.batch")
    put("procpool.batch_ms", float(np.median(procpool)) * 1e3, "direct")
    respawns = sum(s.get("worker_respawns", 0) for s in per_engine)
    put("procpool.respawns", respawns, "summary")
    put("host.submit_us", median_us(plain.run.submit_s()), "bench")
    routed = summary["routed_by_engine"]
    shares = [routed.get(key, 0) for key in summary["per_engine"]]
    put("host.routed_share_min", min(shares) / max(sum(shares), 1), "summary")
    put("loadgen.late_p99_ms", percentile_ms(plain.run.lateness_s(), 99), "bench")
    put(
        "observability.overhead_frac",
        1.0 - traced.run.throughput_rps() / plain.run.throughput_rps(),
        "bench",
    )
    put("core.publish_s", statistics.median(publish_s), "bench")

    attempted = plain.run.count + traced.run.count
    failed = plain.failed + traced.failed
    notes = {
        "error_rate": failed / max(attempted, 1),
        "untraced_throughput_rps": plain.run.throughput_rps(),
        "traced_throughput_rps": traced.run.throughput_rps(),
        "spans_dropped": dropped,
        "latency_p50_ms_untraced": percentile_ms(plain.run.latencies_s(), 50),
        "max_abs_error": max(plain.max_abs_error, traced.max_abs_error),
        "timed_out": plain.run.timed_out + traced.run.timed_out,
        "install_share_by_engine": install_share,
        "phases": phases,
    }
    return values, sources, attempted, failed, notes, spans.as_dicts()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "serving").is_dir():
        print(
            f"perfbench: no repro sources under {ROOT / 'src'}; "
            "run from a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import fleet as fleet_mod

    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    workload = fleet_mod.WORKLOADS[args.workload]
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        runner = run_traced if args.trace else run_end_to_end
        values, sources, attempted, failed, notes, bench_spans = runner(
            fleet_mod, workload, args.seed, args.seconds, work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    _stop_resource_tracker()

    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    missing = set(units) - set(values)
    if missing:
        raise SystemExit(f"perfbench: metrics not measured: {sorted(missing)}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    info = stamp()
    print(f"stamp {json.dumps(info, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name in units:
        print(f"  {name:36s} {values[name]:14.6g} {units[name]:6s} [{sources[name]}]")
    for key, value in notes.items():
        if key != "phases":
            print(f"  note {key}: {value}")
    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "stamp": info,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "metrics": {
            name: {**metrics[name], "source": sources[name]} for name in units
        },
        "notes": notes,
        "bench_spans": bench_spans,
    }
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's resource-tracker helper process, which
    shared-memory arenas start, so no process outlives the run."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
