"""The serving fleet the benchmark drives, built only through the
public API of ``repro``.

- :class:`Fleet` is the timed set-up: compress and publish the bench
  CNN under each codec a workload serves, load the registry, deploy
  the engines behind one :class:`~repro.serving.ServingHost`, start
  the pools, and warm them.
- :class:`Traffic` holds a seed's inputs (a sample pool, and per
  request a sample and a target bundle), sends them through a load
  generator, and checks every served row against the reference
  outputs from :func:`reference_outputs`.
- The ``probe_*`` functions time direct calls into single layers
  (codec decode, forward pass, rebuild cache, process pool) and record
  them as the benchmark's own spans.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench import loadgen
from repro import nn
from repro.codecs import get_codec
from repro.compression import (
    FP8Quantizer,
    LinearQuantizer,
    MagnitudePruner,
    Pow2Quantizer,
)
from repro.core import SmartExchangeConfig, apply_smartexchange
from repro.serving import (
    ArtifactStore,
    InferenceEngine,
    ModelRegistry,
    RebuildEngine,
    ServingHost,
    StaticBatchPolicy,
)

IMAGE_SHAPE = (3, 16, 16)
OUTPUT_DIM = 10
SAMPLE_POOL = 256
ALL_CODECS = (
    "smartexchange",
    "dense",
    "quant-linear",
    "quant-pow2",
    "quant-fp8",
    "prune-csr",
)
_BASELINES = {
    "quant-linear": lambda: LinearQuantizer(8),
    "quant-pow2": lambda: Pow2Quantizer(4),
    "quant-fp8": lambda: FP8Quantizer(),
    "prune-csr": lambda: MagnitudePruner(0.6),
}
# A served row passes when |row - ref| <= ATOL + RTOL * |ref|
# elementwise: loose enough for a float32 forward (it differs from the
# float64 autograd forward by at most 3.8e-7 on this model), tight
# enough that a wrong or stale weight fails.
RTOL, ATOL = 1e-4, 1e-5
# Batch wait budget of every workload's StaticBatchPolicy.
MAX_WAIT_S = 0.002


def build_model(seed: int) -> nn.Module:
    """The bench CNN of ``benchmarks/bench_serving_throughput.py``,
    kept here so the benchmark does not change when that script does."""
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Conv2d(3, 16, 3, padding=1, bias=False, rng=rng),
        nn.BatchNorm2d(16),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Conv2d(16, 32, 3, padding=1, bias=False, rng=rng),
        nn.BatchNorm2d(32),
        nn.ReLU(),
        nn.GlobalAvgPool2d(),
        nn.Flatten(),
        nn.Linear(32, 10, rng=rng),
    )


def bundle_name(codec: str) -> str:
    return f"cnn-{codec}"


def publish(store: ArtifactStore, codec: str) -> None:
    """Compress the bench CNN (weights from seed 0) under ``codec``."""
    model = build_model(seed=0)
    name = bundle_name(codec)
    if codec == "smartexchange":
        config = SmartExchangeConfig(max_iterations=6, target_row_sparsity=0.5)
        _, report = apply_smartexchange(model, config, model_name=name)
        store.publish(report, config, name=name, model=model)
    elif codec == "dense":
        store.publish_model(model, name=name, codec="dense")
    else:
        report = _BASELINES[codec]().compress(model, name)
        store.publish_compressed(report, name=name, model=model)


@dataclass(frozen=True)
class Workload:
    """A fleet shape plus the load sent to it.

    A closed loop when ``in_flight`` > 0, an open loop of Poisson
    arrivals at ``rate`` per second otherwise.  ``pin`` pins each
    request to one bundle by a seeded uniform mix; without it the
    host's routing policy picks among every engine.
    """

    name: str
    codecs: Tuple[str, ...]
    replicas: int
    routing: str
    backend: str
    workers: int
    max_batch: int
    cache_bytes: Optional[int]
    in_flight: int = 0
    rate: float = 0.0
    pin: bool = False


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "warm-thread",
            codecs=("smartexchange",),
            replicas=1,
            routing="round-robin",
            backend="thread",
            workers=2,
            max_batch=16,
            cache_bytes=None,
            in_flight=32,
        ),
        Workload(
            "rebuild-always",
            codecs=("smartexchange", "prune-csr", "quant-pow2", "quant-fp8"),
            replicas=1,
            routing="round-robin",
            backend="thread",
            workers=1,
            max_batch=4,
            cache_bytes=0,
            in_flight=16,
            pin=True,
        ),
        Workload(
            "open-process",
            codecs=("smartexchange",),
            replicas=2,
            routing="least-loaded",
            backend="process",
            workers=1,
            max_batch=16,
            cache_bytes=None,
            rate=1500.0,
        ),
    )
}


class Fleet:
    """A published store, its registry, and a started, warmed host.

    Construction is the set-up the benchmark times (``setup_s``), with
    the compress-and-publish share in ``publish_s``.  Warm-up sends
    every engine two full batches pinned to it, then resets the host's
    and engines' counters.  :meth:`close` stops every pool, unlinks
    the shared-memory arenas, and deletes the store.
    """

    def __init__(
        self, workload: Workload, root: Path, observability=None
    ) -> None:
        self.workload = workload
        self.root = Path(root)
        self.registry: Optional[ModelRegistry] = None
        self.host: Optional[ServingHost] = None
        start = time.perf_counter()
        try:
            self.store = ArtifactStore(self.root)
            for codec in workload.codecs:
                publish(self.store, codec)
            self.publish_s = time.perf_counter() - start
            self.registry = ModelRegistry(self.store, observability=observability)
            self.host = ServingHost(
                self.registry,
                routing=workload.routing,
                observability=observability,
            )
            for codec in workload.codecs:
                for _ in range(workload.replicas):
                    self.host.deploy(
                        bundle_name(codec),
                        build_model(seed=1),
                        policy=StaticBatchPolicy(workload.max_batch, MAX_WAIT_S),
                        cache_bytes=workload.cache_bytes,
                    )
            self.host.start(workers=workload.workers, backend=workload.backend)
            self._warm()
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - start

    def _warm(self) -> None:
        sample = np.ones(IMAGE_SHAPE)
        count = 2 * self.workload.max_batch * self.workload.workers
        tickets = [
            self.host.submit(sample, model=key)
            for key in self.host.engines()
            for _ in range(count)
        ]
        for ticket in tickets:
            ticket.result(timeout=60.0)
        self.reset_stats()

    def reset_stats(self) -> None:
        self.host.stats.reset()
        for engine in self.host.engines().values():
            engine.stats.reset()
            engine.rebuild.reset_stats()

    def close(self) -> None:
        try:
            if self.host is not None:
                self.host.stop()
        finally:
            if self.registry is not None:
                self.registry.close()
            shutil.rmtree(self.root, ignore_errors=True)


def reference_model(handle) -> nn.Module:
    """A fresh skeleton with each layer's codec decode installed."""
    model = build_model(seed=1)
    if handle.residual is not None:
        model.load_state_dict(handle.residual, strict=False)
    modules = dict(model.named_modules())
    for name, spec in handle.layer_specs.items():
        payload = handle.payloads[name]
        weight = get_codec(payload.codec).decode(payload)
        modules[name].weight.data[...] = weight.reshape(spec.weight_shape)
    return model.eval()


def reference_outputs(
    registry: ModelRegistry, codecs, samples: np.ndarray
) -> np.ndarray:
    """``(len(codecs), len(samples), OUTPUT_DIM)``: the autograd
    forward of each bundle's reference model over the sample pool."""
    return np.stack(
        [
            np.asarray(reference_model(registry.get(bundle_name(c)))(samples).data)
            for c in codecs
        ]
    )


@dataclass
class Outcome:
    """One load run plus its output check."""

    run: loadgen.LoadRun
    failed: int
    max_abs_error: float


class Traffic:
    """A seed's inputs for one workload, sent and checked.

    The sample pool and the per-request plan (sample, target bundle)
    come from ``seed`` alone; the open-loop arrival schedule too.
    """

    def __init__(self, workload: Workload, seed: int, capacity: int = 1 << 18):
        self.workload = workload
        self.seed = seed
        self.capacity = capacity
        self.samples = np.random.default_rng([seed, 0]).normal(
            size=(SAMPLE_POOL, *IMAGE_SHAPE)
        )
        self.sample_index, self.target_index = loadgen.request_plan(
            [seed, 1], capacity, SAMPLE_POOL, len(workload.codecs)
        )

    def run(
        self, host: ServingHost, refs: np.ndarray, seconds: float, ramp_s: float
    ) -> Outcome:
        workload = self.workload
        samples, sample_index = self.samples, self.sample_index
        target_index = self.target_index
        targets = [bundle_name(codec) for codec in workload.codecs]
        if workload.pin:

            def submit(i: int):
                return host.submit(
                    samples[sample_index[i]], model=targets[target_index[i]]
                )

        else:

            def submit(i: int):
                return host.submit(samples[sample_index[i]])

        rows = np.full((self.capacity, OUTPUT_DIM), np.nan)

        def on_done(i: int, ticket) -> None:
            try:
                rows[i] = ticket.result(timeout=0)
            except Exception:
                pass  # the row stays NaN and fails the check

        if workload.in_flight:
            run = loadgen.closed_loop(
                submit,
                workload.in_flight,
                seconds,
                ramp_s=ramp_s,
                capacity=self.capacity,
                on_done=on_done,
            )
        else:
            schedule = loadgen.poisson_schedule(
                workload.rate, ramp_s + seconds, [self.seed, 2]
            )
            run = loadgen.open_loop(
                submit, schedule[: self.capacity], ramp_s=ramp_s, on_done=on_done
            )
        n = run.count
        expected = refs[target_index[:n], sample_index[:n]]
        error = np.abs(rows[:n] - expected)
        ok = np.all(error <= ATOL + RTOL * np.abs(expected), axis=1)
        finite = error[np.isfinite(error)]
        return Outcome(
            run=run,
            failed=int(n - np.count_nonzero(ok)),
            max_abs_error=float(finite.max()) if finite.size else float("nan"),
        )


class BenchSpans:
    """Spans the benchmark records around its own direct calls.

    Callers read the clock themselves (``start = time.perf_counter()``
    before the call, ``time.perf_counter()`` as the ``end`` argument)
    so nothing but the call sits inside the timed interval.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, Dict]] = []

    def add(self, name: str, start: float, end: float, **tags) -> None:
        self.spans.append((name, start, end, tags))

    def durations(self, name: str, **tags) -> np.ndarray:
        return np.array(
            [
                end - start
                for span_name, start, end, span_tags in self.spans
                if span_name == name
                and all(span_tags.get(k) == v for k, v in tags.items())
            ]
        )

    def durations_by(self, name: str, key: str, **tags) -> Dict[str, np.ndarray]:
        """:meth:`durations` grouped by the value of tag ``key``."""
        values = {
            span_tags[key]
            for span_name, _, _, span_tags in self.spans
            if span_name == name
            and key in span_tags
            and all(span_tags.get(k) == v for k, v in tags.items())
        }
        return {
            value: self.durations(name, **tags, **{key: value})
            for value in sorted(values)
        }

    def as_dicts(self) -> List[Dict]:
        return [
            {"name": name, "start_s": start, "duration_s": end - start, "tags": tags}
            for name, start, end, tags in self.spans
        ]


def probe_codecs(
    store: ArtifactStore, registry: ModelRegistry, spans: BenchSpans, reps: int
) -> Dict[str, int]:
    """Time ``get_codec(c).decode(payload)`` over every layer of each
    codec's bundle (publishing bundles the workload did not serve);
    returns each bundle's payload bytes."""
    published = set(registry.models())
    payload_bytes = {}
    for codec in ALL_CODECS:
        if bundle_name(codec) not in published:
            publish(store, codec)
        handle = registry.get(bundle_name(codec))
        layers = {name: handle.payloads[name] for name in handle.layer_specs}
        for rep in range(reps + 1):
            for name, payload in layers.items():
                decoder = get_codec(payload.codec)
                start = time.perf_counter()
                decoder.decode(payload)
                end = time.perf_counter()
                if rep:  # the first pass warms
                    spans.add("codecs.decode", start, end, codec=codec, layer=name)
        payload_bytes[codec] = handle.manifest.payload_bytes
    return payload_bytes


def probe_forward(
    registry: ModelRegistry, samples: np.ndarray, spans: BenchSpans, reps: int
) -> None:
    """Time ``skeleton(batch)`` at batch 16 and 4 (a warmed call first)."""
    model = reference_model(registry.get(bundle_name("smartexchange")))
    for size in (16, 4):
        batch = samples[:size]
        model(batch)
        for _ in range(reps):
            start = time.perf_counter()
            model(batch)
            spans.add("nn.forward", start, time.perf_counter(), batch=size)


def probe_rebuild(
    registry: ModelRegistry, codecs, spans: BenchSpans, reps: int
) -> None:
    """Time ``RebuildEngine.layer_weight`` hits (warm, unbounded cache)
    and misses (``capacity_bytes=0``) over the workload's bundles."""
    for codec in codecs:
        handle = registry.get(bundle_name(codec))
        warm = RebuildEngine(handle.payloads, handle.layer_specs)
        warm.warm()
        cold = RebuildEngine(handle.payloads, handle.layer_specs, capacity_bytes=0)
        for _ in range(reps):
            for name in handle.layer_specs:
                start = time.perf_counter()
                warm.layer_weight(name)
                spans.add("rebuild.layer_weight", start, time.perf_counter(), hit=True)
                start = time.perf_counter()
                cold.layer_weight(name)
                spans.add("rebuild.layer_weight", start, time.perf_counter(), hit=False)


def probe_batch(
    registry: ModelRegistry,
    samples: np.ndarray,
    size: int,
    spans: BenchSpans,
    reps: int,
) -> None:
    """Time what a worker does per batch, in this process: stack the
    samples, install each layer from a warm rebuild cache, forward."""
    handle = registry.get(bundle_name("smartexchange"))
    rebuild = RebuildEngine(handle.payloads, handle.layer_specs)
    model = reference_model(handle)
    modules = dict(model.named_modules())
    modules = {name: modules[name] for name in handle.layer_specs}
    rows = list(samples[:size])
    for rep in range(reps + 1):
        start = time.perf_counter()
        batch = np.stack(rows)
        stacked = time.perf_counter()
        for name, module in modules.items():
            module.weight.data[...] = rebuild.layer_weight(name)
        installed = time.perf_counter()
        model(batch)
        end = time.perf_counter()
        if rep:  # the first pass fills the cache
            spans.add("engine.install", stacked, installed, batch=size)
            spans.add("engine.compute", installed, end, batch=size)
            spans.add("engine.batch", start, end, batch=size)


def probe_procpool(
    registry: ModelRegistry,
    samples: np.ndarray,
    spans: BenchSpans,
    reps: int,
    size: int = 16,
) -> int:
    """Time one full batch's round trip through an idle one-process
    pool (submit to the last result); returns the pool's respawns."""
    engine = InferenceEngine(
        build_model(seed=1),
        registry.get(bundle_name("smartexchange")),
        policy=StaticBatchPolicy(size, 0.002),
    )
    engine.start(workers=1, backend="process")
    try:
        rows = list(samples[:size])
        for rep in range(reps + 2):
            start = time.perf_counter()
            tickets = [engine.submit(row) for row in rows]
            for ticket in tickets:
                ticket.result(timeout=30.0)
            end = time.perf_counter()
            if rep >= 2:  # the first two warm the worker's cache
                spans.add("procpool.batch", start, end, batch=size)
        return int(engine.summary().get("worker_respawns", 0))
    finally:
        engine.stop()
