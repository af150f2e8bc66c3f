"""Process-backed worker pool: GIL-free scaling over shared payloads.

The thread pool in :mod:`repro.serving.engine` scales until the GIL
binds — on small models the numpy substrate releases it only inside
large BLAS calls, so four threads install and forward barely faster
than one.  This module swaps the execution substrate while keeping
every queueing contract intact:

- The parent keeps the one shared :class:`RequestQueue`, the
  :class:`BatchPolicy`, tickets, tracing, tenant accounting, and
  stats, and hands every batch through the engine's lifecycle
  (``dequeued``, then ``completed`` or ``failed``) exactly as a thread
  worker does — ``submit()`` / ``submit_async()`` callers cannot tell
  the backends apart.
- One **feeder thread per worker process** drains the queue with
  ``next_batch()`` (identical batching semantics to a thread worker),
  ships the stacked batch over a private pipe, and blocks in
  ``Connection.recv`` — which releases the GIL, so N feeders cost
  nothing while N processes compute.
- Each **worker process** attaches the bundle's
  :class:`~repro.serving.arena.SharedPayloadArena` read-only (checksum
  validated), builds its *own* :class:`RebuildEngine` over the shared
  views — per-process dense cache, same admission policy and tier
  hierarchy as the parent — plus its own model skeleton, and serves
  batches until it reads the shutdown sentinel.  Each reply carries
  the child's own phase stamps, so spans and batch latency measure
  its busy time, not a batch's wait in the pipe.
- A worker that dies mid-batch (OOM-killed, ``kill -9``) fails only
  its in-flight tickets — each with its own exception instance via
  :func:`per_ticket_error` — and is respawned; queued requests behind
  it are served by the replacement.

Cache counters from each child ride back on every reply as cumulative
totals; the parent folds the deltas into its engine's
``rebuild.stats`` so ``summary()`` reports fleet totals, and (with
observability enabled) folds the same deltas into a per-worker-slot
``source``-labelled metrics registry, whose counters keep counting
across that slot's respawns.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.costs import CodecCostModel
from repro.observability import MetricsRegistry
from repro.serving.arena import SharedPayloadArena, ArenaManifest
from repro.serving.batching import (
    QueueClosed,
    RequestQueue,
    Ticket,
    stack_batch,
)
from repro.serving.execute import BatchRun, SkeletonPlan, execute_batch
from repro.serving.rebuild import RebuildCacheStats, RebuildEngine

#: Start method for worker processes.  ``fork`` makes spawning cheap
#: (the model skeleton and specs ride copy-on-write instead of being
#: pickled), but everything shipped to workers is kept picklable so
#: ``REPRO_PROCPOOL_START_METHOD=spawn`` works wherever fork is
#: unavailable or unwanted.
START_METHOD_ENV = "REPRO_PROCPOOL_START_METHOD"

#: Cumulative cache counters a worker reports with every reply.
STATS_KEYS = (
    "hits",
    "misses",
    "evictions",
    "rejected",
    "rebuilds",
    "rebuilt_bytes",
    "rebuild_seconds",
    "est_seconds_saved",
)


class ProcessWorkerError(Exception):
    """A worker process died or failed to initialize.

    Raised into in-flight tickets (one fresh instance each, via
    ``per_ticket_error``) when their worker vanishes mid-batch.
    """


def default_start_method() -> str:
    override = os.environ.get(START_METHOD_ENV)
    if override:
        return override
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


# ----------------------------------------------------------------------
# Wire envelopes (picklable; covered by round-trip tests)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs to build its serving stack."""

    manifest: ArenaManifest
    model: Any  # nn.Module skeleton (residual already installed)
    specs: Dict[str, Any]  # {layer: LayerArtifactSpec}
    cache_bytes: Optional[int]
    admission: Any  # policy instance (if picklable) or registry name
    tiers: Optional[Union[str, Tuple[str, ...]]]
    spill_dir: Optional[str]
    cost_alpha: float
    default_seconds_per_byte: float
    codec_rates: Dict[str, float] = field(default_factory=dict)
    tier_rates: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class WorkerHello:
    """First message on the pipe: attach succeeded (or why not)."""

    index: int
    pid: int
    attach_seconds: float = 0.0
    arena_bytes: int = 0
    error: Optional[str] = None


@dataclass(frozen=True, eq=False)
class BatchEnvelope:
    """Parent → worker: one stacked batch to execute."""

    batch_id: int
    batch: np.ndarray


@dataclass(eq=False)
class BatchResult:
    """Worker → parent: one executed batch's rows (or error), the
    worker's own phase stamps (``perf_counter`` seconds, a clock every
    process on the host shares; see :class:`BatchRun`) and cache
    counters."""

    batch_id: int
    rows: Optional[np.ndarray]
    error: Optional[BaseException]
    start: float = 0.0
    installed: Optional[float] = None
    finished: float = 0.0
    rebuild_totals: Dict[str, float] = field(default_factory=dict)


def _portable_error(error: BaseException) -> BaseException:
    """An exception instance that survives the pipe.

    Replies are pickled whole; an unpicklable exception would kill the
    reply (and look like a worker crash), so anything that does not
    round-trip is flattened to a ``RuntimeError`` carrying its repr.
    """
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:
        return RuntimeError(f"{type(error).__name__}: {error}")


def _stats_totals(stats: RebuildCacheStats) -> Dict[str, float]:
    return {key: getattr(stats, key) for key in STATS_KEYS}


def _zero_totals() -> Dict[str, float]:
    return {key: 0 for key in STATS_KEYS}


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _run_worker_batch(
    envelope: BatchEnvelope, rebuild: RebuildEngine, skeleton: SkeletonPlan
) -> BatchResult:
    run = execute_batch(skeleton, rebuild, envelope.batch)
    return BatchResult(
        batch_id=envelope.batch_id,
        rows=run.rows,
        # A bad batch fails its own tickets parent-side; this worker
        # keeps serving — same contract as a thread worker.
        error=None if run.error is None else _portable_error(run.error),
        start=run.start,
        installed=run.installed,
        finished=run.finished,
        rebuild_totals=_stats_totals(rebuild.stats),
    )


def _worker_main(spec: WorkerSpec, index: int, conn) -> None:
    """Process entry point: attach, build a private stack, serve."""
    payloads = None
    rebuild = None
    try:
        attach_start = time.perf_counter()
        payloads = SharedPayloadArena.attach(spec.manifest)
        attach_seconds = time.perf_counter() - attach_start
        cost_model = CodecCostModel(
            alpha=spec.cost_alpha,
            default_seconds_per_byte=spec.default_seconds_per_byte,
        )
        # Start from the parent fleet's learned rates so this child's
        # admission decisions price codecs like the fleet does (and
        # cost-aware policies skip their calibration probe).
        for codec, rate in spec.codec_rates.items():
            cost_model.seed(codec, rate)
        for tier, rate in spec.tier_rates.items():
            cost_model.seed_tier(tier, rate)
        spill_dir = (
            os.path.join(spec.spill_dir, f"proc-{index}")
            if spec.spill_dir
            else None
        )
        rebuild = RebuildEngine(
            payloads=payloads,
            specs=spec.specs,
            capacity_bytes=spec.cache_bytes,
            policy=spec.admission,
            cost_model=cost_model,
            tiers=spec.tiers,
            spill_dir=spill_dir,
        )
        spec.model.eval()
        skeleton = SkeletonPlan(spec.model, spec.specs)
        conn.send(
            WorkerHello(
                index=index,
                pid=os.getpid(),
                attach_seconds=attach_seconds,
                arena_bytes=spec.manifest.nbytes,
            )
        )
    except BaseException as error:
        try:
            conn.send(
                WorkerHello(
                    index=index,
                    pid=os.getpid(),
                    error=f"{type(error).__name__}: {error}",
                )
            )
        except Exception:
            pass
        return
    try:
        while True:
            try:
                envelope = conn.recv()
            except (EOFError, OSError):
                break  # parent died; nothing left to serve
            if envelope is None:
                break  # shutdown sentinel
            try:
                conn.send(_run_worker_batch(envelope, rebuild, skeleton))
            except (BrokenPipeError, OSError):
                break
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        pass
    finally:
        for closer in (rebuild, payloads):
            if closer is not None:
                try:
                    closer.close()
                except Exception:
                    pass
        try:
            conn.close()
        except Exception:
            pass


# ----------------------------------------------------------------------
# Parent-side pool
# ----------------------------------------------------------------------
#: One batch shipped to a worker whose result has not come back:
#: ``(requests, batch_id)``.
_InFlight = Tuple[List[Ticket], int]


class _Slot:
    """One worker process plus its feeder thread and accounting."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.process = None
        self.conn = None
        self.pid: Optional[int] = None
        self.ready = False
        self.alive = False
        self.last_totals = _zero_totals()
        self.thread: Optional[threading.Thread] = None
        self.mirror: Optional[RebuildCacheStats] = None


class ProcessPool:
    """N worker processes bridged onto an engine's request queue.

    Internal collaborator of :class:`InferenceEngine` — constructed by
    ``start(backend="process")``, torn down by ``stop()``.  The engine
    stays the single owner of the queue, stats, observability, and
    tenant ledger; this class only moves batches across the process
    boundary, folds the cache counters back, and hands each batch to
    the engine's ``dequeued`` / ``completed`` / ``failed``.
    """

    #: Seconds to wait for a fresh worker's :class:`WorkerHello`.
    READY_TIMEOUT = 60.0

    def __init__(
        self,
        engine,
        queue: RequestQueue,
        workers: int,
        arena: SharedPayloadArena,
        start_method: Optional[str] = None,
    ) -> None:
        self._engine = engine
        self._queue = queue
        self._arena = arena
        self._ctx = multiprocessing.get_context(
            start_method or default_start_method()
        )
        self._spec = self._build_spec()
        self._stopping = False
        self._fold_lock = threading.Lock()
        self._respawn_count = 0
        self._slots = [_Slot(index) for index in range(workers)]
        obs = engine.observability
        for slot in self._slots:
            if obs.enabled:
                registry = MetricsRegistry()
                slot.mirror = RebuildCacheStats(
                    policy=engine.rebuild.policy.name, metrics=registry
                )
                obs.register_metrics(
                    registry, name=f"{engine.handle.key}/proc-{slot.index}"
                )
            self._spawn(slot)
            slot.thread = threading.Thread(
                target=self._serve_loop,
                args=(slot,),
                name=f"repro-procpool-feeder-{slot.index}",
                daemon=True,
            )
        for slot in self._slots:
            slot.thread.start()

    # -- construction ---------------------------------------------------
    def _build_spec(self) -> WorkerSpec:
        engine = self._engine
        manifest = self._arena.manifest
        specs = engine.handle.layer_specs
        missing = set(specs) - set(manifest.layer_names)
        if missing:
            raise ProcessWorkerError(
                f"arena {manifest.segment!r} (key {manifest.key!r}) is "
                f"missing payloads for layers: {sorted(missing)}"
            )
        tiers = engine.tiers_spec
        if tiers is not None and not isinstance(tiers, str):
            if isinstance(tiers, (list, tuple)) and all(
                isinstance(t, str) for t in tiers
            ):
                tiers = tuple(tiers)
            else:
                raise ProcessWorkerError(
                    "backend='process' needs the tier hierarchy as a "
                    "string spec (tier *instances* cannot cross the "
                    "process boundary)"
                )
        # Ship the configured policy object when it pickles (custom
        # thresholds survive); fall back to its registry name.
        admission: Any = engine.rebuild.policy
        try:
            pickle.dumps(admission)
        except Exception:
            admission = engine.rebuild.policy.name
        cost_model = engine.cost_model
        return WorkerSpec(
            manifest=manifest,
            model=engine.model,
            specs=specs,
            cache_bytes=engine.cache_bytes,
            admission=admission,
            tiers=tiers,
            spill_dir=engine.spill_dir,
            cost_alpha=cost_model.alpha,
            default_seconds_per_byte=cost_model.default_seconds_per_byte,
            codec_rates=cost_model.snapshot_rates(),
            tier_rates=cost_model.snapshot_tier_rates(),
        )

    def _spawn(self, slot: _Slot) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(self._spec, slot.index, child_conn),
            name=f"repro-serving-proc-{slot.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        slot.process = process
        slot.conn = parent_conn
        slot.pid = process.pid
        slot.ready = False
        slot.alive = True
        slot.last_totals = _zero_totals()

    # -- introspection --------------------------------------------------
    @property
    def worker_count(self) -> int:
        return len(self._slots)

    @property
    def respawns(self) -> int:
        """Workers replaced after dying mid-serve (crash recovery)."""
        with self._fold_lock:
            return self._respawn_count

    def pids(self) -> List[int]:
        return [slot.pid for slot in self._slots if slot.pid is not None]

    # -- serve loop (one feeder thread per slot) ------------------------
    #: Batches kept in flight per worker.  Depth 2 keeps the worker's
    #: pipe primed: while the parent unpickles result *k* and resolves
    #: its tickets, batch *k+1* is already buffered child-side, so the
    #: worker never idles on the parent's turnaround — on a saturated
    #: host the per-batch cost collapses from (compute + turnaround)
    #: to compute.
    PIPELINE_DEPTH = 2

    def _serve_loop(self, slot: _Slot) -> None:
        queue = self._queue
        pending: Deque[_InFlight] = deque()
        queue_open = True
        while True:
            # Prime the pipe: dispatch until the depth is reached or
            # the queue has nothing ready right now.  Only the *first*
            # wait blocks — with batches already in flight the feeder
            # must fall through to collect results instead.
            while queue_open and slot.alive and len(pending) < self.PIPELINE_DEPTH:
                try:
                    requests = (
                        queue.next_batch(timeout=0.0)
                        if pending
                        else queue.next_batch()
                    )
                except QueueClosed:
                    queue_open = False
                    break
                if not requests:
                    break
                self._dispatch(slot, requests, pending)
            if pending:
                self._collect(slot, pending)
                continue
            if not queue_open:
                break
            if not slot.alive:
                # Died and was not respawned (stopping, or fatal init
                # failure): drain this feeder's batches to failure so
                # no ticket hangs.
                try:
                    requests = queue.next_batch()
                except QueueClosed:
                    queue_open = False
                    break
                if requests:
                    engine = self._engine
                    engine.failed(
                        requests,
                        next(engine._batch_ids),
                        ProcessWorkerError(
                            f"worker process {slot.index} is not running"
                        ),
                    )
        self._send_sentinel(slot)

    def _dispatch(
        self,
        slot: _Slot,
        requests: List[Ticket],
        pending: "Deque[_InFlight]",
    ) -> None:
        """Stack one batch and ship it to the worker (non-blocking)."""
        engine = self._engine
        batch_id = engine.dequeued(requests, slot.index, "process")
        try:
            batch = stack_batch(requests)
        except Exception as error:
            engine.failed(requests, batch_id, error)
            return
        if not slot.ready and not self._await_hello(
            slot, requests, batch_id, pending
        ):
            return
        try:
            slot.conn.send(BatchEnvelope(batch_id=batch_id, batch=batch))
        except (EOFError, BrokenPipeError, OSError) as error:
            self._crash(slot, pending, error, requests, batch_id)
            return
        pending.append((requests, batch_id))

    def _collect(self, slot: _Slot, pending: "Deque[_InFlight]") -> None:
        """Receive one result and hand its batch to the engine."""
        try:
            result = slot.conn.recv()
        except (EOFError, BrokenPipeError, OSError) as error:
            self._crash(slot, pending, error)
            return
        resolved_at = time.perf_counter()
        requests, batch_id = pending.popleft()
        self._fold_stats(slot, result.rebuild_totals, requests)
        run = BatchRun(
            result.rows,
            result.start,
            result.installed,
            result.finished,
            error=result.error,
        )
        self._engine.completed(
            requests, batch_id, slot.index, "process", run, resolved_at
        )

    def _await_hello(
        self,
        slot: _Slot,
        requests: List[Ticket],
        batch_id: int,
        pending: "Deque[_InFlight]",
    ) -> bool:
        """Consume the worker's first message; ``False`` aborts the batch."""
        engine = self._engine
        try:
            if not slot.conn.poll(self.READY_TIMEOUT):
                raise TimeoutError(
                    f"worker process {slot.index} sent no ready message "
                    f"within {self.READY_TIMEOUT:.0f}s"
                )
            hello = slot.conn.recv()
        except (EOFError, BrokenPipeError, OSError, TimeoutError) as error:
            # Died before it ever said hello — treat like a crash (the
            # kill could have landed during startup).
            self._crash(slot, pending, error, requests, batch_id)
            return False
        if hello.error is not None:
            # Deterministic init failure (bad arena, mismatched model):
            # respawning would loop, so poison the engine instead.
            fatal = ProcessWorkerError(
                f"worker process {slot.index} failed to initialize: "
                f"{hello.error}"
            )
            slot.alive = False
            self._reap(slot)
            engine._worker_error = fatal
            engine.failed(requests, batch_id, fatal)
            return False
        slot.ready = True
        slot.pid = hello.pid
        engine.cost_model.observe_attach(
            "process", hello.arena_bytes, hello.attach_seconds
        )
        return True

    def _crash(
        self,
        slot: _Slot,
        pending: "Deque[_InFlight]",
        cause: BaseException,
        requests: Optional[List[Ticket]] = None,
        batch_id: Optional[int] = None,
    ) -> None:
        """One worker died: fail every in-flight batch, then respawn.

        Only tickets already shipped to (or being shipped to) the dead
        worker fail; requests still queued are served by the
        replacement — or by the other workers while it boots.
        """
        crash = ProcessWorkerError(
            f"worker process {slot.index} (pid {slot.pid}) died "
            f"mid-batch: {type(cause).__name__}"
        )
        crash.__cause__ = cause
        self._reap(slot)
        while pending:
            self._engine.failed(*pending.popleft(), crash)
        if requests is not None:
            self._engine.failed(requests, batch_id, crash)
        if self._stopping:
            slot.alive = False
            return
        with self._fold_lock:
            self._respawn_count += 1
        self._spawn(slot)

    def _reap(self, slot: _Slot) -> None:
        try:
            slot.conn.close()
        except Exception:
            pass
        process = slot.process
        if process is not None:
            process.join(timeout=1.0)
            if process.is_alive():  # pragma: no cover - defensive
                process.kill()
                process.join(timeout=1.0)

    def _fold_stats(
        self,
        slot: _Slot,
        totals: Dict[str, float],
        requests: List[Ticket],
    ) -> None:
        """Fold one reply's counter deltas into the engine's stats."""
        if not totals:
            return
        engine = self._engine
        with self._fold_lock:
            delta = {
                key: totals.get(key, 0) - slot.last_totals.get(key, 0)
                for key in STATS_KEYS
            }
            slot.last_totals = dict(totals)
            engine.rebuild.stats.fold(delta)
            if slot.mirror is not None:
                slot.mirror.fold(delta)
        ledger = engine.ledger
        if ledger is not None:
            shares = ledger.shares([r.tenant for r in requests])
            if delta["rebuild_seconds"] > 0:
                ledger.charge_rebuild(delta["rebuild_seconds"], shares)
            if delta["est_seconds_saved"] > 0:
                ledger.credit_saved(delta["est_seconds_saved"], shares)

    # -- teardown -------------------------------------------------------
    def _send_sentinel(self, slot: _Slot) -> None:
        if not slot.alive:
            return
        try:
            slot.conn.send(None)
        except Exception:
            pass

    def stop(self, timeout: float = 10.0) -> None:
        """Join feeders, then worker processes (escalating to kill).

        Raises if a feeder thread refuses to stop (mirrors the thread
        pool's contract: the caller keeps the pool and may retry);
        worker processes are never left running — a process that does
        not exit on the sentinel is terminated, then killed.
        """
        self._stopping = True
        deadline = time.perf_counter() + timeout
        for slot in self._slots:
            if slot.thread is not None:
                remaining = max(0.0, deadline - time.perf_counter())
                slot.thread.join(remaining)
        stragglers = [
            slot
            for slot in self._slots
            if slot.thread is not None and slot.thread.is_alive()
        ]
        if stragglers:
            raise ProcessWorkerError(
                f"{len(stragglers)} feeder thread(s) did not stop in time"
            )
        for slot in self._slots:
            process = slot.process
            if process is None:
                continue
            remaining = max(0.1, deadline - time.perf_counter())
            process.join(remaining)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - defensive
                process.kill()
                process.join(timeout=2.0)
            try:
                slot.conn.close()
            except Exception:
                pass
            slot.alive = False
