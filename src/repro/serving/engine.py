"""Batched inference directly from compressed artifacts.

:class:`InferenceEngine` owns one architecture skeleton (an
``nn.Module`` with the right shapes), one
:class:`~repro.serving.registry.CompressedModelHandle`, and one
:class:`~repro.serving.rebuild.RebuildEngine`.  Every batch fetches
each compressed layer's dense weight from the rebuild cache and binds
it by reference into the skeleton's eval plan for that batch only — so
rebuilt dense weights outlive a batch only in the cache, bounded by
its capacity, while the full network state lives in the small
{B, Ce, index} payloads.

Three serving paths share one execution core,
:func:`~repro.serving.execute.execute_batch`:

- **offline** — :meth:`predict` / :meth:`predict_many` run (coalesced)
  batches synchronously; this is what the benchmarks drive.
- **online** — :meth:`start` launches a pool of worker threads that
  drain one shared :class:`~repro.serving.batching.RequestQueue`;
  :meth:`submit` returns a ticket that resolves to that sample's
  output row.  Each worker owns its *own* skeleton (cloned from the
  engine's) and eval plan, so forward passes never contend across
  workers; all workers share the engine's (internally locked) rebuild
  cache.
- **async** — :meth:`submit_async` bridges the online path's tickets
  into asyncio futures for event-loop callers.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro import nn
from repro.costs import CodecCostModel
from repro.observability import (
    NULL_OBSERVABILITY,
    MetricsRegistry,
    Observability,
    RequestTrace,
)
from repro.serving.batching import (
    BatchPolicy,
    QueueClosed,
    RequestQueue,
    StaticBatchPolicy,
    Ticket,
    coalesce,
    per_ticket_error,
    stack_batch,
)
from repro.serving.execute import (
    BatchRun,
    ServingError,
    SkeletonPlan,
    execute_batch,
)
from repro.serving.rebuild import AdmissionPolicy, RebuildEngine
from repro.serving.registry import CompressedModelHandle
from repro.serving.stats import ServingStats


def _primary_trace(requests: Sequence[Ticket]) -> Optional[RequestTrace]:
    """The first traced request's trace: a batch's phase spans hang off
    it, and its peers' copies name it in ``shared_from``."""
    for request in requests:
        if request.trace is not None:
            return request.trace
    return None


class _Worker:
    """One pool member: a thread plus its privately-owned skeleton."""

    def __init__(self, index: int, skeleton: SkeletonPlan) -> None:
        self.index = index
        self.skeleton = skeleton
        self.thread: Optional[threading.Thread] = None


class InferenceEngine:
    """Serve predictions for one model version from its bundle."""

    def __init__(
        self,
        model: nn.Module,
        handle: CompressedModelHandle,
        policy: Optional[BatchPolicy] = None,
        cache_bytes: Optional[int] = None,
        admission: "Union[str, AdmissionPolicy, None]" = None,
        cost_model: Optional[CodecCostModel] = None,
        observability: Optional[Observability] = None,
        tiers=None,
        spill_dir: Optional[str] = None,
        ledger=None,
    ) -> None:
        self.model = model
        self.handle = handle
        self.policy = policy or StaticBatchPolicy()
        # Construction knobs kept verbatim: the process backend ships
        # them to worker processes so each child builds a rebuild
        # engine configured exactly like this one.
        self.cache_bytes = cache_bytes
        self.tiers_spec = tiers
        self.spill_dir = spill_dir
        # Optional per-tenant accounting hook (a
        # :class:`~repro.tenancy.TenantLedger`), usually injected by the
        # host so every engine it deploys books into one ledger.
        # Duck-typed: this module needs no tenancy import.
        self.ledger = ledger
        # All of this engine's instruments (serving + rebuild counters)
        # live in one private registry; with a shared Observability
        # handle the registry is federated into the fleet-wide export
        # under this engine's bundle key.
        self.metrics = MetricsRegistry()
        self.observability = (
            observability if observability is not None else NULL_OBSERVABILITY
        )
        self.stats = ServingStats(metrics=self.metrics)
        # One cost model per engine unless the caller shares one (e.g.
        # the registry's, so every engine for a store learns together).
        self.cost_model = cost_model or CodecCostModel()
        self.rebuild = RebuildEngine(
            payloads=handle.payloads,
            specs=handle.layer_specs,
            capacity_bytes=cache_bytes,
            policy=admission,
            cost_model=self.cost_model,
            metrics=self.metrics,
            observability=self.observability,
            tiers=tiers,
            spill_dir=spill_dir,
            ledger=ledger,
        )
        if self.observability.enabled:
            self.observability.register_metrics(self.metrics, name=handle.key)
        self._batch_ids = itertools.count(1)
        # A cost-aware batch policy prices batches off this engine's
        # rebuild cache; other policies have no hook and are left alone.
        bind = getattr(self.policy, "bind_costs", None)
        if bind is not None:
            bind(self.rebuild)
        self._skeleton = SkeletonPlan(model, handle.layer_specs)
        if handle.residual is not None:
            model.load_state_dict(handle.residual, strict=False)
        model.eval()
        # Serializes batches on the engine's own skeleton and plan,
        # which the offline path uses directly.  Pool workers never
        # take it: each owns a private clone of the skeleton.
        self._forward_lock = threading.Lock()
        # Serializes start()/stop() transitions (worker bookkeeping).
        self._lifecycle_lock = threading.Lock()
        self._queue: Optional[RequestQueue] = None
        self._workers: List[_Worker] = []
        self._worker_error: Optional[BaseException] = None
        # Process-backend state (backend="process"): the pool of worker
        # processes and the shared-memory arena they attach.  The
        # engine owns the arena only when it placed it itself.
        self._backend = "thread"
        self._process_pool = None
        self._arena = None
        self._owns_arena = False

    # ------------------------------------------------------------------
    # Offline path
    # ------------------------------------------------------------------
    def predict(
        self, batch: np.ndarray, trace: Optional[RequestTrace] = None
    ) -> np.ndarray:
        """Run one already-formed batch; returns the output ndarray.

        With observability enabled the install and forward phases emit
        ``rebuild`` / ``compute`` spans (per-layer ``rebuild.layer``
        children come from the rebuild engine) — nested under
        ``trace``'s root when a caller (e.g. the host) passes one.
        """
        batch = np.asarray(batch)
        obs = self.observability
        spans = {}
        if obs.enabled:
            spans = {
                "tracer": obs.tracer,
                "parent": trace.root if trace is not None else None,
                "tags": {"engine": self.handle.key, "path": "offline"},
            }
        start = time.perf_counter()
        with self._forward_lock:
            run = execute_batch(self._skeleton, self.rebuild, batch, **spans)
        if run.error is not None:
            raise run.error
        latency = time.perf_counter() - start
        self.stats.record_batch(
            len(batch),
            latency,
            policy=self.policy.name,
            request_latencies_s=[latency] * len(batch),
        )
        if trace is not None and obs.enabled:
            obs.finish_request(trace)
        return run.rows

    def predict_many(
        self, inputs: Sequence[np.ndarray], batched: bool = True
    ) -> List[np.ndarray]:
        """Serve many single-sample requests, optionally coalesced.

        ``batched=False`` runs one forward pass per sample (the
        unbatched baseline); ``batched=True`` groups them under the
        engine's policy.  Returns one output row per input, in order.
        """
        max_batch = self.policy.max_batch_size if batched else 1
        outputs: List[np.ndarray] = []
        for group in coalesce(list(inputs), max_batch):
            rows = self.predict(np.stack(group, axis=0))
            outputs.extend(np.asarray(row) for row in rows)
        return outputs

    # ------------------------------------------------------------------
    # Online path
    # ------------------------------------------------------------------
    @property
    def worker_count(self) -> int:
        """Workers currently tracked (0 when stopped)."""
        with self._lifecycle_lock:
            if self._process_pool is not None:
                return self._process_pool.worker_count
            return len(self._workers)

    @property
    def backend(self) -> str:
        """Execution backend of the current/last pool (``thread`` or
        ``process``)."""
        with self._lifecycle_lock:
            return self._backend

    def worker_pids(self) -> List[int]:
        """OS pids of the live worker processes (process backend only;
        empty for the thread backend).  The crash-recovery tests kill
        these directly."""
        with self._lifecycle_lock:
            pool = self._process_pool
        return [] if pool is None else pool.pids()

    @property
    def queue_depth(self) -> int:
        """Requests waiting in the online queue (0 when stopped).

        The load signal :class:`~repro.serving.host.LeastLoadedPolicy`
        routes on; captured racily on purpose — routing needs a cheap
        instantaneous reading, not a fenced one.
        """
        queue = self._queue  # repro: ignore[LCK001] — advisory read
        return 0 if queue is None else len(queue)

    def estimated_install_seconds(self) -> float:
        """Expected rebuild seconds to pull this engine's layer mix
        through its cache right now (see
        :meth:`RebuildEngine.estimated_install_seconds`) — the signal
        cost-aware request routing compares across engines."""
        return self.rebuild.estimated_install_seconds()

    def start(
        self,
        workers: int = 1,
        backend: str = "thread",
        arena=None,
    ) -> "InferenceEngine":
        """Launch ``workers`` pool members draining one shared queue.

        ``backend="thread"`` (default): every worker is a thread with
        its own skeleton — cloned from the engine's after residual
        state was installed — so N workers run install-weights +
        forward concurrently without sharing mutable model state.
        They share the engine's rebuild cache (internally locked, cold
        misses de-duplicated) and its stats accumulator.

        ``backend="process"``: every worker is an OS process with its
        own skeleton, rebuild engine, and dense cache, attached
        read-only to one shared-memory copy of the compressed payloads
        — the GIL no longer bounds small-model scaling.  Pass
        ``arena`` (e.g. ``registry.arena(name)``) to share one
        placement across engines; without it the engine places (and
        owns) an arena from its handle's payloads.  ``submit`` /
        ``submit_async`` / ticket semantics are identical across
        backends.
        """
        if workers < 1:
            raise ServingError("workers must be >= 1")
        if backend not in ("thread", "process"):
            raise ServingError(
                f"unknown backend {backend!r}; use 'thread' or 'process'"
            )
        if backend == "thread" and arena is not None:
            raise ServingError("arena= requires backend='process'")
        with self._lifecycle_lock:
            if self._workers or self._process_pool is not None:
                raise ServingError("engine already started")
            queue = RequestQueue(self.policy)
            self._worker_error = None
            if backend == "process":
                self._start_process_pool(queue, workers, arena)
                return self
            self._backend = "thread"
            pool = [
                _Worker(
                    index,
                    SkeletonPlan(self.model.clone(), self.handle.layer_specs),
                )
                for index in range(workers)
            ]
            for worker in pool:
                worker.thread = threading.Thread(
                    target=self._serve_loop,
                    args=(queue, worker),
                    name=f"repro-serving-worker-{worker.index}",
                    daemon=True,
                )
            self._queue = queue
            self._workers = pool
            for worker in pool:
                worker.thread.start()
        return self

    def _start_process_pool(
        self, queue: RequestQueue, workers: int, arena
    ) -> None:
        """Place/acquire the arena and launch the process pool.

        Caller holds ``self._lifecycle_lock``."""
        from repro.serving.arena import SharedPayloadArena
        from repro.serving.procpool import ProcessPool

        if arena is None:
            arena = SharedPayloadArena.from_payloads(
                self.handle.payloads, key=self.handle.key
            )
            owns = True
        else:
            arena.acquire()
            owns = False
        try:
            pool = ProcessPool(
                engine=self, queue=queue, workers=workers, arena=arena
            )
        except BaseException:
            if owns:
                arena.close()
            else:
                arena.release()
            raise
        self._backend = "process"
        self._arena = arena
        self._owns_arena = owns
        self._process_pool = pool
        self._queue = queue

    def submit(
        self,
        sample: np.ndarray,
        trace: Optional[RequestTrace] = None,
        tenant: Optional[str] = None,
    ) -> Ticket:
        """Enqueue one sample (no batch axis); returns its ticket.

        With observability enabled, the request's trace id is minted
        here (or inherited from ``trace`` when the host already opened
        one) and rides the queue to the worker that completes it.
        ``tenant`` attributes the request in the engine's ledger (when
        one is attached); a trace carrying a tenant supplies it when
        the argument is omitted.

        Safe against a concurrent :meth:`stop`: the queue reference is
        captured once, and a submission that loses the race surfaces as
        :class:`ServingError`, never ``AttributeError``.
        """
        obs = self.observability
        if tenant is None and trace is not None:
            tenant = trace.tenant
        if obs.enabled and trace is None:
            trace = obs.begin_request(
                model=self.handle.name, engine=self.handle.key, tenant=tenant
            )
        # Lock-free fast path (see docstring): one racy capture each,
        # with the loser surfacing as ServingError.
        queue = self._queue  # repro: ignore[LCK001]
        error = self._worker_error  # repro: ignore[LCK001]
        if error is not None:
            self._abort_trace(trace, "worker died")
            raise ServingError("worker died") from error
        if queue is None:
            self._abort_trace(trace, "engine not started")
            raise ServingError("engine not started; call start() first")
        try:
            ticket = queue.submit(sample, trace=trace, tenant=tenant)
        except QueueClosed as closed:
            self._abort_trace(trace, "queue closed")
            raise ServingError("engine is stopping; queue closed") from closed
        if self.ledger is not None:
            self.ledger.record_submitted(tenant)
        return ticket

    def _abort_trace(self, trace: Optional[RequestTrace], reason: str) -> None:
        """Close a request trace that never made it into the queue."""
        if trace is not None and self.observability.enabled:
            self.observability.finish_request(trace, error=reason)

    def submit_async(
        self,
        sample: np.ndarray,
        loop: Optional[asyncio.AbstractEventLoop] = None,
    ) -> "asyncio.Future[np.ndarray]":
        """Enqueue one sample and return an asyncio future for its row.

        Must be called with a running event loop (or an explicit
        ``loop``); the ticket's completion — which happens on a worker
        thread — is marshalled back with ``call_soon_threadsafe``.
        """
        loop = loop or asyncio.get_running_loop()
        ticket = self.submit(sample)
        future: "asyncio.Future[np.ndarray]" = loop.create_future()

        def resolve(done: Ticket) -> None:
            def set_on_loop() -> None:
                if future.cancelled():
                    return
                try:
                    future.set_result(done.result(timeout=0))
                except BaseException as error:
                    future.set_exception(error)

            loop.call_soon_threadsafe(set_on_loop)

        ticket.add_done_callback(resolve)
        return future

    def stop(self, timeout: float = 10.0) -> None:
        """Drain the queue, stop all workers, and surface their errors.

        Workers are only forgotten after they actually joined: on a
        join timeout the engine raises but keeps tracking the pool (and
        the closed queue), so a subsequent :meth:`start` refuses to
        launch a second pool over still-running threads.  Calling
        :meth:`stop` again retries the join.
        """
        with self._lifecycle_lock:
            queue, workers = self._queue, self._workers
            pool = self._process_pool
            if queue is None and not workers and pool is None:
                return
            if queue is not None:
                queue.close()
            if pool is not None:
                # Feeder threads drain the queue, sentinel the worker
                # processes, and exit; stragglers raise and keep the
                # pool tracked so a retry can re-join (same contract as
                # the thread path).
                pool.stop(timeout)
                self._process_pool = None
                self._queue = None
                arena, owns = self._arena, self._owns_arena
                self._arena = None
                self._owns_arena = False
                if arena is not None:
                    if owns:
                        arena.close()
                    else:
                        arena.release()
                if self._worker_error is not None:
                    raise ServingError("worker died") from self._worker_error
                return
            deadline = time.perf_counter() + timeout
            for worker in workers:
                remaining = max(0.0, deadline - time.perf_counter())
                worker.thread.join(remaining)
            stragglers = [w for w in workers if w.thread.is_alive()]
            if stragglers:
                raise ServingError(
                    f"{len(stragglers)} worker(s) did not stop in time"
                )
            self._workers = []
            self._queue = None
            if self._worker_error is not None:
                raise ServingError("worker died") from self._worker_error

    def close(self) -> None:
        """Stop the pool if one runs and release cache-tier resources
        (spill files).  The bundle handle is *not* closed — it may be
        shared by other engines via the registry."""
        try:
            self.stop()
        finally:
            self.rebuild.close()

    def __enter__(self) -> "InferenceEngine":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def _serve_loop(self, queue: RequestQueue, worker: _Worker) -> None:
        requests: List[Ticket] = []
        try:
            while True:
                try:
                    requests = queue.next_batch()
                except QueueClosed:
                    return
                if not requests:
                    continue
                self._run_requests(requests, worker)
        except BaseException as error:
            # Lock-free on purpose: a single reference store (atomic
            # under the GIL) that submit() reads racily; last writer
            # winning is fine — any dead worker fails the engine.
            self._worker_error = error  # repro: ignore[LCK001]
            # The batch this worker held goes first, then the queue.
            held = [r for r in requests if not r.done()]
            if held:
                self.failed(held, next(self._batch_ids), error)
            self._fail_pending(queue, error)

    def _run_requests(self, requests: List[Ticket], worker: _Worker) -> None:
        batch_id = self.dequeued(requests, worker.index, "thread")
        try:
            batch = stack_batch(requests)
        except Exception as error:
            self.failed(requests, batch_id, error)
            return
        # Rebuild work runs on this worker thread; activating the
        # batch's tenant shares here lets the rebuild engine charge the
        # measured seconds to exactly the tenants riding this batch.
        ledger = self.ledger
        attribution = (
            ledger.activate(ledger.shares([r.tenant for r in requests]))
            if ledger is not None
            else None
        )
        spans = {}
        obs = self.observability
        primary = _primary_trace(requests) if obs.enabled else None
        if primary is not None:
            # Rebuild + compute run once per batch; their spans (and the
            # per-layer ``rebuild.layer`` spans) hang off the primary.
            spans = {
                "tracer": obs.tracer,
                "parent": primary.root,
                "tags": self._phase_tags(worker.index, "thread", batch_id),
            }
        run = execute_batch(
            worker.skeleton,
            self.rebuild,
            batch,
            attribution=attribution,
            **spans,
        )
        self.completed(
            requests, batch_id, worker.index, "thread", run, run.finished
        )

    # ------------------------------------------------------------------
    # Batch lifecycle, shared by both backends: every pool batch is
    # dequeued once, then completed (executed, with rows or an error)
    # or failed (never executed: a stacking error, a dead worker).
    # ------------------------------------------------------------------
    def _phase_tags(self, worker: int, backend: str, batch_id: int) -> Dict:
        return {
            "engine": self.handle.key,
            "worker": worker,
            "backend": backend,
            "batch_id": batch_id,
        }

    def dequeued(
        self, requests: Sequence[Ticket], worker: int, backend: str
    ) -> int:
        """Open a batch: assign its id and record each traced request's
        enqueue-to-dequeue wait as a ``queue_wait`` span, tagged with
        the policy's wait budget for this batch size."""
        batch_id = next(self._batch_ids)
        obs = self.observability
        if obs.enabled:
            traced = [r for r in requests if r.trace is not None]
            if traced:
                dequeued = time.perf_counter()
                tags = self._phase_tags(worker, backend, batch_id)
                tags["batch_size"] = len(requests)
                tags["wait_budget_s"] = self.policy.wait_budget(len(requests))
                for request in traced:
                    obs.tracer.emit(
                        "queue_wait",
                        start_s=request.enqueued_at,
                        end_s=dequeued,
                        parent=request.trace.root,
                        tags=tags,
                    )
        return batch_id

    def completed(
        self,
        requests: Sequence[Ticket],
        batch_id: int,
        worker: int,
        backend: str,
        run: BatchRun,
        resolved_at: float,
    ) -> None:
        """Resolve an executed batch.

        ``run`` carries the executor's phase stamps (``perf_counter``
        seconds, taken in the worker process on the process backend)
        and, when the batch was traced in this process, its phase
        spans; ``resolved_at`` is when the rows reached this process.
        Every traced request whose tree lacks ``rebuild``/``compute``
        spans gets them from the stamps: the batch's primary when
        ``run`` carries none, and each peer as a copy tagged
        ``shared`` so breakdowns count the work once.  A run that
        raised fails the batch after its primary's phase spans.
        """
        obs = self.observability
        size = len(requests)
        primary = _primary_trace(requests) if obs.enabled else None
        if primary is not None:
            tags = self._phase_tags(worker, backend, batch_id)
            if run.rebuild_span is None:
                self._emit_phases(primary.root, run, tags, size)
        if run.error is not None:
            self.failed(requests, batch_id, run.error)
            return
        self.stats.record_batch(
            size,
            run.finished - run.start,
            worker=worker,
            policy=self.policy.name,
            request_latencies_s=[
                resolved_at - r.enqueued_at for r in requests
            ],
        )
        if primary is not None:
            shared = {**tags, "shared": True, "shared_from": primary.trace_id}
            for request in requests:
                trace = request.trace
                if trace is None:
                    continue
                if trace is not primary:
                    self._emit_phases(trace.root, run, shared, size)
                obs.finish_request(trace, end_s=resolved_at, batch_id=batch_id)
        ledger = self.ledger
        if ledger is not None:
            for request in requests:
                ledger.record_served(request.tenant)
        for request, row in zip(requests, run.rows):
            request.set_result(row)

    def _emit_phases(
        self, parent, run: BatchRun, tags: Dict, size: int
    ) -> None:
        """``run``'s phase intervals as ``rebuild``/``compute`` spans
        under ``parent``; the phase that raised is tagged ``error``."""
        emit = self.observability.tracer.emit
        error = {}
        if run.error is not None:
            error["error"] = type(run.error).__name__
        if run.installed is None:  # the layer fetch raised
            tags = {**tags, **error}
            emit("rebuild", run.start, run.finished, parent, tags=tags)
            return
        emit("rebuild", run.start, run.installed, parent, tags=tags)
        emit(
            "compute",
            run.installed,
            run.finished,
            parent,
            tags={**tags, "batch_size": size, **error},
        )

    def failed(
        self,
        requests: Sequence[Ticket],
        batch_id: int,
        error: BaseException,
    ) -> None:
        """Fail every ticket of a batch with its own copy of ``error``,
        closing traced requests' trees and booking the failures."""
        obs = self.observability
        self.stats.record_failed(len(requests))
        ledger = self.ledger
        for request in requests:
            if request.trace is not None and obs.enabled:
                obs.finish_request(
                    request.trace,
                    batch_id=batch_id,
                    error=type(error).__name__,
                )
            if ledger is not None:
                ledger.record_failed(request.tenant)
            # Each ticket gets its own exception instance: result() may
            # re-raise from many waiter threads at once, and a shared
            # instance would have its __traceback__ mutated concurrently.
            request.set_error(per_ticket_error(error))

    def _fail_pending(
        self, queue: RequestQueue, error: BaseException
    ) -> None:
        queue.close()
        try:
            while True:
                requests = queue.next_batch(timeout=0.0)
                if not requests:
                    return
                self.failed(requests, next(self._batch_ids), error)
        except QueueClosed:
            pass

    # ------------------------------------------------------------------
    def summary(self) -> Dict:
        """Serving + rebuild-cache + storage-trade counters, one dict.

        Includes the policy axis: ``batch_policy`` and the rebuild
        cache's ``rebuild_policy`` / ``rebuild_rejected`` /
        ``rebuild_est_seconds_saved`` counters, so two engines running
        different policies compare on one flat dict.
        """
        out = self.stats.summary(
            rebuild=self.rebuild.stats, manifest=self.handle.manifest
        )
        out["batch_policy"] = self.policy.name
        # Held next to the payload by this process's rebuild engine
        # (each process worker prepares its own).
        out["prepared_bytes"] = self.rebuild.prepared_bytes
        with self._lifecycle_lock:
            # One coherent snapshot: backend and pool must agree even
            # mid start()/stop().
            out["backend"] = self._backend
            pool = self._process_pool
        if pool is not None:
            out["worker_respawns"] = pool.respawns
        if self.observability.enabled:
            # Span-derived per-phase latency view over this engine's
            # buffered spans (queue wait / rebuild / compute).
            out["phase_latency"] = self.observability.latency_breakdown(
                engine=self.handle.key
            )
        return out

    def layer_cost_estimates(self) -> Dict[str, float]:
        """Per-layer estimated rebuild seconds at current codec rates."""
        return self.rebuild.layer_cost_estimates()

    def report(self) -> str:
        phases = None
        if self.observability.enabled:
            phases = self.observability.latency_breakdown(
                engine=self.handle.key
            )
        return self.stats.report(
            rebuild=self.rebuild.stats,
            manifest=self.handle.manifest,
            phases=phases,
        )
