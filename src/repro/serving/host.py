"""Multi-model serving host: cost-aware request routing over a fleet.

One :class:`~repro.serving.engine.InferenceEngine` serves one model
version; :class:`ServingHost` fronts a *fleet* of them — several
models, or several replicas of one model, deployed out of a shared
:class:`~repro.serving.registry.ModelRegistry` — and routes each
incoming request to an engine through a pluggable
:class:`RoutingPolicy`:

- :class:`RoundRobinPolicy` — cycle through the candidates (the
  load-blind baseline).
- :class:`LeastLoadedPolicy` — shortest online queue first.
- :class:`CostAwareRoutingPolicy` — the Memtrade-style arbitration
  from the paper's thesis applied across models: send the request to
  the engine whose ``estimated_install_seconds()`` is lowest *right
  now*.  That estimate prices each engine's currently-uncached layers
  at the cost model's ``(codec, layer)`` EWMA rates, discounted by the
  layers' observed hit rates — so a warm engine (or one whose working
  set fits) bids near zero while a cold engine bids its expected
  rebuild bill, and cold-cache-heavy traffic drains toward the
  replicas that can serve it without paying rebuild compute.

A request may pin a model (``submit(sample, model="vgg19")`` routes
among that model's replicas only) or leave the whole fleet as
candidates — the latter is how interchangeable variants of one network
(e.g. a ``smartexchange`` and a ``quant-linear`` bundle of the same
weights) are arbitrated by cost.

Engines deployed through the host share the registry's
:class:`~repro.costs.CodecCostModel`, so rebuild rates learned serving
one model price the routing decision for every other.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Union,
    runtime_checkable,
)

import numpy as np

from repro import nn
from repro.observability import (
    NULL_OBSERVABILITY,
    MetricsRegistry,
    Observability,
    RequestTrace,
)
from repro.serving.batching import Ticket
from repro.serving.engine import InferenceEngine, ServingError
from repro.serving.registry import ModelRegistry
from repro.serving.stats import HostStats


class EngineView:
    """What a routing policy sees of one engine.

    ``queue_depth`` is sampled when the view is built;
    :meth:`estimated_install_seconds` is computed lazily and memoized,
    so load-blind policies (round-robin) never pay for a cost estimate
    they do not read.
    """

    __slots__ = ("key", "model", "queue_depth", "_estimate", "_install")

    def __init__(
        self,
        key: str,
        model: str,
        queue_depth: int,
        estimate: Callable[[], float],
    ) -> None:
        self.key = key
        self.model = model
        self.queue_depth = queue_depth
        self._estimate = estimate
        self._install: Optional[float] = None

    def estimated_install_seconds(self) -> float:
        """The engine's expected rebuild bill right now (memoized)."""
        if self._install is None:
            self._install = max(0.0, float(self._estimate()))
        return self._install

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EngineView(key={self.key!r}, model={self.model!r}, "
            f"queue_depth={self.queue_depth})"
        )


@runtime_checkable
class RoutingPolicy(Protocol):
    """Picks which engine serves the next request.

    ``choose`` receives one :class:`EngineView` per candidate engine
    (already filtered to the request's model, insertion order) and
    returns the chosen view.  Policies may keep state (round-robin
    keeps a cursor) and must be thread-safe — the host calls ``choose``
    concurrently from every submitting thread.
    """

    name: str

    def choose(self, candidates: Sequence[EngineView]) -> EngineView:
        ...  # pragma: no cover - protocol


class RoundRobinPolicy:
    """Cycle through the candidates: the load- and cost-blind baseline."""

    name = "round-robin"

    def __init__(self) -> None:
        # itertools.count.__next__ is atomic under the GIL, so the
        # cursor needs no lock of its own.
        self._cursor = itertools.count()

    def choose(self, candidates: Sequence[EngineView]) -> EngineView:
        return candidates[next(self._cursor) % len(candidates)]


class LeastLoadedPolicy:
    """Shortest online queue first (ties keep deployment order)."""

    name = "least-loaded"

    def choose(self, candidates: Sequence[EngineView]) -> EngineView:
        return min(candidates, key=lambda view: view.queue_depth)


class CostAwareRoutingPolicy:
    """Lowest expected install cost first: the paper's trade, arbitrated
    across engines.

    Each candidate bids its ``estimated_install_seconds()`` — the
    rebuild seconds a batch through it is expected to pay right now.
    Queue depth breaks ties so two equally-warm replicas still balance
    load instead of piling onto the first one.
    """

    name = "cost-aware"

    def choose(self, candidates: Sequence[EngineView]) -> EngineView:
        return min(
            candidates,
            key=lambda view: (
                view.estimated_install_seconds(),
                view.queue_depth,
            ),
        )


ROUTING_POLICIES = {
    RoundRobinPolicy.name: RoundRobinPolicy,
    LeastLoadedPolicy.name: LeastLoadedPolicy,
    CostAwareRoutingPolicy.name: CostAwareRoutingPolicy,
}


def make_routing_policy(
    policy: Union[str, RoutingPolicy, None]
) -> RoutingPolicy:
    """Resolve a routing policy from a name (or pass one through)."""
    if policy is None:
        return RoundRobinPolicy()
    if isinstance(policy, str):
        try:
            return ROUTING_POLICIES[policy]()
        except KeyError:
            raise ValueError(
                f"unknown routing policy {policy!r}; "
                f"known: {sorted(ROUTING_POLICIES)}"
            ) from None
    return policy


class _HostedEngine:
    """One fleet member: its key, the model name it serves, and its
    routed-request counters (bound once, incremented per request)."""

    __slots__ = ("key", "model", "engine", "routed", "routed_model")

    def __init__(
        self, key: str, model: str, engine: InferenceEngine, stats: HostStats
    ) -> None:
        self.key = key
        self.model = model
        self.engine = engine
        self.routed, self.routed_model = stats.routed_counters(key, model)


class ServingHost:
    """Serve many models (or replicas) behind one routed front door.

    ``registry`` supplies bundles for :meth:`deploy` and the shared
    cost model; hosts built purely from pre-constructed engines
    (:meth:`add_engine`) may omit it.  ``routing`` picks the
    :class:`RoutingPolicy` (name or instance; round-robin by default).

    Lifecycle mirrors one engine's: :meth:`start` launches every
    engine's worker pool, :meth:`submit` routes one sample and returns
    its ticket, :meth:`stop` drains and joins all pools.  The offline
    :meth:`predict` path routes too, so cost-aware arbitration works
    without worker threads.
    """

    def __init__(
        self,
        registry: Optional[ModelRegistry] = None,
        routing: Union[str, RoutingPolicy, None] = None,
        observability: Optional[Observability] = None,
        ledger=None,
        quotas=None,
    ) -> None:
        self.registry = registry
        self.routing = make_routing_policy(routing)
        if observability is None and registry is not None:
            observability = getattr(registry, "observability", None)
        self.observability = (
            observability if observability is not None else NULL_OBSERVABILITY
        )
        self.metrics = MetricsRegistry()
        self.stats = HostStats(metrics=self.metrics)
        if self.observability.enabled:
            self.observability.register_metrics(self.metrics, name="host")
        # Per-tenant metering: pass a ``TenantLedger`` (shared with
        # other hosts if desired), or just ``quotas={tenant: TenantQuota}``
        # to have the host build one.  Engines deployed through
        # :meth:`deploy` inherit the ledger, and :meth:`submit` enforces
        # quotas at this front door (raising
        # :class:`~repro.tenancy.QuotaExceededError` *before* tracing or
        # routing touches the request).
        if ledger is None and quotas is not None:
            from repro.tenancy import TenantLedger  # deferred: optional dep

            ledger = TenantLedger(quotas=quotas)
        elif ledger is not None and quotas:
            for tenant, quota in dict(quotas).items():
                ledger.set_quota(tenant, quota)
        self.ledger = ledger
        if ledger is not None and self.observability.enabled:
            self.observability.register_metrics(ledger.metrics, name="tenancy")
        self._lock = threading.Lock()
        self._entries: "Dict[str, _HostedEngine]" = {}
        self._workers = 0  # >0 while started; hot-added engines match it
        self._backend = "thread"  # execution backend the fleet started with

    # ------------------------------------------------------------------
    # Fleet assembly
    # ------------------------------------------------------------------
    def deploy(
        self,
        name: str,
        skeleton: nn.Module,
        version: Optional[str] = None,
        *,
        key: Optional[str] = None,
        **engine_kwargs,
    ) -> InferenceEngine:
        """Build and add one engine for ``name:version`` from the registry.

        ``skeleton`` is the architecture the bundle's weights install
        into; ``engine_kwargs`` pass through to
        :class:`~repro.serving.engine.InferenceEngine` (batch policy,
        cache bounds, admission policy...).  Unless overridden, the
        engine shares the registry's cost model, so the whole fleet
        learns rebuild rates together.  Deploying the same bundle again
        adds a *replica* (keys get a ``#n`` suffix).
        """
        if self.registry is None:
            raise ServingError(
                "host has no registry; construct ServingHost(registry) "
                "or add pre-built engines with add_engine()"
            )
        handle = self.registry.get(name, version)
        engine_kwargs.setdefault("cost_model", self.registry.cost_model)
        if self.ledger is not None:
            # The fleet books into one ledger, so per-tenant rebuild
            # seconds and residency reconcile across all engines.
            engine_kwargs.setdefault("ledger", self.ledger)
        if self.observability.enabled:
            # Deployed engines share the host's handle, so one export
            # covers the whole fleet and traces cross the route hop.
            engine_kwargs.setdefault("observability", self.observability)
        engine = InferenceEngine(skeleton, handle, **engine_kwargs)
        self.add_engine(engine, model=name, key=key or handle.key)
        return engine

    def add_engine(
        self,
        engine: InferenceEngine,
        model: Optional[str] = None,
        key: Optional[str] = None,
    ) -> str:
        """Add a pre-built engine to the fleet; returns its (unique) key.

        ``model`` is the name requests target (defaults to the
        engine's bundle name); ``key`` identifies this engine among
        replicas (defaults to the bundle key, suffixed ``#n`` on
        collision).  If the host is already started, the new engine's
        worker pool starts immediately — hot adding capacity is legal.
        """
        model = model or engine.handle.name
        base = key or engine.handle.key
        with self._lock:
            key = base
            replica = 1
            while key in self._entries:
                replica += 1
                key = f"{base}#{replica}"
            self._entries[key] = _HostedEngine(key, model, engine, self.stats)
            workers = self._workers
            backend = self._backend
        if workers:
            engine.start(workers=workers, backend=backend)
        return key

    def engines(self) -> Dict[str, InferenceEngine]:
        """Key → engine for the current fleet (insertion order)."""
        with self._lock:
            return {key: entry.engine for key, entry in self._entries.items()}

    def models(self) -> List[str]:
        """Distinct model names currently deployed."""
        with self._lock:
            return sorted({entry.model for entry in self._entries.values()})

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(
        self, workers: int = 1, backend: str = "thread"
    ) -> "ServingHost":
        """Launch every engine's worker pool (``workers`` each).

        ``backend`` passes through to each engine's
        :meth:`~repro.serving.engine.InferenceEngine.start` —
        ``"process"`` gives every engine its own process pool (each
        placing a shared-memory arena for its bundle); hot-added
        engines inherit the same backend.
        """
        if workers < 1:
            raise ServingError("workers must be >= 1")
        with self._lock:
            if self._workers:
                raise ServingError("host already started")
            if not self._entries:
                raise ServingError("host has no engines; deploy() first")
            self._workers = workers
            self._backend = backend
            entries = list(self._entries.values())
        started: List[_HostedEngine] = []
        try:
            for entry in entries:
                entry.engine.start(workers=workers, backend=backend)
                started.append(entry)
        except BaseException:
            # One engine failing to start must not leave the rest
            # running half-deployed; roll back and re-raise.
            with self._lock:
                self._workers = 0
            for entry in started:
                try:
                    entry.engine.stop()
                except Exception:  # pragma: no cover - best-effort
                    pass
            raise
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Drain and join every engine's pool; first failure re-raises
        (after every engine was asked to stop)."""
        with self._lock:
            self._workers = 0
            entries = list(self._entries.values())
        first_error: Optional[BaseException] = None
        for entry in entries:
            try:
                entry.engine.stop(timeout=timeout)
            except BaseException as error:
                if first_error is None:
                    first_error = error
        if first_error is not None:
            raise first_error

    def __enter__(self) -> "ServingHost":
        # `host.start(workers=4)` followed by `with host:` is the
        # natural way to pick a pool size; only start if nobody has.
        with self._lock:
            started = bool(self._workers)
        if not started:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route(
        self,
        model: Optional[str],
        trace: Optional[RequestTrace] = None,
    ) -> _HostedEngine:
        obs = self.observability
        route_start = time.perf_counter() if obs.enabled else 0.0
        with self._lock:
            candidates = [
                entry
                for entry in self._entries.values()
                if model is None or model in (entry.model, entry.key)
            ]
        if not candidates:
            known = self.models()
            raise ServingError(
                f"no engine serves model {model!r}; deployed: {known}"
                if model is not None
                else "host has no engines; deploy() first"
            )
        views: List[EngineView] = []
        if len(candidates) == 1:
            chosen = candidates[0]
        else:
            views = [
                EngineView(
                    key=entry.key,
                    model=entry.model,
                    queue_depth=entry.engine.queue_depth,
                    estimate=entry.engine.estimated_install_seconds,
                )
                for entry in candidates
            ]
            by_key = {view.key: entry for view, entry in zip(views, candidates)}
            view = self.routing.choose(views)
            chosen = by_key.get(getattr(view, "key", None))
            if chosen is None:
                raise ServingError(
                    f"routing policy {self.routing.name!r} returned a view "
                    "that was not a candidate"
                )
        chosen.routed.inc()
        chosen.routed_model.inc()
        if obs.enabled:
            tags: Dict = {
                "policy": self.routing.name,
                "chosen": chosen.key,
                "candidates": len(candidates),
            }
            if model is not None:
                tags["model"] = model
            # Losing bids: install estimates the policy actually
            # computed (memoized lazily, so load-blind policies show
            # none) for every candidate that was not chosen.
            bids = {
                view.key: view._install
                for view in views
                if view._install is not None and view.key != chosen.key
            }
            if bids:
                tags["losing_bids"] = bids
            obs.tracer.emit(
                "route",
                start_s=route_start,
                parent=trace.root if trace is not None else None,
                tags=tags,
            )
        return chosen

    def submit(
        self,
        sample: np.ndarray,
        model: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> Ticket:
        """Route one sample (no batch axis) and enqueue it.

        ``model=None`` arbitrates across the whole fleet — the
        cost-aware policy's home turf; naming a model (or an engine
        key) restricts the candidates to its replicas.  ``tenant``
        attributes the request in the host's ledger; when the tenant
        has a quota, it is enforced *here* — an over-quota submission
        raises :class:`~repro.tenancy.QuotaExceededError` before the
        request is traced, routed, or queued.

        With observability enabled, the request's trace is minted
        *here* — before routing — so the ``route`` span (chosen engine,
        losing bids) is part of the request's tree.
        """
        if self.ledger is not None:
            # May raise QuotaExceededError; the rejection is counted on
            # the tenant's own metric series inside the ledger.
            self.ledger.admit(tenant, model=model)
        obs = self.observability
        trace = (
            obs.begin_request(model=model, tenant=tenant)
            if obs.enabled
            else None
        )
        try:
            chosen = self._route(model, trace)
        except BaseException as exc:
            if trace is not None:
                obs.finish_request(trace, error=type(exc).__name__)
            raise
        if trace is not None:
            # Routing resolved the model/engine; stamp them onto the
            # trace so the recorded schedule groups correctly.
            trace.engine = chosen.key
            trace.root.tags["engine"] = chosen.key
            if trace.model is None:
                trace.model = chosen.model
                trace.root.tags["model"] = chosen.model
        if self.ledger is not None and tenant is not None:
            self.ledger.record_routed(tenant, chosen.model)
        return chosen.engine.submit(sample, trace=trace, tenant=tenant)

    def predict(
        self, batch: np.ndarray, model: Optional[str] = None
    ) -> np.ndarray:
        """Route one already-formed batch through the offline path."""
        return self._route(model).engine.predict(batch)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def summary(self) -> Dict:
        """Fleet-level aggregates plus one summary per engine (see
        :meth:`~repro.serving.stats.HostStats.summary`)."""
        with self._lock:
            entries = list(self._entries.values())
        per_engine: Dict[str, Dict] = {}
        for entry in entries:
            engine_summary = entry.engine.summary()
            engine_summary["model"] = entry.model
            per_engine[entry.key] = engine_summary
        out = self.stats.summary(per_engine, routing=self.routing.name)
        if self.ledger is not None:
            out["tenants"] = self.ledger.summary()
        return out

    def report(self) -> str:
        """Human-readable one-screen fleet summary."""
        return self.stats.report(self.summary())
