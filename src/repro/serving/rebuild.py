"""Software rebuild engine: dense weights on demand from encoded payloads.

The serving-side analogue of the accelerator's RE
(:mod:`repro.hardware.smartexchange.rebuild_engine`): the encoded
payloads live in memory permanently (they are small), and dense layer
weights are *rebuilt on read* by dispatching each layer's
:class:`~repro.codecs.LayerPayload` through the codec registry — for
the paper's ``smartexchange`` codec that means decoding nibble codes,
dequantizing the basis, multiplying, and folding matrices back through
the :class:`~repro.core.reshape.ReshapePlan`; for ``quant-*`` /
``prune-csr`` / ``dense`` bundles the registered decoder runs instead,
through the identical cache.

A capacity-bounded cache keeps hot layers dense so they pay the rebuild
compute once; cold layers are evicted and rebuilt on their next access.
*Which* layers stay resident is a pluggable :class:`AdmissionPolicy`:

- :class:`LRUPolicy` (default) — recency only, blind to rebuild cost.
- :class:`CostAwarePolicy` — a greedy knapsack on rebuild-seconds-per-
  resident-byte (estimated by a :class:`~repro.costs.CodecCostModel`),
  so cheap-to-rebuild layers are evicted first and a layer is only
  admitted if every byte it displaces was cheaper to rebuild.

The cache counters expose the realized storage-vs-compute trade:
``bytes_saved`` is the dense footprint *not* held resident, and
``rebuilt_bytes`` and ``rebuild_seconds`` are the compute paid for it.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

import numpy as np

from repro.codecs import LayerPayload, PreparedPayload, get_codec
from repro.costs import CodecCostModel
from repro.observability import NULL_OBSERVABILITY, MetricsRegistry
from repro.serving.artifacts import LayerArtifactSpec


class RebuildCacheStats:
    """Counters for the rebuild-on-read cache.

    The scalar counters are read-only views of ``repro_rebuild_*``
    instruments in a
    :class:`~repro.observability.metrics.MetricsRegistry` (pass
    ``metrics=`` to share the engine's registry), so a Prometheus
    export reports exactly what :meth:`as_dict` reports.  The rebuild
    engine writes them with each instrument's ``inc()``, holding its
    lock.
    """

    #: Default EWMA weight for per-layer hit rates: ~0.8^n decay, so a
    #: phase change (flash crowd shifting the working set) washes the
    #: old regime out of the rate within a few tens of accesses instead
    #: of being averaged against the layer's whole history.
    HIT_RATE_ALPHA = 0.2

    def __init__(
        self,
        policy: str = "lru",
        metrics: Optional[MetricsRegistry] = None,
        hit_rate_alpha: Optional[float] = None,
    ) -> None:
        self.policy = policy
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        alpha = self.HIT_RATE_ALPHA if hit_rate_alpha is None else hit_rate_alpha
        if not 0.0 < alpha <= 1.0:
            raise ValueError("hit_rate_alpha must be in (0, 1]")
        self.hit_rate_alpha = alpha
        help_ = "rebuild-on-read cache counter"
        self._hits = self.metrics.counter(
            "repro_rebuild_hits_total", "cache hits (rebuild avoided)"
        )
        self._misses = self.metrics.counter(
            "repro_rebuild_misses_total", "cache misses (rebuild paid)"
        )
        self._evictions = self.metrics.counter(
            "repro_rebuild_evictions_total", help_
        )
        self._rejected = self.metrics.counter(
            "repro_rebuild_rejected_total",
            "rebuilds the admission policy declined to cache",
        )
        self._rebuilds = self.metrics.counter(
            "repro_rebuild_rebuilds_total", help_
        )
        self._rebuilt_bytes = self.metrics.counter(
            "repro_rebuild_rebuilt_bytes_total",
            "dense bytes produced by rebuild compute",
        )
        self._rebuild_seconds = self.metrics.counter(
            "repro_rebuild_seconds_total", "seconds spent rebuilding"
        )
        self._est_seconds_saved = self.metrics.counter(
            "repro_rebuild_est_seconds_saved_total",
            "estimated rebuild seconds cache hits avoided",
        )
        # The scalar counters by property name, as :meth:`fold` takes
        # them.
        self._scalars = {
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
            "rejected": self._rejected,
            "rebuilds": self._rebuilds,
            "rebuilt_bytes": self._rebuilt_bytes,
            "rebuild_seconds": self._rebuild_seconds,
            "est_seconds_saved": self._est_seconds_saved,
        }
        # Per-layer access/hit counts (all-time, for audit) plus the
        # EWMA-decayed hit rate that probabilistic install estimates
        # and routing decisions price — decayed so the estimate tracks
        # phase changes instead of the lifetime average.
        self.layer_hits: Dict[str, int] = {}
        self.layer_accesses: Dict[str, int] = {}
        self.layer_hit_ewma: Dict[str, float] = {}
        # Lower-tier counters: one labeled instrument per (tier, event),
        # created when the engine registers its tiers so the export
        # schema is complete before any traffic.  Tier registration
        # order is kept so reports read fastest-tier-first.
        self._tier_order: List[str] = []
        self._tier_counters: Dict[Tuple[str, str], "object"] = {}

    # -- lower-tier counters --------------------------------------------
    # One metric name per event, tiers as the label dimension, per the
    # registry's naming scheme.
    TIER_EVENTS: Dict[str, Tuple[str, str]] = {
        "hits": (
            "repro_rebuild_tier_hits_total",
            "dense-tier misses served by faulting from a lower tier",
        ),
        "promotions": (
            "repro_rebuild_tier_promotions_total",
            "tier faults whose layer was re-admitted to the dense tier",
        ),
        "demotions": (
            "repro_rebuild_tier_demotions_total",
            "layers pushed down into this tier",
        ),
        "evictions": (
            "repro_rebuild_tier_evictions_total",
            "entries this tier's placement policy pushed out",
        ),
        "rejected": (
            "repro_rebuild_tier_rejected_total",
            "demotions this tier's placement policy declined",
        ),
        "corrupt": (
            "repro_rebuild_tier_corrupt_total",
            "tier faults whose blob failed validation (served as misses)",
        ),
        "fault_seconds": (
            "repro_rebuild_tier_fault_seconds_total",
            "seconds spent faulting layers back from this tier",
        ),
    }

    def register_tier(self, tier: str) -> None:
        """Pre-create every event counter for one tier, in hierarchy
        order — the stats schema (and the metric series) must exist
        before traffic, so live/simulated exports stay comparable."""
        if tier in self._tier_order:
            return
        self._tier_order.append(tier)
        for event, (name, help_text) in self.TIER_EVENTS.items():
            self._tier_counters[(tier, event)] = self.metrics.counter(
                name, help_text, tags={"tier": tier}
            )

    def record_tier(self, tier: str, event: str, amount: float = 1) -> None:
        """Count one tier event (callers hold the engine lock)."""
        counter = self._tier_counters.get((tier, event))
        if counter is None:
            self.register_tier(tier)
            counter = self._tier_counters[(tier, event)]
        counter.inc(amount)

    def tier_count(self, tier: str, event: str) -> float:
        counter = self._tier_counters.get((tier, event))
        if counter is None:
            return 0
        value = counter.value
        return value if event == "fault_seconds" else int(value)

    def tier_counts(self) -> Dict[str, Dict[str, float]]:
        """Every registered tier's event counters, hierarchy order."""
        return {
            tier: {
                event: self.tier_count(tier, event)
                for event in self.TIER_EVENTS
            }
            for tier in self._tier_order
        }

    def tier_hit_counts(self) -> Dict[str, int]:
        """Where accesses were served: dense hits, per-tier faults,
        full rebuilds — the hierarchy's realized hit distribution (and
        the exact-parity contract the offline simulator reproduces)."""
        out = {"dense-ram": self.hits}
        for tier in self._tier_order:
            out[tier] = int(self.tier_count(tier, "hits"))
        out["rebuild"] = self.rebuilds
        return out

    # -- metric-backed scalar counters (read-only) ----------------------
    @property
    def hits(self) -> int:
        return int(self._hits.value)

    @property
    def misses(self) -> int:
        return int(self._misses.value)

    @property
    def evictions(self) -> int:
        return int(self._evictions.value)

    @property
    def rejected(self) -> int:
        return int(self._rejected.value)

    @property
    def rebuilds(self) -> int:
        return int(self._rebuilds.value)

    @property
    def rebuilt_bytes(self) -> int:
        return int(self._rebuilt_bytes.value)

    @property
    def rebuild_seconds(self) -> float:
        return self._rebuild_seconds.value

    @property
    def est_seconds_saved(self) -> float:
        return self._est_seconds_saved.value

    def reset(self) -> None:
        """Zero every counter *in place* (object identity kept).

        Callers hold the engine lock, so an in-flight access counts
        entirely before or entirely after the reset — the old
        swap-a-fresh-object reset could split one access's miss and
        rebuild counts across two stats objects.
        """
        for instrument in self._scalars.values():
            instrument.reset()
        for counter in self._tier_counters.values():
            counter.reset()
        self.layer_hits.clear()
        self.layer_accesses.clear()
        self.layer_hit_ewma.clear()

    def fold(self, deltas: Mapping[str, float]) -> None:
        """Add increments to the scalar counters, keyed by property name
        (``"hits"``, ``"rebuild_seconds"``, ...): how the process pool
        folds its workers' counters into the parent's stats."""
        for key, amount in deltas.items():
            if amount:
                self._scalars[key].inc(amount)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def record_access(self, name: str, hit: bool) -> None:
        """Count one layer access (callers hold the engine lock).

        Besides the all-time counts, the per-layer EWMA hit rate is
        folded here: seeded at the first observation's value, then
        ``alpha * hit + (1 - alpha) * previous`` — deterministic given
        the access sequence, which the live/simulator parity contract
        relies on.
        """
        self.layer_accesses[name] = self.layer_accesses.get(name, 0) + 1
        if hit:
            self.layer_hits[name] = self.layer_hits.get(name, 0) + 1
        value = 1.0 if hit else 0.0
        previous = self.layer_hit_ewma.get(name)
        if previous is None:
            self.layer_hit_ewma[name] = value
        else:
            alpha = self.hit_rate_alpha
            self.layer_hit_ewma[name] = alpha * value + (1.0 - alpha) * previous

    def layer_hit_rate(self, name: str) -> float:
        """EWMA-decayed hit rate of one layer (0.0 before any access).

        This is the rate :meth:`RebuildEngine.estimated_install_seconds`
        discounts uncached layers by; decay means a working-set phase
        change (a flash crowd displacing the old hot set) re-prices
        within tens of accesses, where the old all-time average stayed
        anchored to stale history.  The raw lifetime counts remain in
        :attr:`layer_hits` / :attr:`layer_accesses`.
        """
        return self.layer_hit_ewma.get(name, 0.0)

    def layer_hit_rates(self) -> Dict[str, float]:
        """Decayed per-layer hit rates over every accessed layer.

        Safe to call from a telemetry thread while workers record
        accesses: the dict is copied first (atomic under the GIL), so
        a first-access insert cannot resize it mid-iteration.
        """
        rates = dict(self.layer_hit_ewma)
        return {name: rates[name] for name in sorted(rates)}

    def as_dict(self) -> Dict:
        out = {
            "policy": self.policy,
            "hits": self.hits,
            "misses": self.misses,
            "accesses": self.accesses,
            "evictions": self.evictions,
            "rejected": self.rejected,
            "rebuilds": self.rebuilds,
            "rebuilt_bytes": self.rebuilt_bytes,
            "rebuild_seconds": self.rebuild_seconds,
            "est_seconds_saved": self.est_seconds_saved,
            "hit_rate": self.hit_rate,
            "layer_hit_rates": self.layer_hit_rates(),
        }
        if self._tier_order:
            out["tiers"] = self.tier_counts()
            out["tier_hit_counts"] = self.tier_hit_counts()
        return out


# ----------------------------------------------------------------------
# Admission policies
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CacheEntryView:
    """What a policy sees of one layer: size, codec, estimated cost.

    ``rebuild_seconds`` is the cost model's current estimate of one
    rebuild of this layer.  Views handed to a policy are ordered least-
    recently-used first, so index 0 is the LRU victim.
    """

    name: str
    nbytes: int
    codec: str
    rebuild_seconds: float

    @property
    def seconds_per_byte(self) -> float:
        """Value density: rebuild seconds bought per resident byte."""
        return self.rebuild_seconds / max(self.nbytes, 1)


@runtime_checkable
class AdmissionPolicy(Protocol):
    """Decides what enters the rebuild cache and what leaves it.

    ``admit`` is asked once per completed rebuild whether the fresh
    weight should be cached at all (given the current residents, LRU
    first, and the free bytes under capacity); ``victim`` is asked —
    possibly repeatedly — which resident to evict to make room (the
    just-admitted candidate is never offered as a victim).  Policies
    with ``requires_costs`` trigger a one-shot codec calibration probe
    when the engine is built, so cost estimates exist before traffic.
    """

    name: str
    requires_costs: bool

    def admit(
        self,
        candidate: CacheEntryView,
        resident: Sequence[CacheEntryView],
        free_bytes: int,
    ) -> bool:
        ...  # pragma: no cover - protocol

    def victim(
        self,
        candidate: CacheEntryView,
        resident: Sequence[CacheEntryView],
    ) -> str:
        ...  # pragma: no cover - protocol


class LRUPolicy:
    """Classic least-recently-used: admit everything, evict the oldest."""

    name = "lru"
    requires_costs = False

    def admit(self, candidate, resident, free_bytes) -> bool:
        return True

    def victim(self, candidate, resident) -> str:
        return resident[0].name


class CostAwarePolicy:
    """Greedy knapsack on rebuild-seconds-per-resident-byte.

    Each resident byte "earns" the rebuild seconds it avoids; the cache
    should therefore hold the layers with the highest seconds-per-byte
    density.  Eviction removes the *cheapest*-density resident first
    (cheap-to-rebuild layers are the ones to rebuild again), and a
    candidate is admitted only if every byte it would displace is
    strictly cheaper per byte than the candidate itself — evicting an
    expensive smartexchange layer to cache a quant-linear layer whose
    miss costs ~10x less is exactly the trade this refuses.
    """

    name = "cost-aware"
    requires_costs = True

    def admit(self, candidate, resident, free_bytes) -> bool:
        need = candidate.nbytes - free_bytes
        if need <= 0:
            return True
        density = candidate.seconds_per_byte
        freed = 0
        # Cheapest residents are the eviction order; stop as soon as
        # enough room exists, refuse if anything at least as valuable
        # per byte would have to go.
        for view in sorted(resident, key=lambda v: v.seconds_per_byte):
            if view.seconds_per_byte >= density:
                return False
            freed += view.nbytes
            if freed >= need:
                return True
        return False

    def victim(self, candidate, resident) -> str:
        # min() keeps the first (least recently used) among density ties.
        return min(resident, key=lambda view: view.seconds_per_byte).name


ADMISSION_POLICIES = {
    LRUPolicy.name: LRUPolicy,
    CostAwarePolicy.name: CostAwarePolicy,
}


def make_admission_policy(
    policy: Union[str, AdmissionPolicy, None]
) -> AdmissionPolicy:
    """Resolve a policy instance from a name (or pass one through)."""
    if policy is None:
        return LRUPolicy()
    if isinstance(policy, str):
        try:
            return ADMISSION_POLICIES[policy]()
        except KeyError:
            raise ValueError(
                f"unknown admission policy {policy!r}; "
                f"known: {sorted(ADMISSION_POLICIES)}"
            ) from None
    return policy


def rebuild_layer_weight(
    payload: LayerPayload, spec: LayerArtifactSpec
) -> np.ndarray:
    """Decode one layer's payload into its dense weight tensor,
    dispatching through the codec registry on ``payload.codec``."""
    weight = get_codec(payload.codec).decode(payload)
    if tuple(weight.shape) != tuple(spec.weight_shape):
        weight = weight.reshape(spec.weight_shape)
    return weight


class RebuildEngine:
    """Policy-cached rebuild-on-read over one model's compressed payloads.

    ``capacity_bytes`` bounds the *dense* bytes held in the cache (the
    analogue of the accelerator's on-chip weight buffer).  ``None``
    means unbounded — every layer is rebuilt at most once.  ``policy``
    picks the admission/eviction strategy (name or instance; LRU by
    default) and ``cost_model`` supplies/learns per-codec rebuild cost
    estimates — every rebuild is observed into it, and cost-requiring
    policies trigger a one-shot calibration probe per codec up front.

    The engine is thread-safe and shared by the serving worker pool:
    cache bookkeeping is guarded by one internal lock, rebuild compute
    runs *outside* it (hits never wait behind a rebuild of another
    layer), and concurrent cold misses on the same layer are
    de-duplicated — the first caller rebuilds while the rest wait on a
    per-layer in-flight event and then read the cached result.

    ``tiers`` extends the cache into a hierarchy (see
    :mod:`repro.serving.tiers`): a spec string like
    ``"compressed,disk"`` (or a list of :class:`~repro.serving.tiers.
    CacheTier` instances, fastest first).  A dense-tier miss then
    faults from the closest lower tier that holds the layer — the
    blob is claimed under the lock and inflated outside it — and
    layers leaving the dense tier (evicted, rejected, or oversized)
    are *demoted* down the hierarchy instead of dropped, gated on the
    cost model pricing the move as a win (``rebuild estimate − tier
    access estimate > 0``) and on the tier's own placement policy.
    Demotion compresses under the engine lock; the blob is the
    deflated form, so the critical section is bounded by one zlib
    level-1 pass.  Blobs that fail validation on fault (truncated or
    corrupted spill files) are counted ``corrupt`` and served as full
    misses, never raised.
    """

    def __init__(
        self,
        payloads: Mapping[str, LayerPayload],
        specs: Dict[str, LayerArtifactSpec],
        capacity_bytes: Optional[int] = None,
        policy: Union[str, AdmissionPolicy, None] = None,
        cost_model: Optional[CodecCostModel] = None,
        metrics: Optional[MetricsRegistry] = None,
        observability=None,
        tiers=None,
        spill_dir: Optional[str] = None,
        ledger=None,
    ) -> None:
        missing = set(specs) - set(payloads)
        if missing:
            raise KeyError(f"payloads missing for layers: {sorted(missing)}")
        self._payloads = payloads
        self._specs = specs
        # Optional per-tenant accounting hook (a
        # :class:`~repro.tenancy.TenantLedger`): actual rebuild seconds
        # and hit savings are charged to the thread's active tenant
        # shares at the same moment they are booked into the stats, and
        # dense-cache residency is attributed/released on admission and
        # eviction.  Duck-typed so this module needs no tenancy import.
        self.ledger = ledger
        self.capacity_bytes = capacity_bytes
        self.policy = make_admission_policy(policy)
        self.cost_model = cost_model or CodecCostModel()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.observability = (
            observability if observability is not None else NULL_OBSERVABILITY
        )
        self._layer_codec = {name: spec.codec for name, spec in specs.items()}
        # Resident bytes if a layer were cached, before its first
        # rebuild tells us the decoded dtype: assume the float64 the
        # NumPy substrate materializes; refined with the actual nbytes
        # once rebuilt (`_actual_bytes`).
        itemsize = np.dtype(np.float64).itemsize
        self._assumed_bytes = {
            name: int(np.prod(spec.weight_shape)) * itemsize
            for name, spec in specs.items()
        }
        # Computed once: this sum sits on the stats hot path.
        self._total_dense_bytes = sum(self._assumed_bytes.values())
        self._actual_bytes: Dict[str, int] = {}
        self._cache: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._cached_bytes = 0
        self.stats = RebuildCacheStats(
            policy=self.policy.name, metrics=self.metrics
        )
        self._cached_bytes_gauge = self.metrics.gauge(
            "repro_rebuild_cached_bytes",
            "dense bytes resident in the rebuild cache",
        )
        # Guards the cache (all tiers of it), the stats, and the
        # in-flight table.  Rebuild compute and tier blob inflation
        # never run under this lock.
        self._lock = threading.Lock()
        self._inflight: Dict[str, "_InFlightRebuild"] = {}
        # Per layer: its codec, its prepared payload (see
        # :class:`~repro.codecs.PreparedPayload`; None when the codec
        # prepares nothing) and its shape.  Built on the layer's first
        # miss by the thread that owns it, and kept for the engine's
        # lifetime: payloads never change.  Written outside the lock;
        # the in-flight table makes each layer's writer unique.
        self._decoders: Dict[
            str, Tuple[object, Optional[PreparedPayload], Tuple[int, ...]]
        ] = {}
        from repro.serving.tiers import make_tiers  # circular at module load

        self.tiers = make_tiers(
            tiers, default_capacity=capacity_bytes, spill_dir=spill_dir
        )
        for tier in self.tiers:
            self.stats.register_tier(tier.name)
        needs_costs = getattr(self.policy, "requires_costs", False) or any(
            getattr(tier.policy, "requires_costs", False)
            for tier in self.tiers
        )
        if needs_costs:
            # Sane per-codec estimates before the first admission call.
            self.cost_model.calibrate(payloads, specs)

    # ------------------------------------------------------------------
    @property
    def layer_names(self) -> List[str]:
        return list(self._specs)

    @property
    def cached_bytes(self) -> int:
        with self._lock:
            return self._cached_bytes

    @property
    def cached_layers(self) -> List[str]:
        with self._lock:
            return list(self._cache)

    @property
    def total_dense_bytes(self) -> int:
        """Resident bytes if every layer were cached dense.

        Counts the float64 arrays the NumPy substrate materializes (the
        manifest's ``dense_bytes`` counts the FP32 checkpoint instead).
        """
        return self._total_dense_bytes

    @property
    def prepared_bytes(self) -> int:
        """Bytes of the prepared payloads held: index and table arrays
        each rebuild reads instead of re-deriving them from the
        payload (next to the bundle's ``payload_bytes``)."""
        decoders = list(self._decoders.values())
        return sum(
            prepared.nbytes
            for _, prepared, _ in decoders
            if prepared is not None
        )

    @property
    def bytes_saved(self) -> int:
        """Dense bytes not resident right now (paid for with rebuilds)."""
        with self._lock:
            return self._total_dense_bytes - self._cached_bytes

    # ------------------------------------------------------------------
    # Cost estimates
    # ------------------------------------------------------------------
    def _estimate_seconds(self, name: str) -> float:
        """Estimated rebuild seconds for one layer.

        Caller holds ``self._lock`` (``_actual_bytes`` is updated
        under it as layers rebuild)."""
        nbytes = self._actual_bytes.get(name, self._assumed_bytes[name])
        return self.cost_model.estimate_seconds(
            self._layer_codec[name], nbytes, layer=name
        )

    def layer_cost_estimates(self) -> Dict[str, float]:
        """Per-layer estimated rebuild seconds at the current rates."""
        with self._lock:
            return {name: self._estimate_seconds(name) for name in self._specs}

    def _rate_for(self, rates, layer_rates, name: str) -> float:
        """One layer's seconds-per-byte from snapshotted rate maps."""
        layer_rate = layer_rates.get((self._layer_codec[name], name))
        if layer_rate is not None:
            return layer_rate
        return rates.get(
            self._layer_codec[name], self.cost_model.default_seconds_per_byte
        )

    def estimated_install_seconds(self) -> float:
        """Expected rebuild seconds for one pass over every layer.

        Layers resident right now are expected hits (zero rebuild);
        everything else is an expected miss — *discounted by the
        layer's observed hit rate*, so a working set that historically
        fits in the cache is not priced as all-misses — at the cost
        model's ``(codec, layer)`` rate (codec rate as the prior).
        This is the number the cost-aware batch policy amortizes over a
        batch and the cost-aware router compares across engines — it
        runs on the request queue's hot path, so hit counts are read
        under one engine-lock acquisition and both rate maps under one
        cost-model acquisition, instead of one per layer.
        """
        with self._lock:
            pending = [
                (
                    name,
                    self._actual_bytes.get(name, self._assumed_bytes[name]),
                    self.stats.layer_hit_rate(name),
                )
                for name in self._specs
                if name not in self._cache
            ]
        rates, layer_rates = self.cost_model.snapshot_all_rates()
        return sum(
            (1.0 - hit_rate) * self._rate_for(rates, layer_rates, name) * nbytes
            for name, nbytes, hit_rate in pending
        )

    # ------------------------------------------------------------------
    def layer_weight(self, name: str) -> np.ndarray:
        """The dense weight for ``name``: a one-name :meth:`layer_weights`."""
        return self.layer_weights((name,))[0]

    def layer_weights(self, names: Sequence[str]) -> List[np.ndarray]:
        """The dense weights for ``names``, in order, cached or rebuilt.

        Each returned array is the cache's copy and is marked read-only;
        serving binds it by reference into an eval plan
        (:func:`~repro.serving.execute.execute_batch` fetches a batch's
        layers in spec order with one call).

        The cache ends in the state one :meth:`layer_weight` per name
        would leave, but the bookkeeping is batched: one engine-lock
        acquisition serves the hits and claims the misses, the misses
        decode outside the lock, one more acquisition publishes them,
        and each counter and the cost model take one update per call.
        Where publishing a miss could change what a later name in the
        same call sees (an admission that may evict or demote, or the
        same name again), the call works in rounds that end at that
        miss.

        Safe for concurrent callers: only one thread rebuilds a cold
        layer at a time — the rest wait on its in-flight rebuild and
        share its result (counted as hits, since they paid no rebuild
        compute).  A call decodes and releases every layer it owns
        before it waits on a layer another call owns, so two calls
        fetching overlapping layers in opposite orders cannot deadlock.
        If a rebuild fails, its waiters retry, so each caller raises
        its own exception.

        With observability enabled, each name emits a ``rebuild.layer``
        span — nested under whatever span the calling thread has active
        (the engine's per-batch ``rebuild`` phase) — tagged with the
        layer, codec, hit/miss, serving tier, dense bytes, and (for a
        miss) rebuild seconds and admission verdict.  A span lasts the
        time its own layer took: its share of the lock passes plus its
        decode or wait, so the spans of one call add up to about the
        call's own time.
        """
        for name in names:
            if name not in self._specs:
                raise KeyError(f"unknown layer {name!r}")
        weights: List[Optional[np.ndarray]] = [None] * len(names)
        trace: Optional[List] = [] if self.observability.enabled else None
        pending = list(range(len(names)))
        try:
            while pending:
                pending = self._fetch_round(names, pending, weights, trace)
        finally:
            if trace is not None:
                self._emit_layer_spans(names, trace)
        return weights

    def _fetch_round(
        self,
        names: Sequence[str],
        pending: List[int],
        weights: List[Optional[np.ndarray]],
        trace: Optional[List],
    ) -> List[int]:
        """Serve a prefix of the ``pending`` positions of ``names`` into
        ``weights``; returns the positions still to serve.

        ``trace`` (when given) collects ``(position, start_s, seconds,
        tags)`` per served position for :meth:`_emit_layer_spans`; a
        position's seconds are its share of the two lock passes plus
        its own decode or wait.
        """
        traced = trace is not None
        start = time.perf_counter() if traced else 0.0
        taken, hits, owned, foreign = self._claim_round(names, pending, weights)
        share = (time.perf_counter() - start) / taken if traced else 0.0
        failure: Optional[BaseException] = None
        observed = []
        try:
            for claim in owned:
                if traced:
                    claim.started = time.perf_counter()
                try:
                    if claim.tier is None:
                        claim.weight, claim.seconds = self._rebuild(claim.name)
                    else:
                        self._fault(claim)
                except Exception as error:
                    claim.error = error
                    failure = failure or error
                else:
                    weights[claim.position] = claim.weight
                    if claim.source == "rebuild":
                        observed.append((
                            self._layer_codec[claim.name],
                            claim.weight.nbytes,
                            claim.seconds,
                            claim.name,
                        ))
                if traced:
                    claim.finished = time.perf_counter()
            if observed:
                self.cost_model.observe_many(observed)
        finally:
            published = time.perf_counter() if traced else 0.0
            self._publish(owned)
        if traced:
            publish_share = (time.perf_counter() - published) / max(len(owned), 1)
            for position in hits:
                trace.append((position, start, share, {
                    "hit": True,
                    "tier": "dense-ram",
                    "dense_bytes": weights[position].nbytes,
                }))
            for claim in owned:
                seconds = claim.finished - claim.started + share + publish_share
                trace.append((claim.position, claim.started, seconds, claim.tags()))
        if failure is not None:
            raise failure
        if foreign:
            retry = self._wait_foreign(foreign, weights, trace, share)
            return retry + pending[taken:]
        return pending[taken:]

    def _claim_round(
        self,
        names: Sequence[str],
        pending: List[int],
        weights: List[Optional[np.ndarray]],
    ) -> "tuple[int, List[int], List[_Claim], List[Tuple]]":
        """Under one lock pass over ``pending``: serve and count the
        hits, claim and count the misses, and note the rebuilds other
        calls own.  Returns ``(positions taken, hit positions, owned
        claims, (position, name, flight) of foreign rebuilds)``.

        The pass stops after a claimed miss whose admission could move
        another layer, and before a second position of a layer it
        claimed: the next round then sees the miss published.
        """
        # With an unbounded cache an admission never evicts, and with
        # no dense cache and no tiers a rebuild is dropped: either way
        # publishing a miss leaves every other layer where it was.
        isolated = self.capacity_bytes is None or (
            self.capacity_bytes == 0 and not self.tiers
        )
        stats = self.stats
        hits: List[int] = []
        owned: List[_Claim] = []
        foreign: List[Tuple[int, str, _InFlightRebuild]] = []
        taken = 0
        saved = 0.0
        with self._lock:
            for position in pending:
                name = names[position]
                cached = self._cache.get(name)
                if cached is not None:
                    stats.record_access(name, hit=True)
                    saved += self._estimate_seconds(name)
                    self._cache.move_to_end(name)
                    weights[position] = cached
                    hits.append(position)
                    taken += 1
                    continue
                flight = self._inflight.get(name)
                if flight is not None:
                    if any(claim.name == name for claim in owned):
                        break
                    foreign.append((position, name, flight))
                    taken += 1
                    continue
                flight = self._inflight[name] = _InFlightRebuild()
                stats.record_access(name, hit=False)
                tier = self._claim_tier(name) if self.tiers else None
                owned.append(_Claim(position, name, flight, tier))
                taken += 1
                if not isolated:
                    break
            if hits:
                self._count_hits(len(hits), saved)
            if owned:
                stats._misses.inc(len(owned))
        return taken, hits, owned, foreign

    def _count_hits(self, count: int, saved: float) -> None:
        # Caller holds self._lock.
        self.stats._hits.inc(count)
        self.stats._est_seconds_saved.inc(saved)
        if self.ledger is not None:
            self.ledger.credit_saved(saved)

    def _claim_tier(self, name: str):
        """Pop ``name``'s blob from the closest lower tier holding it:
        ``(tier, entry)``, or None.  Caller holds self._lock and owns
        the layer's miss, so nobody else can reach the blob."""
        for tier in self.tiers:
            entry = tier.claim(name)
            if entry is not None:
                return tier, entry
        return None

    def _fault(self, claim: "_Claim") -> None:
        """Fill ``claim`` from its claimed tier blob, or from a full
        rebuild if the blob is unreadable (no locking)."""
        tier, entry = claim.tier
        weight, seconds = self._tier_load(tier, entry)
        if weight is None:
            # Corrupt/unreadable blob: a miss, not an error.
            claim.corrupt = tier.name
            claim.weight, claim.seconds = self._rebuild(claim.name)
            return
        self.cost_model.observe_tier_access(tier.name, weight.nbytes, seconds)
        claim.weight, claim.seconds, claim.source = weight, seconds, tier.name

    def _publish(self, owned: List["_Claim"]) -> None:
        """Book, admit and release every claim of a round.  A claim
        without a weight (its load failed) only gives up its in-flight
        slot, so its waiters retry."""
        if not owned:
            return
        rebuilt = rebuilt_bytes = 0
        rebuild_seconds = 0.0
        with self._lock:
            for claim in owned:
                name, weight, source = claim.name, claim.weight, claim.source
                if claim.corrupt is not None:
                    self.stats.record_tier(claim.corrupt, "corrupt")
                self._inflight.pop(name, None)
                if weight is None:
                    continue
                if source == "rebuild":
                    rebuilt += 1
                    rebuilt_bytes += weight.nbytes
                    rebuild_seconds += claim.seconds
                else:
                    # Faulting from a tier paid `seconds` instead of a
                    # full rebuild: count the fault, credit the rest.
                    self.stats.record_tier(source, "hits")
                    self.stats.record_tier(source, "fault_seconds", claim.seconds)
                    fault_saved = max(
                        0.0, self._estimate_seconds(name) - claim.seconds
                    )
                    self.stats._est_seconds_saved.inc(fault_saved)
                    if self.ledger is not None:
                        self.ledger.credit_saved(fault_saved)
                claim.flight.weight = weight  # published before release()
                claim.verdict = self._admit(name, weight)
                if source != "rebuild" and claim.verdict == "admitted":
                    self.stats.record_tier(source, "promotions")
            if rebuilt:
                self.stats._rebuilds.inc(rebuilt)
                self.stats._rebuilt_bytes.inc(rebuilt_bytes)
                self.stats._rebuild_seconds.inc(rebuild_seconds)
                if self.ledger is not None:
                    # Same events, same seconds: the tenant split of
                    # the fleet counter, so the two totals reconcile.
                    self.ledger.charge_rebuild(rebuild_seconds)
        for claim in owned:
            claim.flight.release()

    def _wait_foreign(
        self,
        foreign: List[Tuple[int, str, "_InFlightRebuild"]],
        weights: List[Optional[np.ndarray]],
        trace: Optional[List],
        share: float,
    ) -> List[int]:
        """Wait on rebuilds other calls own; returns the positions whose
        rebuild failed (to claim again)."""
        retry: List[int] = []
        shared: List[Tuple[int, str, float, float]] = []
        for position, name, flight in foreign:
            waited = time.perf_counter()
            flight.wait()
            if flight.weight is None:
                retry.append(position)
                continue
            weights[position] = flight.weight
            shared.append((position, name, waited, time.perf_counter() - waited))
        if shared:
            with self._lock:
                saved = 0.0
                for _, name, _, _ in shared:
                    self.stats.record_access(name, hit=True)
                    saved += self._estimate_seconds(name)
                self._count_hits(len(shared), saved)
        if trace is not None:
            for position, _, waited, seconds in shared:
                # Shared an in-flight rebuild: a hit (no compute paid
                # here), flagged so traces can tell it apart.
                trace.append((position, waited, seconds + share, {
                    "hit": True, "inflight_wait": True, "tier": "dense-ram",
                    "dense_bytes": weights[position].nbytes,
                }))
        return retry

    def _tier_load(self, tier, entry) -> "tuple[Optional[np.ndarray], float]":
        """Inflate one claimed tier entry (no locking): (weight, seconds).

        Split out so the offline simulator can charge estimated fault
        time instead of wall time, the same seam :meth:`_rebuild` is.
        """
        start = time.perf_counter()
        weight = tier.load(entry)
        return weight, time.perf_counter() - start

    def _rebuild(self, name: str) -> "tuple[np.ndarray, float]":
        """Decode one layer (no locking, no stats): (weight, seconds).

        The caller owns the layer's miss, so on the layer's first miss
        it alone resolves the codec and builds the prepared payload.
        """
        start = time.perf_counter()
        payload = self._payloads[name]
        decoder = self._decoders.get(name)
        if decoder is None:
            codec = get_codec(payload.codec)
            prepare = getattr(codec, "prepare", None)
            decoder = self._decoders[name] = (
                codec,
                None if prepare is None else prepare(payload),
                tuple(self._specs[name].weight_shape),
            )
        codec, prepared, shape = decoder
        if prepared is None:
            weight = codec.decode(payload)
        else:
            weight = codec.decode(payload, prepared)
        if weight.shape != shape:
            weight = weight.reshape(shape)
        seconds = time.perf_counter() - start
        weight.setflags(write=False)
        return weight, seconds

    def _emit_layer_spans(self, names: Sequence[str], trace: List) -> None:
        """One ``rebuild.layer`` span per served position, in order."""
        tracer = self.observability.tracer
        for position, start, seconds, tags in sorted(trace, key=lambda t: t[0]):
            name = names[position]
            tracer.emit(
                "rebuild.layer",
                start,
                start + seconds,
                tags={"layer": name, "codec": self._layer_codec[name], **tags},
            )

    def _view(self, name: str, nbytes: int) -> CacheEntryView:
        # Caller holds self._lock.
        return CacheEntryView(
            name=name,
            nbytes=nbytes,
            codec=self._layer_codec[name],
            rebuild_seconds=self._estimate_seconds(name),
        )

    def _resident_views(self, exclude: Optional[str] = None) -> List[CacheEntryView]:
        # Caller holds self._lock.  OrderedDict order IS recency
        # (hits move_to_end), so views arrive LRU-first.
        return [
            self._view(cached_name, array.nbytes)
            for cached_name, array in self._cache.items()
            if cached_name != exclude
        ]

    def _admit(self, name: str, weight: np.ndarray) -> str:
        # Caller holds self._lock.  Returns the admission verdict
        # ("admitted" / "rejected" / "oversized") for the trace tag.
        nbytes = weight.nbytes
        self._actual_bytes[name] = nbytes
        if self.capacity_bytes is None:
            self._cache[name] = weight
            self._cached_bytes += nbytes
            self._cached_bytes_gauge.set(self._cached_bytes)
            self._attribute_residency(name, nbytes)
            return "admitted"
        if nbytes > self.capacity_bytes:
            # Larger than the whole dense cache: serve uncached, but a
            # lower tier may still hold its (smaller) blob.
            self._demote(name, weight)
            return "oversized"
        candidate = self._view(name, nbytes)
        free = self.capacity_bytes - self._cached_bytes
        if not self.policy.admit(candidate, self._resident_views(), free):
            self.stats._rejected.inc()
            self._demote(name, weight)
            return "rejected"
        self._cache[name] = weight
        self._cached_bytes += nbytes
        self._attribute_residency(name, nbytes)
        while self._cached_bytes > self.capacity_bytes:
            resident = self._resident_views(exclude=name)
            if not resident:
                break  # only the candidate remains, and it fits
            victim = self.policy.victim(candidate, resident)
            if victim == name or victim not in self._cache:
                # Defensive against a misbehaving policy: fall back to
                # the LRU victim rather than looping forever.
                victim = next(iter(self._cache))
                if victim == name:
                    victim = resident[0].name
            evicted = self._cache.pop(victim)
            self._cached_bytes -= evicted.nbytes
            self.stats._evictions.inc()
            self._release_residency(victim)
            self._demote(victim, evicted)
        self._cached_bytes_gauge.set(self._cached_bytes)
        return "admitted"

    # -- tenant residency attribution (caller holds self._lock) ---------
    def _attribute_residency(self, name: str, nbytes: int) -> None:
        if self.ledger is not None:
            self.ledger.attribute_residency((id(self), name), nbytes)

    def _release_residency(self, name: str) -> None:
        if self.ledger is not None:
            self.ledger.release_residency((id(self), name))

    # -- tier migration (caller holds self._lock) -----------------------
    def _demote(self, name: str, weight: np.ndarray) -> bool:
        """Push a layer leaving the dense tier down the hierarchy.

        Compresses the dense array once and offers the blob from the
        fastest lower tier down; True if some tier took it.  With no
        tiers configured this is a no-op and the layer is simply
        dropped (the pre-hierarchy behavior).
        """
        if not self.tiers:
            return False
        from repro.serving.tiers import compress_dense

        blob = compress_dense(weight)
        return self._place_blob(
            0,
            name,
            blob,
            dense_nbytes=weight.nbytes,
            dtype=str(weight.dtype),
            shape=tuple(weight.shape),
        )

    def _place_blob(
        self,
        index: int,
        name: str,
        blob: bytes,
        dense_nbytes: int,
        dtype: str,
        shape,
    ) -> bool:
        """Offer one blob to tiers ``index`` and below; cost-gated.

        Caller holds ``self._lock``.

        A tier only takes the blob when holding it there is priced as
        a win — the layer's full-rebuild estimate minus the tier's
        access estimate, which is also the ``rebuild_seconds`` value
        its placement policy ranks — and when its policy admits it.
        Tiers deeper than the first negative-savings tier are never
        tried (they are strictly slower).  Entries a tier evicts to
        make room cascade to the next tier down with their existing
        blobs; whatever falls off the bottom is discarded and will be
        rebuilt from the payload on its next access.
        """
        rebuild_estimate = self.cost_model.estimate_seconds(
            self._layer_codec[name], dense_nbytes, layer=name
        )
        for position in range(index, len(self.tiers)):
            tier = self.tiers[position]
            saved = rebuild_estimate - self.cost_model.estimate_tier_seconds(
                tier.name, dense_nbytes
            )
            if saved <= 0.0:
                break
            verdict, evicted = tier.store(
                name,
                blob,
                codec=self._layer_codec[name],
                dense_nbytes=dense_nbytes,
                dtype=dtype,
                shape=shape,
                saved_seconds=saved,
            )
            if verdict == "admitted":
                self.stats.record_tier(tier.name, "demotions")
                for entry in evicted:
                    self.stats.record_tier(tier.name, "evictions")
                    self._cascade_entry(position + 1, tier, entry)
                return True
            self.stats.record_tier(tier.name, "rejected")
        return False

    def _cascade_entry(self, index: int, source_tier, entry) -> None:
        """Move one evicted entry's blob to the next tier down (or drop
        it off the bottom of the hierarchy)."""
        if index >= len(self.tiers):
            source_tier.discard(entry)
            return
        blob = source_tier.extract(entry)
        if blob is None:
            return  # unreadable blob: nothing to cascade
        self._place_blob(
            index,
            entry.name,
            blob,
            dense_nbytes=entry.dense_nbytes,
            dtype=entry.dtype,
            shape=entry.shape,
        )

    # ------------------------------------------------------------------
    def warm(self) -> None:
        """Touch every layer once (fills the cache up to capacity)."""
        self.layer_weights(list(self._specs))

    def clear(self) -> None:
        with self._lock:
            for name in self._cache:
                self._release_residency(name)
            self._cache.clear()
            self._cached_bytes = 0
            self._cached_bytes_gauge.set(0)
            for tier in self.tiers:
                tier.clear()

    def close(self) -> None:
        """Release tier resources (spill files/directories) and empty
        the cache.  Idempotent; the engine stays usable afterwards (a
        closed disk tier re-creates its directory on the next spill)."""
        with self._lock:
            for name in self._cache:
                self._release_residency(name)
            self._cache.clear()
            self._cached_bytes = 0
            self._cached_bytes_gauge.set(0)
            for tier in self.tiers:
                tier.close()

    def tier_summaries(self) -> List[Dict]:
        """Residency snapshot of every lower tier, hierarchy order."""
        with self._lock:
            return [tier.as_dict() for tier in self.tiers]

    def reset_stats(self) -> None:
        """Fresh counters (cache contents kept) — so benchmarks can
        measure steady-state behavior after a warmup pass without
        rebuilding the engine.

        Resets *in place* under the engine lock: the stats object (and
        its metric instruments) keep their identity, so an access that
        raced the reset lands wholly in the old or wholly in the new
        epoch instead of splitting its miss and rebuild counts across
        two objects, and holders of ``engine.stats`` never go stale.
        """
        with self._lock:
            self.stats.reset()


class _Claim:
    """One miss a :meth:`RebuildEngine.layer_weights` call owns: where
    it sits in the call, its in-flight latch and claimed tier blob,
    then what loading it produced (a full rebuild unless ``source``
    names the tier it faulted from)."""

    weight: Optional[np.ndarray] = None
    seconds = 0.0
    source = "rebuild"
    corrupt: Optional[str] = None
    verdict: Optional[str] = None
    error: Optional[BaseException] = None
    started = finished = 0.0

    def __init__(self, position: int, name: str, flight, tier) -> None:
        self.position = position
        self.name = name
        self.flight = flight
        self.tier = tier

    def tags(self) -> Dict:
        """The ``rebuild.layer`` span tags of this miss."""
        if self.weight is None:
            return {"error": type(self.error).__name__}
        return {
            "hit": False,
            "tier": self.source,
            "dense_bytes": self.weight.nbytes,
            "rebuild_seconds": self.seconds,
            "admission": self.verdict,
        }


class _InFlightRebuild:
    """One cold-miss rebuild in progress.

    Completion is a latch, as on :class:`~repro.serving.batching.
    Ticket`: a lock acquired at construction and released once by the
    rebuilding thread.  Each waiter acquires it and releases it at
    once, passing it on to the next waiter.  ``weight`` stays None if
    the rebuild failed.
    """

    __slots__ = ("_latch", "weight")

    def __init__(self) -> None:
        self._latch = threading.Lock()
        self._latch.acquire()
        self.weight: Optional[np.ndarray] = None

    def wait(self) -> None:
        self._latch.acquire()
        self._latch.release()

    def release(self) -> None:
        self._latch.release()
