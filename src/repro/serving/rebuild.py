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
``bytes_saved`` is the dense footprint *not* held resident,
``rebuilt_bytes`` is the compute paid for it, and ``stats.curve``
samples (accesses, resident bytes, cumulative rebuild seconds) so
:meth:`repro.serving.ServingStats.cost_curve` can plot the trade.
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

from repro.codecs import LayerPayload, get_codec
from repro.costs import CodecCostModel
from repro.observability import NULL_OBSERVABILITY, MetricsRegistry
from repro.serving.artifacts import LayerArtifactSpec

# Bound on the sampled trade curve; when full, every other point is
# dropped, halving the sampling rate but keeping the whole history.
_CURVE_LIMIT = 4096


class RebuildCacheStats:
    """Counters for the rebuild-on-read cache.

    The scalar counters are metric-backed properties over
    ``repro_rebuild_*`` instruments in a
    :class:`~repro.observability.metrics.MetricsRegistry` (pass
    ``metrics=`` to share the engine's registry), so a Prometheus
    export reports exactly what :meth:`as_dict` reports.  ``+=``
    mutation keeps working through the setters; callers hold the
    rebuild engine's lock as before.
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
        # (accesses, cached_bytes, cumulative rebuild_seconds) samples,
        # one per rebuild — the realized storage-vs-compute trade over
        # time.
        self.curve: List[Tuple[int, int, float]] = []
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

    # -- metric-backed scalar counters ---------------------------------
    @property
    def hits(self) -> int:
        return int(self._hits.value)

    @hits.setter
    def hits(self, value: int) -> None:
        self._hits.set(value)

    @property
    def misses(self) -> int:
        return int(self._misses.value)

    @misses.setter
    def misses(self, value: int) -> None:
        self._misses.set(value)

    @property
    def evictions(self) -> int:
        return int(self._evictions.value)

    @evictions.setter
    def evictions(self, value: int) -> None:
        self._evictions.set(value)

    @property
    def rejected(self) -> int:
        return int(self._rejected.value)

    @rejected.setter
    def rejected(self, value: int) -> None:
        self._rejected.set(value)

    @property
    def rebuilds(self) -> int:
        return int(self._rebuilds.value)

    @rebuilds.setter
    def rebuilds(self, value: int) -> None:
        self._rebuilds.set(value)

    @property
    def rebuilt_bytes(self) -> int:
        return int(self._rebuilt_bytes.value)

    @rebuilt_bytes.setter
    def rebuilt_bytes(self, value: int) -> None:
        self._rebuilt_bytes.set(value)

    @property
    def rebuild_seconds(self) -> float:
        return self._rebuild_seconds.value

    @rebuild_seconds.setter
    def rebuild_seconds(self, value: float) -> None:
        self._rebuild_seconds.set(value)

    @property
    def est_seconds_saved(self) -> float:
        return self._est_seconds_saved.value

    @est_seconds_saved.setter
    def est_seconds_saved(self, value: float) -> None:
        self._est_seconds_saved.set(value)

    def reset(self) -> None:
        """Zero every counter *in place* (object identity kept).

        Callers hold the engine lock, so an in-flight access counts
        entirely before or entirely after the reset — the old
        swap-a-fresh-object reset could split one access's miss and
        rebuild counts across two stats objects.
        """
        for instrument in (
            self._hits,
            self._misses,
            self._evictions,
            self._rejected,
            self._rebuilds,
            self._rebuilt_bytes,
            self._rebuild_seconds,
            self._est_seconds_saved,
        ):
            instrument.reset()
        for counter in self._tier_counters.values():
            counter.reset()
        self.curve.clear()
        self.layer_hits.clear()
        self.layer_accesses.clear()
        self.layer_hit_ewma.clear()

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
            "curve_points": len(self.curve),
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

    def all_miss_install_seconds(self) -> float:
        """Rebuild seconds if *every* layer missed: the certain-miss
        ceiling :meth:`estimated_install_seconds` discounts from
        (residency and observed hit rates ignored)."""
        rates, layer_rates = self.cost_model.snapshot_all_rates()
        with self._lock:
            sizes = {
                name: self._actual_bytes.get(name, self._assumed_bytes[name])
                for name in self._specs
            }
        return sum(
            self._rate_for(rates, layer_rates, name) * nbytes
            for name, nbytes in sizes.items()
        )

    # ------------------------------------------------------------------
    def layer_weight(self, name: str) -> np.ndarray:
        """The dense weight for ``name`` (cached or rebuilt).

        The returned array is the cache's copy and is marked read-only;
        serving binds it by reference into an eval plan
        (:func:`~repro.serving.execute.execute_batch`).

        Safe for concurrent callers: hits return immediately, and only
        one thread rebuilds a cold layer at a time — the rest wait on
        the in-flight rebuild and share its result (counted as hits,
        since they paid no rebuild compute).  If a rebuild fails, its
        waiters retry, so each caller raises its own exception.

        With observability enabled, each call emits a ``rebuild.layer``
        span — nested under whatever span the calling thread has active
        (the engine's per-batch ``rebuild`` phase) — tagged with the
        layer, codec, hit/miss, dense bytes, and admission verdict.
        """
        obs = self.observability
        if not obs.enabled:
            return self._layer_weight(name, None)
        info: Dict = {}
        span = obs.tracer.start_span(
            "rebuild.layer",
            tags={"layer": name, "codec": self._layer_codec.get(name, "?")},
        )
        try:
            with obs.tracer.activate(span):
                weight = self._layer_weight(name, info)
        except BaseException as exc:
            obs.tracer.finish_span(span, error=type(exc).__name__, **info)
            raise
        obs.tracer.finish_span(span, **info)
        return weight

    def _layer_weight(self, name: str, info: Optional[Dict]) -> np.ndarray:
        """The uninstrumented implementation; ``info`` (when given) is
        filled with hit/miss, serving tier, dense bytes, and the
        admission verdict."""
        if name not in self._specs:
            raise KeyError(f"unknown layer {name!r}")
        claimed = None  # (tier, entry) faulted from a lower tier
        while True:
            with self._lock:
                cached = self._cache.get(name)
                if cached is not None:
                    self.stats.hits += 1
                    self.stats.record_access(name, hit=True)
                    saved = self._estimate_seconds(name)
                    self.stats.est_seconds_saved += saved
                    if self.ledger is not None:
                        self.ledger.credit_saved(saved)
                    self._cache.move_to_end(name)
                    if info is not None:
                        info["hit"] = True
                        info["tier"] = "dense-ram"
                        info["dense_bytes"] = cached.nbytes
                    return cached
                flight = self._inflight.get(name)
                if flight is None:
                    flight = self._inflight[name] = _InFlightRebuild()
                    self.stats.misses += 1
                    self.stats.record_access(name, hit=False)
                    # This thread owns the miss: claim the layer's blob
                    # from the closest lower tier (popped under the
                    # lock, so nobody else can reach it) and inflate it
                    # outside the lock.
                    for tier in self.tiers:
                        entry = tier.claim(name)
                        if entry is not None:
                            claimed = (tier, entry)
                            break
                    break
            flight.event.wait()
            if flight.weight is not None:
                with self._lock:
                    self.stats.hits += 1
                    self.stats.record_access(name, hit=True)
                    saved = self._estimate_seconds(name)
                    self.stats.est_seconds_saved += saved
                    if self.ledger is not None:
                        self.ledger.credit_saved(saved)
                if info is not None:
                    # Shared an in-flight rebuild: a hit (no compute
                    # paid here), flagged so traces can tell it apart.
                    info["hit"] = True
                    info["inflight_wait"] = True
                    info["tier"] = "dense-ram"
                    info["dense_bytes"] = flight.weight.nbytes
                return flight.weight
            # The in-flight rebuild failed; loop and rebuild ourselves.
        weight = None
        source = "rebuild"
        if claimed is not None:
            tier, entry = claimed
            weight, seconds = self._tier_load(tier, entry)
            if weight is None:
                # Corrupt/unreadable blob: a miss, not an error — fall
                # through to the full rebuild.
                with self._lock:
                    self.stats.record_tier(tier.name, "corrupt")
            else:
                source = tier.name
                self.cost_model.observe_tier_access(
                    tier.name, weight.nbytes, seconds
                )
        if weight is None:
            try:
                weight, seconds = self._rebuild(name)
            except BaseException:
                with self._lock:
                    self._inflight.pop(name, None)
                flight.event.set()
                raise
            self.cost_model.observe(
                self._layer_codec[name], weight.nbytes, seconds, layer=name
            )
        flight.weight = weight  # published before event.set()
        with self._lock:
            if source == "rebuild":
                self.stats.rebuilds += 1
                self.stats.rebuilt_bytes += weight.nbytes
                self.stats.rebuild_seconds += seconds
                if self.ledger is not None:
                    # Same event, same seconds: the tenant split of the
                    # fleet counter, so the two totals reconcile.
                    self.ledger.charge_rebuild(seconds)
            else:
                # Faulting from a tier paid `seconds` instead of a full
                # rebuild: count the fault and credit the difference.
                self.stats.record_tier(source, "hits")
                self.stats.record_tier(source, "fault_seconds", seconds)
                fault_saved = max(
                    0.0, self._estimate_seconds(name) - seconds
                )
                self.stats.est_seconds_saved += fault_saved
                if self.ledger is not None:
                    self.ledger.credit_saved(fault_saved)
            verdict = self._admit(name, weight)
            if source != "rebuild" and verdict == "admitted":
                self.stats.record_tier(source, "promotions")
            self._record_curve()
            self._inflight.pop(name, None)
        flight.event.set()
        if info is not None:
            info["hit"] = False
            info["tier"] = source
            info["dense_bytes"] = weight.nbytes
            info["rebuild_seconds"] = seconds
            info["admission"] = verdict
        return weight

    def _tier_load(self, tier, entry) -> "tuple[Optional[np.ndarray], float]":
        """Inflate one claimed tier entry (no locking): (weight, seconds).

        Split out so the offline simulator can charge estimated fault
        time instead of wall time, the same seam :meth:`_rebuild` is.
        """
        start = time.perf_counter()
        weight = tier.load(entry)
        return weight, time.perf_counter() - start

    def _rebuild(self, name: str) -> "tuple[np.ndarray, float]":
        """Decode one layer (no locking, no stats): (weight, seconds)."""
        start = time.perf_counter()
        weight = rebuild_layer_weight(self._payloads[name], self._specs[name])
        seconds = time.perf_counter() - start
        weight.setflags(write=False)
        return weight, seconds

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
            self.stats.rejected += 1
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
            self.stats.evictions += 1
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

    def _record_curve(self) -> None:
        # Caller holds self._lock.
        curve = self.stats.curve
        curve.append(
            (self.stats.accesses, self._cached_bytes, self.stats.rebuild_seconds)
        )
        if len(curve) >= _CURVE_LIMIT:
            del curve[::2]

    # ------------------------------------------------------------------
    def warm(self) -> None:
        """Touch every layer once (fills the cache up to capacity)."""
        for name in self._specs:
            self.layer_weight(name)

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


class _InFlightRebuild:
    """One cold-miss rebuild in progress; waiters block on ``event``."""

    __slots__ = ("event", "weight")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.weight: Optional[np.ndarray] = None
