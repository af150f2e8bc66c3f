"""Trace-driven offline simulator for rebuild-cache tier policies.

The observability layer records every served request to JSONL
(:class:`~repro.observability.TraceRecorder`) and replays the file as a
deterministic request schedule (:meth:`~repro.observability.TraceReader.
schedule`).  :class:`CacheSimulator` consumes that schedule against a
*candidate* cache configuration — dense capacity, admission policy,
tier stack — in-process, with no fleet, no worker threads, and no
re-decoding per access, and emits **the same stats schema as the live
engine**, so policy comparisons are apples-to-apples and a sweep over
tier configs takes seconds.

How fidelity is achieved: the simulator runs the *real*
:class:`~repro.serving.rebuild.RebuildEngine` — real admission
policies, real tier placement gates, real zlib blobs with real charge
bytes — and overrides exactly two seams:

- :meth:`RebuildEngine._rebuild` decodes each layer **once** (memoized
  probe weights) and charges the cost model's *estimated* rebuild
  seconds instead of wall time;
- :meth:`RebuildEngine._tier_load` inflates the real blob and charges
  the estimated tier-fault seconds.

Charging estimates back into the (cloned) cost model is an EWMA fixed
point — observing a rate equal to the current rate leaves it unchanged
— so a simulation is deterministic and does not drift the rates it
prices with.  Because residency logic is shared code, a simulator
replaying the trace an engine just served reproduces that engine's
per-tier hit counts exactly (single-worker traces, deterministic
policies); the parity test pins this.

Batch semantics: the live engine fetches weights **once per executed
batch** (all of a batch's requests share one pass over the layers), and
records each request with its ``batch_id``.  Replay therefore groups
requests by ``(engine, batch_id)`` and performs one access pass per
group, in first-arrival order; requests recorded without a batch id
replay as single-request batches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.costs import CodecCostModel
from repro.observability import ReplayRequest, TraceReader
from repro.serving.rebuild import (
    AdmissionPolicy,
    RebuildEngine,
    rebuild_layer_weight,
)

__all__ = ["CacheSimulator", "SimulationReport", "simulate_policies"]


class _SimRebuildEngine(RebuildEngine):
    """A :class:`RebuildEngine` that charges estimated time, not wall
    time.  Everything else — lookup-through-tiers, admission, demotion
    cascades, stats — is the live engine's own code."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._probe_weights: Dict[str, np.ndarray] = {}

    def _rebuild(self, name: str):
        weight = self._probe_weights.get(name)
        if weight is None:
            weight = rebuild_layer_weight(
                self._payloads[name], self._specs[name]
            )
            weight.setflags(write=False)
            self._probe_weights[name] = weight
        seconds = self.cost_model.estimate_seconds(
            self._layer_codec[name], weight.nbytes, layer=name
        )
        return weight, seconds

    def _tier_load(self, tier, entry):
        weight = tier.load(entry)
        if weight is None:
            return None, 0.0
        seconds = self.cost_model.estimate_tier_seconds(
            tier.name, weight.nbytes
        )
        return weight, seconds


@dataclass
class SimulationReport:
    """One candidate configuration's replay outcome.

    ``stats`` is the live engine's ``RebuildCacheStats.as_dict()``
    schema verbatim (including the ``tiers`` / ``tier_hit_counts``
    sections when tiers are configured); ``rebuild_seconds`` is the
    *simulated* (estimate-charged) rebuild compute paid, which is the
    number tier-policy sweeps rank by.
    """

    name: str
    admission: str
    tiers: Tuple[str, ...]
    capacity_bytes: Optional[int]
    requests: int
    batches: int
    stats: Dict = field(default_factory=dict)
    tier_summaries: List[Dict] = field(default_factory=list)

    @property
    def rebuild_seconds(self) -> float:
        return self.stats.get("rebuild_seconds", 0.0)

    @property
    def tier_hit_counts(self) -> Dict[str, int]:
        return dict(self.stats.get("tier_hit_counts", {}))

    @property
    def hit_rate(self) -> float:
        return self.stats.get("hit_rate", 0.0)

    def as_dict(self) -> Dict:
        return {
            "name": self.name,
            "admission": self.admission,
            "tiers": list(self.tiers),
            "capacity_bytes": self.capacity_bytes,
            "requests": self.requests,
            "batches": self.batches,
            "stats": dict(self.stats),
            "tier_summaries": list(self.tier_summaries),
        }


def _group_batches(
    rows: Sequence[ReplayRequest],
) -> List[List[ReplayRequest]]:
    """Group schedule rows into executed batches, first-arrival order.

    Rows sharing a recorded ``(engine, batch_id)`` were served by one
    install pass; rows without a batch id each get their own."""
    batches: List[List[ReplayRequest]] = []
    index: Dict[Tuple[Optional[str], int], int] = {}
    for row in rows:
        if row.batch_id is None:
            batches.append([row])
            continue
        key = (row.engine, row.batch_id)
        slot = index.get(key)
        if slot is None:
            index[key] = len(batches)
            batches.append([row])
        else:
            batches[slot].append(row)
    return batches


class CacheSimulator:
    """Replay a recorded request schedule against one candidate cache
    configuration for one model bundle.

    ``source`` is either a ``{layer: LayerPayload}`` mapping plus
    ``specs``, or anything with ``payloads`` / ``layer_specs``
    attributes (a :class:`~repro.serving.registry.
    CompressedModelHandle`).  ``cost_model`` is **cloned** (when given)
    so the simulation prices codecs and tiers exactly as the live
    fleet currently does without polluting the fleet's learned rates;
    with none, a fresh model (calibration probe included for
    cost-requiring policies) is used.

    Use as a context manager (or call :meth:`close`) — a disk tier
    creates spill files during replay.
    """

    def __init__(
        self,
        source,
        specs=None,
        capacity_bytes: Optional[int] = None,
        admission: Union[str, AdmissionPolicy, None] = None,
        tiers=None,
        cost_model: Optional[CodecCostModel] = None,
        spill_dir: Optional[str] = None,
        name: str = "candidate",
        ledger=None,
    ) -> None:
        if specs is None:
            payloads = getattr(source, "payloads", None)
            specs = getattr(source, "layer_specs", None)
            if payloads is None or specs is None:
                raise TypeError(
                    "pass (payloads, specs) or a handle with .payloads "
                    "and .layer_specs"
                )
        else:
            payloads = source
        self.name = name
        self.engine = _SimRebuildEngine(
            payloads=payloads,
            specs=specs,
            capacity_bytes=capacity_bytes,
            policy=admission,
            cost_model=cost_model.clone() if cost_model is not None else None,
            tiers=tiers,
            spill_dir=spill_dir,
            ledger=ledger,
        )
        # Optional tenant ledger: replay attributes each batch's
        # simulated rebuild charges to the tenants recorded on its rows
        # (same share arithmetic as the live worker), so offline sweeps
        # produce per-tenant bills too.
        self.ledger = ledger
        self._requests = 0
        self._batches = 0

    # ------------------------------------------------------------------
    def replay(
        self,
        schedule: Union[str, TraceReader, Sequence[ReplayRequest]],
        model: Optional[str] = None,
    ) -> SimulationReport:
        """Run the schedule through the candidate cache; returns the
        report.  ``schedule`` is a JSONL path, a :class:`TraceReader`,
        or an already-loaded row list; ``model`` filters the trace to
        one model's requests (a multi-model trace replayed unfiltered
        would charge this bundle with other models' traffic).

        Replay accumulates: call :meth:`reset` between independent
        runs, or build a fresh simulator per candidate.
        """
        if isinstance(schedule, (str,)) or hasattr(schedule, "schedule"):
            reader = (
                schedule
                if isinstance(schedule, TraceReader)
                else TraceReader(schedule)
            )
            rows: Sequence[ReplayRequest] = reader.schedule()
        else:
            rows = list(schedule)
        if model is not None:
            rows = [row for row in rows if row.model == model]
        ledger = self.ledger
        layers = self.engine.layer_names
        for batch in _group_batches(rows):
            # One fetch per executed batch, spec order — exactly the
            # call `execute_batch` makes.
            if ledger is not None:
                shares = ledger.shares([row.tenant for row in batch])
                with ledger.activate(shares):
                    self.engine.layer_weights(layers)
                for row in batch:
                    ledger.record_submitted(row.tenant)
                    ledger.record_served(row.tenant)
            else:
                self.engine.layer_weights(layers)
            self._requests += len(batch)
            self._batches += 1
        return self.report()

    def report(self) -> SimulationReport:
        return SimulationReport(
            name=self.name,
            admission=self.engine.policy.name,
            tiers=tuple(tier.name for tier in self.engine.tiers),
            capacity_bytes=self.engine.capacity_bytes,
            requests=self._requests,
            batches=self._batches,
            stats=self.engine.stats.as_dict(),
            tier_summaries=self.engine.tier_summaries(),
        )

    def reset(self) -> None:
        """Empty every tier and zero the counters (probe weights and
        learned rates kept)."""
        self.engine.clear()
        self.engine.reset_stats()
        self._requests = 0
        self._batches = 0

    def close(self) -> None:
        self.engine.close()

    def __enter__(self) -> "CacheSimulator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def simulate_policies(
    schedule: Union[str, TraceReader, Sequence[ReplayRequest]],
    source,
    specs=None,
    configs: Optional[Sequence[Mapping]] = None,
    cost_model: Optional[CodecCostModel] = None,
    model: Optional[str] = None,
    spill_dir: Optional[str] = None,
) -> List[SimulationReport]:
    """Sweep one recorded schedule over candidate cache configurations.

    Each config is a mapping with any of ``name`` / ``admission`` /
    ``tiers`` / ``capacity_bytes`` / ``spill_dir``; missing keys
    default like :class:`CacheSimulator`'s.  The schedule is loaded
    once and replayed against a fresh simulator per config; reports
    come back in config order, each carrying the live stats schema.

    Every config prices with the *same* rates: when no ``cost_model``
    is given, one fresh model is calibrated here and cloned per
    config.  (Left to each config, only the cost-requiring ones would
    trigger the calibration probe, and their realistically-priced
    rebuilds would dwarf the prior-priced ones — cross-config
    ``rebuild_seconds`` would compare pricing schemes, not policies.)
    """
    if isinstance(schedule, (str,)) or hasattr(schedule, "schedule"):
        reader = (
            schedule
            if isinstance(schedule, TraceReader)
            else TraceReader(schedule)
        )
        rows: Sequence[ReplayRequest] = reader.schedule()
    else:
        rows = list(schedule)
    if cost_model is None:
        payloads = source if specs is not None else getattr(
            source, "payloads", None
        )
        layer_specs = specs if specs is not None else getattr(
            source, "layer_specs", None
        )
        cost_model = CodecCostModel()
        if payloads is not None and layer_specs is not None:
            cost_model.calibrate(payloads, layer_specs)
    reports: List[SimulationReport] = []
    for position, config in enumerate(configs or [{}]):
        config = dict(config)
        with CacheSimulator(
            source,
            specs=specs,
            capacity_bytes=config.get("capacity_bytes"),
            admission=config.get("admission"),
            tiers=config.get("tiers"),
            cost_model=cost_model,
            spill_dir=config.get("spill_dir", spill_dir),
            name=config.get("name", f"config-{position}"),
        ) as simulator:
            reports.append(simulator.replay(rows, model=model))
    return reports
