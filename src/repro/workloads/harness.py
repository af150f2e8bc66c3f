"""Sweep harness: scenario x policy x capacity, one comparison table.

The serving benches each hand-roll one comparison axis (admission
policies, tier stacks, routing).  :class:`ExperimentHarness` promotes
that pattern into a reusable API: declare the deployed models once,
describe each candidate configuration as a :class:`SweepConfig`, and
:meth:`ExperimentHarness.sweep` runs one generated scenario schedule
through every configuration — offline through the
:class:`~repro.serving.CacheSimulator` (fast, deterministic; the CI
mode) or live through a real :class:`~repro.serving.ServingHost`
worker pool — and returns one
:class:`~repro.experiments.common.ExperimentResult` whose rows
compare on the numbers the paper's trade is about (rebuild seconds,
hit rate, throughput).

Both modes support tenancy: give the harness ``quotas`` (or tenant
names in the scenario) and every run books into a fresh
:class:`~repro.tenancy.TenantLedger`, whose per-tenant usage rides
the result rows; live runs count quota rejections instead of crashing
the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Sequence, Union

import numpy as np

from repro.experiments.common import ExperimentResult
from repro.observability import ReplayRequest
from repro.serving.batching import CostAwareBatchPolicy, StaticBatchPolicy
from repro.serving.host import ServingHost
from repro.serving.registry import ModelRegistry
from repro.serving.simulator import CacheSimulator
from repro.workloads.scenarios import Scenario, coalesce_schedule, make_scenario

__all__ = ["ExperimentHarness", "SweepConfig"]


@dataclass(frozen=True)
class SweepConfig:
    """One candidate serving configuration in a sweep.

    ``capacity_fraction`` sizes each engine's dense rebuild cache as a
    fraction of its bundle's dense bytes (``None`` = unbounded);
    ``batch`` picks the batch policy family (``static`` /
    ``cost-aware``) and applies to live runs only: offline replay
    always groups install passes with
    :func:`~repro.workloads.coalesce_schedule` under
    ``max_batch_size`` / ``max_wait_s``.
    """

    name: str
    admission: str = "lru"
    routing: str = "round-robin"
    batch: str = "static"
    capacity_fraction: Optional[float] = 0.8
    tiers: Optional[str] = None
    max_batch_size: int = 8
    max_wait_s: float = 0.005
    workers: int = 2

    def batch_policy(self):
        if self.batch == "cost-aware":
            return CostAwareBatchPolicy(
                max_batch_size=self.max_batch_size,
                max_wait_s=max(self.max_wait_s, 0.01),
            )
        if self.batch == "static":
            return StaticBatchPolicy(
                max_batch_size=self.max_batch_size,
                max_wait_s=self.max_wait_s,
            )
        raise ValueError(f"unknown batch policy family {self.batch!r}")


class ExperimentHarness:
    """Run scenarios against candidate configs over one model fleet.

    ``registry`` supplies the published bundles; ``deployments`` maps
    each served model name to a zero-argument skeleton factory (the
    architecture its weights install into).  ``sample_shape`` is the
    single-sample input shape live submissions send (offline replay
    never materializes samples).  ``quotas`` (optional) arm per-tenant
    enforcement in live runs and metering in both modes.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        deployments: Mapping[str, Callable[[], object]],
        sample_shape: Sequence[int] = (4,),
        quotas=None,
    ) -> None:
        if not deployments:
            raise ValueError("harness needs at least one deployment")
        self.registry = registry
        self.deployments = dict(deployments)
        self.sample_shape = tuple(sample_shape)
        self.quotas = dict(quotas) if quotas else None

    # ------------------------------------------------------------------
    def _ledger(self):
        from repro.tenancy import TenantLedger

        return TenantLedger(quotas=self.quotas)

    def _capacity(self, handle, config: SweepConfig) -> Optional[int]:
        if config.capacity_fraction is None:
            return None
        return int(handle.total_dense_bytes * config.capacity_fraction)

    # ------------------------------------------------------------------
    def run_offline(
        self,
        rows: Sequence[ReplayRequest],
        config: SweepConfig,
        with_tenancy: bool = True,
    ) -> Dict:
        """Replay one schedule through simulators (one per model).

        The schedule is coalesced into batches under the config's
        static dial first (batch amortization matters to rebuild
        totals), then each model's rows replay against that model's
        candidate cache.  All simulators share one cost-model clone
        source (the registry's) and, when tenancy is on, one ledger —
        so per-tenant charges aggregate across the fleet exactly like
        a live host's.
        """
        ledger = self._ledger() if with_tenancy else None
        # Every config must price rebuilds with the same rates: seed
        # the shared cost model once (idempotent per codec) before any
        # simulator clones it.  Left to the configs, only the
        # cost-requiring admission policies would trigger calibration,
        # and the sweep would compare pricing schemes, not policies.
        for model in sorted(self.deployments):
            handle = self.registry.get(model)
            self.registry.cost_model.calibrate(
                handle.payloads, handle.layer_specs
            )
        batched = coalesce_schedule(
            rows,
            max_batch_size=config.max_batch_size,
            max_wait_s=config.max_wait_s,
        )
        totals = {
            "rebuild_s": 0.0,
            "est_saved_s": 0.0,
            "requests": 0,
            "batches": 0,
            "hits": 0,
            "accesses": 0,
            "evictions": 0,
        }
        for model in sorted(self.deployments):
            handle = self.registry.get(model)
            with CacheSimulator(
                handle,
                capacity_bytes=self._capacity(handle, config),
                admission=config.admission,
                tiers=config.tiers,
                cost_model=self.registry.cost_model,
                name=f"{config.name}:{model}",
                ledger=ledger,
            ) as simulator:
                report = simulator.replay(batched, model=model)
            totals["rebuild_s"] += report.rebuild_seconds
            totals["est_saved_s"] += report.stats.get(
                "est_seconds_saved", 0.0
            )
            totals["requests"] += report.requests
            totals["batches"] += report.batches
            totals["hits"] += report.stats.get("hits", 0)
            totals["accesses"] += report.stats.get("accesses", 0)
            totals["evictions"] += report.stats.get("evictions", 0)
        out = {
            "config": config.name,
            "mode": "offline",
            "admission": config.admission,
            "batching": config.batch,
            "requests": totals["requests"],
            "batches": totals["batches"],
            "rebuild_s": totals["rebuild_s"],
            "est_saved_s": totals["est_saved_s"],
            "hit_rate": (
                totals["hits"] / totals["accesses"]
                if totals["accesses"]
                else 0.0
            ),
            "evictions": totals["evictions"],
            "rejected": 0,
        }
        if ledger is not None:
            out["tenants"] = ledger.summary()
        return out

    # ------------------------------------------------------------------
    def run_live(
        self,
        rows: Sequence[ReplayRequest],
        config: SweepConfig,
        with_tenancy: bool = True,
        timeout_s: float = 60.0,
    ) -> Dict:
        """Serve one schedule through a real host + worker pools.

        A fresh fleet per config: every model deployed with the
        config's batch/admission/capacity knobs, routed under
        ``config.routing``.  Rows are submitted in arrival order
        (back-to-back — the schedule's *order and mix* are what the
        configs compare on; wall-clock pacing would only slow CI).
        Quota rejections are counted, not raised.
        """
        from repro.tenancy import QuotaExceededError

        ledger = self._ledger() if with_tenancy else None
        host = ServingHost(
            self.registry, routing=config.routing, ledger=ledger
        )
        for model, skeleton_factory in sorted(self.deployments.items()):
            handle = self.registry.get(model)
            host.deploy(
                model,
                skeleton_factory(),
                policy=config.batch_policy(),
                cache_bytes=self._capacity(handle, config),
                admission=config.admission,
                tiers=config.tiers,
            )
        rng = np.random.default_rng(0)
        sample = rng.normal(size=self.sample_shape)
        rejected = 0
        tickets = []
        host.start(workers=config.workers)
        try:
            for row in rows:
                try:
                    tickets.append(
                        host.submit(
                            sample, model=row.model, tenant=row.tenant
                        )
                    )
                except QuotaExceededError:
                    rejected += 1
            for ticket in tickets:
                ticket.result(timeout=timeout_s)
        finally:
            host.stop()
        summary = host.summary()
        out = {
            "config": config.name,
            "mode": "live",
            "admission": config.admission,
            "batching": config.batch,
            "routing": config.routing,
            "requests": summary["requests"],
            "rebuild_s": summary["rebuild_seconds"],
            "hit_rate": summary["rebuild_hit_rate"],
            "rejected": rejected,
        }
        if ledger is not None:
            out["tenants"] = ledger.summary()
        for engine in host.engines().values():
            engine.close()
        return out

    # ------------------------------------------------------------------
    def sweep(
        self,
        scenario: Union[str, Scenario],
        configs: Sequence[SweepConfig],
        mode: str = "offline",
        with_tenancy: bool = True,
        scenario_params: Optional[Dict] = None,
    ) -> ExperimentResult:
        """One scenario x N configs -> one comparison table.

        The scenario generates **once**; every config replays the
        identical rows, so row-to-row differences are the config's
        doing alone.  Per-tenant usage dicts ride each row under
        ``tenants`` (dropped from the printed table by
        ``as_table``'s column scan only if absent).
        """
        if mode not in ("offline", "live"):
            raise ValueError(f"mode must be 'offline' or 'live', not {mode!r}")
        resolved = make_scenario(scenario, **(scenario_params or {}))
        rows = resolved.generate()
        runner = self.run_offline if mode == "offline" else self.run_live
        table = [
            runner(rows, config, with_tenancy=with_tenancy)
            for config in configs
        ]
        best = min(table, key=lambda row: row["rebuild_s"])
        return ExperimentResult(
            experiment=(
                f"scenario sweep: {resolved.name} x "
                f"{len(configs)} configs ({mode})"
            ),
            rows=table,
            notes=(
                f"{len(rows)} generated requests; best rebuild cost: "
                f"{best['config']} at {best['rebuild_s']:.4g}s"
            ),
        )
