"""Experiment harness: offline/live sweeps over generated scenarios."""

import pytest

from repro.workloads import (
    ExperimentHarness,
    HotModelSkewScenario,
    SweepConfig,
    UniformScenario,
)
from tests.serving.conftest import build_mixed_model
from tests.workloads.conftest import MODEL_NAME


@pytest.fixture(scope="module")
def harness(mixed_registry) -> ExperimentHarness:
    return ExperimentHarness(
        mixed_registry,
        deployments={MODEL_NAME: lambda: build_mixed_model(seed=1)},
        sample_shape=(3, 8, 8),
    )


class TestSweepConfig:
    def test_batch_policy_families(self):
        static = SweepConfig(name="s", batch="static").batch_policy()
        aware = SweepConfig(name="c", batch="cost-aware").batch_policy()
        assert type(static).__name__ == "StaticBatchPolicy"
        assert type(aware).__name__ == "CostAwareBatchPolicy"

    def test_unknown_batch_family_rejected(self):
        with pytest.raises(ValueError, match="batch policy"):
            SweepConfig(name="x", batch="mystery").batch_policy()


class TestOfflineSweep:
    def test_cost_aware_admission_beats_lru(self, harness):
        """The PR-4 result, reproduced on a *generated* trace: under a
        tight shared cache, cost-aware admission pays fewer rebuild
        seconds than LRU on the identical hot-skew schedule."""
        scenario = HotModelSkewScenario(
            models=[MODEL_NAME],
            rate_rps=150,
            duration_s=2,
            tenants=["acme", "globex"],
            seed=0,
        )
        result = harness.sweep(
            scenario,
            configs=[
                SweepConfig(name="lru", admission="lru",
                            capacity_fraction=0.95),
                SweepConfig(name="cost-aware", admission="cost-aware",
                            capacity_fraction=0.95),
            ],
        )
        by_name = {row["config"]: row for row in result.rows}
        assert by_name["cost-aware"]["rebuild_s"] < by_name["lru"]["rebuild_s"]
        # Both configs replayed the identical generated schedule.
        assert by_name["lru"]["requests"] == by_name["cost-aware"]["requests"]
        assert by_name["lru"]["requests"] == len(scenario.generate())
        assert "cost-aware" in result.notes

    def test_tenant_usage_rides_rows(self, harness):
        result = harness.sweep(
            UniformScenario(rate_rps=60, duration_s=1,
                            models=[MODEL_NAME],
                            tenants=["acme", "globex"], seed=1),
            configs=[SweepConfig(name="lru", capacity_fraction=0.9)],
        )
        (row,) = result.rows
        tenants = row["tenants"]
        assert set(tenants) == {"acme", "globex"}
        # Fleet totals reconcile with the per-tenant ledger exactly.
        assert sum(
            usage["requests"] for usage in tenants.values()
        ) == row["requests"]
        assert sum(
            usage["rebuild_seconds"] for usage in tenants.values()
        ) == pytest.approx(row["rebuild_s"], abs=1e-9)

    def test_tenancy_can_be_disabled(self, harness):
        result = harness.sweep(
            UniformScenario(rate_rps=30, duration_s=1,
                            models=[MODEL_NAME], seed=2),
            configs=[SweepConfig(name="plain")],
            with_tenancy=False,
        )
        assert "tenants" not in result.rows[0]

    def test_scenario_by_registry_name(self, harness):
        result = harness.sweep(
            "uniform",
            configs=[SweepConfig(name="lru")],
            scenario_params={
                "rate_rps": 30, "duration_s": 1,
                "models": [MODEL_NAME], "seed": 3,
            },
        )
        assert result.rows[0]["requests"] > 0

    def test_bad_mode_rejected(self, harness):
        with pytest.raises(ValueError, match="mode"):
            harness.sweep(
                UniformScenario(models=[MODEL_NAME], seed=0),
                configs=[SweepConfig(name="x")],
                mode="imaginary",
            )

    def test_empty_deployments_rejected(self, mixed_registry):
        with pytest.raises(ValueError, match="deployment"):
            ExperimentHarness(mixed_registry, deployments={})


class TestLiveSweep:
    def test_live_run_serves_and_reconciles(self, harness):
        result = harness.sweep(
            UniformScenario(rate_rps=40, duration_s=1,
                            models=[MODEL_NAME],
                            tenants=["acme", "globex"], seed=4),
            configs=[SweepConfig(name="live-lru", capacity_fraction=0.9,
                                 workers=2)],
            mode="live",
        )
        (row,) = result.rows
        assert row["mode"] == "live"
        assert row["rejected"] == 0
        tenants = row["tenants"]
        assert sum(
            usage["requests"] for usage in tenants.values()
        ) == row["requests"]
        assert sum(
            usage["rebuild_seconds"] for usage in tenants.values()
        ) == pytest.approx(row["rebuild_s"], abs=1e-9)
