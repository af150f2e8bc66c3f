"""End-to-end serving: transform -> publish -> serve -> verify.

Covers the acceptance criteria: engine outputs match direct inference
on the compressed model within fp tolerance, the rebuild cache hits
when a layer is reused, and stats/telemetry are coherent.
"""

import numpy as np
import pytest

from repro import nn
from repro.serving import (
    StaticBatchPolicy,
    InferenceEngine,
    ModelRegistry,
    ServingError,
)

from tests.serving.conftest import build_model


@pytest.fixture
def engine(published):
    store, manifest, *_ = published
    handle = ModelRegistry(store).get(manifest.name)
    # Fresh skeleton with different init: all served weights must come
    # from the bundle, not the skeleton.
    return InferenceEngine(
        build_model(seed=123),
        handle,
        policy=StaticBatchPolicy(max_batch_size=4, max_wait_s=0.01),
    )


@pytest.fixture
def inputs(rng):
    return list(rng.normal(size=(10, 3, 8, 8)))


class TestEndToEnd:
    def test_outputs_match_direct_inference(self, published, engine, inputs):
        _, _, model, _, _ = published
        model.eval()
        direct = model(np.stack(inputs)).data
        served = np.stack(engine.predict_many(inputs, batched=True))
        assert served.shape == direct.shape
        # Only the 8-bit basis quantization of the serialized form
        # separates the two.
        scale = max(np.abs(direct).max(), 1e-9)
        assert np.abs(served - direct).max() < 0.05 * scale

    def test_batched_and_unbatched_agree(self, engine, inputs):
        batched = np.stack(engine.predict_many(inputs, batched=True))
        unbatched = np.stack(engine.predict_many(inputs, batched=False))
        # Rows are float32, and the final Linear is one GEMM whose
        # rounding depends on the batch's row count (measured: one ulp).
        scale = float(np.abs(unbatched).max())
        atol = 4 * float(np.finfo(np.float32).eps) * scale
        np.testing.assert_allclose(batched, unbatched, rtol=0, atol=atol)

    def test_cache_hits_when_layer_reused(self, engine, inputs):
        engine.predict(np.stack(inputs[:2]))
        assert engine.rebuild.stats.hits == 0  # first pass: all misses
        engine.predict(np.stack(inputs[2:4]))
        assert engine.rebuild.stats.hits >= 1

    def test_residual_state_applied(self, published, engine):
        """BN statistics must come from the published model."""
        _, _, model, _, _ = published
        source = dict(model.named_modules())
        served = dict(engine.model.named_modules())
        for name, module in source.items():
            if isinstance(module, nn.BatchNorm2d):
                np.testing.assert_array_equal(
                    served[name].running_mean, module.running_mean
                )

    def test_online_matches_offline(self, engine, inputs):
        offline = engine.predict_many(inputs, batched=True)
        with engine:
            tickets = [engine.submit(sample) for sample in inputs]
            online = [ticket.result(timeout=30.0) for ticket in tickets]
        np.testing.assert_allclose(
            np.stack(online), np.stack(offline), atol=1e-10
        )

    def test_bad_request_fails_ticket_not_worker(self, engine, inputs):
        """A malformed sample fails its own ticket; serving continues."""
        with engine:
            bad = engine.submit(np.zeros((5, 5)))  # wrong input rank
            with pytest.raises(Exception):
                bad.result(timeout=30.0)
            good = engine.submit(inputs[0])
            row = good.result(timeout=30.0)
        assert row.shape == (4,)
        assert engine.stats.failed_requests >= 1
        assert engine.summary()["failed_requests"] >= 1

    def test_offline_predict_safe_while_started(self, engine, inputs):
        """predict() and the worker serialize on the forward lock."""
        reference = np.stack(engine.predict_many(inputs, batched=True))
        with engine:
            tickets = [engine.submit(sample) for sample in inputs]
            offline = [engine.predict(np.stack(inputs[:4]))
                       for _ in range(5)]
            online = [ticket.result(timeout=30.0) for ticket in tickets]
        np.testing.assert_allclose(np.stack(online), reference, atol=1e-10)
        for chunk in offline:
            np.testing.assert_allclose(chunk, reference[:4], atol=1e-10)

    def test_online_coalesces(self, engine, inputs):
        with engine:
            tickets = [engine.submit(sample) for sample in inputs]
            for ticket in tickets:
                ticket.result(timeout=30.0)
        assert engine.stats.batch_count < len(inputs)
        assert engine.stats.mean_batch_size > 1.0


class TestEngineGuards:
    def test_submit_before_start(self, engine):
        with pytest.raises(ServingError, match="not started"):
            engine.submit(np.zeros((3, 8, 8)))

    def test_double_start(self, engine):
        with engine:
            with pytest.raises(ServingError, match="already started"):
                engine.start()

    def test_stop_without_start_is_noop(self, engine):
        engine.stop()

    def test_mismatched_skeleton_rejected(self, published):
        store, manifest, *_ = published
        handle = ModelRegistry(store).get(manifest.name)
        rng = np.random.default_rng(0)
        wrong = nn.Sequential(
            nn.Conv2d(3, 4, 3, padding=1, bias=False, rng=rng),
            nn.Flatten(),
        )
        with pytest.raises(ServingError):
            InferenceEngine(wrong, handle)


class TestTelemetry:
    def test_summary_counters(self, engine, inputs):
        engine.predict_many(inputs, batched=True)
        summary = engine.summary()
        assert summary["requests"] == len(inputs)
        assert summary["batches"] == 3  # ceil(10 / 4)
        assert summary["throughput_rps"] > 0
        assert summary["request_latency_p50_ms"] > 0
        assert summary["rebuild_hit_rate"] > 0
        assert summary["bundle_bytes_saved"] > 0
        assert summary["rebuilt_bytes_per_request"] > 0

    def test_report_renders(self, engine, inputs):
        engine.predict_many(inputs[:2], batched=True)
        text = engine.report()
        assert "throughput_rps" in text
        assert "rebuild_hit_rate" in text

    def test_stats_reset(self, engine, inputs):
        engine.predict_many(inputs, batched=True)
        engine.stats.reset()
        assert engine.stats.request_count == 0
        assert engine.summary()["requests"] == 0


def served_twice(engine, first, second):
    """Serve two full batches back to back on one worker; returns the
    first batch's rows as handed out, plus a copy taken before the
    second batch ran."""
    engine.start(workers=1)
    try:
        # Submitted together, each group rides one forward pass.
        tickets = [engine.submit(s) for s in first]
        rows = [ticket.result(timeout=30.0) for ticket in tickets]
        kept = [row.copy() for row in rows]
        tickets = [engine.submit(s) for s in second]
        for ticket in tickets:
            ticket.result(timeout=30.0)
    finally:
        engine.stop()
    return rows, kept


class TestEvalPlanServing:
    def test_ticket_rows_survive_the_next_batch(self, engine, inputs):
        """Rows handed to tickets are never views of a plan workspace."""
        rows, kept = served_twice(engine, inputs[:4], inputs[4:8])
        for row, copy in zip(rows, kept):
            np.testing.assert_array_equal(row, copy)

    def test_offline_output_survives_the_next_batch(self, engine, inputs):
        first = engine.predict(np.stack(inputs[:4]))
        kept = first.copy()
        engine.predict(np.stack(inputs[4:8]))
        np.testing.assert_array_equal(first, kept)

    def test_skeleton_keeps_one_plan_across_shape_changes(self, published):
        from repro.serving.execute import SkeletonPlan

        store, manifest, *_ = published
        handle = ModelRegistry(store).get(manifest.name)
        skeleton = SkeletonPlan(build_model(seed=123), handle.layer_specs)
        plan = skeleton.plan_for((3, 8, 8))
        assert skeleton.plan_for((3, 8, 8)) is plan
        other = skeleton.plan_for((3, 6, 6))
        assert other is not plan and other.sample_shape == (3, 6, 6)
        with pytest.raises(ValueError):
            skeleton.plan_for((3, 6))  # wrong rank: compile fails ...
        assert skeleton.plan_for((3, 6, 6)) is other  # ... plan kept

    def test_shape_change_recompiles_and_serves(self, engine, rng):
        small = rng.normal(size=(2, 3, 6, 6))
        large = rng.normal(size=(2, 3, 8, 8))
        first = engine.predict(large)
        engine.predict(small)
        np.testing.assert_allclose(engine.predict(large), first, atol=1e-12)

    def test_skeleton_rejects_mismatched_model(self, published):
        store, manifest, *_ = published
        handle = ModelRegistry(store).get(manifest.name)
        wrong = nn.Sequential(nn.Conv2d(3, 5, 3), nn.Flatten())
        with pytest.raises(ServingError, match="weight shape"):
            InferenceEngine(wrong, handle)
