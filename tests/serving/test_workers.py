"""Worker-pool engine + thread-safety regression tests.

Covers the concurrency surface added with the multi-worker engine:
bit-for-bit agreement across pool sizes, single-rebuild-per-layer under
concurrent cold misses, per-worker stats aggregation, the asyncio front
door, and regressions for the stop/restart race, the submit-vs-stop
race, and the shared-exception re-raise bug.
"""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro import nn
from repro.serving import (
    StaticBatchPolicy,
    InferenceEngine,
    ModelRegistry,
    RebuildEngine,
    ServingError,
    per_ticket_error,
)
from repro.tenancy import TenantLedger

from tests.serving.conftest import build_model


@pytest.fixture
def handle(published):
    store, manifest, *_ = published
    return ModelRegistry(store).get(manifest.name)


def make_engine(handle, **policy) -> InferenceEngine:
    policy.setdefault("max_batch_size", 4)
    policy.setdefault("max_wait_s", 0.002)
    return InferenceEngine(
        build_model(seed=123), handle, policy=StaticBatchPolicy(**policy)
    )


@pytest.fixture
def inputs(rng):
    return list(rng.normal(size=(24, 3, 8, 8)))


def serve_all(engine, samples, workers):
    engine.start(workers=workers)
    try:
        tickets = [engine.submit(sample) for sample in samples]
        return [ticket.result(timeout=30.0) for ticket in tickets]
    finally:
        engine.stop()


class TestWorkerPool:
    def test_multi_worker_matches_single_worker_bit_for_bit(
        self, handle, inputs
    ):
        # Outputs are only bit-stable at a fixed batch composition, so
        # pin it: len(inputs) divides max_batch_size and a generous
        # max_wait means every batch fills to exactly 4 samples
        # regardless of scheduling jitter.
        assert len(inputs) % 4 == 0
        single = serve_all(
            make_engine(handle, max_wait_s=0.2), inputs, workers=1
        )
        pooled = serve_all(
            make_engine(handle, max_wait_s=0.2), inputs, workers=4
        )
        np.testing.assert_array_equal(np.stack(pooled), np.stack(single))

    def test_multi_worker_matches_offline(self, handle, inputs):
        engine = make_engine(handle)
        offline = engine.predict_many(inputs, batched=True)
        online = serve_all(engine, inputs, workers=3)
        np.testing.assert_allclose(
            np.stack(online), np.stack(offline), atol=1e-10
        )

    def test_worker_count_tracks_pool(self, handle):
        engine = make_engine(handle)
        assert engine.worker_count == 0
        engine.start(workers=3)
        assert engine.worker_count == 3
        engine.stop()
        assert engine.worker_count == 0

    def test_zero_workers_rejected(self, handle):
        with pytest.raises(ServingError, match="workers"):
            make_engine(handle).start(workers=0)

    def test_stats_aggregate_across_workers(self, handle, inputs):
        engine = make_engine(handle)
        serve_all(engine, inputs, workers=3)
        summary = engine.summary()
        assert summary["requests"] == len(inputs)
        assert summary["wall_seconds"] > 0
        assert summary["workers"] >= 1
        per_worker = summary["per_worker"]
        assert sum(w["requests"] for w in per_worker.values()) == len(inputs)
        assert sum(w["batches"] for w in per_worker.values()) == summary[
            "batches"
        ]
        # Summed busy time across overlapping workers must not leak
        # into the wall-clock window used for throughput.
        assert summary["busy_seconds"] >= max(
            w["busy_seconds"] for w in per_worker.values()
        )

    def test_report_renders_worker_lines(self, handle, inputs):
        engine = make_engine(handle)
        serve_all(engine, inputs, workers=2)
        text = engine.report()
        assert "wall_seconds" in text
        assert "worker[" in text

    def test_bad_batch_fails_only_its_tickets(self, handle, inputs):
        engine = make_engine(handle)
        engine.start(workers=2)
        try:
            bad = engine.submit(np.zeros((5, 5)))  # wrong input rank
            with pytest.raises(Exception):
                bad.result(timeout=30.0)
            good = engine.submit(inputs[0])
            assert good.result(timeout=30.0).shape == (4,)
        finally:
            engine.stop()
        assert engine.stats.failed_requests >= 1


class TestAsyncFrontDoor:
    def test_async_matches_offline(self, handle, inputs):
        engine = make_engine(handle)
        offline = engine.predict_many(inputs, batched=True)

        async def serve():
            return await asyncio.gather(
                *(engine.submit_async(sample) for sample in inputs)
            )

        engine.start(workers=2)
        try:
            online = asyncio.run(serve())
        finally:
            engine.stop()
        np.testing.assert_allclose(
            np.stack(online), np.stack(offline), atol=1e-10
        )
        assert engine.worker_count == 0

    def test_async_single_predict(self, handle, inputs):
        engine = make_engine(handle)

        async def serve():
            return await engine.submit_async(inputs[0])

        engine.start()
        try:
            row = asyncio.run(serve())
        finally:
            engine.stop()
        assert row.shape == (4,)

    def test_async_error_propagates_to_future(self, handle):
        engine = make_engine(handle)

        async def serve():
            with pytest.raises(Exception):
                await engine.submit_async(np.zeros((5, 5)))

        engine.start(workers=2)
        try:
            asyncio.run(serve())
        finally:
            engine.stop()

    def test_abandoned_future_on_closed_loop_spares_worker(
        self, handle, inputs
    ):
        """Completing a ticket whose event loop already closed must not
        kill the worker (the bridge callback raises internally)."""
        engine = make_engine(handle, max_wait_s=0.3)
        engine.start()
        try:

            async def abandon():
                engine.submit_async(inputs[0])  # never awaited

            asyncio.run(abandon())  # loop closes before the batch runs
            time.sleep(0.5)  # let the worker complete the dead ticket
            alive = engine.submit(inputs[0])
            assert alive.result(timeout=30.0).shape == (4,)
        finally:
            engine.stop()

    def test_submit_async_requires_running_loop(self, handle, inputs):
        engine = make_engine(handle)
        engine.start()
        try:
            with pytest.raises(RuntimeError):
                engine.submit_async(inputs[0])
        finally:
            engine.stop()


class TestRebuildDedup:
    def test_concurrent_cold_misses_rebuild_once(self, handle):
        engine = RebuildEngine(
            payloads=handle.payloads, specs=handle.layer_specs
        )
        name = engine.layer_names[0]
        real_rebuild = engine._rebuild
        calls = []

        def slow_rebuild(layer):
            calls.append(layer)
            time.sleep(0.05)
            return real_rebuild(layer)

        engine._rebuild = slow_rebuild
        threads = 8
        barrier = threading.Barrier(threads)
        results = [None] * threads

        def hit_cold_cache(index):
            barrier.wait()
            results[index] = engine.layer_weight(name)

        pool = [
            threading.Thread(target=hit_cold_cache, args=(i,))
            for i in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(10.0)

        assert calls == [name]  # exactly one rebuild
        assert engine.stats.rebuilds == 1
        assert engine.stats.misses == 1
        assert engine.stats.hits == threads - 1
        assert all(result is results[0] for result in results)

    def test_failed_rebuild_releases_waiters(self, handle):
        engine = RebuildEngine(
            payloads=handle.payloads, specs=handle.layer_specs
        )
        name = engine.layer_names[0]
        real_rebuild = engine._rebuild

        def broken_rebuild(layer):
            time.sleep(0.02)
            raise RuntimeError("decode failed")

        engine._rebuild = broken_rebuild
        threads = 4
        barrier = threading.Barrier(threads)
        errors = []

        def hit_broken(index):
            barrier.wait()
            try:
                engine.layer_weight(name)
            except RuntimeError as error:
                errors.append(error)

        pool = [
            threading.Thread(target=hit_broken, args=(i,))
            for i in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(10.0)

        # Every caller failed with its *own* exception instance, and
        # the engine is not wedged: a later rebuild succeeds.
        assert len(errors) == threads
        assert len({id(error) for error in errors}) == threads
        engine._rebuild = real_rebuild
        assert engine.layer_weight(name) is not None


class TestStopRestartRace:
    """Satellite 1: a join timeout must not allow a duplicate worker."""

    def test_timeout_keeps_worker_tracked(self, handle, inputs):
        engine = make_engine(handle)
        entered = threading.Event()
        release = threading.Event()

        def blocked_run(requests, worker):
            entered.set()
            release.wait(30.0)

        engine._run_requests = blocked_run
        engine.start()
        engine.submit(inputs[0])
        assert entered.wait(10.0)

        with pytest.raises(ServingError, match="did not stop"):
            engine.stop(timeout=0.2)
        # The zombie is still tracked: no second pool may launch.
        assert engine.worker_count == 1
        with pytest.raises(ServingError, match="already started"):
            engine.start()

        release.set()
        engine.stop(timeout=10.0)  # retry succeeds, pool forgotten
        assert engine.worker_count == 0

        del engine._run_requests  # restore the real bound method
        with engine:
            ticket = engine.submit(inputs[0])
            assert ticket.result(timeout=30.0).shape == (4,)


class TestDeadWorkerDrain:
    def test_drained_tickets_are_counted_failed(self, handle, inputs):
        """A dying worker thread fails the batch it held and drains the
        queue through the engine's ``failed``: every ticket fails and is
        booked in the stats and the tenant ledger, as the process
        backend's drain books them."""
        ledger = TenantLedger()
        engine = InferenceEngine(
            build_model(seed=123),
            handle,
            policy=StaticBatchPolicy(max_batch_size=4, max_wait_s=0.002),
            ledger=ledger,
        )
        entered, release = threading.Event(), threading.Event()

        def dying_run(requests, worker):
            entered.set()
            release.wait(30.0)
            raise RuntimeError("worker bug")

        engine._run_requests = dying_run
        engine.start()
        held = engine.submit(inputs[0], tenant="acme")  # held by the dying run
        assert entered.wait(10.0)
        queued = [engine.submit(s, tenant="acme") for s in inputs[1:4]]
        release.set()
        for ticket in [held, *queued]:
            with pytest.raises(RuntimeError, match="worker bug"):
                ticket.result(timeout=10.0)
        assert engine.stats.failed_requests == 4
        assert ledger.usage_report("acme").failed == 4
        with pytest.raises(ServingError, match="worker died"):
            engine.stop()


class TestSubmitStopRace:
    """Satellite 2: submit racing stop gets ServingError, never
    AttributeError, and restart loops never leak or duplicate workers."""

    def test_submit_after_stop_raises_serving_error(self, handle, inputs):
        engine = make_engine(handle)
        engine.start()
        engine.stop()
        with pytest.raises(ServingError, match="not started"):
            engine.submit(inputs[0])

    def test_submit_on_closed_queue_translated(self, handle, inputs):
        engine = make_engine(handle)
        engine.start()
        engine._queue.close()  # what a concurrent stop() does first
        with pytest.raises(ServingError, match="queue closed"):
            engine.submit(inputs[0])
        engine.stop()

    def test_concurrent_submit_stop_restart_stress(self, handle, inputs):
        engine = make_engine(handle, max_batch_size=32, max_wait_s=0.0)
        sample = inputs[0]
        unexpected = []
        done = threading.Event()

        def hammer_submit():
            tickets = []
            while not done.is_set():
                try:
                    tickets.append(engine.submit(sample))
                    # Throttle so stop() never drains a huge backlog.
                    time.sleep(0.0005)
                except ServingError:
                    time.sleep(0.0005)  # engine stopped/stopping: fine
                except BaseException as error:  # the old AttributeError
                    unexpected.append(error)
                    return
            for ticket in tickets[-8:]:
                if ticket.done():
                    ticket.result(timeout=0)

        submitters = [
            threading.Thread(target=hammer_submit) for _ in range(3)
        ]
        for thread in submitters:
            thread.start()
        try:
            for iteration in range(50):
                engine.start(workers=2)
                assert engine.worker_count == 2
                time.sleep(0.001)
                engine.stop(timeout=30.0)
                assert engine.worker_count == 0
        finally:
            done.set()
            for thread in submitters:
                thread.join(30.0)
        assert unexpected == []


class TestPerTicketErrors:
    """Satellite 3: a failed batch must not share one exception object
    across its tickets."""

    def test_per_ticket_error_copies(self):
        original = ValueError("bad batch")
        first = per_ticket_error(original)
        second = per_ticket_error(original)
        assert type(first) is ValueError and type(second) is ValueError
        assert first is not original and second is not original
        assert first is not second
        assert first.__cause__ is original

    def test_per_ticket_error_wraps_uncopyable(self):
        class Stubborn(Exception):
            def __copy__(self):
                raise TypeError("no copying")

        original = Stubborn("nope")
        clone = per_ticket_error(original)
        assert type(clone) is RuntimeError
        assert clone.__cause__ is original

    def test_failed_batch_tickets_get_distinct_instances(
        self, handle, inputs
    ):
        # max_wait large enough that the bad samples coalesce into one
        # batch, so one forward failure fans out to all their tickets.
        engine = make_engine(handle, max_batch_size=4, max_wait_s=0.2)
        engine.start()
        try:
            bad = [engine.submit(np.zeros((5, 5))) for _ in range(4)]
            errors = []
            for ticket in bad:
                with pytest.raises(Exception) as excinfo:
                    ticket.result(timeout=30.0)
                errors.append(excinfo.value)
        finally:
            engine.stop()
        assert len({id(error) for error in errors}) == len(errors)
        causes = {id(error.__cause__) for error in errors}
        assert len(causes) == 1  # all chained to the one batch failure


class TestModuleClone:
    def test_clone_is_independent(self):
        model = build_model(seed=0)
        clone = model.clone()
        for param, cloned in zip(model.parameters(), clone.parameters()):
            assert param is not cloned
            np.testing.assert_array_equal(param.data, cloned.data)
        clone.parameters()[0].data[...] = 0.0
        assert np.any(model.parameters()[0].data != 0.0)

    def test_clone_preserves_registry_aliasing(self):
        model = build_model(seed=0)
        clone = model.clone()
        for _, module in clone.named_modules():
            for name, param in module._parameters.items():
                assert getattr(module, name) is param
            for name, buf in module._buffers.items():
                assert getattr(module, name) is buf

    def test_clone_buffers_independent(self):
        model = build_model(seed=0)
        clone = model.clone()
        bn_model = dict(model.named_modules())["1"]
        bn_clone = dict(clone.named_modules())["1"]
        assert isinstance(bn_clone, nn.BatchNorm2d)
        bn_clone.running_mean[...] = 42.0
        assert not np.any(bn_model.running_mean == 42.0)

    def test_clone_state_dict_roundtrip(self):
        model = build_model(seed=0)
        clone = model.clone()
        clone.load_state_dict(build_model(seed=9).state_dict())
        batch = np.zeros((1, 3, 8, 8))
        model.eval(), clone.eval()
        assert model(batch).data.shape == clone(batch).data.shape
