"""Process-backed serving: parity, crash recovery, wire format, lifecycle.

The acceptance bar for the process backend: ``backend="process"`` is a
drop-in for the thread pool — bit-identical outputs across every codec
in the registry — a ``kill -9`` mid-batch fails only the in-flight
tickets and the pool respawns, every wire envelope survives pickling
(the spawn start method depends on it), and no run leaves a
``/dev/shm`` segment behind.
"""

import os
import pickle
import signal
import time
from collections import Counter

import numpy as np
import pytest

from repro.compression import (
    FP8Quantizer,
    LinearQuantizer,
    MagnitudePruner,
    Pow2Quantizer,
)
from repro.core import apply_smartexchange
from repro.observability import Observability, ReplayRequest
from repro.serving import (
    ArtifactStore,
    BatchRun,
    InferenceEngine,
    ModelRegistry,
    ProcessWorkerError,
    RequestQueue,
    StaticBatchPolicy,
)
from repro.serving.arena import shm_segments
from repro.serving.procpool import (
    START_METHOD_ENV,
    BatchEnvelope,
    BatchResult,
    WorkerHello,
    WorkerSpec,
)
from repro.tenancy import TenantLedger

from tests.serving.conftest import FAST, build_model, publish_mixed


@pytest.fixture
def handle(published):
    store, manifest, *_ = published
    return ModelRegistry(store).get(manifest.name)


def make_engine(handle, **policy) -> InferenceEngine:
    policy.setdefault("max_batch_size", 4)
    policy.setdefault("max_wait_s", 0.2)
    return InferenceEngine(
        build_model(seed=123), handle, policy=StaticBatchPolicy(**policy)
    )


def serve_all(engine, samples, workers, backend="thread", **start):
    engine.start(workers=workers, backend=backend, **start)
    try:
        tickets = [engine.submit(sample) for sample in samples]
        return [ticket.result(timeout=60.0) for ticket in tickets]
    finally:
        engine.stop()


class TestProcessServing:
    def test_serves_and_reports_backend(self, handle, rng):
        inputs = list(rng.normal(size=(8, 3, 8, 8)))
        engine = make_engine(handle)
        engine.start(workers=2, backend="process")
        try:
            assert engine.backend == "process"
            assert len(engine.worker_pids()) == 2
            tickets = [engine.submit(sample) for sample in inputs]
            rows = [ticket.result(timeout=60.0) for ticket in tickets]
            summary = engine.summary()
        finally:
            engine.stop()
        assert len(rows) == len(inputs)
        assert summary["backend"] == "process"
        assert summary["worker_respawns"] == 0
        assert summary["requests"] == len(inputs)
        # Children's cache counters folded into the parent's totals.
        assert summary["rebuild_rebuilds"] > 0
        assert shm_segments() == ()

    def test_matches_thread_backend_bit_for_bit(self, handle, rng):
        # Pin batch composition (inputs divide the batch size, generous
        # wait) so both pools execute the identical batches.
        inputs = list(rng.normal(size=(16, 3, 8, 8)))
        threaded = serve_all(make_engine(handle), inputs, workers=1)
        processed = serve_all(
            make_engine(handle), inputs, workers=2, backend="process"
        )
        np.testing.assert_array_equal(
            np.stack(processed), np.stack(threaded)
        )

    def test_spawn_start_method(self, handle, rng, monkeypatch):
        monkeypatch.setenv(START_METHOD_ENV, "spawn")
        inputs = list(rng.normal(size=(4, 3, 8, 8)))
        rows = serve_all(
            make_engine(handle), inputs, workers=1, backend="process"
        )
        assert len(rows) == len(inputs)
        assert shm_segments() == ()


def publish_codec_zoo(store: ArtifactStore):
    """One bundle per registered codec plus one mixing two codecs;
    returns the bundle names."""
    model = build_model(seed=0)
    _, report = apply_smartexchange(model, FAST, model_name="z-se")
    store.publish(report, FAST, model=model)
    store.publish_model(build_model(seed=0), name="z-dense", codec="dense")
    for bundle, compressor in [
        ("z-quant", LinearQuantizer(8)),
        ("z-prune", MagnitudePruner(0.6)),
        ("z-pow2", Pow2Quantizer(4)),
        ("z-fp8", FP8Quantizer()),
    ]:
        report = compressor.compress(build_model(seed=0), bundle)
        store.publish_compressed(report, model=build_model(seed=0))
    publish_mixed(store, build_model(seed=0), "z-mixed")
    return [
        "z-se", "z-dense", "z-quant", "z-prune", "z-pow2", "z-fp8", "z-mixed",
    ]


class TestBackendParity:
    def test_six_codecs_bit_identical_across_backends(
        self, tmp_path, rng
    ):
        store = ArtifactStore(tmp_path / "zoo")
        bundles = publish_codec_zoo(store)
        assert len(bundles) == 7
        registry = ModelRegistry(store)
        inputs = list(rng.normal(size=(8, 3, 8, 8)))
        codecs = set()
        with registry:
            for bundle in bundles:
                handle = registry.get(bundle)
                codecs.add(handle.codec)
                threaded = serve_all(make_engine(handle), inputs, workers=1)
                processed = serve_all(
                    make_engine(handle),
                    inputs,
                    workers=2,
                    backend="process",
                )
                np.testing.assert_array_equal(
                    np.stack(processed),
                    np.stack(threaded),
                    err_msg=f"backend outputs diverged for {bundle}",
                )
        assert "mixed" in codecs and len(codecs) == 7
        assert shm_segments() == ()


class TestLifecycleParity:
    """Both backends run one batch lifecycle (dequeued, then completed
    or failed), so the same traffic leaves the same spans, tag schema,
    breakdown and ledger on either."""

    @staticmethod
    def serve_traced(handle, backend):
        obs, ledger = Observability(), TenantLedger()
        engine = InferenceEngine(
            build_model(seed=123),
            handle,
            # A wait long enough that only the lone malformed sample's
            # batch closes short: the 64 good samples form 16 full
            # batches on both backends.
            policy=StaticBatchPolicy(max_batch_size=4, max_wait_s=0.5),
            observability=obs,
            ledger=ledger,
        )
        samples = np.random.default_rng(7).normal(size=(64, 3, 8, 8))
        engine.start(workers=2, backend=backend)
        try:
            bad = engine.submit(np.zeros((3, 8)), tenant="acme")
            with pytest.raises(ValueError):
                bad.result(timeout=60.0)
            tickets = [
                engine.submit(sample, tenant=("acme", "globex")[i % 2])
                for i, sample in enumerate(samples)
            ]
            for ticket in tickets:
                ticket.result(timeout=60.0)
        finally:
            engine.stop()
        # Child processes emit no ``rebuild.layer`` spans yet.
        spans = [s for s in obs.spans() if s["name"] != "rebuild.layer"]
        return engine, obs, ledger, spans

    def test_traced_ledgered_mix_matches_across_backends(self, handle):
        seen = {}
        for backend in ("thread", "process"):
            engine, obs, ledger, spans = self.serve_traced(handle, backend)
            kinds = [(s["name"], bool(s["tags"].get("shared"))) for s in spans]
            counts = Counter(
                (*kind, "error" in s["tags"]) for kind, s in zip(kinds, spans)
            )
            tag_keys = {
                (*kind, frozenset(s["tags"])) for kind, s in zip(kinds, spans)
            }
            breakdown = {
                phase: row["count"]
                for phase, row in obs.latency_breakdown().items()
            }
            assert engine.stats.failed_requests == 1
            assert ledger.total_served() == 64
            assert ledger.usage_report("acme").failed == 1
            assert ledger.total_rebuild_seconds() == pytest.approx(
                engine.rebuild.stats.rebuild_seconds, abs=1e-9
            )
            backends = {s["tags"].get("backend") for s in spans}
            assert backends == {backend, None}  # ``request`` roots: none
            seen[backend] = counts, tag_keys, breakdown
            engine.close()
        (counts, tag_keys, breakdown), other = seen["thread"], seen["process"]
        assert counts == other[0]
        assert tag_keys == other[1]
        assert breakdown == other[2]
        assert counts[("queue_wait", False, False)] == 65
        assert counts[("request", False, False)] == 64
        assert counts[("request", False, True)] == 1
        for phase in ("rebuild", "compute"):
            assert counts[(phase, True, False)] == 48
        # The malformed sample's batch rebuilds, then fails in compute.
        assert counts[("rebuild", False, False)] == 17
        assert counts[("compute", False, False)] == 16
        assert counts[("compute", False, True)] == 1


    def test_stamped_run_failing_in_fetch_gets_an_error_rebuild_span(
        self, handle
    ):
        """A child run with no spans that raised while fetching layers
        (``installed`` is None) gives its primary one ``rebuild`` span
        tagged with the error, no ``compute`` span, and fails the batch."""
        obs = Observability()
        engine = InferenceEngine(
            build_model(seed=123), handle, observability=obs
        )
        trace = obs.begin_request(engine=handle.key)
        ticket = RequestQueue().submit(np.zeros((3, 8, 8)), trace=trace)
        batch_id = engine.dequeued([ticket], 0, "process")
        run = BatchRun(None, 1.0, None, 1.5, error=MemoryError("decode"))
        engine.completed([ticket], batch_id, 0, "process", run, 2.0)
        with pytest.raises(MemoryError):
            ticket.result(timeout=1.0)
        phases = [
            (s["name"], s["duration_s"], s["tags"].get("error"))
            for s in obs.spans()
            if s["name"] in ("rebuild", "compute")
        ]
        assert phases == [("rebuild", 0.5, "MemoryError")]
        assert engine.stats.failed_requests == 1
        assert engine.stats.summary()["batches"] == 0


class TestProcessPhaseTimes:
    def test_one_worker_phase_windows_never_overlap(self, handle, rng):
        """Phase spans carry the child's own stamps: one worker runs
        its batches back to back, so no two batches' rebuild-to-compute
        windows overlap, even with a second batch queued in its pipe."""
        obs = Observability()
        engine = InferenceEngine(
            build_model(seed=123),
            handle,
            policy=StaticBatchPolicy(max_batch_size=4, max_wait_s=0.002),
            cache_bytes=0,
            observability=obs,
        )
        rows = serve_all(
            engine, rng.normal(size=(400, 3, 8, 8)), workers=1,
            backend="process",
        )
        assert len(rows) == 400
        windows = {}
        for span in obs.spans():
            tags = span["tags"]
            phase = span["name"] in ("rebuild", "compute")
            if not phase or tags.get("shared"):
                continue
            start, end = span["start_s"], span["start_s"] + span["duration_s"]
            lo, hi = windows.get(tags["batch_id"], (start, end))
            windows[tags["batch_id"]] = (min(lo, start), max(hi, end))
        ordered = sorted(windows.values())
        assert len(ordered) >= 100
        overlaps = sum(
            1
            for (_, end), (start, _) in zip(ordered, ordered[1:])
            if start < end
        )
        assert overlaps == 0
        engine.close()


class TestWireFormat:
    """Every envelope survives the pipe (pickle) byte-for-byte."""

    def test_batch_envelope_round_trips(self, rng):
        batch = rng.normal(size=(4, 3, 8, 8))
        envelope = BatchEnvelope(batch_id=7, batch=batch)
        clone = pickle.loads(pickle.dumps(envelope))
        assert clone.batch_id == 7
        np.testing.assert_array_equal(clone.batch, batch)

    def test_batch_result_round_trips(self, rng):
        rows = rng.normal(size=(4, 10))
        result = BatchResult(
            batch_id=3,
            rows=rows,
            error=None,
            start=0.25,
            installed=0.5,
            finished=1.0,
            rebuild_totals={"hits": 2, "rebuild_seconds": 0.01},
        )
        clone = pickle.loads(pickle.dumps(result))
        np.testing.assert_array_equal(clone.rows, rows)
        assert clone.rebuild_totals == result.rebuild_totals

    def test_batch_result_carries_exception_instances(self):
        result = BatchResult(
            batch_id=1,
            rows=None,
            error=ValueError("bad batch"),
        )
        clone = pickle.loads(pickle.dumps(result))
        assert isinstance(clone.error, ValueError)
        assert str(clone.error) == "bad batch"

    def test_worker_hello_round_trips(self):
        hello = WorkerHello(
            index=2, pid=4242, attach_seconds=0.003, arena_bytes=1 << 16
        )
        assert pickle.loads(pickle.dumps(hello)) == hello

    def test_worker_spec_round_trips(self, handle):
        engine = make_engine(handle)
        engine.start(workers=1, backend="process")
        try:
            spec = engine._process_pool._spec
            clone = pickle.loads(pickle.dumps(spec))
            assert isinstance(clone, WorkerSpec)
            assert clone.manifest == spec.manifest
            assert set(clone.specs) == set(spec.specs)
        finally:
            engine.stop()

    def test_replay_request_round_trips(self):
        request = ReplayRequest(
            arrival_s=1.5,
            model="demo:0001",
            trace_id="abc123",
            engine="demo:0001",
            batch_id=9,
            latency_s=0.02,
            rebuild_s=0.001,
            tenant="acme",
        )
        assert pickle.loads(pickle.dumps(request)) == request


class TestCrashRecovery:
    def test_kill_9_fails_only_inflight_and_respawns(self, handle, rng):
        engine = make_engine(handle, max_wait_s=0.002)
        engine.start(workers=2, backend="process")
        try:
            inputs = list(rng.normal(size=(40, 3, 8, 8)))
            tickets = [engine.submit(sample) for sample in inputs]
            victim = engine.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            ok, failed = 0, 0
            for ticket in tickets:
                try:
                    ticket.result(timeout=60.0)
                    ok += 1
                except ProcessWorkerError:
                    failed += 1
            # Only batches in flight to the dead worker fail; the
            # survivor and the respawned replacement serve the rest.
            assert failed > 0
            assert ok > 0
            assert failed <= 3 * 4  # pipeline depth + dispatch, 1 batch each
            summary = engine.summary()
            assert summary["worker_respawns"] >= 1
            # The pool is whole again and keeps serving.
            assert len(engine.worker_pids()) == 2
            replay = [engine.submit(s) for s in inputs[:8]]
            for ticket in replay:
                ticket.result(timeout=60.0)
        finally:
            engine.stop()
        assert shm_segments() == ()

    def test_fatal_init_poisons_instead_of_respawn_looping(
        self, handle, rng
    ):
        from repro.serving.arena import SharedPayloadArena
        from repro.serving import ServingError

        arena = SharedPayloadArena.from_payloads(
            handle.payloads, key=handle.key
        )
        # Yank the segment before any worker attaches: every spawn
        # fails identically, so respawning would loop forever.
        os.unlink(f"/dev/shm/{arena.segment_name}")
        engine = make_engine(handle, max_wait_s=0.002)
        engine.start(workers=1, backend="process", arena=arena)
        ticket = engine.submit(rng.normal(size=(3, 8, 8)))
        with pytest.raises(ProcessWorkerError, match="failed to initialize"):
            ticket.result(timeout=60.0)
        assert engine._process_pool.respawns == 0
        with pytest.raises(ServingError, match="worker died"):
            engine.stop()
        arena.close()


class TestProcessPlanPath:
    def test_bad_sample_fails_only_its_ticket(self, handle, rng):
        """A wrong-rank sample fails in the child's plan compile; the
        worker keeps serving and a later good sample is answered."""
        engine = make_engine(handle, max_wait_s=0.002)
        engine.start(workers=1, backend="process")
        try:
            bad = engine.submit(np.zeros((3, 8)))
            with pytest.raises(ValueError):
                bad.result(timeout=60.0)
            good = engine.submit(rng.normal(size=(3, 8, 8)))
            assert good.result(timeout=60.0).shape == (4,)
            assert engine.summary()["worker_respawns"] == 0
        finally:
            engine.stop()
        assert engine.stats.failed_requests == 1

    def test_ticket_rows_survive_the_next_batch(self, handle, rng):
        inputs = list(rng.normal(size=(8, 3, 8, 8)))
        engine = make_engine(handle)
        engine.start(workers=1, backend="process")
        try:
            tickets = [engine.submit(s) for s in inputs[:4]]
            rows = [ticket.result(timeout=60.0) for ticket in tickets]
            kept = [row.copy() for row in rows]
            tickets = [engine.submit(s) for s in inputs[4:]]
            for ticket in tickets:
                ticket.result(timeout=60.0)
        finally:
            engine.stop()
        for row, copy in zip(rows, kept):
            np.testing.assert_array_equal(row, copy)


class TestRegistryArena:
    def test_engines_share_one_registry_arena(self, published, rng):
        store, manifest, *_ = published
        registry = ModelRegistry(store)
        handle = registry.get(manifest.name)
        arena = registry.arena(manifest.name)
        assert registry.arena(manifest.name) is arena  # placed once
        inputs = list(rng.normal(size=(8, 3, 8, 8)))
        before = len(shm_segments())
        for _ in range(2):  # sequential engines, same segment
            rows = serve_all(
                make_engine(handle),
                inputs,
                workers=2,
                backend="process",
                arena=arena,
            )
            assert len(rows) == len(inputs)
            # Engine stop released its reference but the registry's
            # own reference keeps the segment alive for the next one.
            assert not arena.closed
            assert len(shm_segments()) == before
        registry.close()
        assert arena.closed
        assert shm_segments() == ()
        registry.close()  # idempotent over already-closed arenas
