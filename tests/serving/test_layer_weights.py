"""The batched layer fetch: ``RebuildEngine.layer_weights(names)``.

One call serves every hit and claims every miss under one engine-lock
pass, decodes outside it, and publishes under one more.  It must leave
the cache, its counters, the tenant ledger and the cost model exactly
as one ``layer_weight`` per name would; two calls fetching in opposite
orders must not deadlock; the engine's held (prepared) decode must give
a fresh decode's bits; and a traced call must emit one ``rebuild.layer``
span per name with the tags a single fetch has always carried.
"""

import threading

import numpy as np
import pytest

from repro.codecs import get_codec
from repro.costs import CodecCostModel
from repro.observability import Observability
from repro.serving import ADMISSION_POLICIES, RebuildEngine
from repro.serving.artifacts import LayerArtifactSpec
from repro.tenancy import TenantLedger

LAYERS = [
    # (name, fc shape, codec) — both prepared codecs and plain ones.
    ("se-big", (24, 24), "smartexchange"),
    ("se-small", (8, 12), "smartexchange"),
    ("ql-big", (20, 20), "quant-linear"),
    ("pow2", (10, 16), "quant-pow2"),
    ("fp8", (12, 12), "quant-fp8"),
    ("csr", (10, 14), "prune-csr"),
    ("dense", (9, 9), "dense"),
]
NAMES = [name for name, _, _ in LAYERS]
DENSE_BYTES = sum(int(np.prod(shape)) * 8 for _, shape, _ in LAYERS)
# A fixed "measured" decode time per layer: two engines fed the same
# accesses then price every layer alike, so cost-aware admission makes
# the same choices in both.
REBUILD_SECONDS = {name: 1e-5 * (index + 1) for index, name in enumerate(NAMES)}
TIER_SECONDS = 1e-7


def build_zoo():
    rng = np.random.default_rng(11)
    payloads, specs = {}, {}
    for name, shape, codec in LAYERS:
        weight = rng.normal(size=shape)
        if codec == "prune-csr":
            weight[rng.random(shape) < 0.6] = 0.0
        payloads[name] = get_codec(codec).encode(weight)
        specs[name] = LayerArtifactSpec(
            name=name, kind="fc", weight_shape=shape, codec=codec
        )
    return payloads, specs


PAYLOADS, SPECS = build_zoo()


def bits(array):
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


def fresh(name):
    payload = PAYLOADS[name]
    return get_codec(payload.codec).decode(payload)


class FixedTimeEngine(RebuildEngine):
    """The live engine, charging fixed decode and fault times."""

    def _rebuild(self, name):
        weight, _ = super()._rebuild(name)
        return weight, REBUILD_SECONDS[name]

    def _tier_load(self, tier, entry):
        weight, _ = super()._tier_load(tier, entry)
        return weight, TIER_SECONDS


def seeded_cost_model():
    model = CodecCostModel()
    for index, (_, _, codec) in enumerate(LAYERS):
        model.seed(codec, 1e-9 * (index + 1), force=False)
    return model


def engine_state(engine, ledger):
    stats = engine.stats
    cost = engine.cost_model
    return {
        "counts": {
            key: getattr(stats, key)
            for key in ("hits", "misses", "rebuilds", "evictions", "rejected")
        },
        "tiers": stats.tier_counts(),
        "layer_accesses": dict(stats.layer_accesses),
        "layer_hits": dict(stats.layer_hits),
        "layer_hit_ewma": dict(stats.layer_hit_ewma),
        "cached_layers": engine.cached_layers,
        "cached_bytes": engine.cached_bytes,
        "observations": {
            name: cost.observations(SPECS[name].codec, layer=name)
            for name in NAMES
        },
        "codec_observations": {
            codec: cost.observations(codec) for _, _, codec in LAYERS
        },
        "rates": cost.snapshot_all_rates(),
        "float_counts": {
            "rebuild_seconds": stats.rebuild_seconds,
            "est_seconds_saved": stats.est_seconds_saved,
            "ledger_rebuild_seconds": ledger.total_rebuild_seconds(),
            "ledger_saved": sum(
                report.est_seconds_saved
                for report in ledger.usage_reports().values()
            ),
        },
    }


def batches(seed, count=30):
    """Spec-order batches mixed with shuffled ones that repeat names."""
    rng = np.random.default_rng(seed)
    out = []
    for index in range(count):
        if index % 3 == 0:
            out.append(list(NAMES))
        else:
            size = int(rng.integers(1, 2 * len(NAMES)))
            out.append([NAMES[i] for i in rng.integers(0, len(NAMES), size)])
    return out


@pytest.mark.parametrize("capacity", [0, DENSE_BYTES // 2, None])
@pytest.mark.parametrize("tiers", [None, "compressed"])
@pytest.mark.parametrize("policy", sorted(ADMISSION_POLICIES))
def test_batched_fetch_leaves_the_per_name_state(policy, tiers, capacity):
    engines, ledgers = [], []
    for _ in range(2):
        ledger = TenantLedger()
        engines.append(
            FixedTimeEngine(
                payloads=PAYLOADS,
                specs=SPECS,
                capacity_bytes=capacity,
                policy=policy,
                tiers=tiers,
                cost_model=seeded_cost_model(),
                ledger=ledger,
            )
        )
        ledgers.append(ledger)
    looped, batched = engines
    for index, names in enumerate(batches(seed=3)):
        shares = TenantLedger.shares(["acme", "globex"][: 1 + index % 2])
        with ledgers[0].activate(shares):
            expected = [looped.layer_weight(name) for name in names]
        with ledgers[1].activate(shares):
            got = batched.layer_weights(names)
        assert len(got) == len(names)
        for name, weight, reference in zip(names, got, expected):
            np.testing.assert_array_equal(bits(weight), bits(reference))
            np.testing.assert_array_equal(bits(weight), bits(fresh(name)))
    want = engine_state(looped, ledgers[0])
    have = engine_state(batched, ledgers[1])
    # Float totals are summed once per call instead of once per layer.
    assert have.pop("float_counts") == pytest.approx(
        want.pop("float_counts"), rel=1e-12, abs=1e-15
    )
    assert have == want
    assert batched.stats.hits + batched.stats.misses == sum(
        len(names) for names in batches(seed=3)
    )


def test_reversed_orders_do_not_deadlock():
    engine = RebuildEngine(payloads=PAYLOADS, specs=SPECS, capacity_bytes=0)
    rounds = 200
    barrier = threading.Barrier(2)
    errors = []

    def fetch(order):
        try:
            for _ in range(rounds):
                barrier.wait(timeout=30)
                for name, weight in zip(order, engine.layer_weights(order)):
                    assert weight.shape == SPECS[name].weight_shape
        except Exception as error:  # pragma: no cover - surfaced below
            errors.append(error)
            barrier.abort()

    threads = [
        threading.Thread(target=fetch, args=(order,))
        for order in (list(NAMES), list(reversed(NAMES)))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[0]
    stats = engine.stats
    assert stats.hits + stats.misses == 2 * rounds * len(NAMES)
    assert stats.rebuilds == stats.misses


class TestPreparedState:
    @pytest.mark.parametrize("name", ["se-big", "se-small", "csr"])
    def test_prepared_arrays_are_read_only(self, name):
        payload = PAYLOADS[name]
        prepared = get_codec(payload.codec).prepare(payload)
        assert prepared.arrays and prepared.nbytes > 0
        for array in prepared.arrays.values():
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.reshape(-1)[0] = 0

    def test_engine_decode_is_bit_equal_to_a_fresh_decode(self):
        engine = RebuildEngine(payloads=PAYLOADS, specs=SPECS, capacity_bytes=0)
        assert engine.prepared_bytes == 0  # prepared on first miss only
        for _ in range(3):  # the first pass prepares, the rest reuse it
            for name, weight in zip(NAMES, engine.layer_weights(NAMES)):
                reference = fresh(name)
                assert weight.dtype == reference.dtype
                np.testing.assert_array_equal(bits(weight), bits(reference))
                assert not weight.flags.writeable
        expected = sum(
            get_codec(PAYLOADS[name].codec).prepare(PAYLOADS[name]).nbytes
            for name in ("se-big", "se-small", "csr")
        )
        assert engine.prepared_bytes == expected

    def test_prepared_bytes_stay_below_half_the_dense_bytes(self):
        for name, shape, codec in LAYERS:
            prepare = getattr(get_codec(codec), "prepare", None)
            if prepare is not None:
                dense = int(np.prod(shape)) * 8
                assert prepare(PAYLOADS[name]).nbytes < dense / 2, name


class TestSpans:
    def traced_engine(self, capacity):
        obs = Observability()
        engine = RebuildEngine(
            payloads=PAYLOADS, specs=SPECS, capacity_bytes=capacity,
            observability=obs,
        )
        return engine, obs

    def layer_spans(self, obs):
        return [s for s in obs.collector.drain() if s["name"] == "rebuild.layer"]

    def test_one_span_per_layer_with_unchanged_tags(self):
        engine, obs = self.traced_engine(capacity=None)
        with obs.tracer.span("rebuild") as phase:
            engine.layer_weights(NAMES)
        misses = self.layer_spans(obs)
        assert [s["tags"]["layer"] for s in misses] == NAMES
        for span in misses:
            assert set(span["tags"]) == {
                "layer", "codec", "hit", "tier", "dense_bytes",
                "rebuild_seconds", "admission",
            }
            assert span["tags"]["hit"] is False
            assert span["tags"]["admission"] == "admitted"
            assert span["parent_id"] == phase.span_id
            assert span["duration_s"] >= span["tags"]["rebuild_seconds"]
        engine.layer_weights(NAMES)
        hits = self.layer_spans(obs)
        assert [s["tags"]["layer"] for s in hits] == NAMES
        for span in hits:
            assert set(span["tags"]) == {
                "layer", "codec", "hit", "tier", "dense_bytes",
            }
            assert span["tags"]["hit"] is True
            assert span["tags"]["tier"] == "dense-ram"

    def test_a_failed_decode_tags_its_span_and_releases_the_rest(self):
        engine, obs = self.traced_engine(capacity=0)
        real_rebuild = engine._rebuild

        def broken(name):
            if name == "ql-big":
                raise RuntimeError("decode failed")
            return real_rebuild(name)

        engine._rebuild = broken
        with pytest.raises(RuntimeError):
            engine.layer_weights(NAMES)
        spans = {s["tags"]["layer"]: s for s in self.layer_spans(obs)}
        assert spans["ql-big"]["tags"] == {
            "layer": "ql-big", "codec": "quant-linear", "error": "RuntimeError",
        }
        assert all(spans[name]["tags"]["hit"] is False
                   for name in NAMES if name != "ql-big")
        # No flight is left behind: the next call decodes everything.
        engine._rebuild = real_rebuild
        for name, weight in zip(NAMES, engine.layer_weights(NAMES)):
            np.testing.assert_array_equal(bits(weight), bits(fresh(name)))
