"""repro.costs: the EWMA codec cost model and the hardware bridge."""

import threading

import numpy as np
import pytest

from repro.codecs import get_codec
from repro.costs import (
    DEFAULT_SECONDS_PER_BYTE,
    DEFAULT_TIER_PRIORS,
    CodecCostModel,
    HardwareCostBridge,
)


class TestCodecCostModel:
    def test_default_prior_for_unknown_codec(self):
        model = CodecCostModel()
        assert not model.calibrated("quant-linear")
        assert model.seconds_per_byte("quant-linear") == DEFAULT_SECONDS_PER_BYTE
        assert model.estimate_seconds("quant-linear", 1000) == pytest.approx(
            1000 * DEFAULT_SECONDS_PER_BYTE
        )

    def test_first_observation_sets_rate(self):
        model = CodecCostModel(alpha=0.25)
        model.observe("dense", dense_bytes=1000, seconds=1e-3)
        assert model.seconds_per_byte("dense") == pytest.approx(1e-6)
        assert model.observations("dense") == 1
        assert model.calibrated("dense")

    def test_ewma_blends_later_observations(self):
        model = CodecCostModel(alpha=0.5)
        model.observe("c", dense_bytes=100, seconds=100 * 1e-6)  # rate 1e-6
        model.observe("c", dense_bytes=100, seconds=100 * 3e-6)  # rate 3e-6
        # 0.5 * 3e-6 + 0.5 * 1e-6
        assert model.seconds_per_byte("c") == pytest.approx(2e-6)
        assert model.observations("c") == 2

    def test_degenerate_observations_ignored(self):
        model = CodecCostModel()
        model.observe("c", dense_bytes=0, seconds=1.0)
        model.observe("c", dense_bytes=100, seconds=-1.0)
        assert not model.calibrated("c")

    def test_seed_and_force_semantics(self):
        model = CodecCostModel()
        model.seed("c", 2e-6)
        assert model.seconds_per_byte("c") == pytest.approx(2e-6)
        model.seed("c", 9e-6, force=False)  # already has a rate: no-op
        assert model.seconds_per_byte("c") == pytest.approx(2e-6)
        model.seed("c", 9e-6, force=True)
        assert model.seconds_per_byte("c") == pytest.approx(9e-6)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            CodecCostModel(alpha=0.0)
        with pytest.raises(ValueError):
            CodecCostModel(default_seconds_per_byte=0.0)
        with pytest.raises(ValueError):
            CodecCostModel().seed("c", 0.0)

    def test_calibrate_probes_each_codec_once(self):
        rng = np.random.default_rng(0)
        payloads, specs = {}, {}

        class Spec:
            def __init__(self, codec):
                self.codec = codec

        for i, codec in enumerate(("dense", "quant-linear", "quant-linear")):
            weight = rng.normal(size=(8, 16))
            payloads[f"l{i}"] = get_codec(codec).encode(weight)
            specs[f"l{i}"] = Spec(codec)
        model = CodecCostModel()
        probed = model.calibrate(payloads, specs)
        assert set(probed) == {"dense", "quant-linear"}
        for codec, rate in probed.items():
            assert rate > 0
            assert model.calibrated(codec)
        # A second pass without force probes nothing new.
        assert model.calibrate(payloads, specs) == {}
        assert model.calibrate(payloads, specs, force=True) != {}

    def test_as_dict_snapshot(self):
        model = CodecCostModel()
        model.observe("dense", 100, 1e-4)
        snap = model.as_dict()
        assert snap["codecs"]["dense"]["observations"] == 1
        assert snap["codecs"]["dense"]["seconds_per_byte"] > 0

    def test_calibrate_probes_largest_layer_per_codec(self):
        """Regression: the probe used to time whichever layer came
        first, so a tiny layer's coarse-timer tick could misprice the
        whole codec.  The largest-dense-bytes layer must be decoded."""
        rng = np.random.default_rng(3)

        class Spec:
            def __init__(self, codec, weight_shape):
                self.codec = codec
                self.weight_shape = weight_shape

        shapes = {"tiny": (2, 2), "large": (32, 32), "mid": (8, 8)}
        payloads, specs = {}, {}
        for name, shape in shapes.items():
            weight = rng.normal(size=shape)
            payloads[name] = get_codec("dense").encode(weight)
            specs[name] = Spec("dense", shape)

        decoded = []
        dense = get_codec("dense")
        original_decode = dense.decode

        def spying_decode(payload):
            decoded.append(payload.weight_shape)
            return original_decode(payload)

        dense.decode = spying_decode
        try:
            probed = CodecCostModel().calibrate(payloads, specs)
        finally:
            dense.decode = original_decode
        assert set(probed) == {"dense"}
        assert decoded == [(32, 32)]  # one probe, the largest layer

    def test_per_layer_rate_starts_from_codec_prior(self):
        model = CodecCostModel(alpha=0.5)
        model.observe("c", dense_bytes=100, seconds=100 * 2e-6)  # codec 2e-6
        # A layer's first observation blends into the codec prior
        # instead of replacing it.
        model.observe("c", 100, 100 * 6e-6, layer="deep")
        # 0.5 * 6e-6 + 0.5 * 2e-6 (codec rate before this observation)
        assert model.seconds_per_byte("c", layer="deep") == pytest.approx(4e-6)
        assert model.observations("c", layer="deep") == 1
        # The codec-level EWMA absorbed the observation too.
        assert model.seconds_per_byte("c") == pytest.approx(4e-6)

    def test_observe_many_leaves_the_state_of_one_observe_each(self):
        observations = [
            ("c", 100, 100 * 2e-6, "a"),
            ("c", 100, 100 * 6e-6, "b"),
            ("d", 50, 50 * 1e-6, None),
            ("c", 0, 1.0, "a"),  # degenerate: ignored by both
            ("c", 200, 200 * 3e-6, "a"),
        ]
        one_by_one, folded = CodecCostModel(), CodecCostModel()
        for entry in observations:
            one_by_one.observe(*entry)
        folded.observe_many(observations)
        assert folded.as_dict() == one_by_one.as_dict()

    def test_per_layer_rates_diverge_from_codec_prior(self):
        """Two layers of one codec with different decode behavior end
        up with different rates — the codec rate is only the prior."""
        model = CodecCostModel(alpha=0.5)
        for _ in range(4):
            model.observe("c", 100, 100 * 1e-6, layer="cheap")
            model.observe("c", 100, 100 * 9e-6, layer="costly")
        cheap = model.seconds_per_byte("c", layer="cheap")
        costly = model.seconds_per_byte("c", layer="costly")
        codec = model.seconds_per_byte("c")
        assert cheap < codec < costly
        # A layer with no observations of its own falls back to the
        # codec rate.
        assert model.seconds_per_byte("c", layer="unseen") == codec
        assert model.estimate_seconds("c", 1000, layer="cheap") < (
            model.estimate_seconds("c", 1000, layer="costly")
        )

    def test_snapshot_all_rates_matches_individual_snapshots(self):
        model = CodecCostModel()
        model.observe("c", 100, 1e-4, layer="l")
        model.observe("d", 100, 2e-4)
        codec_rates, layer_rates = model.snapshot_all_rates()
        assert codec_rates == model.snapshot_rates()
        assert layer_rates == {
            ("c", "l"): model.seconds_per_byte("c", layer="l")
        }

    def test_calibrate_falls_back_past_unusable_largest_layer(self):
        """If a codec's largest candidate is not a LayerPayload, the
        next-largest usable layer is probed instead of silently
        leaving the codec uncalibrated."""
        rng = np.random.default_rng(5)

        class Spec:
            def __init__(self, codec, weight_shape):
                self.codec = codec
                self.weight_shape = weight_shape

        payloads = {
            "big": [{"not": "a payload"}],  # legacy/raw entry
            "mid": get_codec("dense").encode(rng.normal(size=(8, 8))),
        }
        specs = {
            "big": Spec("dense", (32, 32)),
            "mid": Spec("dense", (8, 8)),
        }
        model = CodecCostModel()
        probed = model.calibrate(payloads, specs)
        assert set(probed) == {"dense"}
        assert model.calibrated("dense")

    def test_as_dict_nests_layer_rates(self):
        model = CodecCostModel()
        model.observe("c", 100, 1e-4, layer="l0")
        model.observe("c", 100, 1e-4)
        snap = model.as_dict()
        assert snap["codecs"]["c"]["observations"] == 2
        layer = snap["codecs"]["c"]["layers"]["l0"]
        assert layer["observations"] == 1
        assert layer["seconds_per_byte"] > 0

    def test_snapshot_rates_is_a_copy(self):
        model = CodecCostModel()
        model.observe("dense", 100, 1e-4)
        rates = model.snapshot_rates()
        assert rates == {"dense": pytest.approx(1e-6)}
        rates["dense"] = 0.0  # mutating the copy must not leak back
        assert model.seconds_per_byte("dense") == pytest.approx(1e-6)

    def test_calibrate_tolerates_zero_second_probe(self, monkeypatch):
        """A decode measured as 0.0 s (coarse timer) keeps the prior."""
        import repro.costs.model as costs_model

        ticks = iter([1.0, 1.0])  # start == end -> 0.0 s probe
        monkeypatch.setattr(
            costs_model.time, "perf_counter", lambda: next(ticks)
        )
        payloads = {"a": get_codec("dense").encode(np.ones((4, 4)))}

        class Spec:
            codec = "dense"

        model = CodecCostModel()
        assert model.calibrate(payloads, {"a": Spec()}) == {}
        assert not model.calibrated("dense")
        assert model.seconds_per_byte("dense") == DEFAULT_SECONDS_PER_BYTE

    def test_concurrent_observers_are_safe(self):
        model = CodecCostModel()
        errors = []

        def worker(codec):
            try:
                for _ in range(200):
                    model.observe(codec, 100, 1e-5)
                    model.seconds_per_byte(codec)
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(f"c{i % 3}",))
            for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        total = sum(model.observations(f"c{i}") for i in range(3))
        assert total == 6 * 200


class TestHardwareCostBridge:
    def test_unit_conversion(self):
        bridge = HardwareCostBridge(effective_watts=1.0)
        # miss energy in pJ -> joules -> seconds at 1 W, per dense byte
        pj = bridge.miss_energy_pj(payload_bytes=100, dense_bytes=1000)
        assert bridge.seconds_per_byte(100, 1000) == pytest.approx(
            pj * 1e-12 / 1000
        )

    def test_compression_saves_energy(self):
        bridge = HardwareCostBridge()
        dense_bytes = 10_000
        # A 10x-compressed payload: fetching 1/10th of the bytes from
        # DRAM dwarfs the MAC-class rebuild ops (the paper's premise).
        assert bridge.energy_saved_pj(dense_bytes // 10, dense_bytes) > 0
        # The degenerate "payload as big as dense" trade saves nothing.
        assert bridge.energy_saved_pj(dense_bytes, dense_bytes) <= 0

    def test_bigger_payload_costs_more(self):
        bridge = HardwareCostBridge()
        cheap = bridge.miss_energy_pj(100, 1000)
        costly = bridge.miss_energy_pj(900, 1000)
        assert costly > cheap

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            HardwareCostBridge(effective_watts=0.0)
        with pytest.raises(ValueError):
            HardwareCostBridge(rebuild_ops_per_byte=-1.0)

    def test_seed_fills_only_unmeasured_codecs(self):
        rng = np.random.default_rng(1)
        payloads = {
            "a": get_codec("dense").encode(rng.normal(size=(4, 8))),
            "b": get_codec("quant-linear").encode(rng.normal(size=(4, 8))),
        }
        model = CodecCostModel()
        model.observe("dense", 256, 1e-5)  # "dense" already measured
        measured = model.seconds_per_byte("dense")
        seeded = HardwareCostBridge().seed(model, payloads)
        assert "quant-linear" in seeded
        assert "dense" not in seeded
        assert model.seconds_per_byte("dense") == measured
        assert model.seconds_per_byte("quant-linear") == pytest.approx(
            seeded["quant-linear"]
        )

    def test_seed_force_overrides(self):
        rng = np.random.default_rng(2)
        payloads = {"a": get_codec("dense").encode(rng.normal(size=(4, 8)))}
        model = CodecCostModel()
        model.observe("dense", 256, 1e-5)
        seeded = HardwareCostBridge().seed(model, payloads, force=True)
        assert model.seconds_per_byte("dense") == pytest.approx(
            seeded["dense"]
        )


class TestTierRates:
    def test_known_tier_prior_before_any_observation(self):
        model = CodecCostModel()
        for tier, prior in DEFAULT_TIER_PRIORS.items():
            assert model.tier_seconds_per_byte(tier) == prior
            assert model.tier_observations(tier) == 0

    def test_unknown_tier_falls_back_to_codec_default(self):
        model = CodecCostModel()
        assert model.tier_seconds_per_byte("tape") == DEFAULT_SECONDS_PER_BYTE

    def test_first_observation_blends_into_prior(self):
        model = CodecCostModel(alpha=0.25)
        rate = model.observe_tier_access("disk", dense_bytes=1000, seconds=1e-3)
        expected = 0.25 * 1e-6 + 0.75 * DEFAULT_TIER_PRIORS["disk"]
        assert rate == pytest.approx(expected)
        assert model.tier_seconds_per_byte("disk") == pytest.approx(expected)
        assert model.tier_observations("disk") == 1

    def test_degenerate_observation_ignored(self):
        model = CodecCostModel()
        model.observe_tier_access("disk", dense_bytes=0, seconds=1.0)
        model.observe_tier_access("disk", dense_bytes=100, seconds=-1.0)
        assert model.tier_observations("disk") == 0
        assert model.tier_seconds_per_byte("disk") == DEFAULT_TIER_PRIORS["disk"]

    def test_estimate_tier_seconds(self):
        model = CodecCostModel()
        model.seed_tier("disk", 1e-8)
        assert model.estimate_tier_seconds("disk", 1000) == pytest.approx(1e-5)
        assert model.estimate_tier_seconds("disk", -5) == 0.0

    def test_seed_tier_force_semantics(self):
        model = CodecCostModel()
        model.seed_tier("disk", 1e-8)
        model.seed_tier("disk", 5e-8, force=False)  # defers to existing
        assert model.tier_seconds_per_byte("disk") == 1e-8
        model.seed_tier("disk", 5e-8)
        assert model.tier_seconds_per_byte("disk") == 5e-8
        with pytest.raises(ValueError):
            model.seed_tier("disk", 0.0)

    def test_seeding_is_not_an_observation(self):
        model = CodecCostModel()
        model.seed_tier("disk", 1e-8)
        assert model.tier_observations("disk") == 0

    def test_snapshot_tier_rates(self):
        model = CodecCostModel()
        assert model.snapshot_tier_rates() == {}
        model.seed_tier("compressed-ram", 2e-9)
        assert model.snapshot_tier_rates() == {"compressed-ram": 2e-9}

    def test_clone_is_isolated_both_ways(self):
        model = CodecCostModel(alpha=0.5)
        model.observe("dense", 1000, 1e-4)
        model.observe_tier_access("disk", 1000, 1e-4)
        twin = model.clone()
        assert twin.alpha == model.alpha
        assert twin.seconds_per_byte("dense") == model.seconds_per_byte("dense")
        assert twin.tier_seconds_per_byte("disk") == model.tier_seconds_per_byte(
            "disk"
        )
        twin.observe_tier_access("disk", 10, 1.0)
        twin.observe("dense", 10, 1.0)
        assert twin.tier_seconds_per_byte("disk") != model.tier_seconds_per_byte(
            "disk"
        )
        assert model.tier_observations("disk") == 1
        assert model.observations("dense") == 1

    def test_as_dict_reports_tiers(self):
        model = CodecCostModel()
        model.observe_tier_access("compressed-ram", 1000, 1e-5)
        snap = model.as_dict()
        assert snap["tiers"]["compressed-ram"]["observations"] == 1
        assert snap["tiers"]["compressed-ram"]["seconds_per_byte"] == (
            model.tier_seconds_per_byte("compressed-ram")
        )


class TestHardwareBridgeTiers:
    def test_tier_rates_are_positive_and_ordered(self):
        bridge = HardwareCostBridge()
        ram = bridge.tier_seconds_per_byte("compressed-ram")
        disk = bridge.tier_seconds_per_byte("disk")
        assert 0 < ram < disk  # RAM inflate beats a disk read

    def test_disk_rate_is_reciprocal_bandwidth(self):
        bridge = HardwareCostBridge(disk_bytes_per_second=100e6)
        assert bridge.tier_seconds_per_byte("disk") == pytest.approx(1e-8)

    def test_unknown_tier_falls_back_to_priors(self):
        bridge = HardwareCostBridge()
        assert (
            bridge.tier_seconds_per_byte("tape") == DEFAULT_SECONDS_PER_BYTE
        )

    def test_invalid_disk_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            HardwareCostBridge(disk_bytes_per_second=0.0)

    def test_seed_tiers_fills_only_unseeded(self):
        bridge = HardwareCostBridge()
        model = CodecCostModel()
        model.seed_tier("disk", 123e-9)
        seeded = bridge.seed_tiers(model)
        assert "compressed-ram" in seeded
        assert "disk" not in seeded
        assert model.tier_seconds_per_byte("disk") == 123e-9
        assert model.tier_seconds_per_byte("compressed-ram") == pytest.approx(
            seeded["compressed-ram"]
        )

    def test_seed_tiers_force_overrides(self):
        bridge = HardwareCostBridge()
        model = CodecCostModel()
        model.seed_tier("disk", 123e-9)
        seeded = bridge.seed_tiers(model, force=True)
        assert model.tier_seconds_per_byte("disk") == pytest.approx(
            seeded["disk"]
        )
