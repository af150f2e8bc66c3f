"""Concurrent eviction/admission stress across mixed codecs.

N threads hammer one capacity-bounded ``RebuildEngine`` holding layers
encoded under several codecs, in per-thread shuffled orders, under
every admission policy — asserting the counters stay consistent
(``hits + misses == accesses``), the capacity bound is never violated,
and every returned weight is bit-identical to a fresh decode.

A hypothesis state machine drives the same zoo one call at a time
through ``layer_weight``, ``clear`` and ``reset_stats`` under every
policy, with and without a compressed tier, at capacities 0, half the
dense bytes and unbounded, and checks the cache invariants after every
step.
"""

import threading

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.codecs import get_codec
from repro.serving import ADMISSION_POLICIES, RebuildEngine
from repro.serving.artifacts import LayerArtifactSpec

THREADS = 8
ROUNDS = 12

LAYERS = [
    # (name, fc shape, codec) — a mixed-codec zoo with size variety.
    ("se-big", (24, 24), "smartexchange"),
    ("se-small", (8, 12), "smartexchange"),
    ("ql-big", (20, 20), "quant-linear"),
    ("ql-small", (6, 10), "quant-linear"),
    ("fp8", (12, 12), "quant-fp8"),
    ("csr", (10, 14), "prune-csr"),
    ("dense", (9, 9), "dense"),
]


def build_payloads():
    rng = np.random.default_rng(7)
    payloads, specs, reference = {}, {}, {}
    for name, shape, codec in LAYERS:
        weight = rng.normal(size=shape)
        payload = get_codec(codec).encode(weight)
        payloads[name] = payload
        specs[name] = LayerArtifactSpec(
            name=name, kind="fc", weight_shape=shape, codec=codec
        )
        reference[name] = get_codec(codec).decode(payload)
    return payloads, specs, reference


ZOO = build_payloads()


@pytest.fixture(scope="module")
def zoo():
    return ZOO


@pytest.mark.parametrize("policy", sorted(ADMISSION_POLICIES))
def test_concurrent_mixed_codec_stress(zoo, policy):
    payloads, specs, reference = zoo
    total = sum(int(np.prod(shape)) * 8 for _, shape, _ in LAYERS)
    capacity = int(total * 0.5)  # guarantees eviction/rejection traffic
    engine = RebuildEngine(
        payloads=payloads,
        specs=specs,
        capacity_bytes=capacity,
        policy=policy,
    )

    errors = []
    barrier = threading.Barrier(THREADS)

    def worker(seed):
        rng = np.random.default_rng(seed)
        names = list(specs)
        try:
            barrier.wait()
            for round_index in range(ROUNDS):
                rng.shuffle(names)
                for name in names:
                    weight = engine.layer_weight(name)
                    np.testing.assert_array_equal(weight, reference[name])
                # Exercise the lock-guarded telemetry paths mid-flight.
                assert engine.cached_bytes <= capacity
                assert engine.bytes_saved >= engine.total_dense_bytes - capacity
                if round_index == ROUNDS // 2 and seed == 0:
                    engine.clear()  # one mid-stress flush
        except Exception as error:  # pragma: no cover - surfaced below
            errors.append(error)

    threads = [
        threading.Thread(target=worker, args=(seed,)) for seed in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not errors, errors[0]
    stats = engine.stats
    accesses = THREADS * ROUNDS * len(LAYERS)
    assert stats.hits + stats.misses == accesses
    assert stats.accesses == accesses
    assert stats.rebuilds <= stats.misses
    assert engine.cached_bytes <= capacity
    assert engine.cached_bytes == sum(
        reference[name].nbytes for name in engine.cached_layers
    )


@pytest.mark.parametrize("policy", sorted(ADMISSION_POLICIES))
def test_single_thread_counters_exact(zoo, policy):
    """Sequential sanity twin of the stress test: exact counter math."""
    payloads, specs, reference = zoo
    engine = RebuildEngine(
        payloads=payloads, specs=specs, capacity_bytes=None, policy=policy
    )
    for _ in range(3):
        for name in specs:
            np.testing.assert_array_equal(
                engine.layer_weight(name), reference[name]
            )
    assert engine.stats.misses == len(LAYERS)
    assert engine.stats.hits == 2 * len(LAYERS)
    assert engine.stats.rebuilds == len(LAYERS)
    assert engine.bytes_saved == 0


class CacheInvariants(RuleBasedStateMachine):
    """One engine over the zoo; every step keeps the cache consistent.

    Subclasses set ``config`` to ``(policy, tiers, capacity)``.
    """

    def __init__(self):
        super().__init__()
        self.payloads, self.specs, self.reference = ZOO
        policy, tiers, self.capacity = self.config
        self.engine = RebuildEngine(
            payloads=self.payloads,
            specs=self.specs,
            capacity_bytes=self.capacity,
            policy=policy,
            tiers=tiers,
        )
        self.accesses = 0

    @rule(name=st.sampled_from([name for name, _, _ in LAYERS]))
    def layer_weight(self, name):
        weight = self.engine.layer_weight(name)
        self.accesses += 1
        payload = self.payloads[name]
        fresh = get_codec(payload.codec).decode(payload)
        assert weight.dtype == fresh.dtype
        np.testing.assert_array_equal(
            weight.view(np.uint64), fresh.view(np.uint64)
        )

    @rule()
    def clear(self):
        self.engine.clear()

    @rule()
    def reset_stats(self):
        self.engine.reset_stats()
        self.accesses = 0

    @invariant()
    def cached_bytes_within_capacity(self):
        if self.capacity is not None:
            assert self.engine.cached_bytes <= self.capacity

    @invariant()
    def counters_add_up(self):
        stats = self.engine.stats
        assert stats.hits + stats.misses == self.accesses
        assert stats.rebuilds <= stats.misses
        # One caller at a time: every miss is served by exactly one
        # lower tier or one rebuild.
        tier_hits = sum(
            count
            for tier, count in stats.tier_hit_counts().items()
            if tier not in ("dense-ram", "rebuild")
        )
        assert tier_hits + stats.rebuilds == stats.misses

    @invariant()
    def cached_bytes_match_residents(self):
        assert self.engine.cached_bytes == sum(
            self.reference[name].nbytes for name in self.engine.cached_layers
        )


DENSE_BYTES = sum(int(np.prod(shape)) * 8 for _, shape, _ in LAYERS)


@pytest.mark.parametrize("capacity", [0, DENSE_BYTES // 2, None])
@pytest.mark.parametrize("tiers", [None, "compressed"])
@pytest.mark.parametrize("policy", sorted(ADMISSION_POLICIES))
def test_cache_invariants_hold_after_every_step(policy, tiers, capacity):
    machine = type(
        "CacheInvariantsUnder", (CacheInvariants,),
        {"config": (policy, tiers, capacity)},
    )
    run_state_machine_as_test(
        machine,
        settings=settings(max_examples=25, stateful_step_count=40, deadline=None),
    )
