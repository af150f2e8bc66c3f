"""Per-codec rebuild cost models: the numbers behind cost-aware serving.

SmartExchange's premise is that the storage-access-vs-compute trade
should be decided by *measured costs*.  The serving stack realizes the
trade in software — encoded payloads are decoded ("rebuilt") into dense
weights on read — so the unit that matters there is **rebuild seconds
per dense byte**, and it differs by an order of magnitude between
codecs (a ``smartexchange`` decode walks nibble codes and folds
matrices; a ``quant-linear`` decode is one multiply).

Two sources feed that number:

- :class:`CodecCostModel` — learned online.  Every observed decode
  updates an exponentially-weighted moving average of seconds-per-byte
  for the payload's codec — and, when the observer names the layer, a
  second EWMA keyed on ``(codec, layer)`` whose prior is the codec
  rate, because a ``smartexchange`` decode's seconds-per-byte varies
  with the layer's shape and sparsity.  A one-shot calibration probe
  (one timed decode per codec, on the codec's largest layer so a
  coarse timer tick cannot misprice the whole codec) seeds the codec
  rate so estimates are sane before any traffic.
- :class:`HardwareCostBridge` — derived from the accelerator models.
  :mod:`repro.hardware.energy` gives per-datum DRAM/SRAM/MAC energies
  (the paper's Table I); the bridge maps a codec's {payload bytes,
  dense bytes} onto miss energy and — via an effective-power knob —
  onto serving-layer seconds, so admission and batching can be driven
  by simulated hardware when no measurements exist yet.

Consumers are the serving layer's :class:`~repro.serving.rebuild`
admission policies (``CostAwarePolicy`` evicts cheap-to-rebuild layers
first) and :class:`~repro.serving.batching.CostAwareBatchPolicy` (the
batch-close point amortizes the expected per-batch rebuild cost).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Mapping, Optional, Tuple

# 5 ns/byte is a deliberately mid-range prior: slower than a memcpy-like
# dense decode, faster than a smartexchange rebuild, so an uncalibrated
# codec is neither pinned nor immediately evicted.
DEFAULT_SECONDS_PER_BYTE = 5e-9

# Access-latency priors for the rebuild cache's lower tiers, in seconds
# per *dense* byte faulted back out of the tier.  ``compressed-ram`` is
# a zlib inflate (~1 GB/s); ``disk`` adds a file read on top of the
# inflate.  Both are priors only — every tier fault is timed and folded
# into a per-tier EWMA, exactly like codec rebuild rates.
DEFAULT_TIER_PRIORS = {
    "compressed-ram": 1e-9,
    "disk": 2e-8,
}

# One-time payload-attach priors per execution backend, in seconds per
# *compressed* byte.  A thread worker shares the parent's payload map
# (attach is free); a process worker opens + checksums the shared
# segment — page-table work plus one CRC pass, amortized over the
# worker's whole lifetime.  Measured attaches fold into a per-backend
# EWMA via :meth:`CodecCostModel.observe_attach`.
DEFAULT_ATTACH_PRIORS = {
    "thread": 0.0,
    "process": 5e-10,
}


def _dense_bytes_of(shape) -> int:
    """FP32 bytes of a dense weight shape (0 when the shape is unknown)."""
    if not shape:
        return 0
    count = 1
    for dim in shape:
        count *= int(dim)
    return count * 4


class CodecCostModel:
    """Learned rebuild seconds-per-dense-byte, one EWMA per codec —
    sharpened to one EWMA per ``(codec, layer)`` when observers say
    which layer they decoded.

    The codec-level rate is the *prior*: a layer with no observations
    of its own is priced at its codec's rate, and a layer's first
    observation blends into that prior rather than replacing it, so
    per-layer rates start sane and diverge only as evidence arrives
    (a deep ``smartexchange`` conv and a tiny pointwise layer genuinely
    decode at different seconds-per-byte).

    Thread-safe: the serving worker pool feeds :meth:`observe` from
    many threads while admission policies read estimates concurrently.
    Rates converge to the *recent* decode behavior of this host (EWMA
    with weight ``alpha`` on the newest observation), which is exactly
    what eviction decisions should price: the cost of a miss *now*.
    """

    def __init__(
        self,
        alpha: float = 0.25,
        default_seconds_per_byte: float = DEFAULT_SECONDS_PER_BYTE,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if default_seconds_per_byte <= 0:
            raise ValueError("default_seconds_per_byte must be positive")
        self.alpha = alpha
        self.default_seconds_per_byte = default_seconds_per_byte
        self._lock = threading.Lock()
        self._rates: Dict[str, float] = {}
        self._observations: Dict[str, int] = {}
        self._layer_rates: Dict[Tuple[str, str], float] = {}
        self._layer_observations: Dict[Tuple[str, str], int] = {}
        self._tier_rates: Dict[str, float] = {}
        self._tier_observations: Dict[str, int] = {}
        self._attach_rates: Dict[str, float] = {}
        self._attach_observations: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def observe(
        self,
        codec: str,
        dense_bytes: int,
        seconds: float,
        layer: Optional[str] = None,
    ) -> float:
        """Fold one measured decode into the codec's EWMA; returns it.

        ``dense_bytes`` is the size of the *rebuilt* tensor (the work
        the decode produced), ``seconds`` the wall time it took.
        ``layer`` (optional) additionally folds the observation into
        the ``(codec, layer)`` EWMA, seeded from the codec rate the
        first time the layer is seen.  Degenerate observations (no
        bytes, negative time) are ignored.
        """
        if dense_bytes <= 0 or seconds < 0:
            return self.seconds_per_byte(codec, layer)
        rate = seconds / dense_bytes
        with self._lock:
            previous = self._rates.get(codec)
            if previous is None:
                updated = rate
            else:
                updated = self.alpha * rate + (1.0 - self.alpha) * previous
            self._rates[codec] = updated
            self._observations[codec] = self._observations.get(codec, 0) + 1
            if layer is not None:
                key = (codec, layer)
                # The codec rate *before* this observation is the prior
                # a fresh layer EWMA starts from.
                prior = self._layer_rates.get(key, previous)
                if prior is None:
                    layer_rate = rate
                else:
                    layer_rate = self.alpha * rate + (1.0 - self.alpha) * prior
                self._layer_rates[key] = layer_rate
                self._layer_observations[key] = (
                    self._layer_observations.get(key, 0) + 1
                )
            return updated

    def observe_tier_access(
        self, tier: str, dense_bytes: int, seconds: float
    ) -> float:
        """Fold one measured tier fault into the tier's EWMA; returns it.

        ``dense_bytes`` is the size of the dense tensor the tier handed
        back, ``seconds`` the wall time the fault took (decompress for
        a RAM tier, read + decompress for a disk tier).  The prior for
        a tier's first observation is its :data:`DEFAULT_TIER_PRIORS`
        entry, so the first measurement blends instead of replacing.
        """
        if dense_bytes <= 0 or seconds < 0:
            return self.tier_seconds_per_byte(tier)
        rate = seconds / dense_bytes
        with self._lock:
            prior = self._tier_rates.get(
                tier, DEFAULT_TIER_PRIORS.get(tier)
            )
            if prior is None:
                updated = rate
            else:
                updated = self.alpha * rate + (1.0 - self.alpha) * prior
            self._tier_rates[tier] = updated
            self._tier_observations[tier] = (
                self._tier_observations.get(tier, 0) + 1
            )
            return updated

    def seed_tier(
        self, tier: str, seconds_per_byte: float, force: bool = True
    ) -> None:
        """Install a prior access rate for one cache tier.

        Same contract as :meth:`seed`: not counted as an observation,
        and ``force=False`` only fills tiers with no rate yet.
        """
        if seconds_per_byte <= 0:
            raise ValueError("seconds_per_byte must be positive")
        with self._lock:
            if force or tier not in self._tier_rates:
                self._tier_rates[tier] = seconds_per_byte

    def tier_seconds_per_byte(self, tier: str) -> float:
        """Current access rate of ``tier`` (its prior if unobserved).

        Unknown tiers fall back to the codec default rate — a tier with
        no prior and no measurements should look middling, not free.
        """
        with self._lock:
            rate = self._tier_rates.get(tier)
        if rate is not None:
            return rate
        return DEFAULT_TIER_PRIORS.get(tier, self.default_seconds_per_byte)

    def estimate_tier_seconds(self, tier: str, dense_bytes: int) -> float:
        """Estimated seconds to fault ``dense_bytes`` back from ``tier``."""
        return self.tier_seconds_per_byte(tier) * max(int(dense_bytes), 0)

    def snapshot_tier_rates(self) -> Dict[str, float]:
        """One-lock copy of every known tier rate."""
        with self._lock:
            return dict(self._tier_rates)

    def tier_observations(self, tier: str) -> int:
        with self._lock:
            return self._tier_observations.get(tier, 0)

    # ------------------------------------------------------------------
    # Per-backend attach rates (thread pool vs process pool)
    # ------------------------------------------------------------------
    def observe_attach(
        self, backend: str, nbytes: int, seconds: float
    ) -> float:
        """Fold one measured worker attach into the backend's EWMA.

        ``nbytes`` is the compressed payload footprint the worker
        attached (the arena segment size for a process worker),
        ``seconds`` the one-time cost of mapping + validating it.
        This is the *capital* side of choosing a backend: a process
        worker pays attach once to escape the GIL, a thread worker
        pays nothing — :meth:`estimate_attach_seconds` lets sizing
        logic amortize that against expected traffic.
        """
        if nbytes <= 0 or seconds < 0:
            return self.attach_seconds_per_byte(backend)
        rate = seconds / nbytes
        with self._lock:
            prior = self._attach_rates.get(
                backend, DEFAULT_ATTACH_PRIORS.get(backend)
            )
            if prior is None:
                updated = rate
            else:
                updated = self.alpha * rate + (1.0 - self.alpha) * prior
            self._attach_rates[backend] = updated
            self._attach_observations[backend] = (
                self._attach_observations.get(backend, 0) + 1
            )
            return updated

    def attach_seconds_per_byte(self, backend: str) -> float:
        """Current attach rate of ``backend`` (its prior if unobserved).

        Unknown backends are priced free — attach cost only exists
        where a measurement or prior says it does.
        """
        with self._lock:
            rate = self._attach_rates.get(backend)
        if rate is not None:
            return rate
        return DEFAULT_ATTACH_PRIORS.get(backend, 0.0)

    def estimate_attach_seconds(self, backend: str, nbytes: int) -> float:
        """Estimated one-time seconds for a new ``backend`` worker to
        attach ``nbytes`` of compressed payloads."""
        return self.attach_seconds_per_byte(backend) * max(int(nbytes), 0)

    def clone(self) -> "CodecCostModel":
        """An independent copy with the same rates and counts.

        The offline :class:`~repro.serving.simulator.CacheSimulator`
        replays traces against a clone of the live fleet's cost model:
        the simulated policies price tiers and codecs exactly as the
        live engine did, without the simulation's charged (estimated)
        observations polluting the fleet's learned rates.
        """
        twin = CodecCostModel(
            alpha=self.alpha,
            default_seconds_per_byte=self.default_seconds_per_byte,
        )
        with self._lock:
            twin._rates = dict(self._rates)
            twin._observations = dict(self._observations)
            twin._layer_rates = dict(self._layer_rates)
            twin._layer_observations = dict(self._layer_observations)
            twin._tier_rates = dict(self._tier_rates)
            twin._tier_observations = dict(self._tier_observations)
            twin._attach_rates = dict(self._attach_rates)
            twin._attach_observations = dict(self._attach_observations)
        return twin

    def seed(
        self, codec: str, seconds_per_byte: float, force: bool = True
    ) -> None:
        """Install a prior rate (calibration probe or hardware bridge).

        Seeding does not count as an observation; later :meth:`observe`
        calls blend measurements into it.  ``force=False`` only fills
        codecs with no rate yet (how the hardware bridge defers to any
        measurement that already exists).
        """
        if seconds_per_byte <= 0:
            raise ValueError("seconds_per_byte must be positive")
        with self._lock:
            if force or codec not in self._rates:
                self._rates[codec] = seconds_per_byte

    def calibrate(
        self, payloads: Mapping[str, Any], specs: Mapping[str, Any],
        force: bool = False,
    ) -> Dict[str, float]:
        """One-shot probe: time one decode per distinct (new) codec.

        ``specs`` maps layer name to an object with a ``codec``
        attribute (the serving layer's ``LayerArtifactSpec``);
        ``payloads`` maps the same names to
        :class:`~repro.codecs.LayerPayload` objects.  For each codec
        without a rate yet (all of them under ``force=True``), the
        layer with the *largest dense output* encoded with it is
        decoded once, timed, and the measured seconds-per-byte seeded —
        probing the largest layer, not the first one encountered,
        because on a tiny layer a single coarse-timer tick is a huge
        per-byte error and would misprice the whole codec.  Returns
        ``{codec: rate}`` for the codecs probed.
        """
        from repro.codecs import LayerPayload, get_codec

        # Rank each codec's layers by the spec's dense shape, largest
        # first — payloads may be lazy (npz-backed), so candidate
        # selection must not touch them; only probed layers are loaded.
        candidates: Dict[str, list] = {}
        for name, spec in specs.items():
            codec = getattr(spec, "codec", None)
            if codec is None or name not in payloads:
                continue
            if not force and self.calibrated(codec):
                continue
            shape = getattr(spec, "weight_shape", None)
            candidates.setdefault(codec, []).append(
                (_dense_bytes_of(shape), name)
            )
        probed: Dict[str, float] = {}
        for codec, ranked in sorted(candidates.items()):
            ranked.sort(key=lambda entry: entry[0], reverse=True)
            for _, name in ranked:
                payload = payloads[name]
                if not isinstance(payload, LayerPayload):
                    continue  # unusable entry: try the next-largest
                start = time.perf_counter()
                weight = get_codec(codec).decode(payload)
                seconds = time.perf_counter() - start
                if weight.nbytes <= 0:
                    continue
                rate = seconds / weight.nbytes
                if rate <= 0:
                    # A trivially cheap decode on a coarse timer
                    # measured as 0.0 s; keep the default prior instead
                    # of seeding a rate that would make the layer look
                    # free to evict.
                    break
                self.seed(codec, rate, force=True)
                probed[codec] = rate
                break
        return probed

    # ------------------------------------------------------------------
    # Estimates
    # ------------------------------------------------------------------
    def calibrated(self, codec: str) -> bool:
        """True once ``codec`` has a rate (seeded or observed)."""
        with self._lock:
            return codec in self._rates

    def seconds_per_byte(
        self, codec: str, layer: Optional[str] = None
    ) -> float:
        """The current rate for ``codec`` (default prior if unknown).

        With ``layer``, the ``(codec, layer)`` rate when that layer has
        observations of its own; the codec rate is the fallback prior.
        """
        with self._lock:
            if layer is not None:
                rate = self._layer_rates.get((codec, layer))
                if rate is not None:
                    return rate
            return self._rates.get(codec, self.default_seconds_per_byte)

    def snapshot_rates(self) -> Dict[str, float]:
        """One-lock copy of every known codec rate — for callers
        estimating many layers at once (one acquisition instead of one
        per layer)."""
        with self._lock:
            return dict(self._rates)

    def snapshot_all_rates(
        self,
    ) -> Tuple[Dict[str, float], Dict[Tuple[str, str], float]]:
        """``(codec rates, layer rates)`` in one lock acquisition — for
        the install-estimate hot path, which needs both maps."""
        with self._lock:
            return dict(self._rates), dict(self._layer_rates)

    def estimate_seconds(
        self, codec: str, dense_bytes: int, layer: Optional[str] = None
    ) -> float:
        """Estimated seconds to rebuild ``dense_bytes`` of ``codec``
        (sharpened by the layer's own rate when one exists)."""
        return self.seconds_per_byte(codec, layer) * max(int(dense_bytes), 0)

    def observations(self, codec: str, layer: Optional[str] = None) -> int:
        with self._lock:
            if layer is not None:
                return self._layer_observations.get((codec, layer), 0)
            return self._observations.get(codec, 0)

    def as_dict(self) -> Dict:
        """Snapshot for telemetry: rates and observation counts, with
        the per-layer EWMAs nested under their codec."""
        with self._lock:
            layers: Dict[str, Dict[str, Dict]] = {}
            for (codec, layer), rate in sorted(self._layer_rates.items()):
                layers.setdefault(codec, {})[layer] = {
                    "seconds_per_byte": rate,
                    "observations": self._layer_observations.get(
                        (codec, layer), 0
                    ),
                }
            return {
                "alpha": self.alpha,
                "default_seconds_per_byte": self.default_seconds_per_byte,
                "codecs": {
                    codec: {
                        "seconds_per_byte": rate,
                        "observations": self._observations.get(codec, 0),
                        "layers": layers.get(codec, {}),
                    }
                    for codec, rate in sorted(self._rates.items())
                },
                "tiers": {
                    tier: {
                        "seconds_per_byte": rate,
                        "observations": self._tier_observations.get(tier, 0),
                    }
                    for tier, rate in sorted(self._tier_rates.items())
                },
                "attach": {
                    backend: {
                        "seconds_per_byte": rate,
                        "observations": self._attach_observations.get(
                            backend, 0
                        ),
                    }
                    for backend, rate in sorted(self._attach_rates.items())
                },
            }


class HardwareCostBridge:
    """Map accelerator energy estimates onto serving-layer seconds.

    The accelerator simulators price the paper's trade in pJ per 8-bit
    datum (:class:`repro.hardware.energy.EnergyModel`): a cache miss at
    the serving layer corresponds to DRAM-fetching the encoded payload
    and then spending one MAC-class operation per rebuilt datum, versus
    DRAM-fetching the full dense tensor when nothing is compressed.
    ``effective_watts`` converts energy into serving-layer seconds —
    the sustained power the host dedicates to rebuild compute — so the
    same numbers that rank codecs in the hardware benches can seed a
    :class:`CodecCostModel` before any serving traffic exists.
    """

    def __init__(
        self,
        energy=None,
        effective_watts: float = 10.0,
        rebuild_ops_per_byte: float = 1.0,
        disk_bytes_per_second: float = 200e6,
    ) -> None:
        if energy is None:
            # Imported lazily: `repro.costs` must not drag the full
            # hardware package in unless the bridge is actually used.
            from repro.hardware.energy import DEFAULT_ENERGY_MODEL

            energy = DEFAULT_ENERGY_MODEL
        if effective_watts <= 0:
            raise ValueError("effective_watts must be positive")
        if rebuild_ops_per_byte < 0:
            raise ValueError("rebuild_ops_per_byte must be >= 0")
        if disk_bytes_per_second <= 0:
            raise ValueError("disk_bytes_per_second must be positive")
        self.energy = energy
        self.effective_watts = effective_watts
        self.rebuild_ops_per_byte = rebuild_ops_per_byte
        self.disk_bytes_per_second = disk_bytes_per_second

    # ------------------------------------------------------------------
    def miss_energy_pj(self, payload_bytes: int, dense_bytes: int) -> float:
        """Energy of one rebuild miss: fetch the payload, rebuild dense."""
        fetch = max(int(payload_bytes), 0) * self.energy.dram
        rebuild = (
            max(int(dense_bytes), 0)
            * self.rebuild_ops_per_byte
            * self.energy.mac
        )
        return fetch + rebuild

    def dense_access_energy_pj(self, dense_bytes: int) -> float:
        """Energy of fetching the uncompressed tensor instead."""
        return max(int(dense_bytes), 0) * self.energy.dram

    def energy_saved_pj(self, payload_bytes: int, dense_bytes: int) -> float:
        """The paper's exchange, in pJ: dense fetch avoided minus the
        (payload fetch + rebuild compute) paid for it."""
        return self.dense_access_energy_pj(dense_bytes) - self.miss_energy_pj(
            payload_bytes, dense_bytes
        )

    def seconds_per_byte(self, payload_bytes: int, dense_bytes: int) -> float:
        """Estimated rebuild seconds per dense byte at ``effective_watts``."""
        dense = max(int(dense_bytes), 1)
        joules = self.miss_energy_pj(payload_bytes, dense) * 1e-12
        return joules / self.effective_watts / dense

    def tier_seconds_per_byte(self, tier: str) -> float:
        """Hardware-derived access prior for one rebuild-cache tier.

        ``compressed-ram`` is priced as one DRAM fetch plus one
        MAC-class op per dense byte (read the blob, inflate it) through
        the same ``effective_watts`` conversion as a rebuild miss;
        ``disk`` as a sequential read at ``disk_bytes_per_second``.
        Unknown tiers fall back to the :data:`DEFAULT_TIER_PRIORS`
        table.
        """
        if tier == "compressed-ram":
            joules = (self.energy.dram + self.energy.mac) * 1e-12
            return joules / self.effective_watts
        if tier == "disk":
            return 1.0 / self.disk_bytes_per_second
        return DEFAULT_TIER_PRIORS.get(tier, DEFAULT_SECONDS_PER_BYTE)

    # ------------------------------------------------------------------
    def seed(
        self,
        model: CodecCostModel,
        payloads: Mapping[str, Any],
        force: bool = False,
    ) -> Dict[str, float]:
        """Seed ``model`` with hardware-derived priors, one per codec.

        Aggregates payload/dense bytes over all layers of each codec in
        ``payloads`` (a ``{layer: LayerPayload}`` map) and seeds the
        resulting seconds-per-byte.  With ``force=False`` (default) a
        codec that already has a measured or calibrated rate is left
        alone — hardware estimates only fill gaps.
        """
        from repro.codecs import LayerPayload

        totals: Dict[str, list] = {}
        for payload in payloads.values():
            if not isinstance(payload, LayerPayload):
                continue
            entry = totals.setdefault(payload.codec, [0, 0])
            entry[0] += payload.nbytes
            entry[1] += payload.dense_bytes
        seeded: Dict[str, float] = {}
        for codec, (payload_bytes, dense_bytes) in sorted(totals.items()):
            if dense_bytes <= 0:
                continue
            if not force and model.calibrated(codec):
                continue
            rate = self.seconds_per_byte(payload_bytes, dense_bytes)
            model.seed(codec, rate, force=True)
            seeded[codec] = rate
        return seeded

    def seed_tiers(
        self,
        model: CodecCostModel,
        tiers: Tuple[str, ...] = ("compressed-ram", "disk"),
        force: bool = False,
    ) -> Dict[str, float]:
        """Seed ``model`` with hardware-derived tier access priors.

        Same deference contract as :meth:`seed`: with ``force=False`` a
        tier that already has a measured or seeded rate is left alone.
        """
        seeded: Dict[str, float] = {}
        for tier in tiers:
            rate = self.tier_seconds_per_byte(tier)
            if rate <= 0:
                continue
            before = model.tier_observations(tier)
            if not force and (
                before > 0 or tier in model.snapshot_tier_rates()
            ):
                continue
            model.seed_tier(tier, rate, force=True)
            seeded[tier] = rate
        return seeded
