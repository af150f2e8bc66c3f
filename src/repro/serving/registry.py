"""Model registry: lazy, cached access to published bundles.

The registry fronts an :class:`~repro.serving.artifacts.ArtifactStore`
and hands out :class:`CompressedModelHandle` objects — the checksum-
verified, in-memory form of one bundle (manifest + packed payloads +
residual state).  Bundles are loaded on first request and cached, so a
fleet of engines serving the same model shares one copy of the
compressed payloads.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.codecs import LayerPayload
from repro.costs import CodecCostModel
from repro.serving.artifacts import (
    ArtifactManifest,
    ArtifactStore,
    LayerArtifactSpec,
)


@dataclass(frozen=True)
class CompressedModelHandle:
    """One loaded bundle, ready for a rebuild engine.

    ``payloads`` is a (possibly lazy) ``{layer: LayerPayload}`` map —
    layers of a lazily-loaded bundle are decompressed from the npz
    member index on first access, so loading a handle is cheap.
    """

    manifest: ArtifactManifest
    payloads: Mapping[str, LayerPayload]
    residual: Optional[Dict[str, np.ndarray]]

    @property
    def name(self) -> str:
        return self.manifest.name

    @property
    def version(self) -> str:
        return self.manifest.version

    @property
    def codec(self) -> str:
        return self.manifest.codec

    @property
    def key(self) -> str:
        return f"{self.name}:{self.version}"

    @property
    def layer_specs(self) -> Dict[str, LayerArtifactSpec]:
        return {spec.name: spec for spec in self.manifest.layers}

    @property
    def total_dense_bytes(self) -> int:
        """Resident bytes if every layer were rebuilt and cached dense.

        Counts the float64 arrays the NumPy substrate materializes —
        the unit engine ``cache_bytes`` is expressed in (the manifest's
        ``dense_bytes`` counts the FP32 checkpoint instead).
        """
        itemsize = np.dtype(np.float64).itemsize
        return sum(
            int(np.prod(spec.weight_shape)) * itemsize
            for spec in self.manifest.layers
        )

    def close(self) -> None:
        """Release the payloads' backing file handle, if one is open.

        Already-loaded layers stay readable; an unloaded layer of a
        closed lazy bundle raises on first access.  Dict-backed
        payloads (eager bundles, tests) make this a no-op.
        """
        closer = getattr(self.payloads, "close", None)
        if closer is not None:
            closer()

    def __enter__(self) -> "CompressedModelHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class ModelRegistry:
    """Named, versioned, lazily-loaded compressed models.

    The registry also owns one shared :class:`~repro.costs.
    CodecCostModel`: engines built for its handles can pass
    ``cost_model=registry.cost_model`` so per-codec rebuild rates
    learned while serving one model price admission and batching
    decisions for every other model in the same fleet.  An optional
    ``observability`` handle rides along the same way — a
    :class:`~repro.serving.host.ServingHost` built over the registry
    adopts it, so one handle traces the whole fleet.
    """

    def __init__(
        self,
        store: ArtifactStore,
        cost_model: Optional[CodecCostModel] = None,
        observability=None,
    ) -> None:
        self.store = store
        self.cost_model = cost_model or CodecCostModel()
        self.observability = observability
        self._lock = threading.Lock()
        self._loaded: Dict[str, CompressedModelHandle] = {}
        self._inflight: Dict[str, "_InFlightLoad"] = {}
        # Shared-memory arenas placed for process-backed engines, one
        # per bundle key; serialized separately from bundle loads so a
        # slow placement never blocks a get().
        self._arena_lock = threading.Lock()
        self._arenas: Dict[str, "SharedPayloadArena"] = {}

    # ------------------------------------------------------------------
    def models(self) -> List[str]:
        return self.store.models()

    def versions(self, name: str) -> List[str]:
        return self.store.versions(name)

    def loaded(self) -> List[str]:
        """Keys (``name:version``) currently resident in memory."""
        with self._lock:
            return sorted(self._loaded)

    # ------------------------------------------------------------------
    def get(
        self, name: str, version: Optional[str] = None
    ) -> CompressedModelHandle:
        """Load (or fetch the cached) handle for ``name:version``.

        ``version=None`` resolves to the latest published version at
        call time; the resolved handle is cached under its concrete
        version, so later publishes are picked up by later ``get``s.

        Loads are single-flight per key: concurrent callers requesting
        the same unloaded bundle block on one SHA-256 verify + npz
        open instead of each running their own and all but one handle
        (with its open lazy payload file) being thrown away.  A failed
        load releases its waiters to retry, so each caller raises its
        own exception.
        """
        resolved = version or self.store.latest_version(name)
        key = f"{name}:{resolved}"
        while True:
            with self._lock:
                handle = self._loaded.get(key)
                if handle is not None:
                    return handle
                flight = self._inflight.get(key)
                if flight is None:
                    flight = self._inflight[key] = _InFlightLoad()
                    break
            flight.event.wait()
            if flight.handle is not None:
                return flight.handle
            # The in-flight load failed; loop and load ourselves.
        try:
            # One hash pass over the bundle, then unverified reads.
            manifest = self.store.verify(name, resolved)
            handle = CompressedModelHandle(
                manifest=manifest,
                payloads=self.store.load_payloads(name, resolved, verify=False),
                residual=self.store.load_residual(name, resolved, verify=False),
            )
        except BaseException:
            with self._lock:
                self._inflight.pop(key, None)
            flight.event.set()
            raise
        flight.handle = handle  # published before event.set()
        with self._lock:
            self._loaded[key] = handle
            self._inflight.pop(key, None)
        flight.event.set()
        return handle

    def unload(self, name: str, version: Optional[str] = None) -> None:
        """Drop cached handles for ``name`` (one version or all).

        The handle's lazy payload file closes itself once every layer
        is cached or when the last engine holding it is collected, so
        unloading never yanks the npz out from under a live engine.
        """
        with self._lock:
            for key in list(self._loaded):
                handle_name, _, handle_version = key.partition(":")
                if handle_name != name:
                    continue
                if version is None or handle_version == version:
                    del self._loaded[key]

    def arena(
        self, name: str, version: Optional[str] = None
    ) -> "SharedPayloadArena":
        """One shared-memory arena per bundle, placed on first request.

        Process-backed engines serving the same bundle pass this to
        ``start(backend="process", arena=...)`` so the compressed
        payloads land in ``/dev/shm`` exactly once for the whole fleet.
        The registry holds the owning reference: engines only
        ``acquire()``/``release()`` around it, and :meth:`close`
        unlinks every arena the registry placed.
        """
        from repro.serving.arena import SharedPayloadArena

        handle = self.get(name, version)
        with self._arena_lock:
            arena = self._arenas.get(handle.key)
            if arena is not None and not arena.closed:
                return arena
            arena = SharedPayloadArena.from_payloads(
                handle.payloads, key=handle.key
            )
            # The registry's own reference: engines acquire/release
            # around it, so the arena survives engine restarts and only
            # close() (or interpreter exit) unlinks it.
            arena.acquire()
            self._arenas[handle.key] = arena
            return arena

    def close(self) -> None:
        """Tear the registry down: drop every cached handle and close
        its payload file, and unlink every shared-memory arena this
        registry placed.  Unlike :meth:`unload` — which only forgets
        handles and lets their npz handles close themselves — this is
        for hosts shutting down, where no engine will read again.
        Idempotent: arenas already torn down (or closed by ``atexit``)
        are skipped."""
        with self._lock:
            handles = list(self._loaded.values())
            self._loaded.clear()
        for handle in handles:
            handle.close()
        with self._arena_lock:
            arenas = list(self._arenas.values())
            self._arenas.clear()
        for arena in arenas:
            arena.close()

    def __enter__(self) -> "ModelRegistry":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class _InFlightLoad:
    """One bundle load in progress; waiters block on ``event``."""

    __slots__ = ("event", "handle")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.handle: Optional[CompressedModelHandle] = None
