"""Persisting codec payloads: the ``weights.npz`` image of a bundle.

Format 3 (written here) stores any codec's payloads generically::

    __format__ = [3]
    __layers__ = [n]
    L{i}.name  = [layer name]        L{i}.codec = [registry name]
    L{i}.shape = weight shape        L{i}.meta  = [meta as JSON]
    L{i}.keys  = array-key list      L{i}.A.<key> = payload array

A smartexchange layer is one stacked payload (``index``, ``codes``,
``basis``; see :mod:`repro.codecs.smartexchange`).  Readers also accept
the two older layouts and convert them once, at load time, through
:meth:`~repro.codecs.smartexchange.SmartExchangeCodec.
payload_from_matrices`:

- format 2 is format 3's container with smartexchange layers stored as
  per-matrix ``m{j}.index`` / ``m{j}.codes`` / ``m{j}.basis`` arrays
  and a ``matrices`` list in ``meta``;
- format 1 is the SmartExchange-only layout of
  :mod:`repro.core.serialize` (PR-1/PR-2 bundles), whose reshape plans
  live in the bundle manifest.

Every consumer therefore sees one payload layout per codec, whatever
the bundle's age.

Reading is *lazy*: :class:`LazyPayloadFile` materializes only the tiny
per-layer index up front and decompresses a layer's arrays the first
time that layer is requested — cold models come up without paying for
layers nobody has asked for yet.
"""

from __future__ import annotations

import json
import threading
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.codecs.base import CodecError, LayerPayload, get_codec
from repro.codecs.smartexchange import SmartExchangeCodec, plan_from_json

PAYLOAD_FORMAT = 3
_READABLE_FORMATS = (1, 2, 3)
_IMAGE_KEYS = ("index", "codes", "basis", "meta", "basis_scale")


def write_payloads_npz(path, payloads: Mapping[str, LayerPayload]) -> int:
    """Write ``{layer: payload}`` as a format-3 npz; returns the total
    analytic payload bytes (per each payload's codec accounting)."""
    arrays: Dict[str, np.ndarray] = {
        "__format__": np.array([PAYLOAD_FORMAT]),
        "__layers__": np.array([len(payloads)]),
    }
    total = 0
    for i, (name, payload) in enumerate(payloads.items()):
        total += get_codec(payload.codec).payload_bytes(payload)
        keys = sorted(payload.arrays)
        arrays[f"L{i}.name"] = np.array([name])
        arrays[f"L{i}.codec"] = np.array([payload.codec])
        arrays[f"L{i}.shape"] = np.array(payload.weight_shape, dtype=np.int64)
        arrays[f"L{i}.meta"] = np.array([json.dumps(payload.meta)])
        arrays[f"L{i}.keys"] = np.array(keys, dtype=np.str_)
        for key in keys:
            arrays[f"L{i}.A.{key}"] = payload.arrays[key]
    np.savez_compressed(path, **arrays)
    return total


class LazyPayloadFile(Mapping):
    """Lazy ``{layer name: LayerPayload}`` view over a ``weights.npz``.

    Holds the npz member index open and decompresses per layer on first
    access (cached thereafter).  Thread-safe: the serving worker pool
    may fault in different layers concurrently, and the underlying
    zipfile handle is not safe for concurrent reads.

    ``legacy_layers`` supplies ``{name: (kind, plan)}`` for format-1
    files, whose npz carries no reshape metadata of its own (it lived
    in the manifest); later formats ignore it.
    """

    def __init__(self, path, legacy_layers: Optional[Dict] = None) -> None:
        self._npz = np.load(path, allow_pickle=False)
        self._closed = False
        self._lock = threading.Lock()
        self._cache: Dict[str, LayerPayload] = {}
        self._legacy_layers = legacy_layers or {}
        self._version = int(self._npz["__format__"][0])
        if self._version not in _READABLE_FORMATS:
            raise CodecError(f"unsupported weights format {self._version}")
        # The index (names, codecs, matrix counts) is tiny; read it
        # eagerly so iteration and membership never touch array data.
        self._index: Dict[str, Tuple[int, int]] = {}
        for i in range(int(self._npz["__layers__"][0])):
            name = str(self._npz[f"L{i}.name"][0])
            count = (
                int(self._npz[f"L{i}.count"][0]) if self._version == 1 else 0
            )
            self._index[name] = (i, count)

    # ------------------------------------------------------------------
    def __getitem__(self, name: str) -> LayerPayload:
        with self._lock:
            cached = self._cache.get(name)
            if cached is not None:
                return cached
            if name not in self._index:
                raise KeyError(name)
            if self._closed:
                raise CodecError(
                    f"payload file is closed; layer {name!r} was never loaded"
                )
            payload = (
                self._load_format1(name) if self._version == 1
                else self._load(name)
            )
            self._cache[name] = payload
            # Once every layer is resident the zip handle has nothing
            # left to serve; release the file descriptor.
            if len(self._cache) == len(self._index):
                self._close_locked()
            return payload

    def __iter__(self) -> Iterator[str]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def _load(self, name: str) -> LayerPayload:
        i, _ = self._index[name]
        keys = [str(k) for k in self._npz[f"L{i}.keys"]]
        arrays = {key: self._npz[f"L{i}.A.{key}"] for key in keys}
        meta = json.loads(str(self._npz[f"L{i}.meta"][0]))
        if self._version == 2 and "matrices" in meta:
            images = [
                {
                    "index": arrays[f"m{j}.index"],
                    "codes": arrays[f"m{j}.codes"],
                    "basis": arrays[f"m{j}.basis"],
                    "meta": np.array([
                        scalars["p_min"], scalars["p_max"],
                        scalars["rows"], scalars["cols"],
                    ]),
                    "basis_scale": np.array([scalars["basis_scale"]]),
                }
                for j, scalars in enumerate(meta["matrices"])
            ]
            return SmartExchangeCodec().payload_from_matrices(
                images, meta["kind"], plan_from_json(meta["plan"])
            )
        return LayerPayload(
            codec=str(self._npz[f"L{i}.codec"][0]),
            weight_shape=tuple(int(d) for d in self._npz[f"L{i}.shape"]),
            arrays=arrays,
            meta=meta,
        )

    def _load_format1(self, name: str) -> LayerPayload:
        spec = self._legacy_layers.get(name)
        if spec is None:
            raise CodecError(
                f"legacy bundle layer {name!r} has no manifest plan"
            )
        kind, plan = spec
        i, count = self._index[name]
        images: List[Dict[str, np.ndarray]] = [
            {key: self._npz[f"L{i}.M{j}.{key}"] for key in _IMAGE_KEYS}
            for j in range(count)
        ]
        return SmartExchangeCodec().payload_from_matrices(images, kind, plan)

    # ------------------------------------------------------------------
    def materialize(self) -> Dict[str, LayerPayload]:
        """Load every layer now (eager callers, tests)."""
        return {name: self[name] for name in self._index}

    @property
    def loaded_layers(self) -> List[str]:
        with self._lock:
            return sorted(self._cache)

    def _close_locked(self) -> None:
        if not self._closed:
            self._closed = True
            self._npz.close()

    def close(self) -> None:
        """Release the npz file handle (loaded layers stay readable)."""
        with self._lock:
            self._close_locked()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def __enter__(self) -> "LazyPayloadFile":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort fd cleanup on GC
        try:
            self._close_locked()
        except Exception:
            pass
