"""The weight-codec contract: one encode/decode API from compression
to serving.

The paper's core move — store a cheap encoded form, rebuild dense
weights with cheap compute on access — is not specific to the
SmartExchange ``{B, Ce, index}`` decomposition.  Every baseline the
paper compares against (pruning, linear / power-of-2 / FP8
quantization, dense storage itself) is the same trade with a different
encoder.  This module pins down the shared contract:

- :class:`LayerPayload` — the stored form of one layer weight: a dict
  of numpy arrays (what goes into ``weights.npz``) plus JSON-able
  metadata (what the decoder needs besides the arrays).
- :class:`WeightCodec` — the protocol every codec implements:
  ``encode(weight) -> LayerPayload``, ``decode(payload) -> ndarray``,
  ``payload_bytes(payload) -> int``, and a registry ``name``.
- :class:`PreparedPayload` — read-only arrays a codec derives once
  from one payload (index positions, lookup tables, scales), so
  a caller that decodes the same payload many times pays for them
  once.  A codec with such arrays implements ``prepare(payload)`` and
  accepts the result as ``decode(payload, prepared)``.
- a string-keyed registry (:func:`register_codec`, :func:`get_codec`,
  :func:`codec_names`) so artifact manifests can record a codec by name
  and the serving layer can decode any bundle without knowing which
  compressor produced it.

Decoding must never need the *encoder's* configuration: everything a
decode requires travels in the payload (arrays + meta), so the serving
side resolves ``manifest.codec`` to the registry's default instance and
calls ``decode``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Protocol, Tuple, runtime_checkable

import numpy as np


class CodecError(Exception):
    """Unknown codec name or malformed payload."""


@dataclass(frozen=True)
class LayerPayload:
    """The encoded form of one layer weight.

    ``arrays`` is what gets persisted to ``weights.npz``; ``meta`` is
    small JSON-able metadata (shapes, scales, exponent windows) stored
    alongside.  ``weight_shape`` is the shape ``decode`` reproduces —
    the shape of the tensor installed into the serving skeleton.
    """

    codec: str
    weight_shape: Tuple[int, ...]
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def nbytes(self) -> int:
        """Raw bytes of the stored arrays (before npz compression)."""
        return sum(int(a.nbytes) for a in self.arrays.values())

    @property
    def dense_bytes(self) -> int:
        """FP32 bytes of the dense weight this payload replaces."""
        return int(np.prod(self.weight_shape, dtype=np.int64)) * 4


@dataclass(frozen=True)
class PreparedPayload:
    """Arrays a codec derives from one immutable payload, held so that
    each decode reads them instead of re-deriving them.

    The arrays are made read-only here: one prepared payload is shared
    by every decode of its layer.  ``scalars`` holds the few integers
    the decode needs besides them.
    """

    arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    scalars: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for array in self.arrays.values():
            array.setflags(write=False)

    @property
    def nbytes(self) -> int:
        return sum(int(a.nbytes) for a in self.arrays.values())


@runtime_checkable
class WeightCodec(Protocol):
    """One point in the recompute-vs-store design space.

    ``name`` is the registry key recorded in artifact manifests.
    ``encode`` may be lossy (quantization, decomposition); ``decode``
    must reproduce exactly the weight ``encode``'s approximation
    committed to — i.e. ``encode(decode(encode(w)))`` round-trips
    losslessly.

    A codec may also implement ``prepare(payload) -> PreparedPayload``
    and take its result as ``decode(payload, prepared)``, bit-identical
    to ``decode(payload)``, which prepares afresh on every call.
    """

    name: str

    def encode(self, weight: np.ndarray) -> LayerPayload:
        """Compress one dense weight tensor into its stored form."""
        ...  # pragma: no cover - protocol

    def decode(self, payload: LayerPayload) -> np.ndarray:
        """Rebuild the dense weight from a stored payload."""
        ...  # pragma: no cover - protocol

    def payload_bytes(self, payload: LayerPayload) -> int:
        """Analytic storage bytes of the payload (the DRAM image)."""
        ...  # pragma: no cover - protocol


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_FACTORIES: Dict[str, Callable[[], WeightCodec]] = {}
_INSTANCES: Dict[str, WeightCodec] = {}


def register_codec(
    name: str, factory: Callable[[], WeightCodec], replace: bool = False
) -> None:
    """Register ``factory`` as the default constructor for ``name``."""
    if not replace and name in _FACTORIES:
        raise CodecError(f"codec {name!r} already registered")
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def get_codec(name: str) -> WeightCodec:
    """The shared default instance of the codec registered as ``name``."""
    instance = _INSTANCES.get(name)
    if instance is None:
        factory = _FACTORIES.get(name)
        if factory is None:
            raise CodecError(
                f"unknown codec {name!r}; registered: {codec_names()}"
            )
        instance = _INSTANCES[name] = factory()
    return instance


def codec_names() -> List[str]:
    return sorted(_FACTORIES)


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def empty_payload(codec: str, shape: Tuple[int, ...]) -> LayerPayload:
    """The canonical payload for a zero-element weight."""
    return LayerPayload(
        codec=codec, weight_shape=tuple(shape), arrays={}, meta={"empty": True}
    )


_INDEX_DTYPES = tuple(np.dtype(t) for t in (np.uint8, np.uint16, np.uint32))


def index_dtype(count: int) -> np.dtype:
    """The narrowest unsigned dtype that holds every index below
    ``count``."""
    for dtype in _INDEX_DTYPES:
        if count <= 1 << (8 * dtype.itemsize):
            return dtype
    return np.dtype(np.intp)


def decode_empty(payload: LayerPayload) -> np.ndarray:
    return np.zeros(payload.weight_shape)


def check_codec(payload: LayerPayload, expected: str) -> None:
    if payload.codec != expected:
        raise CodecError(
            f"payload was encoded by {payload.codec!r}, not {expected!r}"
        )


def encode_model(model, codec: WeightCodec) -> Dict[str, LayerPayload]:
    """Encode every conv / linear weight of ``model`` with ``codec``.

    Returns ``{layer name: payload}`` — the input to
    :meth:`repro.serving.ArtifactStore.publish_payloads`.
    """
    from repro import nn

    payloads: Dict[str, LayerPayload] = {}
    for name, module in model.named_modules():
        if isinstance(module, (nn.Conv2d, nn.Linear)):
            payloads[name] = codec.encode(module.weight.data)
    return payloads
