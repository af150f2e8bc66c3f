"""Sparse codec: magnitude-pruned weights as CSR values + bitmap index.

The storage scheme the pruning baselines (Han-style magnitude pruning,
Deep Compression's first stage) assume: surviving values at FP32 plus a
1-bit-per-element presence bitmap.  The per-row ``indptr`` (the CSR row
structure over the ``(out_channels, -1)`` view) is kept so rows can be
located without scanning the bitmap, but it is derivable from the
bitmap and therefore excluded from the analytic byte accounting —
matching :func:`repro.compression.base.bitmap_pruned_bits`.

The codec does not prune: it sparse-encodes whatever zeros the weight
already has, so it composes with any pruner (element, channel, filter).
"""

from __future__ import annotations

import math

import numpy as np

from repro.codecs.base import (
    LayerPayload,
    check_codec,
    decode_empty,
    empty_payload,
)


class PruneCSRCodec:
    """Nonzero FP32 values + packed presence bitmap (+ CSR ``indptr``)."""

    name = "prune-csr"

    def encode(self, weight: np.ndarray) -> LayerPayload:
        weight = np.asarray(weight)
        if weight.size == 0:
            return empty_payload(self.name, weight.shape)
        rows = weight.shape[0] if weight.ndim > 1 else 1
        flat = weight.reshape(rows, -1)
        mask = flat != 0
        indptr = np.zeros(rows + 1, dtype=np.int64)
        np.cumsum(mask.sum(axis=1), out=indptr[1:])
        return LayerPayload(
            codec=self.name,
            weight_shape=tuple(weight.shape),
            arrays={
                "values": flat[mask].astype(np.float32),
                "bitmap": np.packbits(mask.reshape(-1).astype(np.uint8)),
                "indptr": indptr,
            },
            meta={"nnz": int(mask.sum())},
        )

    def decode(self, payload: LayerPayload) -> np.ndarray:
        check_codec(payload, self.name)
        if payload.meta.get("empty"):
            return decode_empty(payload)
        size = math.prod(payload.weight_shape)
        mask = np.unpackbits(payload.arrays["bitmap"], count=size).view(bool)
        out = np.zeros(size)
        out[mask] = payload.arrays["values"]
        return out.reshape(payload.weight_shape)

    def payload_bytes(self, payload: LayerPayload) -> int:
        check_codec(payload, self.name)
        if payload.meta.get("empty"):
            return 0
        return int(
            payload.arrays["values"].nbytes + payload.arrays["bitmap"].nbytes
        )
