"""SmartExchange as a codec: the paper's {B, Ce, index} stored form.

Wraps :mod:`repro.core.layer_transform` (encode: decompose into a tiny
basis and a sparse power-of-2 coefficient matrix) and
:mod:`repro.core.serialize` (the packed DRAM image: nibble codes,
row-index bitmap, 8-bit basis) behind the :class:`~repro.codecs.base.
WeightCodec` protocol, so the serving layer treats the paper's encoding
exactly like every baseline.

A layer of N decomposed matrices is stored stacked, as three arrays:

- ``index``: one row bitmap over every matrix's rows, in order, packed
  8 per byte;
- ``codes``: the 4-bit coefficient codes of every alive row, in the
  same order, packed two per byte;
- ``basis``: the ``(N, cols, S)`` int8 bases.

``meta`` holds the per-matrix scalars as columns (``rows``, ``p_min``,
``p_max``, ``basis_scale``) plus ``cols``, ``kind`` and the reshape
``plan``, so decoding needs no
:class:`~repro.core.config.SmartExchangeConfig` — the config shapes the
*encoder's* search only.  Decode rebuilds the whole layer in a fixed
number of numpy calls (one gather from a code-to-value table, cached
per set of ΩP anchors, then one batched ``Ce B`` product over the
alive rows), with no per-matrix loop.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional

import numpy as np

from repro.codecs.base import (
    CodecError,
    LayerPayload,
    check_codec,
    decode_empty,
    empty_payload,
)
from repro.core.config import SmartExchangeConfig
from repro.core.layer_transform import (
    LayerCompression,
    compress_conv_weight,
    compress_fc_weight,
)
from repro.core.reshape import ReshapePlan
from repro.core.serialize import (
    coefficient_code_values,
    decomposition_payload,
    pack_nibbles,
    unpack_nibbles,
)


def plan_to_json(plan: ReshapePlan) -> Dict:
    return {
        "kind": plan.kind,
        "original_shape": list(plan.original_shape),
        "basis_size": plan.basis_size,
        "padded_cols": plan.padded_cols,
        "matrices_per_unit": plan.matrices_per_unit,
        "unit_rows": plan.unit_rows,
        "slice_rows": plan.slice_rows,
    }


def plan_from_json(data: Dict) -> ReshapePlan:
    return ReshapePlan(
        kind=data["kind"],
        original_shape=tuple(data["original_shape"]),
        basis_size=int(data["basis_size"]),
        padded_cols=int(data["padded_cols"]),
        matrices_per_unit=int(data["matrices_per_unit"]),
        unit_rows=int(data["unit_rows"]),
        slice_rows=int(data["slice_rows"]),
    )


@lru_cache(maxsize=128)
def _code_table(p_min: tuple) -> np.ndarray:
    """The flat code-to-value table of one layer's matrices: entry
    ``16 * j + code`` is what matrix ``j`` decodes ``code`` to.

    Keyed by the layer's ΩP anchors, so every decode of a layer after
    the first reads the same read-only table.
    """
    table = coefficient_code_values(p_min, 16).reshape(-1)
    table.setflags(write=False)
    return table


def _weight_shape(kind: str, plan: ReshapePlan) -> tuple:
    if kind == "pointwise":
        m, c = plan.original_shape
        return (m, c, 1, 1)
    return tuple(plan.original_shape)


class SmartExchangeCodec:
    """{B, Ce, index} decomposition of conv (4-D) and FC (2-D) weights."""

    name = "smartexchange"

    def __init__(self, config: Optional[SmartExchangeConfig] = None) -> None:
        self.config = config or SmartExchangeConfig()

    # ------------------------------------------------------------------
    def encode(self, weight: np.ndarray) -> LayerPayload:
        weight = np.asarray(weight, dtype=np.float64)
        if weight.size == 0:
            return empty_payload(self.name, weight.shape)
        if weight.ndim == 4:
            compression = compress_conv_weight(weight, self.config)
        elif weight.ndim == 2:
            compression = compress_fc_weight(weight, self.config)
        else:
            raise CodecError(
                f"smartexchange encodes 2-D or 4-D weights, got {weight.ndim}-D"
            )
        return self.payload_from_compression(compression, self.config)

    def payload_from_compression(
        self, compression: LayerCompression, config: SmartExchangeConfig
    ) -> LayerPayload:
        """Pack an existing decomposition (no re-fitting)."""
        return self.payload_from_matrices(
            [decomposition_payload(d, config) for d in compression.decompositions],
            compression.kind,
            compression.plan,
        )

    def payload_from_matrices(
        self,
        matrix_payloads: List[Dict[str, np.ndarray]],
        kind: str,
        plan: ReshapePlan,
    ) -> LayerPayload:
        """Stack per-matrix DRAM images (:func:`~repro.core.serialize.
        decomposition_payload`) into one layer payload.

        The one entry into the stacked layout: fresh encodes and every
        older bundle layout pass through here.
        """
        shape = _weight_shape(kind, plan)
        if not matrix_payloads:
            return empty_payload(self.name, shape)
        scalars = np.array(
            [image["meta"] for image in matrix_payloads], dtype=np.int64
        )
        p_min, p_max, rows, cols = scalars.T
        if np.any(cols != cols[0]):
            raise CodecError("the matrices of one layer must share a width")
        alive = [
            np.unpackbits(image["index"], count=int(count)).astype(bool)
            for image, count in zip(matrix_payloads, rows)
        ]
        codes = [
            unpack_nibbles(image["codes"], int(mask.sum()) * int(cols[0]))
            for image, mask in zip(matrix_payloads, alive)
        ]
        return LayerPayload(
            codec=self.name,
            weight_shape=shape,
            arrays={
                "index": np.packbits(np.concatenate(alive)),
                "codes": pack_nibbles(np.concatenate(codes)),
                "basis": np.stack([image["basis"] for image in matrix_payloads]),
            },
            meta={
                "kind": kind,
                "plan": plan_to_json(plan),
                "cols": int(cols[0]),
                "rows": rows.tolist(),
                "p_min": p_min.tolist(),
                "p_max": p_max.tolist(),
                "basis_scale": [
                    float(image["basis_scale"][0]) for image in matrix_payloads
                ],
            },
        )

    # ------------------------------------------------------------------
    def decode(self, payload: LayerPayload) -> np.ndarray:
        check_codec(payload, self.name)
        if payload.meta.get("empty"):
            return decode_empty(payload)
        meta, arrays = payload.meta, payload.arrays
        rows = np.asarray(meta["rows"], dtype=np.intp)
        cols, total = int(meta["cols"]), int(rows.sum())
        alive = np.flatnonzero(np.unpackbits(arrays["index"], count=total))
        matrix_of_row = np.repeat(np.arange(rows.size), rows)[alive]
        codes = unpack_nibbles(arrays["codes"], alive.size * cols)
        table = _code_table(tuple(meta["p_min"]))
        flat = codes.reshape(-1, cols) + (matrix_of_row * 16)[:, None]
        coefficient = table.take(flat)
        basis = arrays["basis"] * np.asarray(meta["basis_scale"])[:, None, None]
        bases = basis.take(matrix_of_row, axis=0)
        products = np.einsum("rk,rks->rs", coefficient, bases)
        if rows.min() == 1:
            # numpy multiplies a one-row matrix through gemv, whose
            # summation order is not gemm's in-order one; rebuild those
            # rows the same way so the result stays bit-identical to a
            # per-matrix ``Ce @ B``.
            lone = rows[matrix_of_row] == 1
            products[lone] = np.matmul(
                coefficient[lone, None, :], bases[lone]
            )[:, 0]
        matrices = np.zeros((total, basis.shape[2]))
        matrices[alive] = products
        # Rows run unit-major (filter or FC row, then slice), so each
        # unit's rows are one contiguous block of the stacked matrix.
        plan = meta["plan"]
        units, width = plan["original_shape"][:2]
        weight = matrices.reshape(units, -1)
        if plan["kind"] == "fc" and weight.shape[1] != width:
            weight = np.ascontiguousarray(weight[:, :width])
        return weight.reshape(payload.weight_shape)

    def payload_bytes(self, payload: LayerPayload) -> int:
        check_codec(payload, self.name)
        if payload.meta.get("empty"):
            return 0
        # one ΩP anchor byte per matrix, as in core.serialize
        return payload.nbytes + payload_matrix_count(payload)


def payload_matrix_count(payload: LayerPayload) -> int:
    """Number of decomposed matrices stored in a smartexchange payload."""
    if payload.meta.get("empty"):
        return 0
    return len(payload.meta["rows"])
