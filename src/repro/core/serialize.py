"""Bit-exact serialization of the SmartExchange form.

Stores a compressed model the way the accelerator's DRAM would hold it:

- coefficient matrices as packed 4-bit codes (two per byte) for the
  surviving rows only,
- a 1-bit-per-row vector index bitmap (packed 8 per byte),
- basis matrices as 8-bit fixed point with a per-matrix scale,
- a small per-matrix header (the ΩP exponent anchor).

``save_compressed`` writes an ``.npz``; ``load_compressed`` rebuilds the
exact same weights the in-memory form rebuilds (bit-identical Ce, basis
within the 8-bit quantization).  The on-disk payload size matches the
analytic accounting of :mod:`repro.core.storage` up to byte rounding,
which is tested.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.config import SmartExchangeConfig
from repro.core.decompose import Decomposition
from repro.core.model_transform import ModelCompressionReport

_FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# Coefficient codes: 0 == zero, else 1 + sign * exponent-offset pairing
# ----------------------------------------------------------------------
def encode_coefficient_codes(
    coefficient: np.ndarray, p_min: int, p_max: int, ce_bits: int = 4
) -> np.ndarray:
    """Map Ce entries to integer codes in [0, 2**ce_bits).

    Code 0 is the in-row zero; codes 1.. encode (exponent-offset, sign)
    as ``1 + 2 * (p - p_min) + (sign < 0)``.
    """
    exponent_count = p_max - p_min + 1
    if 1 + 2 * exponent_count - 1 >= 2**ce_bits:
        raise ValueError(
            f"{exponent_count} exponents do not fit {ce_bits}-bit codes"
        )
    codes = np.zeros(coefficient.shape, dtype=np.uint8)
    nonzero = coefficient != 0
    if nonzero.any():
        values = coefficient[nonzero]
        exponents = np.round(np.log2(np.abs(values))).astype(np.int64)
        if exponents.min() < p_min or exponents.max() > p_max:
            raise ValueError("coefficient exponent outside the ΩP window")
        negative = (values < 0).astype(np.uint8)
        codes[nonzero] = 1 + 2 * (exponents - p_min).astype(np.uint8) + negative
    return codes


def decode_coefficient_codes(
    codes: np.ndarray, p_min: int
) -> np.ndarray:
    """Inverse of :func:`encode_coefficient_codes`."""
    codes = np.asarray(codes, dtype=np.int64)
    out = np.zeros(codes.shape, dtype=np.float64)
    nonzero = codes > 0
    if nonzero.any():
        payload = codes[nonzero] - 1
        exponents = payload // 2 + p_min
        signs = np.where(payload % 2 == 0, 1.0, -1.0)
        out[nonzero] = signs * 2.0**exponents
    return out


def coefficient_code_values(p_min, count: int = 16) -> np.ndarray:
    """What :func:`decode_coefficient_codes` maps codes ``0..count-1``
    to, as a table with one row per entry of ``p_min`` (a scalar
    anchor gives a single row of ``count`` values)."""
    payload = np.arange(count - 1)
    exponents = np.asarray(p_min, dtype=np.int64)[..., None] + payload // 2
    table = np.zeros(exponents.shape[:-1] + (count,))
    table[..., 1:] = np.where(payload % 2 == 0, 1.0, -1.0) * 2.0**exponents
    return table


def pack_nibbles(codes: np.ndarray) -> np.ndarray:
    """Pack 4-bit codes two-per-byte (little nibble first)."""
    flat = np.asarray(codes, dtype=np.uint8).reshape(-1)
    if flat.size % 2:
        flat = np.concatenate([flat, np.zeros(1, dtype=np.uint8)])
    return (flat[0::2] | (flat[1::2] << 4)).astype(np.uint8)


def unpack_nibbles(packed: np.ndarray, count: int) -> np.ndarray:
    """Inverse of :func:`pack_nibbles` (needs the original code count)."""
    packed = np.asarray(packed, dtype=np.uint8)
    low = packed & 0x0F
    high = packed >> 4
    flat = np.empty(packed.size * 2, dtype=np.uint8)
    flat[0::2] = low
    flat[1::2] = high
    return flat[:count]


# ----------------------------------------------------------------------
# Basis: 8-bit symmetric fixed point with a per-matrix scale
# ----------------------------------------------------------------------
def quantize_basis(basis: np.ndarray, bits: int = 8) -> Tuple[np.ndarray, float]:
    max_abs = float(np.abs(basis).max())
    if max_abs == 0.0:
        return np.zeros(basis.shape, dtype=np.int8), 1.0
    qmax = 2 ** (bits - 1) - 1
    scale = max_abs / qmax
    return np.round(basis / scale).astype(np.int8), scale


def dequantize_basis(codes: np.ndarray, scale: float) -> np.ndarray:
    return codes.astype(np.float64) * scale


# ----------------------------------------------------------------------
# Whole-decomposition payload
# ----------------------------------------------------------------------
def decomposition_payload(
    decomposition: Decomposition, config: SmartExchangeConfig
) -> Dict[str, np.ndarray]:
    """The DRAM image of one {Ce, B} pair."""
    coefficient = decomposition.coefficient
    alive = np.any(coefficient != 0, axis=1)
    codes = encode_coefficient_codes(
        coefficient[alive], decomposition.omega.p_min,
        decomposition.omega.p_max, config.ce_bits,
    )
    basis_codes, basis_scale = quantize_basis(decomposition.basis, config.b_bits)
    return {
        "index": np.packbits(alive.astype(np.uint8)),
        "codes": pack_nibbles(codes),
        "basis": basis_codes,
        "meta": np.array(
            [decomposition.omega.p_min, decomposition.omega.p_max,
             coefficient.shape[0], coefficient.shape[1]],
            dtype=np.int32,
        ),
        "basis_scale": np.array([basis_scale]),
    }


def payload_weight(payload: Dict[str, np.ndarray]) -> np.ndarray:
    """Rebuild ``W_hat = Ce B`` from a serialized payload."""
    p_min, _p_max, rows, cols = (int(v) for v in payload["meta"])
    alive = np.unpackbits(payload["index"])[:rows].astype(bool)
    alive_count = int(alive.sum())
    codes = unpack_nibbles(payload["codes"], alive_count * cols)
    coefficient = np.zeros((rows, cols))
    coefficient[alive] = decode_coefficient_codes(
        codes.reshape(alive_count, cols), p_min
    )
    basis = dequantize_basis(payload["basis"], float(payload["basis_scale"][0]))
    return coefficient @ basis


def payload_bytes(payload: Dict[str, np.ndarray]) -> int:
    """DRAM-image size: codes + index bitmap + basis + 1 anchor byte.

    The shape fields and the float basis scale are layer-descriptor
    metadata (the accelerator gets them from the compiled instructions),
    so they are excluded — matching the analytic accounting of
    :mod:`repro.core.storage` up to byte rounding.
    """
    image_keys = ("index", "codes", "basis")
    return sum(payload[key].nbytes for key in image_keys) + 1


# ----------------------------------------------------------------------
# Model-level save / load
# ----------------------------------------------------------------------
def save_compressed(path, report: ModelCompressionReport,
                    config: SmartExchangeConfig) -> int:
    """Write every layer's SmartExchange form to ``path`` (.npz).

    Returns the total payload bytes (excluding npz container overhead).
    """
    arrays: Dict[str, np.ndarray] = {
        "__format__": np.array([_FORMAT_VERSION]),
    }
    total = 0
    for layer_index, layer in enumerate(report.layers):
        for matrix_index, decomposition in enumerate(layer.decompositions):
            payload = decomposition_payload(decomposition, config)
            total += payload_bytes(payload)
            prefix = f"L{layer_index}.M{matrix_index}"
            for key, value in payload.items():
                arrays[f"{prefix}.{key}"] = value
        arrays[f"L{layer_index}.name"] = np.array([layer.name])
        arrays[f"L{layer_index}.count"] = np.array([len(layer.decompositions)])
    arrays["__layers__"] = np.array([len(report.layers)])
    np.savez_compressed(path, **arrays)
    return total


def load_payloads(path) -> Dict[str, List[Dict[str, np.ndarray]]]:
    """Read a saved model without rebuilding: {layer name: [payload, ...]}.

    The payloads stay in the packed DRAM-image form (nibble codes, index
    bitmap, int8 basis), so the caller decides when to pay the rebuild
    compute.  Serving reads this layout through
    :class:`repro.codecs.LazyPayloadFile`, which stacks each layer into
    one smartexchange codec payload.
    """
    with np.load(path, allow_pickle=False) as data:
        version = int(data["__format__"][0])
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported format version {version}")
        out: Dict[str, List[Dict[str, np.ndarray]]] = {}
        for layer_index in range(int(data["__layers__"][0])):
            name = str(data[f"L{layer_index}.name"][0])
            count = int(data[f"L{layer_index}.count"][0])
            payloads = []
            for matrix_index in range(count):
                prefix = f"L{layer_index}.M{matrix_index}"
                payloads.append({
                    key: data[f"{prefix}.{key}"]
                    for key in ("index", "codes", "basis", "meta", "basis_scale")
                })
            out[name] = payloads
    return out


def load_compressed(path) -> Dict[str, List[np.ndarray]]:
    """Read a saved model: {layer name: [rebuilt matrix, ...]}."""
    return {
        name: [payload_weight(payload) for payload in payloads]
        for name, payloads in load_payloads(path).items()
    }
