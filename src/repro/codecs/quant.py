"""Quantization codecs: linear, power-of-2, and FP8 stored forms.

These are the storage halves of the baselines in
:mod:`repro.compression.quantization`: the quantizers there snap live
model weights onto a value grid; the codecs here store grid *codes*
compactly and reproduce the snapped values exactly on decode.  Encoding
an already-snapped weight is lossless; encoding a raw weight commits
the same approximation the corresponding quantizer would.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from repro.codecs.base import (
    LayerPayload,
    check_codec,
    decode_empty,
    empty_payload,
)
from repro.core.omega import fit_omega, quantize_to_omega
from repro.core.serialize import (
    coefficient_code_values,
    encode_coefficient_codes,
    pack_nibbles,
)


@lru_cache(maxsize=256)
def _pow2_table(p_min: int, bits: int, packed: bool) -> np.ndarray:
    """Decoded values indexed by stored code: a ``(256, 2)`` table of
    (low, high) nibble values per packed byte, or ``2**bits`` entries
    for unpacked codes."""
    if not packed:
        table = coefficient_code_values(p_min, 2**bits)
    else:
        values = coefficient_code_values(p_min, 16)
        byte = np.arange(256)
        table = np.stack([values[byte & 0x0F], values[byte >> 4]], axis=1)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _fp8_table(exponent_bits: int, mantissa_bits: int) -> np.ndarray:
    """The value of each of the 256 FP8 bytes."""
    bias, steps = 2 ** (exponent_bits - 1), 2**mantissa_bits
    raw = np.arange(256)
    exp_field = (raw >> mantissa_bits) & (2**exponent_bits - 1)
    mantissa = raw & (steps - 1)
    sign = np.where(raw >> 7 == 0, 1.0, -1.0)
    normal = sign * (1.0 + mantissa / steps) * 2.0 ** (exp_field - bias)
    subnormal = sign * mantissa * 2.0 ** (1 - bias - mantissa_bits)
    table = np.where(exp_field == 0, subnormal, normal)
    table.setflags(write=False)
    return table


class LinearQuantCodec:
    """Symmetric linear quantization: int codes + one FP32 scale.

    ``bits`` picks the code width (8 -> int8 codes, the S8 family).
    The scale is data-driven (``max|w| / qmax``), so weights already on
    a symmetric grid — :class:`~repro.compression.quantization.
    LinearQuantizer` output, or DoReFa grids at ``bits = k + 1`` —
    round-trip exactly.
    """

    name = "quant-linear"

    def __init__(self, bits: int = 8) -> None:
        if not 2 <= bits <= 32:
            raise ValueError("bits must be in [2, 32]")
        self.bits = bits

    def encode(self, weight: np.ndarray) -> LayerPayload:
        weight = np.asarray(weight, dtype=np.float64)
        if weight.size == 0:
            return empty_payload(self.name, weight.shape)
        qmax = 2 ** (self.bits - 1) - 1
        max_abs = float(np.abs(weight).max())
        scale = max_abs / qmax if max_abs else 1.0
        dtype = (
            np.int8 if self.bits <= 8
            else np.int16 if self.bits <= 16
            else np.int32
        )
        codes = np.round(weight / scale).astype(dtype)
        return LayerPayload(
            codec=self.name,
            weight_shape=tuple(weight.shape),
            arrays={"q": codes},
            meta={"scale": scale, "bits": self.bits},
        )

    def decode(self, payload: LayerPayload) -> np.ndarray:
        check_codec(payload, self.name)
        if payload.meta.get("empty"):
            return decode_empty(payload)
        scale = float(payload.meta["scale"])
        return payload.arrays["q"].astype(np.float64) * scale

    def payload_bytes(self, payload: LayerPayload) -> int:
        check_codec(payload, self.name)
        if payload.meta.get("empty"):
            return 0
        size = int(np.prod(payload.weight_shape, dtype=np.int64))
        bits = int(payload.meta["bits"])
        # codes at the target width plus the FP32 scale
        return -(-size * bits // 8) + 4


class Pow2QuantCodec:
    """Power-of-two weights: sign/exponent codes over a fitted ΩP window.

    The quantization half of SmartExchange without the decomposition
    (the paper's [40] baseline).  Codes reuse the accelerator's
    coefficient coding — 0 is the stored zero, other codes pack
    (exponent offset, sign) — and are nibble-packed at ``bits <= 4``.
    """

    name = "quant-pow2"

    def __init__(self, bits: int = 4) -> None:
        if not 2 <= bits <= 8:
            raise ValueError("bits must be in [2, 8]")
        self.bits = bits

    def encode(self, weight: np.ndarray) -> LayerPayload:
        weight = np.asarray(weight, dtype=np.float64)
        if weight.size == 0 or not np.any(weight):
            payload = empty_payload(self.name, weight.shape)
            return payload
        exponent_count = 2 ** (self.bits - 1) - 1
        omega = fit_omega(weight, exponent_count)
        snapped = quantize_to_omega(weight, omega)
        codes = encode_coefficient_codes(
            snapped, omega.p_min, omega.p_max, ce_bits=self.bits
        )
        packed = self.bits <= 4
        return LayerPayload(
            codec=self.name,
            weight_shape=tuple(weight.shape),
            arrays={"codes": pack_nibbles(codes) if packed else codes.reshape(-1)},
            meta={
                "p_min": omega.p_min,
                "p_max": omega.p_max,
                "bits": self.bits,
                "packed": packed,
            },
        )

    def decode(self, payload: LayerPayload) -> np.ndarray:
        check_codec(payload, self.name)
        if payload.meta.get("empty"):
            return decode_empty(payload)
        meta = payload.meta
        table = _pow2_table(
            int(meta["p_min"]), int(meta["bits"]), bool(meta["packed"])
        )
        values = table.take(payload.arrays["codes"], axis=0).reshape(-1)
        size = math.prod(payload.weight_shape)
        return values[:size].reshape(payload.weight_shape)

    def payload_bytes(self, payload: LayerPayload) -> int:
        check_codec(payload, self.name)
        if payload.meta.get("empty"):
            return 0
        size = int(np.prod(payload.weight_shape, dtype=np.int64))
        return -(-size * int(payload.meta["bits"]) // 8)


class FP8Codec:
    """8-bit floating point: one ``s|e..e|m..m`` byte per weight.

    The split between exponent and mantissa bits is configurable (e4m3
    by default, e5m2 the other common choice); the split travels in the
    payload meta, so decode needs no codec configuration.  Normal
    values are ``(-1)^s * (1 + m/2^mb) * 2^(E - 2^(eb-1))`` with
    exponent field ``E`` in [1, 2^eb - 1]; field 0 holds subnormals
    ``(-1)^s * m/2^mb * 2^(1 - 2^(eb-1))`` (m = 0 is zero).
    Magnitudes beyond the top normal saturate.  This reproduces the
    value snapping of the FP8-training baseline
    (:class:`~repro.compression.quantization.FP8Quantizer`) bit-for-bit
    over the weight range it is used on.
    """

    name = "quant-fp8"

    def __init__(self, exponent_bits: int = 4, mantissa_bits: int = 3) -> None:
        if exponent_bits + mantissa_bits != 7:
            raise ValueError("FP8 needs exponent_bits + mantissa_bits == 7")
        self.exponent_bits = exponent_bits
        self.mantissa_bits = mantissa_bits

    def encode(self, weight: np.ndarray) -> LayerPayload:
        weight = np.asarray(weight, dtype=np.float64)
        if weight.size == 0:
            return empty_payload(self.name, weight.shape)
        eb, mb = self.exponent_bits, self.mantissa_bits
        bias = 2 ** (eb - 1)
        exp_max = bias - 1  # FP8Quantizer clips exponents to +/- this
        steps = 2**mb
        flat = weight.reshape(-1)
        magnitude = np.abs(flat)
        bytes_out = np.zeros(flat.size, dtype=np.uint8)
        nonzero = magnitude > 0
        if np.any(nonzero):
            mag = magnitude[nonzero]
            exp = np.floor(np.log2(mag)).astype(np.int64)
            mantissa = np.round((mag / 2.0**exp - 1.0) * steps).astype(np.int64)
            # A mantissa that rounded up to 2.0 renormalizes upward.
            carry = mantissa == steps
            exp[carry] += 1
            mantissa[carry] = 0
            high = exp > exp_max
            exp[high], mantissa[high] = exp_max, steps - 1
            sign = (flat[nonzero] < 0).astype(np.uint8)
            encoded = (
                (sign << 7)
                | ((exp + bias).astype(np.uint8) << mb)
                | mantissa.astype(np.uint8)
            )
            # Below the smallest normal, store the subnormal code
            # m = round(|w| * 2^(exp_max + mb)) in [0, steps]; `steps`
            # lands exactly on the exponent-field-1 bit, i.e. the
            # smallest normal, 2^-exp_max.
            low = exp < -exp_max
            if np.any(low):
                sub = np.round(mag[low] * 2.0 ** (exp_max + mb)).astype(
                    np.int64
                )
                encoded[low] = (sign[low] << 7) | np.minimum(
                    sub, steps
                ).astype(np.uint8)
            bytes_out[nonzero] = encoded
        return LayerPayload(
            codec=self.name,
            weight_shape=tuple(weight.shape),
            arrays={"fp8": bytes_out},
            meta={"exponent_bits": eb, "mantissa_bits": mb},
        )

    def decode(self, payload: LayerPayload) -> np.ndarray:
        check_codec(payload, self.name)
        if payload.meta.get("empty"):
            return decode_empty(payload)
        table = _fp8_table(
            int(payload.meta["exponent_bits"]), int(payload.meta["mantissa_bits"])
        )
        return table.take(payload.arrays["fp8"]).reshape(payload.weight_shape)

    def payload_bytes(self, payload: LayerPayload) -> int:
        check_codec(payload, self.name)
        return payload.nbytes
