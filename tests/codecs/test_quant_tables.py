"""Table-driven decode of the power-of-2 and FP8 codecs.

Both decoders index a cached value table instead of recomputing
``sign * 2**exponent`` per element.  Every stored code and byte must
decode bit-identically to the per-element formulas the tables replace.
"""

import numpy as np
import pytest

from repro.codecs import LayerPayload, get_codec
from repro.core.serialize import decode_coefficient_codes, unpack_nibbles


def bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


def fp8_formula(raw: np.ndarray, eb: int, mb: int) -> np.ndarray:
    """The arithmetic FP8 decode the table replaced."""
    bias, steps = 2 ** (eb - 1), 2**mb
    raw = raw.astype(np.int64)
    exp_field = (raw >> mb) & (2**eb - 1)
    mantissa = raw & (steps - 1)
    sign = np.where(raw >> 7 == 0, 1.0, -1.0)
    normal = sign * (1.0 + mantissa / steps) * 2.0 ** (exp_field - bias)
    subnormal = sign * mantissa * 2.0 ** (1 - bias - mb)
    return np.where(exp_field == 0, subnormal, normal)


@pytest.mark.parametrize("p_min", [-20, -7, 0, 3])
@pytest.mark.parametrize("bits_", range(2, 9))
class TestPow2Table:
    def test_every_packed_byte(self, bits_, p_min):
        stored = np.arange(256, dtype=np.uint8)
        payload = LayerPayload(
            codec="quant-pow2",
            weight_shape=(2 * stored.size,),
            arrays={"codes": stored},
            meta={"p_min": p_min, "p_max": p_min, "bits": bits_, "packed": True},
        )
        expected = decode_coefficient_codes(
            unpack_nibbles(stored, 2 * stored.size), p_min
        )
        decoded = get_codec("quant-pow2").decode(payload)
        np.testing.assert_array_equal(bits(decoded), bits(expected))

    def test_odd_count_drops_the_pad_nibble(self, bits_, p_min):
        stored = np.array([0x21, 0xF3], dtype=np.uint8)
        payload = LayerPayload(
            codec="quant-pow2",
            weight_shape=(3, 1),
            arrays={"codes": stored},
            meta={"p_min": p_min, "p_max": p_min, "bits": bits_, "packed": True},
        )
        expected = decode_coefficient_codes(unpack_nibbles(stored, 3), p_min)
        decoded = get_codec("quant-pow2").decode(payload)
        np.testing.assert_array_equal(bits(decoded), bits(expected[:, None]))

    def test_every_unpacked_code(self, bits_, p_min):
        codes = np.arange(2**bits_, dtype=np.uint8)
        payload = LayerPayload(
            codec="quant-pow2",
            weight_shape=(codes.size,),
            arrays={"codes": codes},
            meta={"p_min": p_min, "p_max": p_min, "bits": bits_, "packed": False},
        )
        expected = decode_coefficient_codes(codes, p_min)
        decoded = get_codec("quant-pow2").decode(payload)
        np.testing.assert_array_equal(bits(decoded), bits(expected))


@pytest.mark.parametrize("eb, mb", [(4, 3), (5, 2)])
def test_fp8_every_byte(eb, mb):
    raw = np.arange(256, dtype=np.uint8)
    payload = LayerPayload(
        codec="quant-fp8",
        weight_shape=(16, 16),
        arrays={"fp8": raw},
        meta={"exponent_bits": eb, "mantissa_bits": mb},
    )
    decoded = get_codec("quant-fp8").decode(payload)
    expected = fp8_formula(raw, eb, mb).reshape(16, 16)
    np.testing.assert_array_equal(bits(decoded), bits(expected))


def test_decode_returns_a_fresh_writable_array():
    codec = get_codec("quant-fp8")
    payload = codec.encode(np.linspace(-2, 2, 12).reshape(3, 4))
    first = codec.decode(payload)
    first[...] = 0
    assert codec.decode(payload).any()
