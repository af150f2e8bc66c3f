"""Pluggable weight codecs: one encode/decode contract from compression
to serving.

Every stored-weight scheme in the paper — the SmartExchange
``{B, Ce, index}`` decomposition and all the baselines it is compared
against — implements the same :class:`WeightCodec` protocol here, so
the artifact store publishes, and the serving engine rebuilds, any of
them interchangeably (the ``codec`` field of a bundle manifest picks
the decoder).

Registered codecs:

=================  ====================================================
``dense``          FP32 passthrough (the uncompressed baseline)
``smartexchange``  basis + power-of-2 sparse coefficients (the paper)
``prune-csr``      magnitude-pruned values as CSR + presence bitmap
``quant-linear``   symmetric linear int quantization (S8 family)
``quant-pow2``     power-of-two weights over a fitted ΩP window
``quant-fp8``      8-bit floating point (s|eeee|mmm)
=================  ====================================================

Typical use::

    from repro import codecs

    codec = codecs.get_codec("quant-linear")
    payload = codec.encode(weight)          # LayerPayload
    restored = codec.decode(payload)        # dense ndarray
    prepared = codec.prepare(payload)       # smartexchange, prune-csr
    restored = codec.decode(payload, prepared)  # same bits, less work
    stored = codec.payload_bytes(payload)   # analytic bytes
"""

from repro.codecs.base import (
    CodecError,
    LayerPayload,
    PreparedPayload,
    WeightCodec,
    codec_names,
    encode_model,
    get_codec,
    register_codec,
)
from repro.codecs.dense import DenseCodec
from repro.codecs.quant import FP8Codec, LinearQuantCodec, Pow2QuantCodec
from repro.codecs.smartexchange import SmartExchangeCodec, payload_matrix_count
from repro.codecs.sparse import PruneCSRCodec
from repro.codecs.store import (
    PAYLOAD_FORMAT,
    LazyPayloadFile,
    write_payloads_npz,
)

register_codec("dense", DenseCodec)
register_codec("smartexchange", SmartExchangeCodec)
register_codec("prune-csr", PruneCSRCodec)
register_codec("quant-linear", LinearQuantCodec)
register_codec("quant-pow2", Pow2QuantCodec)
register_codec("quant-fp8", FP8Codec)

__all__ = [
    "CodecError",
    "LayerPayload",
    "PreparedPayload",
    "WeightCodec",
    "register_codec",
    "get_codec",
    "codec_names",
    "encode_model",
    "DenseCodec",
    "SmartExchangeCodec",
    "payload_matrix_count",
    "PruneCSRCodec",
    "LinearQuantCodec",
    "Pow2QuantCodec",
    "FP8Codec",
    "LazyPayloadFile",
    "write_payloads_npz",
    "PAYLOAD_FORMAT",
]
