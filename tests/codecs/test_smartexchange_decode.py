"""The stacked smartexchange decode against the per-matrix reference.

``SmartExchangeCodec.decode`` rebuilds a whole layer in one pass over a
stacked payload.  Every case here checks it bit for bit against
``from_matrices([payload_weight(image) ...], plan)``: each matrix's
``core.serialize`` DRAM image decoded on its own, then reassembled by
the reshape plan.  Layers are drawn by hypothesis over the reshape
rules (k x k conv, pointwise conv, FC with and without padding, sliced
plans with an uneven last slice), with matrices whose rows are all dead
mixed in.  A hand-written format-2 ``weights.npz`` (per-matrix
``m{j}.*`` keys) must load into the stacked layout and decode to the
same bits.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codecs import (
    LazyPayloadFile,
    SmartExchangeCodec,
    get_codec,
    payload_matrix_count,
)
from repro.codecs.smartexchange import plan_to_json
from repro.core import SmartExchangeConfig
from repro.core.decompose import Decomposition, DecompositionHistory
from repro.core.layer_transform import compress_conv_weight, compress_fc_weight
from repro.core.omega import OmegaSet
from repro.core.reshape import from_matrices, plan_conv, plan_fc, to_matrices
from repro.core.serialize import (
    decode_coefficient_codes,
    decomposition_payload,
    payload_weight,
)

CONFIG = SmartExchangeConfig()  # 4-bit Ce codes, 8-bit basis
EXPONENTS = 2 ** (CONFIG.ce_bits - 1) - 1


def bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


def random_decomposition(rng, rows: int, width: int, dead: float) -> Decomposition:
    """A {Ce, B} pair with codes drawn over a random ΩP window; each row
    is dead with probability ``dead`` (``dead=1`` kills the matrix)."""
    p_min = int(rng.integers(-12, 4))
    codes = rng.integers(0, 2 * EXPONENTS + 1, size=(rows, width))
    codes[rng.random(rows) < dead] = 0
    coefficient = decode_coefficient_codes(codes, p_min)
    basis = rng.normal(size=(width, width))
    return Decomposition(
        coefficient=coefficient,
        basis=basis,
        omega=OmegaSet(p_min, p_min + EXPONENTS - 1),
        iterations=0,
        history=DecompositionHistory(),
        original_shape=(rows, width),
    )


def random_layer(rng, kind: str, shape, basis_size: int, max_rows, dead):
    """Per-matrix DRAM images of a random layer plus its plan."""
    if kind == "conv":
        plan = plan_conv(shape, max_rows)
    else:
        plan = plan_fc(shape, basis_size, max_rows)
    images = []
    for matrix in to_matrices(np.zeros(plan.original_shape), plan):
        kill = dead if rng.random() < 0.8 else 1.0
        decomposition = random_decomposition(
            rng, matrix.shape[0], matrix.shape[1], kill
        )
        images.append(decomposition_payload(decomposition, CONFIG))
    return images, plan


def reference(images, plan, weight_shape) -> np.ndarray:
    matrices = [payload_weight(image) for image in images]
    return from_matrices(matrices, plan).reshape(weight_shape)


def assert_stacked_decode_matches(images, kind, plan) -> None:
    codec = SmartExchangeCodec()
    payload = codec.payload_from_matrices(images, kind, plan)
    assert sorted(payload.arrays) == ["basis", "codes", "index"]
    assert payload_matrix_count(payload) == len(images)
    decoded = codec.decode(payload)
    expected = reference(images, plan, payload.weight_shape)
    assert decoded.shape == expected.shape == payload.weight_shape
    np.testing.assert_array_equal(bits(decoded), bits(expected))


layer_cases = st.one_of(
    st.tuples(
        st.just("conv"),
        st.tuples(
            st.integers(1, 6), st.integers(1, 5), st.sampled_from([2, 3, 5]),
        ).map(lambda t: (t[0], t[1], t[2], t[2])),
        st.just(0),
    ),
    st.tuples(
        st.just("pointwise"),
        st.tuples(st.integers(1, 6), st.integers(1, 20)),
        st.integers(1, 6),
    ),
    # Basis widths up to 16: past that the reference's BLAS gemm stops
    # summing in order (e.g. OpenBLAS at widths 17-31), so a per-matrix
    # ``Ce @ B`` and the in-order bulk product can differ by an ulp.
    st.tuples(
        st.just("fc"),
        st.tuples(st.integers(1, 6), st.integers(1, 40)),
        st.integers(1, 16),
    ),
)


class TestStackedDecodeParity:
    @settings(max_examples=120, deadline=None)
    @given(
        case=layer_cases,
        max_rows=st.one_of(st.none(), st.integers(1, 7)),
        dead=st.sampled_from([0.0, 0.5, 0.9]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bitwise_equal_to_per_matrix_reference(
        self, case, max_rows, dead, seed
    ):
        kind, shape, basis_size = case
        rng = np.random.default_rng(seed)
        images, plan = random_layer(rng, kind, shape, basis_size, max_rows, dead)
        assert_stacked_decode_matches(images, kind, plan)

    def test_fc_padding_and_uneven_last_slice(self):
        # C % S != 0 pads each FC row; 11 padded rows cut into slices of
        # 4 leaves a short last slice (4, 4, 3).
        rng = np.random.default_rng(7)
        images, plan = random_layer(rng, "fc", (3, 41), 4, 4, 0.3)
        assert plan.padded_cols != 41
        assert plan.unit_rows % plan.slice_rows != 0
        assert_stacked_decode_matches(images, "fc", plan)

    def test_every_matrix_dead(self):
        rng = np.random.default_rng(8)
        images, plan = random_layer(rng, "conv", (4, 2, 3, 3), 3, None, 1.0)
        payload = SmartExchangeCodec().payload_from_matrices(images, "conv", plan)
        assert payload.arrays["codes"].size == 0
        assert not SmartExchangeCodec().decode(payload).any()
        assert_stacked_decode_matches(images, "conv", plan)

    def test_pointwise_decodes_to_4d(self):
        rng = np.random.default_rng(9)
        images, plan = random_layer(rng, "pointwise", (5, 7), 3, None, 0.5)
        payload = SmartExchangeCodec().payload_from_matrices(
            images, "pointwise", plan
        )
        assert payload.meta["plan"]["kind"] == "fc"
        assert SmartExchangeCodec().decode(payload).shape == (5, 7, 1, 1)
        assert_stacked_decode_matches(images, "pointwise", plan)

    @pytest.mark.parametrize("shape", [(0, 3, 3, 3), (0, 5)])
    def test_empty_weight(self, shape):
        codec = get_codec("smartexchange")
        payload = codec.encode(np.zeros(shape))
        assert payload_matrix_count(payload) == 0
        assert codec.payload_bytes(payload) == 0
        decoded = codec.decode(payload)
        assert decoded.shape == shape

    @pytest.mark.parametrize(
        "weight_shape", [(6, 3, 3, 3), (6, 4, 1, 1), (5, 10)]
    )
    def test_encoded_layer_matches_its_decompositions(self, weight_shape):
        weight = np.random.default_rng(1).normal(size=weight_shape)
        config = SmartExchangeConfig(max_iterations=3, target_row_sparsity=0.5)
        if len(weight_shape) == 4:
            compression = compress_conv_weight(weight, config)
        else:
            compression = compress_fc_weight(weight, config)
        codec = SmartExchangeCodec(config)
        payload = codec.payload_from_compression(compression, config)
        images = [
            decomposition_payload(d, config) for d in compression.decompositions
        ]
        expected = reference(images, compression.plan, payload.weight_shape)
        np.testing.assert_array_equal(
            bits(codec.decode(payload)), bits(expected)
        )
        # The stacked image is at most the per-matrix images' bytes:
        # only the per-matrix byte padding goes away.
        per_matrix = sum(
            image[key].nbytes + (key == "index")
            for image in images
            for key in ("index", "codes", "basis")
        )
        assert codec.payload_bytes(payload) <= per_matrix


class TestCodeTableCache:
    def test_cached_table_is_read_only(self):
        # The table lives in the payload's prepared state, which every
        # decode of the layer shares: it must not be writable, and
        # reusing it must give the fresh decode's bits.
        rng = np.random.default_rng(12)
        images, plan = random_layer(rng, "fc", (4, 9), 3, 2, 0.0)
        codec = SmartExchangeCodec()
        payload = codec.payload_from_matrices(images, "fc", plan)
        prepared = codec.prepare(payload)
        table = prepared.arrays["table"]
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[1] = 0.0
        expected = bits(codec.decode(payload))
        for _ in range(2):
            np.testing.assert_array_equal(
                bits(codec.decode(payload, prepared)), expected
            )

    def test_interleaved_anchors_decode_their_own_bits(self):
        # Same plan and shape, different ΩP anchors: a table served
        # from the wrong cache entry would give the other layer's bits.
        rng = np.random.default_rng(13)
        codec = SmartExchangeCodec()
        layers = []
        while len({tuple(p.meta["p_min"]) for p, _ in layers}) < 4:
            images, plan = random_layer(rng, "conv", (3, 2, 3, 3), 0, None, 0.3)
            payload = codec.payload_from_matrices(images, "conv", plan)
            expected = reference(images, plan, payload.weight_shape)
            layers.append((payload, expected))
        for _ in range(3):
            for payload, expected in layers + layers[::-1]:
                np.testing.assert_array_equal(
                    bits(codec.decode(payload)), bits(expected)
                )


def write_format2(path, name, images, kind, plan, weight_shape) -> None:
    """A format-2 ``weights.npz`` the way earlier releases wrote it:
    one ``m{j}.index`` / ``m{j}.codes`` / ``m{j}.basis`` triple per
    matrix and a ``matrices`` list of per-matrix scalars."""
    arrays = {}
    matrices = []
    for j, image in enumerate(images):
        for key in ("index", "codes", "basis"):
            arrays[f"m{j}.{key}"] = image[key]
        p_min, p_max, rows, cols = (int(v) for v in image["meta"])
        matrices.append({
            "p_min": p_min, "p_max": p_max, "rows": rows, "cols": cols,
            "basis_scale": float(image["basis_scale"][0]),
        })
    meta = {"kind": kind, "plan": plan_to_json(plan), "matrices": matrices}
    keys = sorted(arrays)
    np.savez_compressed(
        path,
        __format__=np.array([2]),
        __layers__=np.array([1]),
        **{
            "L0.name": np.array([name]),
            "L0.codec": np.array(["smartexchange"]),
            "L0.shape": np.array(weight_shape, dtype=np.int64),
            "L0.meta": np.array([json.dumps(meta)]),
            "L0.keys": np.array(keys, dtype=np.str_),
        },
        **{f"L0.A.{key}": arrays[key] for key in keys},
    )


class TestFormat2Bundles:
    @pytest.mark.parametrize(
        "kind, shape, basis_size, max_rows",
        [
            ("conv", (4, 3, 3, 3), 3, None),
            ("fc", (3, 13), 4, 2),
            ("pointwise", (4, 6), 3, None),
        ],
    )
    def test_loads_stacked_and_decodes_bitwise(
        self, tmp_path, kind, shape, basis_size, max_rows
    ):
        rng = np.random.default_rng(11)
        images, plan = random_layer(rng, kind, shape, basis_size, max_rows, 0.5)
        weight_shape = shape + (1, 1) if kind == "pointwise" else shape
        path = tmp_path / "weights.npz"
        write_format2(path, "layer", images, kind, plan, weight_shape)
        with LazyPayloadFile(path) as payloads:
            payload = payloads["layer"]
        assert sorted(payload.arrays) == ["basis", "codes", "index"]
        assert "matrices" not in payload.meta
        assert payload_matrix_count(payload) == len(images)
        decoded = get_codec("smartexchange").decode(payload)
        np.testing.assert_array_equal(
            bits(decoded), bits(reference(images, plan, weight_shape))
        )
