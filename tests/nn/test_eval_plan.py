"""The tape-free eval plan against the autograd forward it replaces."""

from __future__ import annotations

import tracemalloc
import weakref

import numpy as np
import pytest

from repro import nn
from repro.nn import models
from repro.nn.plan import compile_eval
from repro.nn.tensor import Tensor

RTOL = 1e-10


def assert_matches(plan_out: np.ndarray, ref: np.ndarray) -> None:
    """Agreement to ``RTOL`` relative to the output's scale."""
    assert plan_out.shape == ref.shape
    scale = max(float(np.abs(ref).max()), 1e-300)
    assert float(np.abs(plan_out - ref).max()) <= RTOL * scale


def randomize_bn(model: nn.Module, rng: np.random.Generator) -> None:
    for module in model.modules():
        if isinstance(module, (nn.BatchNorm1d, nn.BatchNorm2d)):
            c = module.num_features
            module.running_mean[...] = rng.normal(size=c) * 0.2
            module.running_var[...] = rng.uniform(0.5, 2.0, size=c)
            module.gamma.data[...] = rng.uniform(0.5, 1.5, size=c)
            module.beta.data[...] = rng.normal(size=c) * 0.2


def reference(model: nn.Module, x: np.ndarray) -> np.ndarray:
    return model(Tensor(x)).data


def bench_cnn(seed: int = 1) -> nn.Module:
    """The serving benchmark's model layout."""
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Conv2d(3, 16, 3, padding=1, bias=False, rng=rng),
        nn.BatchNorm2d(16),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Conv2d(16, 32, 3, padding=1, bias=False, rng=rng),
        nn.BatchNorm2d(32),
        nn.ReLU(),
        nn.GlobalAvgPool2d(),
        nn.Flatten(),
        nn.Linear(32, 10, rng=rng),
    ).eval()


# Every constructor in the zoo at its smallest test width.
ZOO = {
    "vgg11": (lambda: models.vgg11(num_classes=7, width_mult=0.125), (3, 32, 32)),
    "vgg19": (lambda: models.vgg19(num_classes=10, width_mult=0.125), (3, 32, 32)),
    "resnet50": (lambda: models.resnet50(num_classes=5, width_mult=0.125), (3, 32, 32)),
    "resnet164": (lambda: models.resnet164(num_classes=10, width_mult=0.125), (3, 16, 16)),
    "resnet_cifar": (
        lambda: models.resnet_cifar(29, num_classes=4, width_mult=0.125),
        (3, 16, 16),
    ),
    "mobilenet_v2": (
        lambda: models.mobilenet_v2(num_classes=6, width_mult=0.125),
        (3, 32, 32),
    ),
    "efficientnet_b0": (
        lambda: models.efficientnet_b0(num_classes=6, width_mult=0.125),
        (3, 32, 32),
    ),
    "deeplabv3plus": (
        lambda: models.deeplabv3plus(
            num_classes=3, width_mult=0.125, aspp_channels=32
        ),
        (3, 32, 32),
    ),
    "mlp_1": (lambda: models.mlp_1(width_mult=0.01), (1, 28, 28)),
    "mlp_2": (lambda: models.mlp_2(width_mult=0.05), (1, 28, 28)),
}


class TestZooParity:
    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_whole_model_and_every_sequential(self, name, monkeypatch):
        """The whole model (a custom-forward root, so one fallback step)
        and every ``Sequential`` inside it — compiled at the input
        shape it sees in the real forward — match autograd at batch 1
        and 4."""
        ctor, shape = ZOO[name]
        rng = np.random.default_rng(0)
        model = ctor()
        randomize_bn(model, rng)
        model.eval()

        inputs = {}
        forward = nn.Sequential.forward

        def recording(self, x):
            inputs.setdefault(id(self), (self, tuple(x.shape[1:])))
            return forward(self, x)

        plan = compile_eval(model, shape)
        for batch in (1, 4):
            x = rng.normal(size=(batch, *shape))
            monkeypatch.setattr(nn.Sequential, "forward", recording)
            ref = reference(model, x)
            monkeypatch.setattr(nn.Sequential, "forward", forward)
            assert_matches(plan(x), ref)
        assert inputs, "every zoo model contains a Sequential"
        for module, sub_shape in inputs.values():
            sub_plan = compile_eval(module, sub_shape)
            for batch in (1, 4):
                x = rng.normal(size=(batch, *sub_shape))
                assert_matches(sub_plan(x), reference(module, x))


def check_layout(layers, shape, batch=3, seed=0) -> "nn.plan.EvalPlan":
    rng = np.random.default_rng(seed)
    model = nn.Sequential(*layers)
    randomize_bn(model, rng)
    model.eval()
    plan = compile_eval(model, shape)
    x = rng.normal(size=(batch, *shape))
    assert_matches(plan(x), reference(model, x))
    return plan


class TestOpCoverage:
    def test_grouped_conv(self, rng):
        plan = check_layout(
            [nn.Conv2d(4, 6, 3, padding=1, groups=2, rng=rng), nn.BatchNorm2d(6)],
            (4, 7, 7),
        )
        assert plan.steps == ["conv+bn"]

    def test_grouped_pointwise_conv(self, rng):
        check_layout([nn.Conv2d(4, 8, 1, groups=4, rng=rng), nn.ReLU()], (4, 5, 5))

    def test_depthwise_conv_with_stride_and_relu6(self, rng):
        plan = check_layout(
            [
                nn.Conv2d(5, 5, 3, stride=2, padding=1, groups=5, bias=False, rng=rng),
                nn.BatchNorm2d(5),
                nn.ReLU6(),
            ],
            (5, 9, 9),
        )
        assert plan.steps == ["conv+bn+relu6"]

    def test_dilated_conv(self, rng):
        check_layout(
            [nn.Conv2d(3, 4, 3, padding=2, dilation=2, rng=rng), nn.SiLU()],
            (3, 9, 9),
        )

    def test_dilated_depthwise_conv(self, rng):
        check_layout(
            [nn.Conv2d(4, 4, 3, padding=2, dilation=2, groups=4, rng=rng)],
            (4, 8, 8),
        )

    def test_strided_pointwise_conv(self, rng):
        check_layout([nn.Conv2d(3, 4, 1, stride=2, rng=rng)], (3, 7, 7))

    def test_padded_max_pool(self):
        plan = check_layout([nn.MaxPool2d(3, stride=2, padding=1)], (2, 9, 9))
        assert plan.steps == ["maxpool"]

    def test_max_pool_of_all_negative_input_keeps_padding_out(self):
        model = nn.Sequential(nn.MaxPool2d(3, stride=2, padding=1)).eval()
        x = -1.0 - np.random.default_rng(0).random((2, 2, 5, 5))
        np.testing.assert_array_equal(
            compile_eval(model, (2, 5, 5))(x), reference(model, x)
        )

    def test_avg_pool(self):
        check_layout([nn.AvgPool2d(2)], (3, 8, 8))
        check_layout([nn.AvgPool2d(3, stride=1, padding=1)], (3, 6, 6))

    def test_batchnorm1d_folded_into_linear_and_standalone(self, rng):
        plan = check_layout(
            [
                nn.Flatten(),
                nn.BatchNorm1d(12),
                nn.Linear(12, 6, rng=rng),
                nn.BatchNorm1d(6),
                nn.ReLU(),
                nn.Linear(6, 3, rng=rng),
                nn.Sigmoid(),
            ],
            (3, 2, 2),
        )
        assert plan.steps == ["bn", "linear+bn+relu", "linear", "sigmoid"]

    def test_identity_and_eval_dropout_are_free(self, rng):
        plan = check_layout(
            [nn.Identity(), nn.Flatten(), nn.Dropout(0.5), nn.Linear(8, 2, rng=rng)],
            (2, 2, 2),
        )
        assert plan.steps == ["linear"]

    def test_sigmoid_saturates_without_overflow(self):
        model = nn.Sequential(nn.Sigmoid(), nn.SiLU()).eval()
        x = np.array([[-800.0, -40.0, 0.0, 40.0, 800.0]])
        with np.errstate(over="raise", invalid="raise"):
            out = compile_eval(model, (5,))(x)
        assert_matches(out, reference(model, x))

    @pytest.mark.parametrize("activation", [nn.Sigmoid, nn.SiLU])
    def test_negative_tail_keeps_relative_precision(self, activation):
        """Element-wise, not scaled by the largest output: at x = -40
        the logistic is about 4e-18, far below what a tolerance scaled
        by max|ref| would notice."""
        model = nn.Sequential(activation()).eval()
        x = np.linspace(-40.0, -20.0, 41)[None, :]
        out = compile_eval(model, (41,))(x)
        ref = reference(model, x)
        assert np.all(ref != 0.0)
        np.testing.assert_allclose(out, ref, rtol=1e-15, atol=0.0)

    def test_training_mode_modules_fall_back(self, rng):
        model = nn.Sequential(
            nn.Conv2d(2, 3, 3, rng=rng), nn.BatchNorm2d(3), nn.ReLU()
        )
        model.train()
        before = model[1].running_mean.copy()
        plan = compile_eval(model, (2, 5, 5))
        # Compiling probes the fallback's output shape in eval mode:
        # no running statistics move and the mode is restored.
        np.testing.assert_array_equal(model[1].running_mean, before)
        assert model[1].training
        assert plan.steps == ["conv", "fallback:BatchNorm2d", "relu"]
        assert plan.fallback_steps == 1

    def test_custom_forward_block_falls_back(self, rng):
        from repro.nn.models.resnet import Bottleneck

        plan = check_layout(
            [nn.Conv2d(3, 8, 3, padding=1, rng=rng), Bottleneck(8, 2, rng=rng)],
            (3, 6, 6),
        )
        assert plan.steps == ["conv", "fallback:Bottleneck"]


class TestBenchLayout:
    def test_lowers_with_zero_fallback_steps(self):
        plan = compile_eval(bench_cnn(), (3, 16, 16))
        assert plan.fallback_steps == 0
        assert plan.steps == [
            "conv+bn+relu", "maxpool", "conv+bn+relu", "gap", "linear"
        ]

    def test_bit_identical_with_default_bn_statistics(self):
        """With the untrained model's BN statistics the folded
        epilogue performs autograd's exact operations."""
        model = bench_cnn()
        x = np.random.default_rng(0).normal(size=(16, 3, 16, 16))
        np.testing.assert_array_equal(
            compile_eval(model, (3, 16, 16))(x), reference(model, x)
        )

    def test_warm_batch_allocates_under_64_kib(self):
        """Measured on a 2-CPU x86-64 host, numpy 2.4.6, warm b16 call:
        tracemalloc peak 18.6 KB for the plan (its fresh output rows
        plus ufunc iterator buffers) against 5.65 MB for the autograd
        forward of the same batch."""
        model = bench_cnn()
        plan = compile_eval(model, (3, 16, 16))
        x = np.random.default_rng(0).normal(size=(16, 3, 16, 16))
        plan(x)
        plan(x)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            plan(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestWorkspace:
    def test_smaller_batches_reuse_the_largest_workspace(self):
        model = bench_cnn()
        plan = compile_eval(model, (3, 16, 16))
        rng = np.random.default_rng(0)
        plan(rng.normal(size=(16, 3, 16, 16)))
        size = plan.workspace_bytes
        for batch in (1, 4, 9, 16):
            x = rng.normal(size=(batch, 3, 16, 16))
            assert_matches(plan(x), reference(model, x))
        assert plan.workspace_bytes == size

    def test_output_never_aliases_the_workspace(self):
        model = bench_cnn()
        plan = compile_eval(model, (3, 16, 16))
        rng = np.random.default_rng(0)
        first = plan(rng.normal(size=(4, 3, 16, 16)))
        kept = first.copy()
        plan(rng.normal(size=(4, 3, 16, 16)))
        np.testing.assert_array_equal(first, kept)

    def test_input_batch_is_not_modified(self):
        model = nn.Sequential(nn.ReLU(), nn.Sigmoid()).eval()
        x = np.random.default_rng(0).normal(size=(3, 4))
        kept = x.copy()
        compile_eval(model, (4,))(x)
        np.testing.assert_array_equal(x, kept)


class TestWeightBinding:
    def test_lowered_weights_bind_by_reference(self, rng):
        model = bench_cnn()
        plan = compile_eval(model, (3, 16, 16))
        x = rng.normal(size=(2, 3, 16, 16))
        swapped = {"4": rng.normal(size=model[4].weight.data.shape)}
        swapped["4"].setflags(write=False)
        original = model[4].weight.data.copy()
        out = plan(x, swapped)
        np.testing.assert_array_equal(model[4].weight.data, original)
        model[4].weight.data[...] = swapped["4"]
        assert_matches(out, reference(model, x))

    def test_bound_weights_are_released_after_the_call(self, rng):
        model = bench_cnn()
        plan = compile_eval(model, (3, 16, 16))
        weight = rng.normal(size=model[4].weight.data.shape)
        ref = weakref.ref(weight)
        plan(rng.normal(size=(2, 3, 16, 16)), {"4": weight})
        del weight
        assert ref() is None

    def test_fallback_weights_are_installed_into_the_module(self, rng):
        from repro.nn.models.resnet import Bottleneck

        model = nn.Sequential(Bottleneck(4, 1, rng=rng)).eval()
        plan = compile_eval(model, (4, 5, 5))
        weight = rng.normal(size=model[0].conv2.weight.data.shape)
        x = rng.normal(size=(2, 4, 5, 5))
        out = plan(x, {"0.conv2": weight})
        np.testing.assert_array_equal(model[0].conv2.weight.data, weight)
        assert_matches(out, reference(model, x))


class TestShapeErrors:
    def test_wrong_rank(self):
        with pytest.raises(ValueError, match="4-D input"):
            compile_eval(bench_cnn(), (3, 16))

    def test_wrong_channels(self):
        with pytest.raises(ValueError, match="channels"):
            compile_eval(bench_cnn(), (4, 16, 16))

    def test_kernel_larger_than_input(self, rng):
        model = nn.Sequential(nn.Conv2d(1, 1, 5, rng=rng)).eval()
        with pytest.raises(ValueError, match="does not fit"):
            compile_eval(model, (1, 3, 3))

    def test_batch_of_another_shape_is_rejected(self):
        plan = compile_eval(bench_cnn(), (3, 16, 16))
        with pytest.raises(ValueError, match="compiled for samples"):
            plan(np.zeros((2, 3, 8, 8)))
