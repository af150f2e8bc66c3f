"""NumPy deep-learning substrate (replaces PyTorch for the reproduction).

Public surface::

    from repro import nn

    model = nn.Sequential(
        nn.Conv2d(3, 16, 3, padding=1), nn.BatchNorm2d(16), nn.ReLU(),
        nn.GlobalAvgPool2d(), nn.Flatten(), nn.Linear(16, 10),
    )
    logits = model(images)              # images: (N, 3, H, W) ndarray
"""

from repro.nn import functional
from repro.nn.activation import Dropout, ReLU, ReLU6, Sigmoid, SiLU
from repro.nn.container import Flatten, Identity, Sequential
from repro.nn.conv import Conv2d
from repro.nn.linear import Linear
from repro.nn.loss import (
    accuracy,
    cross_entropy,
    mean_iou,
    mse,
    segmentation_cross_entropy,
    top_k_accuracy,
)
from repro.nn.module import Module, Parameter
from repro.nn.norm import BatchNorm1d, BatchNorm2d
from repro.nn.optim import SGD, Adam, StepLR
from repro.nn.quantize import (
    activation_quantization,
    evaluate_quantized,
    fake_quantize,
)
from repro.nn.pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d
from repro.nn.plan import EvalPlan, compile_eval
from repro.nn.tensor import Tensor, concat
from repro.nn.train import TrainHistory, evaluate, fit, predict, train_epoch

__all__ = [
    "functional",
    "Tensor",
    "concat",
    "Module",
    "Parameter",
    "Conv2d",
    "Linear",
    "BatchNorm1d",
    "BatchNorm2d",
    "ReLU",
    "ReLU6",
    "Sigmoid",
    "SiLU",
    "Dropout",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Sequential",
    "Flatten",
    "Identity",
    "SGD",
    "Adam",
    "StepLR",
    "cross_entropy",
    "segmentation_cross_entropy",
    "mse",
    "accuracy",
    "top_k_accuracy",
    "mean_iou",
    "TrainHistory",
    "fit",
    "train_epoch",
    "evaluate",
    "predict",
    "EvalPlan",
    "compile_eval",
    "fake_quantize",
    "activation_quantization",
    "evaluate_quantized",
]
