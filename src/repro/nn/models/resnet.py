"""ResNet-50 (ImageNet bottleneck) and ResNet-164 (CIFAR bottleneck).

ResNet-164 is the pre-activation CIFAR variant with 18 bottleneck blocks
per stage (3 stages x 18 blocks x 3 convs + 2 = 164 layers); ResNet-50 is
the standard ImageNet [3, 4, 6, 3] bottleneck network.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro import nn

# depth -> blocks-per-stage for the CIFAR bottleneck family: depth = 9n + 2.
RESNET_CIFAR_DEPTHS = {164: 18, 110: 12, 56: 6, 29: 3}

BOTTLENECK_EXPANSION = 4


def _scaled(channels: int, width_mult: float) -> int:
    return max(1, int(round(channels * width_mult)))


class Bottleneck(nn.Module):
    """1x1 reduce -> 3x3 -> 1x1 expand bottleneck with identity shortcut."""

    def __init__(
        self,
        in_channels: int,
        planes: int,
        stride: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        out_channels = planes * BOTTLENECK_EXPANSION
        self.conv1 = nn.Conv2d(in_channels, planes, 1, bias=False, rng=rng)
        self.bn1 = nn.BatchNorm2d(planes)
        self.conv2 = nn.Conv2d(planes, planes, 3, stride=stride, padding=1,
                               bias=False, rng=rng)
        self.bn2 = nn.BatchNorm2d(planes)
        self.conv3 = nn.Conv2d(planes, out_channels, 1, bias=False, rng=rng)
        self.bn3 = nn.BatchNorm2d(out_channels)
        self.relu = nn.ReLU()
        if stride != 1 or in_channels != out_channels:
            self.downsample = nn.Sequential(
                nn.Conv2d(in_channels, out_channels, 1, stride=stride,
                          bias=False, rng=rng),
                nn.BatchNorm2d(out_channels),
            )
        else:
            self.downsample = nn.Identity()
        self.out_channels = out_channels

    def forward(self, x: nn.Tensor) -> nn.Tensor:
        identity = self.downsample(x)
        out = self.relu(self.bn1(self.conv1(x)))
        out = self.relu(self.bn2(self.conv2(out)))
        out = self.bn3(self.conv3(out))
        return self.relu(out + identity)


class ResNet(nn.Module):
    """Bottleneck ResNet with either an ImageNet or a CIFAR stem."""

    def __init__(
        self,
        stage_blocks: Sequence[int],
        stage_planes: Sequence[int],
        num_classes: int = 10,
        in_channels: int = 3,
        width_mult: float = 1.0,
        imagenet_stem: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if len(stage_blocks) != len(stage_planes):
            raise ValueError("stage_blocks and stage_planes must align")
        rng = rng or np.random.default_rng(0)
        planes = [_scaled(p, width_mult) for p in stage_planes]
        stem_width = planes[0]
        if imagenet_stem:
            self.stem = nn.Sequential(
                nn.Conv2d(in_channels, stem_width, 7, stride=2, padding=3,
                          bias=False, rng=rng),
                nn.BatchNorm2d(stem_width),
                nn.ReLU(),
                nn.MaxPool2d(3, stride=2, padding=1),
            )
        else:
            self.stem = nn.Sequential(
                nn.Conv2d(in_channels, stem_width, 3, padding=1, bias=False, rng=rng),
                nn.BatchNorm2d(stem_width),
                nn.ReLU(),
            )
        blocks: List[nn.Module] = []
        channels = stem_width
        for stage, (count, width) in enumerate(zip(stage_blocks, planes)):
            for index in range(count):
                stride = 2 if (stage > 0 and index == 0) else 1
                block = Bottleneck(channels, width, stride=stride, rng=rng)
                blocks.append(block)
                channels = block.out_channels
        self.blocks = nn.Sequential(*blocks)
        self.pool = nn.GlobalAvgPool2d()
        self.flatten = nn.Flatten()
        self.fc = nn.Linear(channels, num_classes, rng=rng)
        self.feature_channels = channels

    def forward(self, x: nn.Tensor) -> nn.Tensor:
        x = self.stem(x)
        x = self.blocks(x)
        return self.fc(self.flatten(self.pool(x)))


def resnet50(num_classes: int = 1000, width_mult: float = 1.0, seed: int = 0,
             **kwargs) -> ResNet:
    """ImageNet ResNet-50: stages [3, 4, 6, 3], planes [64, 128, 256, 512]."""
    rng = np.random.default_rng(seed)
    return ResNet([3, 4, 6, 3], [64, 128, 256, 512], num_classes=num_classes,
                  width_mult=width_mult, imagenet_stem=True, rng=rng, **kwargs)


def resnet164(num_classes: int = 10, width_mult: float = 1.0, seed: int = 0,
              **kwargs) -> ResNet:
    """CIFAR ResNet-164: 18 bottlenecks per stage, planes [16, 32, 64]."""
    blocks = RESNET_CIFAR_DEPTHS[164]
    rng = np.random.default_rng(seed)
    return ResNet([blocks] * 3, [16, 32, 64], num_classes=num_classes,
                  width_mult=width_mult, imagenet_stem=False, rng=rng, **kwargs)


def resnet_cifar(depth: int, num_classes: int = 10, width_mult: float = 1.0,
                 seed: int = 0, **kwargs) -> ResNet:
    """Any member of the CIFAR bottleneck family (depth = 9n + 2)."""
    if depth not in RESNET_CIFAR_DEPTHS:
        raise ValueError(f"unsupported CIFAR ResNet depth {depth}; "
                         f"known: {sorted(RESNET_CIFAR_DEPTHS)}")
    blocks = RESNET_CIFAR_DEPTHS[depth]
    rng = np.random.default_rng(seed)
    return ResNet([blocks] * 3, [16, 32, 64], num_classes=num_classes,
                  width_mult=width_mult, imagenet_stem=False, rng=rng, **kwargs)
