"""Tape-free eval plans: an inference-only forward over one workspace.

The autograd substrate (:mod:`repro.nn.tensor`) is built for training:
every eval forward still records tape closures, eval batch-norm makes
four full passes, max-pool computes an argmax for a backward that never
runs, and every call allocates fresh temporaries.  :func:`compile_eval`
lowers a module tree once, for one per-sample input shape, into an
:class:`EvalPlan` — a flat list of float64 numpy kernels that write
with ``out=`` into views of a single workspace.

Lowering, per module type (exact type; a subclass with its own
``forward`` is not lowered):

- ``Sequential`` is inlined; ``Identity``, eval ``Dropout`` and
  ``Flatten`` become views of their input's buffer.
- ``Conv2d`` (groups, dilation, stride, padding) is an im2col copy plus
  one batched GEMM, and ``Linear`` is one GEMM.  An eval ``BatchNorm`` right
  after either, and a ``ReLU``/``ReLU6`` after that, fold into the GEMM
  output as a per-channel scale-and-shift-and-clamp epilogue.
- Standalone eval ``BatchNorm1d/2d`` is an in-place scale-and-shift;
  ``ReLU``, ``ReLU6``, ``Sigmoid`` and ``SiLU`` run in place (the
  sigmoid with autograd's overflow-free formula).
- ``MaxPool2d`` is a pairwise ``np.maximum`` over ``k*k`` strided views
  (no argmax), ``AvgPool2d`` the matching sum, ``GlobalAvgPool2d`` one
  reduction.
- Anything else — a training-mode ``BatchNorm``/``Dropout``, or a
  block with its own ``forward`` such as ``Bottleneck`` — is a
  *fallback step*: that subtree runs through the autograd forward and
  its output is copied into the workspace.

Every buffer (activations, padded inputs, activation scratch) gets a
liveness interval at compile time; buffers whose intervals overlap get
disjoint offsets, the rest share memory.  Buffer sizes all scale with
the batch, so one workspace sized for the largest batch run so far
serves every smaller batch through leading views.  im2col columns are
one separate array of at most 256 KiB, unrolled a chunk of samples at
a time.  A warm call allocates nothing but its fresh output rows.

Batch-norm statistics, biases and other non-weight state are read when
the plan is compiled; ``weight`` arrays are read on every call — from
the module, or from the ``weights`` mapping a call passes (by
reference, never copied, for lowered layers; the plan drops those
references when the call returns).  A plan is not
thread-safe: each thread that runs one owns it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.nn.activation import Dropout, ReLU, ReLU6, Sigmoid, SiLU
from repro.nn.container import Flatten, Identity, Sequential
from repro.nn.conv import Conv2d
from repro.nn.functional import conv_output_size
from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.nn.norm import BatchNorm1d, BatchNorm2d
from repro.nn.pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d
from repro.nn.tensor import Tensor

Shape = Tuple[int, ...]
# Buffer offsets are rounded up to this many float64 elements (64
# bytes) per sample, so every view starts cache-line aligned.
_ALIGN = 8
# Ufunc iterator buffer size (elements) while a plan runs.  Broadcast
# and strided operands (the epilogue's per-channel scale, max-pool's
# windows) go through numpy's buffered iterator, which otherwise
# allocates 64 KiB per operand per call; 8 KiB buffers run as fast.
_BUFSIZE = 1024
# Size (elements) of a plan's im2col columns: convs unroll and multiply
# this many columns' worth of samples at a time.  Unrolling whole b16
# batches instead measured +1.5 MB peak RSS on the serving benchmark's
# warm-thread workload (three plans; 2-CPU x86-64 host) at unchanged
# throughput.
_COLS_CHUNK = 32768


class _Buffer:
    """One workspace region of ``size`` float64s per sample, live from
    step ``first`` to step ``last`` inclusive."""

    __slots__ = ("size", "first", "last", "offset")

    def __init__(self, size: int, step: int) -> None:
        self.size = int(size)
        self.first = self.last = step
        self.offset = 0


class _Value:
    """An activation: a buffer seen with a per-sample shape."""

    __slots__ = ("buffer", "shape")

    def __init__(self, buffer: _Buffer, shape: Shape) -> None:
        self.buffer = buffer
        self.shape = tuple(int(d) for d in shape)


class _Views:
    """Batch-``n`` views of the workspace, every buffer laid out for
    ``n`` samples, plus the plan's im2col ``columns``."""

    def __init__(self, workspace: np.ndarray, columns: np.ndarray, n: int) -> None:
        self.workspace = workspace
        self.columns = columns
        self.n = n

    def __call__(self, buffer: _Buffer, shape: Shape) -> np.ndarray:
        n = self.n
        start = buffer.offset * n
        flat = self.workspace[start : start + buffer.size * n]
        return flat.reshape((n,) + tuple(shape))

    def value(self, value: _Value) -> np.ndarray:
        return self(value.buffer, value.shape)


# ----------------------------------------------------------------------
# Steps.  Each one is compiled once and bound per batch size: ``bind``
# returns a zero-argument kernel closed over that batch's views.
# ----------------------------------------------------------------------
class _Step:
    kind = "step"
    fallback = False

    def bind(self, views: _Views) -> Callable[[], None]:  # pragma: no cover
        raise NotImplementedError


def _apply_activation(out: np.ndarray, activation: Optional[str]) -> None:
    if activation == "relu":
        np.maximum(out, 0.0, out=out)
    elif activation == "relu6":
        np.clip(out, 0.0, 6.0, out=out)


def _epilogue(
    out: np.ndarray,
    scale: Optional[np.ndarray],
    shift: Optional[np.ndarray],
    activation: Optional[str],
) -> None:
    if scale is not None:
        np.multiply(out, scale, out=out)
    if shift is not None:
        np.add(out, shift, out=out)
    _apply_activation(out, activation)


def _padded_source(
    views: _Views, x: np.ndarray, padded: Optional[_Buffer], pad: int,
    fill: float,
) -> Tuple[np.ndarray, List[Callable]]:
    """The array a kernel slides over — ``x`` itself, or its copy into
    the ``padded`` buffer — plus the kernels that fill that buffer.
    The frame is re-filled on every call: the buffer's memory is shared
    with other steps."""
    if padded is None:
        return x, []
    _, c, h, w = x.shape
    src = views(padded, (c, h + 2 * pad, w + 2 * pad))
    frames = (
        src[:, :, :pad, :],
        src[:, :, -pad:, :],
        src[:, :, pad:-pad, :pad],
        src[:, :, pad:-pad, -pad:],
    )
    prep: List[Callable] = [lambda f=frame: f.fill(fill) for frame in frames]
    interior = src[:, :, pad : pad + h, pad : pad + w]
    prep.append(lambda: np.copyto(interior, x))
    return src, prep


def _window(src: np.ndarray, i: int, j: int, out_h: int, out_w: int,
            stride: int) -> np.ndarray:
    """The ``(N, C, out_h, out_w)`` view of tap ``(i, j)`` of a window
    sliding over ``src`` (already padded)."""
    return src[
        :,
        :,
        i : i + stride * (out_h - 1) + 1 : stride,
        j : j + stride * (out_w - 1) + 1 : stride,
    ]


class _Gemm(_Step):
    """A weighted layer (conv or linear) with an optional folded
    per-channel scale/shift/clamp epilogue.  ``weight`` is bound for
    the duration of each call and reset to the module's own after."""

    def __init__(self, name: str, module: Module, x: _Value, out: _Value) -> None:
        self.name = name
        self.module = module
        self.x, self.out = x, out
        self.scale: Optional[np.ndarray] = None
        self.shift: Optional[np.ndarray] = None
        self.activation: Optional[str] = None
        self.weight: np.ndarray = module.weight.data
        if module.bias is not None:
            self.shift = module.bias.data.copy()

    def fold_bn(self, bn) -> None:
        inv_std = 1.0 / np.sqrt(bn.running_var + bn.eps)
        scale = bn.gamma.data * inv_std
        bias = 0.0 if self.shift is None else self.shift
        self.shift = (bias - bn.running_mean) * scale + bn.beta.data
        self.scale = scale
        self.kind += "+bn"

    def fold_activation(self, activation: str) -> None:
        self.activation = activation
        self.kind += f"+{activation}"


class _Conv(_Gemm):
    kind = "conv"

    def __init__(self, name: str, module: Conv2d, x: _Value, out: _Value,
                 padded: Optional[_Buffer], per_chunk: int) -> None:
        super().__init__(name, module, x, out)
        # Samples unrolled per im2col chunk; 0 for a pointwise conv,
        # whose input already is its columns.
        self.padded, self.per_chunk = padded, per_chunk

    def bind(self, views: _Views) -> Callable[[], None]:
        module = self.module
        m, c_per_group, kh, kw = module.weight.data.shape
        groups, stride = module.groups, module.stride
        pad, dilation = module.padding, module.dilation
        c = self.x.shape[0]
        _, out_h, out_w = self.out.shape
        n, length = views.n, out_h * out_w
        x = views.value(self.x)
        out3 = views(self.out.buffer, (m, length))
        src, prep = _padded_source(views, x, self.padded, pad, 0.0)
        scale = None if self.scale is None else self.scale[:, None]
        shift = None if self.shift is None else self.shift[:, None]
        activation = self.activation
        k = c_per_group * kh * kw
        m_per_group = m // groups
        out4 = out3.reshape(n, groups, m_per_group, length)
        # (im2col copy or None, columns, output) per chunk of samples;
        # every sample is its own GEMM, so chunking changes no bits.
        chunks: List[Tuple] = []
        per = self.per_chunk
        if not per:
            chunks.append((None, x.reshape(n, groups, k, length), out4))
        else:
            s0, s1, s2, s3 = src.strides
            patches = np.lib.stride_tricks.as_strided(
                src,
                shape=(n, c, kh, kw, out_h, out_w),
                strides=(s0, s1, s2 * dilation, s3 * dilation,
                         s2 * stride, s3 * stride),
                writeable=False,
            )
            cols = views.columns[: per * c * kh * kw * length]
            cols = cols.reshape(per, c, kh, kw, out_h, out_w)
            for lo in range(0, n, per):
                hi = min(lo + per, n)
                target = cols[: hi - lo]
                chunks.append(
                    (lambda t=target, p=patches[lo:hi]: np.copyto(t, p),
                     target.reshape(hi - lo, groups, k, length), out4[lo:hi])
                )
        step = self

        def kernel() -> None:
            for fn in prep:
                fn()
            weight = step.weight.reshape(groups, m_per_group, k)
            for unroll, columns, out in chunks:
                if unroll is not None:
                    unroll()
                np.matmul(weight, columns, out=out)
            _epilogue(out3, scale, shift, activation)

        return kernel


class _Linear(_Gemm):
    kind = "linear"

    def bind(self, views: _Views) -> Callable[[], None]:
        x, out = views.value(self.x), views.value(self.out)
        scale, shift, activation = self.scale, self.shift, self.activation
        step = self

        def kernel() -> None:
            np.matmul(x, step.weight.T, out=out)
            _epilogue(out, scale, shift, activation)

        return kernel


class _Affine(_Step):
    """Standalone eval batch-norm: ``x * scale + shift`` in place."""

    kind = "bn"

    def __init__(self, bn, x: _Value) -> None:
        self.x = x
        inv_std = 1.0 / np.sqrt(bn.running_var + bn.eps)
        scale = bn.gamma.data * inv_std
        shift = bn.beta.data - bn.running_mean * scale
        tail = (1,) * (len(x.shape) - 1)
        self.scale = scale.reshape(scale.shape + tail)
        self.shift = shift.reshape(shift.shape + tail)

    def bind(self, views: _Views) -> Callable[[], None]:
        x = views.value(self.x)
        scale, shift = self.scale, self.shift
        return lambda: _epilogue(x, scale, shift, None)


class _Activation(_Step):
    """ReLU / ReLU6 / Sigmoid / SiLU in place.  Sigmoid needs one
    scratch buffer (its denominator), SiLU two (the gate as well)."""

    def __init__(self, kind: str, x: _Value, scratch: Sequence[_Buffer]) -> None:
        self.kind = kind
        self.x = x
        self.scratch = scratch

    def bind(self, views: _Views) -> Callable[[], None]:
        x = views.value(self.x)
        kind = self.kind
        if kind in ("relu", "relu6"):
            return lambda: _apply_activation(x, kind)
        scratch = [views(buffer, self.x.shape) for buffer in self.scratch]
        if kind == "sigmoid":
            (den,) = scratch
            return lambda: _sigmoid(x, x, den)
        den, gate = scratch

        def silu() -> None:
            _sigmoid(x, gate, den)
            np.multiply(x, gate, out=x)

        return silu


def _sigmoid(x: np.ndarray, out: np.ndarray, den: np.ndarray) -> None:
    """Autograd's overflow-free logistic without temporaries:
    ``exp(min(x, 0)) / (1 + exp(-|x|))`` is ``1 / (1 + z)`` for
    ``x >= 0`` and ``z / (1 + z)`` below, with ``z = exp(-|x|)``, so
    the negative tail keeps full relative precision.  ``out`` may be
    ``x``; ``den`` is scratch."""
    np.abs(x, out=den)
    np.negative(den, out=den)
    np.exp(den, out=den)
    np.add(den, 1.0, out=den)
    np.minimum(x, 0.0, out=out)
    np.exp(out, out=out)
    np.divide(out, den, out=out)


class _Pool(_Step):
    """Max or average pooling as a pairwise fold over ``k*k`` views."""

    def __init__(self, kind: str, module, x: _Value, out: _Value,
                 padded: Optional[_Buffer]) -> None:
        self.kind = kind
        self.module = module
        self.x, self.out, self.padded = x, out, padded

    def bind(self, views: _Views) -> Callable[[], None]:
        module = self.module
        k, stride, pad = module.kernel_size, module.stride, module.padding
        _, out_h, out_w = self.out.shape
        x, out = views.value(self.x), views.value(self.out)
        is_max = self.kind == "maxpool"
        src, prep = _padded_source(
            views, x, self.padded, pad, -np.inf if is_max else 0.0
        )
        windows = [
            _window(src, i, j, out_h, out_w, stride)
            for i in range(k)
            for j in range(k)
        ]
        fold = np.maximum if is_max else np.add
        count = float(k * k)

        def kernel() -> None:
            for fn in prep:
                fn()
            if len(windows) == 1:
                np.copyto(out, windows[0])
            else:
                fold(windows[0], windows[1], out=out)
            for window in windows[2:]:
                fold(out, window, out=out)
            if not is_max:
                np.divide(out, count, out=out)

        return kernel


class _GlobalAvgPool(_Step):
    kind = "gap"

    def __init__(self, x: _Value, out: _Value) -> None:
        self.x, self.out = x, out

    def bind(self, views: _Views) -> Callable[[], None]:
        x, out = views.value(self.x), views.value(self.out)
        inv_count = 1.0 / (self.x.shape[1] * self.x.shape[2])

        def kernel() -> None:
            np.sum(x, axis=(2, 3), keepdims=True, out=out)
            np.multiply(out, inv_count, out=out)

        return kernel


class _Fallback(_Step):
    """A subtree the plan cannot lower, run through autograd."""

    fallback = True

    def __init__(self, name: str, module: Module, x: _Value, out: _Value) -> None:
        self.name = name
        self.module = module
        self.kind = f"fallback:{type(module).__name__}"
        self.x, self.out = x, out

    def bind(self, views: _Views) -> Callable[[], None]:
        x, out = views.value(self.x), views.value(self.out)
        module = self.module

        def kernel() -> None:
            result = module(Tensor(x))
            np.copyto(out, result.data if isinstance(result, Tensor) else result)

        return kernel


# ----------------------------------------------------------------------
# Compiler
# ----------------------------------------------------------------------
_ACTIVATIONS = {ReLU: "relu", ReLU6: "relu6", Sigmoid: "sigmoid", SiLU: "silu"}


def _flatten(module: Module, name: str) -> List[Tuple[str, Module]]:
    """Leaf modules in execution order, with Sequentials inlined."""
    if type(module) is Sequential:
        leaves: List[Tuple[str, Module]] = []
        for index, child in enumerate(module):
            child_name = f"{name}.{index}" if name else str(index)
            leaves.extend(_flatten(child, child_name))
        return leaves
    return [(name, module)]


def _is_eval_bn(module: Module, ndim: int) -> bool:
    expected = {BatchNorm2d: 3, BatchNorm1d: 1}.get(type(module))
    if expected is None or module.training:
        return False
    if ndim != expected:
        raise ValueError(
            f"{type(module).__name__} expects {expected + 1}-D input, "
            f"got {ndim + 1}-D"
        )
    return True


class _Compiler:
    def __init__(self) -> None:
        self.steps: List[_Step] = []
        self.buffers: List[_Buffer] = []
        # im2col columns live only inside their own conv step, so one
        # array sized for the largest chunk serves every conv.
        self.columns_size = 0

    @property
    def step_index(self) -> int:
        return len(self.steps)

    def new_buffer(self, shape: Shape) -> _Buffer:
        size = int(np.prod(shape, dtype=np.int64))
        buffer = _Buffer(size, self.step_index)
        self.buffers.append(buffer)
        return buffer

    def new_value(self, shape: Shape) -> _Value:
        return _Value(self.new_buffer(shape), shape)

    def use(self, value: _Value) -> None:
        value.buffer.last = max(value.buffer.last, self.step_index)

    def add(self, step: _Step) -> None:
        self.steps.append(step)

    def compile(self, model: Module, x: _Value) -> _Value:
        leaves = _flatten(model, "")
        index = 0
        while index < len(leaves):
            name, module = leaves[index]
            kind = type(module)
            if kind is Conv2d or (kind is Linear and len(x.shape) == 1):
                step = self._gemm(name, module, x)
                index += 1
                if index < len(leaves) and _is_eval_bn(
                    leaves[index][1], len(step.out.shape)
                ):
                    step.fold_bn(leaves[index][1])
                    index += 1
                if index < len(leaves) and type(leaves[index][1]) in (ReLU, ReLU6):
                    step.fold_activation(_ACTIVATIONS[type(leaves[index][1])])
                    index += 1
                x = step.out
                continue
            x = self._lower_one(name, module, x)
            index += 1
        return x

    def _gemm(self, name: str, module: Module, x: _Value) -> _Gemm:
        if type(module) is Linear:
            (features,) = x.shape
            if features != module.in_features:
                raise ValueError(
                    f"{name or 'model'}: Linear expects {module.in_features} "
                    f"input features, got {features}"
                )
            self.use(x)
            step = _Linear(name, module, x, self.new_value((module.out_features,)))
            self.add(step)
            return step
        if len(x.shape) != 3:
            raise ValueError(
                f"{name or 'model'}: Conv2d expects 4-D input, "
                f"got {len(x.shape) + 1}-D"
            )
        c, h, w = x.shape
        m, c_per_group, kh, kw = module.weight.data.shape
        groups, stride = module.groups, module.stride
        pad, dilation = module.padding, module.dilation
        if c != c_per_group * groups:
            raise ValueError(
                f"input channels {c} != weight channels {c_per_group} "
                f"* groups {groups}"
            )
        out_h = conv_output_size(h, kh, stride, pad, dilation)
        out_w = conv_output_size(w, kw, stride, pad, dilation)
        if out_h <= 0 or out_w <= 0:
            raise ValueError(
                f"kernel ({kh}x{kw}, stride {stride}, dilation {dilation}) "
                f"does not fit input {h + 2 * pad}x{w + 2 * pad}"
            )
        self.use(x)
        padded = self.new_buffer((c, h + 2 * pad, w + 2 * pad)) if pad else None
        per_chunk = 0
        if not (kh == kw == 1 and stride == 1 and not pad):
            per_sample = c * kh * kw * out_h * out_w
            per_chunk = max(1, _COLS_CHUNK // per_sample)
            self.columns_size = max(self.columns_size, per_chunk * per_sample)
        out = self.new_value((m, out_h, out_w))
        step = _Conv(name, module, x, out, padded, per_chunk)
        self.add(step)
        return step

    def _lower_one(self, name: str, module: Module, x: _Value) -> _Value:
        kind = type(module)
        if kind is Identity or (kind is Dropout and not module.training):
            return x
        if kind is Flatten:
            return _Value(x.buffer, (int(np.prod(x.shape, dtype=np.int64)),))
        if _is_eval_bn(module, len(x.shape)):
            self.use(x)
            self.add(_Affine(module, x))
            return x
        if kind in _ACTIVATIONS:
            self.use(x)
            activation = _ACTIVATIONS[kind]
            scratch = {"sigmoid": 1, "silu": 2}.get(activation, 0)
            self.add(_Activation(
                activation, x, [self.new_buffer(x.shape) for _ in range(scratch)]
            ))
            return x
        if kind in (MaxPool2d, AvgPool2d) and len(x.shape) == 3:
            c, h, w = x.shape
            k, stride, pad = module.kernel_size, module.stride, module.padding
            out_h = conv_output_size(h, k, stride, pad)
            out_w = conv_output_size(w, k, stride, pad)
            if out_h <= 0 or out_w <= 0:
                raise ValueError(
                    f"kernel ({k}x{k}, stride {stride}) does not fit input "
                    f"{h + 2 * pad}x{w + 2 * pad}"
                )
            self.use(x)
            padded = self.new_buffer((c, h + 2 * pad, w + 2 * pad)) if pad else None
            out = self.new_value((c, out_h, out_w))
            pool = "maxpool" if kind is MaxPool2d else "avgpool"
            self.add(_Pool(pool, module, x, out, padded))
            return out
        if kind is GlobalAvgPool2d and len(x.shape) == 3:
            self.use(x)
            out = self.new_value((x.shape[0], 1, 1))
            self.add(_GlobalAvgPool(x, out))
            return out
        return self._fallback(name, module, x)

    def _fallback(self, name: str, module: Module, x: _Value) -> _Value:
        # Probe the subtree's output shape with one zero sample, in
        # eval mode so the probe moves no running statistics.
        modes = [(m, m.training) for m in module.modules()]
        module.eval()
        try:
            probe = module(Tensor(np.zeros((1,) + x.shape)))
        finally:
            for m, training in modes:
                object.__setattr__(m, "training", training)
        data = probe.data if isinstance(probe, Tensor) else np.asarray(probe)
        self.use(x)
        out = self.new_value(data.shape[1:])
        self.add(_Fallback(name, module, x, out))
        return out


def _assign_offsets(buffers: Sequence[_Buffer]) -> int:
    """Greedy interval packing: largest buffers first, each at the
    lowest offset clear of every placed buffer it is live alongside.
    Returns the packed size in float64 elements."""
    placed: List[_Buffer] = []
    total = 0
    for buffer in sorted(buffers, key=lambda b: (-b.size, b.first)):
        size = -(-buffer.size // _ALIGN) * _ALIGN
        busy = sorted(
            (other.offset, other.offset + -(-other.size // _ALIGN) * _ALIGN)
            for other in placed
            if other.first <= buffer.last and buffer.first <= other.last
        )
        offset = 0
        for start, end in busy:
            if offset + size <= start:
                break
            offset = max(offset, end)
        buffer.offset = offset
        placed.append(buffer)
        total = max(total, offset + size)
    return total


class EvalPlan:
    """A compiled, tape-free float64 forward for one sample shape.

    Call the plan with a ``(N, *sample_shape)`` batch; it returns a
    fresh ``(N, *output_shape)`` float64 array — never a view of the
    workspace, so callers may hand rows out.
    """

    def __init__(self, model: Module, sample_shape: Shape) -> None:
        self.sample_shape = tuple(int(d) for d in sample_shape)
        compiler = _Compiler()
        self._input = compiler.new_value(self.sample_shape)
        self._output = compiler.compile(model, self._input)
        compiler.use(self._output)
        self._steps = compiler.steps
        self._per_sample = _assign_offsets(compiler.buffers)
        self._columns = np.empty(compiler.columns_size)
        self.output_shape = self._output.shape
        # Layer name -> the lowered step whose weight slot it fills;
        # weighted modules under a fallback step are installed into the
        # module instead (autograd reads them there).
        self._slots: Dict[str, _Gemm] = {}
        self._fallback_modules: Dict[str, Module] = {}
        for step in self._steps:
            if isinstance(step, _Gemm):
                self._slots[step.name] = step
            elif isinstance(step, _Fallback):
                for sub, module in step.module.named_modules(step.name):
                    if getattr(module, "weight", None) is not None:
                        self._fallback_modules[sub] = module
        self._capacity = 0
        self._workspace = np.empty(0)
        self._bound: Dict[int, Tuple[np.ndarray, np.ndarray, List[Callable]]] = {}

    # -- introspection --------------------------------------------------
    @property
    def steps(self) -> List[str]:
        """One label per step, e.g. ``conv+bn+relu`` or ``fallback:ResNet``."""
        return [step.kind for step in self._steps]

    @property
    def fallback_steps(self) -> int:
        return sum(step.fallback for step in self._steps)

    @property
    def workspace_bytes(self) -> int:
        return int(self._workspace.nbytes + self._columns.nbytes)

    # -- execution ------------------------------------------------------
    def _bind(self, n: int):
        bound = self._bound.get(n)
        if bound is not None:
            return bound
        if n > self._capacity:
            self._workspace = np.empty(self._per_sample * n)
            self._capacity = n
            self._bound.clear()
        views = _Views(self._workspace, self._columns, n)
        bound = (
            views.value(self._input),
            views.value(self._output),
            [step.bind(views) for step in self._steps],
        )
        self._bound[n] = bound
        return bound

    def __call__(
        self,
        batch: np.ndarray,
        weights: Optional[Mapping[str, np.ndarray]] = None,
    ) -> np.ndarray:
        """Forward ``batch``; ``weights`` maps layer names to arrays
        that replace the modules' own weights for this call.  The plan
        holds no reference to them once the call returns."""
        batch = np.asarray(batch)
        if batch.shape[1:] != self.sample_shape:
            raise ValueError(
                f"plan compiled for samples of shape {self.sample_shape}, "
                f"got batch of shape {batch.shape}"
            )
        if weights is not None:
            for name, module in self._fallback_modules.items():
                weight = weights.get(name)
                if weight is not None and weight is not module.weight.data:
                    module.weight.data[...] = weight
        n = batch.shape[0]
        if n == 0:
            return np.empty((0,) + self.output_shape)
        x, y, kernels = self._bind(n)
        np.copyto(x, batch, casting="same_kind")
        bufsize = np.setbufsize(_BUFSIZE)  # per-thread setting
        try:
            for name, step in self._slots.items():
                weight = None if weights is None else weights.get(name)
                step.weight = step.module.weight.data if weight is None else weight
            for kernel in kernels:
                kernel()
        finally:
            np.setbufsize(bufsize)
            for step in self._slots.values():
                step.weight = step.module.weight.data
        return y.copy()


def compile_eval(model: Module, sample_shape: Sequence[int]) -> EvalPlan:
    """Lower ``model`` to an :class:`EvalPlan` for ``(N, *sample_shape)``
    batches.  Raises ``ValueError`` when the shape does not fit the
    model (wrong rank, channel count, or a kernel larger than its
    input)."""
    return EvalPlan(model, tuple(sample_shape))
