"""A minimal reverse-mode autograd tensor.

This is the substrate that replaces PyTorch for the reproduction: a NumPy
array wrapped with a gradient tape.  Every differentiable operation builds
a node whose ``_backward`` closure scatters the output gradient to the
parents; :meth:`Tensor.backward` runs a topological sort over the tape and
accumulates ``grad`` arrays on every tensor with ``requires_grad=True``.

Only the operations needed by the SmartExchange model zoo are provided;
convolution, pooling and normalization live in :mod:`repro.nn.functional`
because they need layer-level bookkeeping (im2col caches, running stats).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, "Tensor"]


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-free logistic: exp is only ever taken of -|x|."""
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast axes.

    NumPy broadcasting prepends length-1 axes and stretches them; the
    adjoint of broadcasting is therefore a sum over the stretched axes.
    """
    if grad.shape == shape:
        return grad
    # Sum away leading axes that were prepended by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were stretched from size 1.
    stretched = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if stretched:
        grad = grad.sum(axis=stretched, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """An ndarray with an optional gradient tape entry.

    Parameters
    ----------
    data:
        Array (or scalar) holding the value.  Stored as ``float64`` unless
        the input already has a floating dtype.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "requires_grad", "grad", "_backward", "_parents", "op")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Sequence["Tensor"] = (),
        op: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        self.data: np.ndarray = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple[Tensor, ...] = tuple(_parents)
        self.op = op

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{grad_flag}, op={self.op!r})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the tape."""
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------
    # Tape machinery
    # ------------------------------------------------------------------
    @staticmethod
    def _wrap(other: ArrayLike) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into this tensor's gradient buffer."""
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data, dtype=np.float64)
        self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode accumulation from this tensor.

        ``grad`` defaults to ones (appropriate for a scalar loss).
        """
        if grad is None:
            grad = np.ones_like(self.data, dtype=np.float64)
        else:
            grad = np.asarray(grad, dtype=np.float64)
        topo: List[Tensor] = []
        seen = set()

        def visit(node: "Tensor") -> None:
            if id(node) in seen:
                return
            seen.add(id(node))
            for parent in node._parents:
                visit(parent)
            topo.append(node)

        visit(self)
        grads = {id(self): grad}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            node._accumulate(node_grad)
            if node._backward is None:
                continue
            for parent, pgrad in node._backward(node_grad):
                if not (parent.requires_grad or parent._parents):
                    continue
                existing = grads.get(id(parent))
                grads[id(parent)] = pgrad if existing is None else existing + pgrad

    @staticmethod
    def _node(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], Iterable[Tuple["Tensor", np.ndarray]]],
        op: str,
    ) -> "Tensor":
        """Create a tape node; the node requires grad if any parent does."""
        needs = any(p.requires_grad or p._parents for p in parents)
        out = Tensor(data, requires_grad=False, _parents=parents if needs else (), op=op)
        if needs:
            out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._wrap(other)

        def backward(g: np.ndarray):
            return (
                (self, _unbroadcast(g, self.shape)),
                (other, _unbroadcast(g, other.shape)),
            )

        return self._node(self.data + other.data, (self, other), backward, "add")

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = self._wrap(other)

        def backward(g: np.ndarray):
            return (
                (self, _unbroadcast(g, self.shape)),
                (other, _unbroadcast(-g, other.shape)),
            )

        return self._node(self.data - other.data, (self, other), backward, "sub")

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._wrap(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._wrap(other)

        def backward(g: np.ndarray):
            return (
                (self, _unbroadcast(g * other.data, self.shape)),
                (other, _unbroadcast(g * self.data, other.shape)),
            )

        return self._node(self.data * other.data, (self, other), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._wrap(other)

        def backward(g: np.ndarray):
            return (
                (self, _unbroadcast(g / other.data, self.shape)),
                (other, _unbroadcast(-g * self.data / (other.data**2), other.shape)),
            )

        return self._node(self.data / other.data, (self, other), backward, "div")

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._wrap(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray):
            return ((self, -g),)

        return self._node(-self.data, (self,), backward, "neg")

    def __pow__(self, exponent: float) -> "Tensor":
        exponent = float(exponent)

        def backward(g: np.ndarray):
            return ((self, g * exponent * self.data ** (exponent - 1)),)

        return self._node(self.data**exponent, (self,), backward, "pow")

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = self._wrap(other)

        def backward(g: np.ndarray):
            return (
                (self, g @ other.data.swapaxes(-1, -2)),
                (other, self.data.swapaxes(-1, -2) @ g),
            )

        return self._node(self.data @ other.data, (self, other), backward, "matmul")

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape

        def backward(g: np.ndarray):
            return ((self, g.reshape(original)),)

        return self._node(self.data.reshape(shape), (self,), backward, "reshape")

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inverse = tuple(np.argsort(axes))

        def backward(g: np.ndarray):
            return ((self, g.transpose(inverse)),)

        return self._node(self.data.transpose(axes), (self,), backward, "transpose")

    def flatten_batch(self) -> "Tensor":
        """Flatten all axes except the leading (batch) axis."""
        return self.reshape(self.shape[0], -1)

    def __getitem__(self, key) -> "Tensor":
        def backward(g: np.ndarray):
            full = np.zeros_like(self.data, dtype=np.float64)
            np.add.at(full, key, g)
            return ((self, full),)

        return self._node(self.data[key], (self,), backward, "getitem")

    # ------------------------------------------------------------------
    # Reductions & elementwise nonlinearities
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def backward(g: np.ndarray):
            if axis is None:
                grad = np.broadcast_to(g, self.shape).copy()
            else:
                g_expanded = g if keepdims else np.expand_dims(g, axis)
                grad = np.broadcast_to(g_expanded, self.shape).copy()
            return ((self, grad),)

        return self._node(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        elif isinstance(axis, int):
            count = self.shape[axis]
        else:
            count = int(np.prod([self.shape[a] for a in axis]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(g: np.ndarray):
            return ((self, g * out_data),)

        return self._node(out_data, (self,), backward, "exp")

    def log(self) -> "Tensor":
        def backward(g: np.ndarray):
            return ((self, g / self.data),)

        return self._node(np.log(self.data), (self,), backward, "log")

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(g: np.ndarray):
            return ((self, g * 0.5 / out_data),)

        return self._node(out_data, (self,), backward, "sqrt")

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(g: np.ndarray):
            return ((self, g * mask),)

        return self._node(self.data * mask, (self,), backward, "relu")

    def clip(self, low: float, high: float) -> "Tensor":
        mask = (self.data > low) & (self.data < high)

        def backward(g: np.ndarray):
            return ((self, g * mask),)

        return self._node(np.clip(self.data, low, high), (self,), backward, "clip")

    def sigmoid(self) -> "Tensor":
        out_data = _stable_sigmoid(self.data)

        def backward(g: np.ndarray):
            return ((self, g * out_data * (1.0 - out_data)),)

        return self._node(out_data, (self,), backward, "sigmoid")

    def silu(self) -> "Tensor":
        """SiLU / swish: ``x * sigmoid(x)`` (used by EfficientNet)."""
        sig = _stable_sigmoid(self.data)
        out_data = self.data * sig

        def backward(g: np.ndarray):
            return ((self, g * (sig + self.data * sig * (1.0 - sig))),)

        return self._node(out_data, (self,), backward, "silu")

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray):
            if axis is None:
                mask = self.data == out_data
            else:
                expanded = out_data if keepdims else np.expand_dims(out_data, axis)
                mask = self.data == expanded
                g = g if keepdims else np.expand_dims(g, axis)
            counts = mask.sum(axis=axis, keepdims=True)
            return ((self, mask * g / counts),)

        return self._node(out_data, (self,), backward, "max")


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with a differentiable split."""
    tensors = [Tensor._wrap(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray):
        out = []
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * g.ndim
            index[axis] = slice(start, stop)
            out.append((tensor, g[tuple(index)]))
        return tuple(out)

    data = np.concatenate([t.data for t in tensors], axis=axis)
    return Tensor._node(data, tuple(tensors), backward, "concat")
