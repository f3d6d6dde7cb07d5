"""Reverse-mode automatic differentiation on numpy arrays.

The design follows the classic tape-free autograd pattern: every
:class:`Tensor` remembers its parent tensors and a closure that
accumulates gradients into them.  Calling :meth:`Tensor.backward`
performs a topological sort of the graph and runs the closures in
reverse order.

Graph lifetime: backward consumes the graph, as PyTorch's does without
``retain_graph``.  Once a node's closure has run, the node drops the
closure, its parents and its ``.grad`` — so reference counting frees
each intermediate as soon as backward has passed it, instead of the
cyclic collector freeing the whole tape some time later (every closure
captures the node it belongs to).  Leaves keep their accumulated
``.grad``; a non-leaf's ``.grad`` is ``None`` afterwards.  A second
backward that reaches a consumed node — the same root again, or
another loss sharing part of the graph — raises ``RuntimeError``
instead of propagating stale gradients.

Broadcasting is supported for the elementwise operations; gradients
flowing into a broadcast operand are summed back to the operand's
original shape by :func:`_unbroadcast`.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.autograd.scatter import add_at

DEFAULT_DTYPE = np.float32


class _GradState(threading.local):
    """Per-thread grad-mode flag.

    Thread-local so concurrent ``no_grad`` blocks (e.g. several
    serving workers plus the submitting thread) cannot restore each
    other's flag mid-walk — each thread owns its own, defaulting to
    enabled.  Module train/eval mode is *not* per-thread, so this does
    not make training and serving the same model concurrently safe.
    """

    enabled = True


_GRAD_STATE = _GradState()


def is_grad_enabled() -> bool:
    """Return whether gradient tracking is enabled in this thread."""
    return _GRAD_STATE.enabled


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction (this thread).

    Used for evaluation/inference so that no backward closures are
    recorded and intermediate buffers can be freed eagerly.
    """
    previous = _GRAD_STATE.enabled
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _graph_freed() -> None:
    """A consumed node's backward: a plain function, so it holds no
    reference back to the node."""
    raise RuntimeError(
        "graph already freed by backward(): build the graph again "
        "before calling backward() through it a second time")


ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]


class Tensor:
    """A numpy array with an optional autograd tape entry.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``dtype`` (default float32).
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "_op",
                 "__weakref__")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _prev: Tuple["Tensor", ...] = (),
        _op: str = "",
        dtype: Optional[np.dtype] = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        grad_enabled = _GRAD_STATE.enabled
        self.data = np.asarray(data, dtype=dtype or DEFAULT_DTYPE)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and grad_enabled
        self._backward: Optional[Callable[[], None]] = None
        self._prev = _prev if grad_enabled else ()
        self._op = _op

    # ------------------------------------------------------------------
    # Introspection helpers
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
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag}, op={self._op or 'leaf'})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new leaf tensor sharing data but outside the graph."""
        return Tensor(self.data, requires_grad=False)

    def ensure_writable(self) -> np.ndarray:
        """Make :attr:`data` privately writable, copying on first write.

        Tensors may wrap *foreign* read-only buffers — OS shared-memory
        views exported by :mod:`repro.runtime` or frozen tables shared
        between agent clones.  Reads stay zero-copy; the first caller
        that needs to mutate the payload goes through here, which
        replaces the view with a private writable copy (copy-on-write).
        Returns the (now writable) array.
        """
        if not self.data.flags.writeable:
            self.data = self.data.copy()
        return self.data

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph machinery
    # ------------------------------------------------------------------
    def _make_child(self, data: np.ndarray, parents: Sequence["Tensor"], op: str) -> "Tensor":
        requires = _GRAD_STATE.enabled and any(p.requires_grad for p in parents)
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = requires
        out._backward = None
        out._prev = tuple(parents) if requires else ()
        out._op = op
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph,
        consuming it (see "Graph lifetime" in the module docstring)."""
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without a gradient requires a scalar output")
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited and parent.requires_grad:
                    stack.append((parent, False))
        self._accumulate(np.asarray(grad, dtype=self.data.dtype))
        # Pop rather than iterate so the list stops holding each node
        # once it has run.
        while topo:
            node = topo.pop()
            run = node._backward
            if run is None:  # a leaf keeps its gradient
                continue
            if node.grad is not None:
                run()
            node._backward = _graph_freed
            node._prev = ()
            node.grad = None

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other: ArrayLike) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other, dtype=self.data.dtype)

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out = self._make_child(self.data + other.data, (self, other), "add")
        if out.requires_grad:

            def _backward() -> None:
                if self.requires_grad:
                    self._accumulate(_unbroadcast(out.grad, self.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(out.grad, other.shape))

            out._backward = _backward
        return out

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out = self._make_child(self.data * other.data, (self, other), "mul")
        if out.requires_grad:

            def _backward() -> None:
                if self.requires_grad:
                    self._accumulate(_unbroadcast(out.grad * other.data, self.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(out.grad * self.data, other.shape))

            out._backward = _backward
        return out

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (self._coerce(other) * -1.0)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other) + (self * -1.0)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        return self * other.pow(-1.0)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other) * self.pow(-1.0)

    def __neg__(self) -> "Tensor":
        return self * -1.0

    __radd__ = __add__
    __rmul__ = __mul__

    def pow(self, exponent: float) -> "Tensor":
        out = self._make_child(np.power(self.data, exponent), (self,), "pow")
        if out.requires_grad:

            def _backward() -> None:
                self._accumulate(exponent * np.power(self.data, exponent - 1.0) * out.grad)

            out._backward = _backward
        return out

    __pow__ = pow

    # ------------------------------------------------------------------
    # Nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out = self._make_child(np.exp(self.data), (self,), "exp")
        if out.requires_grad:

            def _backward() -> None:
                self._accumulate(out.data * out.grad)

            out._backward = _backward
        return out

    def log(self) -> "Tensor":
        out = self._make_child(np.log(self.data), (self,), "log")
        if out.requires_grad:

            def _backward() -> None:
                self._accumulate(out.grad / self.data)

            out._backward = _backward
        return out

    def sqrt(self) -> "Tensor":
        return self.pow(0.5)

    def tanh(self) -> "Tensor":
        out = self._make_child(np.tanh(self.data), (self,), "tanh")
        if out.requires_grad:

            def _backward() -> None:
                self._accumulate((1.0 - out.data * out.data) * out.grad)

            out._backward = _backward
        return out

    def sigmoid(self) -> "Tensor":
        value = 1.0 / (1.0 + np.exp(-self.data))
        out = self._make_child(value, (self,), "sigmoid")
        if out.requires_grad:

            def _backward() -> None:
                self._accumulate(out.data * (1.0 - out.data) * out.grad)

            out._backward = _backward
        return out

    def relu(self) -> "Tensor":
        out = self._make_child(np.maximum(self.data, 0.0), (self,), "relu")
        if out.requires_grad:

            def _backward() -> None:
                self._accumulate((self.data > 0.0) * out.grad)

            out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other: ArrayLike) -> "Tensor":
        """Matrix product supporting 2-D and batched (>=3-D) operands."""
        other = self._coerce(other)
        out = self._make_child(np.matmul(self.data, other.data), (self, other), "matmul")
        if out.requires_grad:

            def _backward() -> None:
                grad = out.grad
                if self.requires_grad:
                    if other.data.ndim == 1:
                        g = np.multiply.outer(grad, other.data) if grad.ndim else grad * other.data
                        self._accumulate(_unbroadcast(np.asarray(g), self.shape))
                    else:
                        g = np.matmul(grad, np.swapaxes(other.data, -1, -2))
                        self._accumulate(_unbroadcast(g, self.shape))
                if other.requires_grad:
                    if self.data.ndim == 1:
                        g = np.multiply.outer(self.data, grad) if grad.ndim else self.data * grad
                        other._accumulate(_unbroadcast(np.asarray(g), other.shape))
                    else:
                        g = np.matmul(np.swapaxes(self.data, -1, -2), grad)
                        other._accumulate(_unbroadcast(g, other.shape))

            out._backward = _backward
        return out

    __matmul__ = matmul

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = self._make_child(self.data.sum(axis=axis, keepdims=keepdims), (self,), "sum")
        if out.requires_grad:

            def _backward() -> None:
                grad = out.grad
                if axis is not None and not keepdims:
                    grad = np.expand_dims(grad, axis=axis)
                self._accumulate(np.broadcast_to(grad, self.shape).copy())

            out._backward = _backward
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        value = self.data.max(axis=axis, keepdims=keepdims)
        out = self._make_child(value, (self,), "max")
        if out.requires_grad:

            def _backward() -> None:
                grad = out.grad
                val = out.data
                if axis is not None and not keepdims:
                    grad = np.expand_dims(grad, axis=axis)
                    val = np.expand_dims(val, axis=axis)
                mask = (self.data == val).astype(self.data.dtype)
                # Split the gradient evenly among ties so the result is a
                # valid subgradient regardless of duplicates.
                counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
                self._accumulate(mask * grad / counts)

            out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = self._make_child(self.data.reshape(shape), (self,), "reshape")
        if out.requires_grad:

            def _backward() -> None:
                self._accumulate(out.grad.reshape(self.shape))

            out._backward = _backward
        return out

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = None
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out = self._make_child(self.data.transpose(axes), (self,), "transpose")
        if out.requires_grad:
            inverse = None if axes is None else tuple(np.argsort(axes))

            def _backward() -> None:
                self._accumulate(out.grad.transpose(inverse))

            out._backward = _backward
        return out

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(tuple(axes))

    def __getitem__(self, index) -> "Tensor":
        out = self._make_child(self.data[index], (self,), "getitem")
        if out.requires_grad:

            def _backward() -> None:
                grad = np.zeros(self.shape, dtype=self.data.dtype)
                add_at(grad, index, out.grad)
                self._accumulate(grad)

            out._backward = _backward
        return out

    def masked_fill(self, mask: np.ndarray, value: float) -> "Tensor":
        """Return a tensor equal to self but with ``value`` where ``mask``."""
        mask = np.asarray(mask, dtype=bool)
        data = self.data.copy()
        data[np.broadcast_to(mask, data.shape)] = value
        out = self._make_child(data, (self,), "masked_fill")
        if out.requires_grad:

            def _backward() -> None:
                grad = out.grad.copy()
                grad[np.broadcast_to(mask, grad.shape)] = 0.0
                self._accumulate(grad)

            out._backward = _backward
        return out


def tensor(data: ArrayLike, requires_grad: bool = False, dtype=None) -> Tensor:
    """Convenience constructor mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad, dtype=dtype)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    requires = _GRAD_STATE.enabled and any(t.requires_grad for t in tensors)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = requires
    out._backward = None
    out._prev = tuple(tensors) if requires else ()
    out._op = "concat"
    if requires:
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def _backward() -> None:
            for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    slicer = [slice(None)] * data.ndim
                    slicer[axis] = slice(start, stop)
                    t._accumulate(out.grad[tuple(slicer)])

        out._backward = _backward
    return out


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient support."""
    tensors = list(tensors)
    data = np.stack([t.data for t in tensors], axis=axis)
    requires = _GRAD_STATE.enabled and any(t.requires_grad for t in tensors)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = requires
    out._backward = None
    out._prev = tuple(tensors) if requires else ()
    out._op = "stack"
    if requires:

        def _backward() -> None:
            grads = np.split(out.grad, len(tensors), axis=axis)
            for t, g in zip(tensors, grads):
                if t.requires_grad:
                    t._accumulate(np.squeeze(g, axis=axis))

        out._backward = _backward
    return out
