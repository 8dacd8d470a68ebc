"""Minimal reverse-mode autodiff over numpy arrays.

Only the operations the quality model needs are implemented. Graphs are
built eagerly; calling .backward() on a scalar output walks the graph once
in reverse topological order. float32 is the training dtype, float64 is
used by the finite-difference checker. Inside `no_grad()` no graph is
recorded, so forward-only passes hold no intermediates.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

_grad_enabled = True


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._backward = None
        self._parents = ()

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return "Tensor(shape=%r, grad=%s)" % (self.shape, self.requires_grad)

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo, visited = [], set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                if node.grad is not None:
                    node._backward(node.grad)
                # free intermediate grads and closures as soon as they
                # are consumed; keeps peak memory proportional to the
                # widest layer instead of the whole graph
                node.grad = None
                node._backward = None
                node._parents = ()

    # operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, mul_const(as_tensor(other), -1.0))

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return mul_const(self, -1.0)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


@contextmanager
def no_grad():
    """Record no parents or backward closures inside the block: results
    never require grad and each intermediate is freed once consumed."""
    global _grad_enabled
    prev, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = prev


def _make(data, parents, backward) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _accum(t: Tensor, g: np.ndarray):
    """Add g to t.grad without copying: the first g is stored as given, so
    a gradient array may be shared (add hands one g to both parents) or a
    read-only view, and is never written in place, by a closure or an
    optimizer. A sum is cast to t's dtype, as a float64 term would promote."""
    if not t.requires_grad:
        return
    g = _unbroadcast(np.asarray(g), t.data.shape)
    if t.grad is None:
        t.grad = g.astype(t.data.dtype, copy=False)
    else:
        t.grad = (t.grad + g).astype(t.data.dtype, copy=False)


# ---------------------------------------------------------------- basics

def add(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        _accum(a, g)
        _accum(b, g)

    return _make(a.data + b.data, (a, b), backward)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _make(a.data * b.data, (a, b), backward)


def mul_const(a, c: float):
    a = as_tensor(a)

    def backward(g):
        _accum(a, g * c)

    return _make(a.data * c, (a,), backward)


def add_const(a, c: float):
    a = as_tensor(a)

    def backward(g):
        _accum(a, g)

    return _make(a.data + c, (a,), backward)


def relu(a):
    a = as_tensor(a)
    y = np.maximum(a.data, 0.0)

    def backward(g):
        _accum(a, g * (y > 0))

    return _make(y, (a,), backward)


def sigmoid(a):
    a = as_tensor(a)
    y = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        _accum(a, g * y * (1.0 - y))

    return _make(y, (a,), backward)


def log(a):
    a = as_tensor(a)

    def backward(g):
        _accum(a, g / a.data)

    return _make(np.log(a.data), (a,), backward)


def softplus(a):
    """log(1 + e^x), numerically stable."""
    a = as_tensor(a)
    y = np.logaddexp(0.0, a.data)
    s = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        _accum(a, g * s)

    return _make(y, (a,), backward)


def absolute(a):
    a = as_tensor(a)
    sign = np.sign(a.data)

    def backward(g):
        _accum(a, g * sign)

    return _make(np.abs(a.data), (a,), backward)


def tensor_sum(a, axis=None):
    a = as_tensor(a)

    def backward(g):
        if axis is None:
            _accum(a, np.broadcast_to(g, a.data.shape))
        else:
            _accum(a, np.broadcast_to(np.expand_dims(g, axis), a.data.shape))

    return _make(a.data.sum(axis=axis), (a,), backward)


def mean(a):
    a = as_tensor(a)
    return mul_const(tensor_sum(a), 1.0 / a.data.size)


def clip(a, lo: float, hi: float):
    a = as_tensor(a)
    mask = (a.data > lo) & (a.data < hi)

    def backward(g):
        _accum(a, g * mask)

    return _make(np.clip(a.data, lo, hi), (a,), backward)


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accum(t, piece)

    return _make(np.concatenate([t.data for t in tensors], axis=axis),
                 tensors, backward)


def index_select(a, idx, axis=0):
    """Pick rows along `axis`; backward scatter-adds."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)

    def backward(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, (slice(None),) * axis + (idx,), g)
        _accum(a, buf)

    return _make(np.take(a.data, idx, axis=axis), (a,), backward)


def reshape(a, shape):
    a = as_tensor(a)
    old = a.data.shape

    def backward(g):
        _accum(a, np.asarray(g).reshape(old))

    return _make(a.data.reshape(shape), (a,), backward)


# --------------------------------------------------------------- losses

def l1_loss(pred, target):
    """Mean absolute error over all elements."""
    return mean(absolute(pred - as_tensor(target)))


def bce_loss(p, target, reduce="mean"):
    """Binary cross-entropy on probabilities clamped to (1e-7, 1 - 1e-7);
    the mean, or with reduce="none" the elementwise loss."""
    p = clip(as_tensor(p), 1e-7, 1.0 - 1e-7)
    t = as_tensor(target)
    one_minus_t = Tensor(1.0 - t.data)
    loss = -(t * log(p) + one_minus_t * log(add_const(mul_const(p, -1.0), 1.0)))
    return mean(loss) if reduce == "mean" else loss
