"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Define-by-run: every operation on a ``Var`` eagerly computes its numpy value
and records a backward closure. ``grad(loss, leaves)`` walks the recorded
graph once in reverse topological order. The graph itself acts as the tape;
it is never mutated by a backward pass, so values can be re-read and
``grad`` can be called repeatedly. A result computed from constants alone
is itself a constant, and no backward closure computes the gradient of an
operand that needs none.

Broadcasting is deliberately restricted to scalar-with-array. Any other
shape mismatch raises, because silent broadcasting is the easiest way to
get a wrong gradient without noticing. That rule binds Var operands only:
a hand-written node, ``Var(value, parents, backward)``, may broadcast
constant numpy scales against a parent whose shape equals its value's,
as long as its backward returns one adjoint of each parent's shape.
"""

from __future__ import annotations

from operator import attrgetter

import numpy as np

_requires_grad = attrgetter("requires_grad")


class ShapeMismatchError(ValueError):
    pass


def _check_elementwise(op: str, a: np.ndarray, b: np.ndarray) -> None:
    # scalar-with-array is the only permitted broadcast
    if a.shape == b.shape or a.ndim == 0 or b.ndim == 0:
        return
    raise ShapeMismatchError(f"{op}: incompatible shapes {a.shape} vs {b.shape}")


class Var:
    """A node in the computation graph: value plus backward bookkeeping."""

    __slots__ = ("value", "parents", "_backward", "requires_grad")

    def __init__(self, value, parents=(), backward=None, requires_grad=True):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = tuple(parents)
        self._backward = backward
        # an op result computed from constants alone is a constant too
        self.requires_grad = requires_grad and (
            not self.parents or any(map(_requires_grad, self.parents)))

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self):
        return self.value.ndim

    def __repr__(self):
        return f"Var(shape={self.value.shape})"

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __pow__(self, p):
        return powi(self, p)

    def __getitem__(self, idx):
        return take(self, idx)


def constant(x) -> Var:
    return Var(x, requires_grad=False)


def as_var(x) -> Var:
    """`x` itself if it is a Var, else `x` as a constant leaf."""
    return x if isinstance(x, Var) else constant(x)


# -- elementwise ops -----------------------------------------------------


def add(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    _check_elementwise("add", a.value, b.value)
    out_val = a.value + b.value

    def backward(g):
        return (_sum_to(g, a), _sum_to(g, b))

    return Var(out_val, (a, b), backward)


def sub(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    _check_elementwise("sub", a.value, b.value)

    def backward(g):
        return (_sum_to(g, a), _sum_to(-g, b) if b.requires_grad else None)

    return Var(a.value - b.value, (a, b), backward)


def mul(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    _check_elementwise("mul", a.value, b.value)

    def backward(g):
        return (_sum_to(g * b.value, a) if a.requires_grad else None,
                _sum_to(g * a.value, b) if b.requires_grad else None)

    return Var(a.value * b.value, (a, b), backward)


def div(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    _check_elementwise("div", a.value, b.value)
    inv = 1.0 / b.value

    def backward(g):
        return (
            _sum_to(g * inv, a) if a.requires_grad else None,
            _sum_to(-g * a.value * inv * inv, b) if b.requires_grad else None,
        )

    return Var(a.value * inv, (a, b), backward)


def powi(a, p: float) -> Var:
    a = as_var(a)
    p = float(p)

    def backward(g):
        return (g * p * np.power(a.value, p - 1.0),)

    return Var(np.power(a.value, p), (a,), backward)


def _sum_to(g: np.ndarray, parent: Var):
    """g summed down to the parent's shape (inverse of the scalar broadcast,
    the only one _check_elementwise allows); None if it needs no gradient."""
    if not parent.requires_grad:
        return None
    return g if g.shape == parent.value.shape else np.sum(g)


def relu(a) -> Var:
    """max(0, a); subgradient at 0 is 0 (satisfied hinge stays inert)."""
    a = as_var(a)
    mask = a.value > 0.0

    def backward(g):
        return (g * mask,)

    return Var(np.where(mask, a.value, 0.0), (a,), backward)


def sqrt(a) -> Var:
    a = as_var(a)
    out_val = np.sqrt(a.value)

    def backward(g):
        return (g * 0.5 / out_val,)

    return Var(out_val, (a,), backward)


def exp(a) -> Var:
    a = as_var(a)
    out_val = np.exp(a.value)

    def backward(g):
        return (g * out_val,)

    return Var(out_val, (a,), backward)


def tanh(a) -> Var:
    a = as_var(a)
    out_val = np.tanh(a.value)

    def backward(g):
        return (g * (1.0 - out_val * out_val),)

    return Var(out_val, (a,), backward)


def sin(a) -> Var:
    a = as_var(a)

    def backward(g):
        return (g * np.cos(a.value),)

    return Var(np.sin(a.value), (a,), backward)


def cos(a) -> Var:
    a = as_var(a)

    def backward(g):
        return (-g * np.sin(a.value),)

    return Var(np.cos(a.value), (a,), backward)


def atan2(y, x) -> Var:
    y, x = as_var(y), as_var(x)
    _check_elementwise("atan2", y.value, x.value)
    denom = y.value * y.value + x.value * x.value

    def backward(g):
        return (
            _sum_to(g * x.value / denom, y) if y.requires_grad else None,
            _sum_to(-g * y.value / denom, x) if x.requires_grad else None,
        )

    return Var(np.arctan2(y.value, x.value), (y, x), backward)


# -- reductions / structural ops ------------------------------------------


def sum_(a, axis=None) -> Var:
    a = as_var(a)
    out_val = np.sum(a.value, axis=axis)

    def backward(g):
        if axis is None:
            return (np.full(a.shape, g, dtype=np.float64),)
        g_exp = np.expand_dims(g, axis)
        return (np.broadcast_to(g_exp, a.shape).copy(),)

    return Var(out_val, (a,), backward)


def mean(a, axis=None) -> Var:
    a = as_var(a)
    count = a.value.size if axis is None else a.shape[axis]
    return sum_(a, axis=axis) * (1.0 / count)


def matmul(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(
            f"matmul: incompatible shapes {a.shape} vs {b.shape}"
        )

    def backward(g):
        return (g @ b.value.T, a.value.T @ g)

    return Var(a.value @ b.value, (a, b), backward)


def take(a, idx) -> Var:
    """Indexing/slicing with gradient scatter-add. Integer-array indices are
    allowed on the leading axis only; otherwise basic indexing."""
    a = as_var(a)
    out_val = a.value[idx]
    fancy = isinstance(idx, (np.ndarray, list))

    def backward(g):
        ga = np.zeros(a.shape, dtype=np.float64)
        if fancy:
            np.add.at(ga, idx, g)   # handles repeated indices
        else:
            ga[idx] += g
        return (ga,)

    return Var(np.array(out_val, copy=True), (a,), backward)


def concat(parts, axis=0) -> Var:
    parts = [as_var(p) for p in parts]
    out_val = np.concatenate([p.value for p in parts], axis=axis)
    ends = np.cumsum([p.shape[axis] for p in parts]).tolist()

    def backward(g):
        idx = [slice(None)] * g.ndim
        out = []
        for p, lo, hi in zip(parts, [0] + ends, ends):
            idx[axis] = slice(lo, hi)
            out.append(np.array(g[tuple(idx)], copy=True)
                       if p.requires_grad else None)
        return tuple(out)

    return Var(out_val, parts, backward)


def stack(parts, axis=0) -> Var:
    parts = [as_var(p) for p in parts]
    out_val = np.stack([p.value for p in parts], axis=axis)

    def backward(g):
        return tuple(
            np.array(np.take(g, i, axis=axis), copy=True)
            if p.requires_grad else None
            for i, p in enumerate(parts)
        )

    return Var(out_val, parts, backward)


def reshape(a, shape) -> Var:
    a = as_var(a)
    old = a.shape

    def backward(g):
        return (g.reshape(old),)

    return Var(a.value.reshape(shape), (a,), backward)


def broadcast_to(a, shape) -> Var:
    """Explicit broadcast; the only way to widen a non-scalar array."""
    a = as_var(a)
    out_val = np.broadcast_to(a.value, shape).copy()
    old = a.shape

    def backward(g):
        extra = g.ndim - len(old)
        gg = g.sum(axis=tuple(range(extra))) if extra else g
        keep = tuple(i for i, s in enumerate(old) if s == 1 and gg.shape[i] != 1)
        if keep:
            gg = gg.sum(axis=keep, keepdims=True)
        return (gg.reshape(old),)

    return Var(out_val, (a,), backward)


def norm(a, axis=None, eps: float = 0.0) -> Var:
    """Euclidean norm; `eps` smooths the origin when differentiability there
    matters (scripted direction fields)."""
    sq = sum_(a * a, axis=axis)
    if eps:
        sq = sq + eps * eps
    return sqrt(sq)


# -- backward pass ---------------------------------------------------------


def _toposort(root: Var) -> list:
    """Post-order of the nodes that need a gradient; constants and their
    subgraphs never receive one and are left out."""
    order: list = []
    seen: set = set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order  # parents before children


def grad(loss: Var, leaves) -> list:
    """Return d(loss)/d(leaf) for every leaf Var.

    `loss` must be scalar. The graph is untouched, so both the values and
    further grad() calls stay valid.
    """
    if loss.value.shape != ():
        raise ValueError(f"grad: loss must be scalar, got shape {loss.value.shape}")
    leaves = list(leaves)
    adjoint: dict = {id(loss): np.array(1.0)}
    order = _toposort(loss)
    for node in reversed(order):
        g = adjoint.get(id(node))
        if g is None or node._backward is None:
            continue
        parent_grads = node._backward(np.asarray(g, dtype=np.float64))
        for p, pg in zip(node.parents, parent_grads):
            if pg is None or not p.requires_grad:
                continue
            key = id(p)
            if key in adjoint:
                adjoint[key] = adjoint[key] + pg
            else:
                adjoint[key] = pg
    out = []
    for leaf in leaves:
        g = adjoint.get(id(leaf))
        out.append(np.zeros(leaf.shape) if g is None else np.broadcast_to(g, leaf.shape).astype(np.float64))
    return out


# -- Adam ------------------------------------------------------------------


class Adam:
    """Bias-corrected Adam over a list of parameter arrays. `lr` may be
    changed between steps (learning-rate decay)."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, shapes, lr: float):
        if lr <= 0:
            raise ValueError(f"Adam: lr must be positive, got {lr}")
        self.lr = lr
        self.t = 0
        self.m = [np.zeros(s, dtype=np.float64) for s in shapes]
        self.v = [np.zeros(s, dtype=np.float64) for s in shapes]

    def step(self, params: list, grads: list) -> list:
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        out = []
        for i, (p, g) in enumerate(zip(params, grads)):
            if p.shape != g.shape or p.shape != self.m[i].shape:
                raise ShapeMismatchError("Adam: params/grads/state shapes disagree")
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * g * g
            m_hat = self.m[i] / (1.0 - b1 ** self.t)
            v_hat = self.v[i] / (1.0 - b2 ** self.t)
            out.append(p - self.lr * m_hat / (np.sqrt(v_hat) + self.EPS))
        return out
