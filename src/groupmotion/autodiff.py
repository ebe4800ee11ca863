"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Define-by-run: every operation on a ``Var`` eagerly computes its numpy value
and records a backward closure. ``grad(loss, leaves)`` walks the recorded
graph once in reverse topological order. The graph itself acts as the tape;
it is never mutated by a backward pass, so values can be re-read and
``grad`` can be called repeatedly. A result computed from constants alone
is itself a constant, and no backward closure computes the gradient of an
operand that needs none.

A backward returns per parent an adjoint of its shape, None, or a
``Scatter``: a block at an index, zero elsewhere, which ``grad`` adds in
place into the parent's one adjoint buffer, so a node that reads a few
rows of a large parent builds no zero-filled array of its shape.

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

    def __neg__(self):
        return mul(self, -1.0)

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


def _sum_to(g: np.ndarray, parent: Var):
    """g summed down to the parent's shape (inverse of the scalar broadcast,
    the only one _check_elementwise allows); None if it needs no gradient."""
    if not parent.requires_grad:
        return None
    return g if g.shape == parent.value.shape else np.sum(g)


# -- structural ops ---------------------------------------------------------


class Scatter:
    """A partial adjoint: `block` at `index` of the parent's adjoint, zero
    elsewhere. `index` is a basic index, or holds integer arrays whose
    entries do not repeat, so that `adjoint[index] += block` adds each
    entry of `block` once."""

    __slots__ = ("index", "block")

    def __init__(self, index, block):
        self.index = index
        self.block = block


def take(a, idx) -> Var:
    """Indexing/slicing with gradient scatter-add. A bare integer array or
    list indexes the leading axis and may repeat entries; any other index
    (basic, or holding integer arrays that repeat no entry) gets a
    `Scatter` adjoint."""
    a = as_var(a)
    out_val = a.value[idx]
    fancy = isinstance(idx, (np.ndarray, list))

    def backward(g):
        if not fancy:
            return (Scatter(idx, g),)
        ga = np.zeros(a.shape, dtype=np.float64)
        np.add.at(ga, idx, g)   # handles repeated indices
        return (ga,)

    return Var(np.array(out_val, copy=True), (a,), backward)


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
    further grad() calls stay valid: grad adds in place only into buffers
    it allocated, never into a returned adjoint or a Var's value. The sums
    are those of adding each `Scatter` as a zero-filled array.
    """
    if loss.value.shape != ():
        raise ValueError(f"grad: loss must be scalar, got shape {loss.value.shape}")
    leaves = list(leaves)
    adjoint: dict = {id(loss): np.array(1.0)}
    owned: set = set()           # ids whose adjoint grad allocated
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
            acc = adjoint.get(key)
            if key not in owned and (acc is not None or
                                     isinstance(pg, Scatter)):
                acc = adjoint[key] = np.zeros(p.shape) if acc is None else \
                    np.array(acc, dtype=np.float64)
                owned.add(key)
            if acc is None:
                adjoint[key] = pg
            elif isinstance(pg, Scatter):
                acc[pg.index] += pg.block
            else:
                acc += pg
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
