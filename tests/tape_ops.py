"""Tape ops that only the op-by-op oracles and the engine's own tests use.

Every stage of the package's hot path, the MLP prior included, is a
hand-written tape node, so `groupmotion.autodiff` keeps only the tape,
`add`, `sub`, `mul`, `take`, `stack` and Adam. These are the rest, written
in the same style on the same `Var`: the scripted-pair oracle
(`tape_scripts`) needs the trigonometry, `exp`, `relu`, `norm`, `div`,
`tanh`, `sum_`, `concat`, `reshape` and `broadcast_to`; the penalty and
sampler oracles (`tape_penalties`, `tape_samplers`) need `relu`, `norm`,
`div`, `sum_`, `reshape` and `broadcast_to`; the MLP oracle (`tape_mlp`)
needs `matmul`, `tanh`, `mean`, `concat`, `reshape` and `broadcast_to`.
Division and real powers are plain functions, `div(a, b)` and
`powi(a, p)`, not `Var` operators.
"""

from __future__ import annotations

import numpy as np

from groupmotion.autodiff import (ShapeMismatchError, Var, _check_elementwise,
                                  _sum_to, as_var)


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


def norm(a, axis=None, eps: float = 0.0) -> Var:
    """Euclidean norm; `eps` smooths the origin when differentiability there
    matters (scripted direction fields)."""
    sq = sum_(a * a, axis=axis)
    if eps:
        sq = sq + eps * eps
    return sqrt(sq)


def tanh(a) -> Var:
    a = as_var(a)
    out_val = np.tanh(a.value)

    def backward(g):
        return (g * (1.0 - out_val * out_val),)

    return Var(out_val, (a,), backward)


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
