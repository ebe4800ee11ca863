"""Tape ops that only the op-by-op oracles and the engine's own tests use.

The package's hot path is hand-written tape nodes, so `groupmotion.autodiff`
keeps only the ops its nodes and the MLP prior call. These are the rest,
written in the same style on the same `Var`: the scripted-pair oracle
(`tape_scripts`) needs the trigonometry, `exp`, `relu` and `norm`; the
penalty and sampler oracles (`tape_penalties`, `tape_samplers`) need
`relu`, `sqrt`, `norm` and `div`. Division and real powers are plain
functions, `div(a, b)` and `powi(a, p)`, not `Var` operators.
"""

from __future__ import annotations

import numpy as np

from groupmotion import autodiff as ad
from groupmotion.autodiff import Var, _check_elementwise, _sum_to, as_var


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
    sq = ad.sum_(a * a, axis=axis)
    if eps:
        sq = sq + eps * eps
    return sqrt(sq)
