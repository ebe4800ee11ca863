"""Differentiable penalty terms evaluated on world-space motion.

All penalties are hinge-style: nonnegative, exactly zero when the
constraint is satisfied, with zero subgradient at the kink so satisfied
constraints stay inert. Inputs are (N x D) frame arrays (Vars, `Row`s or
numpy); distances are meters, so thresholds carry physical units.

Each term is one tape node, its value computed in numpy and its backward
written by hand; a numpy (fixed) subject is no parent and gets no adjoint.
A term's adjoint of a subject is an `autodiff.Scatter` on the frames and
channels it reads, not a zero-filled (N x D) array.
Facing comes from ``motion.facing_gram_schmidt``, the definition the
metrics score, whose vjp is the orientation term's backward.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import TypedDict

import numpy as np

from . import autodiff as ad
from .motion import (Skeleton, default_skeleton, facing_gram_schmidt,
                     glo_slice, rot_slice)


class Row:
    """Row `i` of a (P, N, D) Var as a subject's frames: a term reads it,
    and its `Scatter` adjoint goes to the Var, `i` prefixed to the index."""

    def __init__(self, var: ad.Var, i: int):
        self.var, self.i, self.value = var, i, var.value[i]


def _node(value, subjects, backward) -> ad.Var:
    """`value` as one tape node whose parents are the Vars (a `Row`'s Var)
    among `subjects` that need a gradient; backward(g) returns one Scatter
    per subject, the others' dropped. With no such Var it is a constant."""
    rows = [(s.var, (s.i,)) if isinstance(s, Row) else (s, ())
            for s in subjects]
    need = [isinstance(v, ad.Var) and v.requires_grad for v, _ in rows]
    if not any(need):
        return ad.constant(value)
    return ad.Var(value, [v for (v, _), n in zip(rows, need) if n],
                  lambda g: [ad.Scatter(i + a.index, a.block) for a, (_, i), n
                             in zip(backward(g), rows, need) if n])


def _value(frames) -> np.ndarray:
    return frames.value if isinstance(frames, (ad.Var, Row)) else \
        np.asarray(frames, dtype=np.float64)


def _hinge(h):
    """max(0, h), NaN kept, and its mask: the subgradient is 0 at the kink."""
    mask = ~(h <= 0.0)
    return np.where(mask, h, 0.0), mask


def _root_distance(f1, f2):
    """Root differences (N, 3) of two frame arrays and their lengths."""
    if f1.shape != f2.shape:
        raise ad.ShapeMismatchError("penalty: sequence shapes differ")
    d = f1[:, 0:3] - f2[:, 0:3]
    return d, np.sqrt(np.sum(d * d, axis=1))


def _scatter(frames, channels, block) -> ad.Scatter:
    """`block`, one row per entry of `frames`, as the adjoint at those
    frames and `channels`; the rows of a repeated frame are summed first,
    in order, as into zeros."""
    if len(set(frames.tolist())) < frames.size:
        frames, inverse = np.unique(frames, return_inverse=True)
        rows = np.zeros((frames.size,) + block.shape[1:])
        np.add.at(rows, inverse, block)
        block = rows
    return ad.Scatter((frames, channels), block)


_ROOT = (slice(None), slice(0, 3))   # every frame's root position


def _distance_adjoint(slope, d, dist) -> np.ndarray:
    """Adjoint of the first subject's roots (`_ROOT`) from the adjoint
    `slope` of the root distances. At distance 0 the direction is undefined
    and the subgradient is 0."""
    s = np.divide(slope * 0.5, dist, out=np.zeros_like(dist), where=dist > 0)
    return s[:, None] * d * 2.0


def overlap_penalty(target, others, delta: float = 0.30) -> ad.Var:
    """Sum over other persons and frames of max(0, delta - root distance)."""
    if not others:
        warnings.warn("overlap_penalty: empty `others`, penalty is 0")
        return ad.constant(0.0)
    subjects = [target, *others]
    x = [_value(s) for s in subjects]
    total, rows = np.asarray(0.0), []
    for other in x[1:]:
        d, dist = _root_distance(x[0], other)
        h, mask = _hinge(delta - dist)
        total = total + np.sum(h)
        rows.append((d, dist, mask))

    def backward(g):
        gs = [_distance_adjoint(-(g * mask), d, dist) for d, dist, mask in rows]
        return [ad.Scatter(_ROOT, gi) for gi in [sum(gs)] + [-gi for gi in gs]]

    return _node(total, subjects, backward)


def root_penalty(frames, targets, frame_set, delta: float = 0.0) -> ad.Var:
    """Squared-distance hinge to per-frame target root positions."""
    x = _value(frames)
    frame_set = np.asarray(frame_set, dtype=int)
    if frame_set.size and (frame_set.min() < 0 or frame_set.max() >= x.shape[0]):
        raise IndexError("root_penalty: frame set out of range")
    targets = np.asarray(targets, dtype=np.float64).reshape(len(frame_set), 3)
    d = x[frame_set, 0:3] - targets
    h, mask = _hinge(np.sum(d * d, axis=1) - delta)

    def backward(g):
        gd = (g * mask)[:, None] * d
        return [_scatter(frame_set, slice(0, 3), gd + gd)]

    return _node(np.sum(h), [frames], backward)


def region_joints(joints, J: int) -> list:
    """All J joint ids if `joints` is None, else `joints`, which must be a
    non-empty list of distinct ints in [0, J)."""
    if joints is None:
        return list(range(J))
    if not (isinstance(joints, (list, tuple)) and joints and all(
            type(j) is int and 0 <= j < J for j in joints)
            and len(set(joints)) == len(joints)):
        raise ValueError(f"region penalty joints must be a non-empty list of "
                         f"distinct joint ids in [0, {J}), got {joints!r}")
    return list(joints)


def region_penalty(frames, lower, upper, skeleton: Skeleton,
                   joints=None) -> ad.Var:
    """Per-axis box violation averaged over frames and subject joints."""
    x = _value(frames)
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    if np.any(lower > upper):
        raise ValueError("region_penalty: lower bound exceeds upper bound")
    J, N = skeleton.J, x.shape[0]
    joints = region_joints(joints, J)
    # (N * K, 3) positions of the chosen joints, from rows n * J + j
    rows = (np.arange(N)[:, None] * J + joints).ravel()
    p = x[:, glo_slice(J)].reshape(N * J, 3)[rows]
    below, m_below = _hinge(lower - p)
    above, m_above = _hinge(p - upper)
    scale = 1.0 / (N * len(joints))

    def backward(g):
        gs = g * scale
        gp = np.zeros((N * J, 3))
        gp[rows] = m_above * gs - m_below * gs
        return [ad.Scatter((slice(None), glo_slice(J)), gp.reshape(N, 3 * J))]

    return _node((np.sum(below) + np.sum(above)) * scale, [frames], backward)


def orientation_penalty(frames, d_target, frame_set, skeleton: Skeleton,
                        delta: float = 0.2) -> ad.Var:
    """Hinge on facing alignment: max(0, 1 - d . d_target - delta)."""
    frame_set = np.asarray(frame_set, dtype=int)
    d_target = np.asarray(d_target, dtype=np.float64).reshape(len(frame_set), 2)
    norms = np.linalg.norm(d_target, axis=1)
    if np.any(norms < 1e-9):
        raise ValueError("orientation_penalty: zero-norm target direction")
    d_target = d_target / norms[:, None]
    x = _value(frames)
    rot = slice(rot_slice(skeleton.J).start, rot_slice(skeleton.J).start + 6)
    _, d, vjp = facing_gram_schmidt(x[frame_set, rot])
    h, mask = _hinge(1.0 - np.sum(d * d_target, axis=1) - delta)

    def backward(g):
        return [_scatter(frame_set, rot, vjp(-(g * mask)[:, None] * d_target))]

    return _node(np.sum(h), [frames], backward)


def relative_penalty(frames1, frames2, d_min: float, d_max: float,
                     frame_set=None) -> ad.Var:
    """Keep root distance within [d_min, d_max] on the given frames."""
    if d_min > d_max:
        raise ValueError("relative_penalty: d_min exceeds d_max")
    x1, x2 = _value(frames1), _value(frames2)
    d, dist = _root_distance(x1, x2)
    rows = slice(None) if frame_set is None else \
        np.asarray(frame_set, dtype=int)
    below, m_below = _hinge(d_min - dist[rows])
    above, m_above = _hinge(dist[rows] - d_max)

    def backward(g):
        slope = np.zeros(dist.shape)
        np.add.at(slope, rows, m_above * g - m_below * g)
        g1 = _distance_adjoint(slope, d, dist)
        return [ad.Scatter(_ROOT, g1), ad.Scatter(_ROOT, -g1)]

    return _node(np.sum(below) + np.sum(above), [frames1, frames2], backward)


def boundary_rows(N: int, window_start: int, window_len: int) -> tuple:
    """The frames [lo, hi) of N that `boundary_penalty` reads: the
    acceleration at frame n reads frames n - 1 to n + 1."""
    return max(window_start - 1, 0), min(window_start + window_len + 1, N)


def boundary_penalty(frames, window_start: int, window_len: int,
                     skeleton: Skeleton) -> ad.Var:
    """Mean squared joint acceleration (per joint, per frame) over the
    acceleration frames [window_start, window_start + window_len)."""
    x = _value(frames)
    N, J = x.shape[0], skeleton.J
    if window_len < 3:
        raise ValueError("boundary_penalty: window must span >= 3 frames")
    if not (0 <= window_start and window_start + window_len <= N):
        raise ValueError("boundary_penalty: window outside sequence")
    lo, hi = boundary_rows(N, window_start, window_len)
    p = x[lo:hi, glo_slice(J)].reshape(hi - lo, J, 3)
    a = p[2:] - 2.0 * p[1:-1] + p[:-2]
    scale = 1.0 / ((hi - lo - 2) * J)

    def backward(g):
        ga = g * scale * a
        ga = ga + ga
        # adjoint of the second difference on rows [lo, hi) only,
        # summed in the tape's order
        gp = np.zeros(p.shape)
        gp[2:] += ga
        gp[1:-1] -= 2.0 * ga
        gp[:-2] += ga
        return [ad.Scatter((slice(lo, hi), glo_slice(J)),
                           gp.reshape(hi - lo, 3 * J))]

    return _node(np.sum(a * a) * scale, [frames], backward)


# -- configuration & aggregation ----------------------------------------------


# the params each kind reads, each with its type (an ndarray param is a
# number or nested lists of numbers); any other key is rejected
PARAMS = {"overlap": {"delta": float},
          "root": {"targets": np.ndarray, "delta": float},
          "region": {"lower": np.ndarray, "upper": np.ndarray,
                     "joints": tuple[int, ...]},
          "orientation": {"targets": np.ndarray, "delta": float},
          "relative": {"d_min": float, "d_max": float},
          "boundary": {"window_start": int, "window_len": int}}
KINDS = tuple(PARAMS)
# a penalty's params: a param name has one type whatever the kind
Params = TypedDict("Params", {k: t for kind in PARAMS.values()
                              for k, t in kind.items()}, total=False)
BOUNDARY_WINDOW = {"window_start": 0, "window_len": 25}  # default window
REQUIRED_PARAMS = {"root": ("targets",), "orientation": ("targets",),
                   "region": ("lower", "upper"), "relative": ("d_min", "d_max")}
TARGET_WIDTH = {"root": 3, "orientation": 2}   # values per target frame
# the region bound shapes that broadcast against any (M, 3) joint block
BOUND_SHAPES = ((), (1,), (3,), (1, 1), (1, 3))
# (least, most) subjects per kind; None is no upper bound
SUBJECTS = {"overlap": (2, None), "relative": (2, 2), "root": (1, 1),
            "region": (1, 1), "orientation": (1, 1), "boundary": (1, 1)}


@dataclass
class PenaltyConfig:
    kind: str
    weight: float = 1.0
    subjects: tuple[int, ...] = ()      # person ids the term applies to
    frames: tuple[int, ...] | None = None
    params: Params = field(default_factory=dict)

    def __post_init__(self):
        # sequences become the tuple and int array the terms read
        self.subjects = tuple(self.subjects)
        if self.frames is not None:
            self.frames = np.asarray(self.frames, dtype=int)
        if self.kind not in KINDS:
            raise ValueError(f"unknown penalty kind {self.kind!r}")
        if not 0 <= self.weight < np.inf:
            raise ValueError("penalty weight must be finite and >= 0")
        unknown = sorted(set(self.params) - set(PARAMS[self.kind]))
        if unknown:
            raise ValueError(f"{self.kind} penalty params {unknown} unknown; "
                             f"accepted are {list(PARAMS[self.kind])}")
        missing = [k for k in REQUIRED_PARAMS.get(self.kind, ())
                   if k not in self.params]
        if missing:
            raise ValueError(f"{self.kind} penalty needs params {missing}")
        least, most = SUBJECTS[self.kind]
        n = len(self.subjects)
        if n and (n < least or n > (most or n) or len(set(self.subjects)) < n):
            raise ValueError(f"{self.kind} penalty needs {least}"
                             f"{'' if most else '+'} distinct subjects, got "
                             f"{list(self.subjects)}")
        for key in ("delta", "d_min", "d_max"):
            if key in self.params and self.params[key] < 0:
                raise ValueError(f"penalty {key} must be >= 0")
        if "d_min" in self.params and "d_max" in self.params and \
                self.params["d_min"] > self.params["d_max"]:
            raise ValueError("d_min must not exceed d_max")
        p = self.params
        if self.kind == "region":     # joints of the skeleton scenes use
            region_joints(p.get("joints"), default_skeleton().J)
            for key in ("lower", "upper"):   # broadcast against (M, 3)
                if np.shape(p[key]) not in BOUND_SHAPES:
                    raise ValueError(
                        f"region penalty {key} must be a number, 3 numbers "
                        f"or [[x, y, z]], got shape {np.shape(p[key])}")
            if np.any(np.asarray(p["lower"], float) >
                      np.asarray(p["upper"], float)):
                raise ValueError("region penalty lower bound exceeds upper "
                                 "bound")
        if self.kind == "orientation" and np.size(p["targets"]) % 2 == 0 and \
                np.any(np.hypot(*np.reshape(p["targets"], (-1, 2)).T) < 1e-9):
            raise ValueError("orientation penalty targets must be nonzero")

    def check_frames(self, n_frames: int) -> None:
        """Raise ValueError unless the frames lie in [0, n_frames),
        root/orientation targets hold one point per frame and a boundary
        window of at least 3 frames lies in [0, n_frames)."""
        frames = np.asarray(range(n_frames) if self.frames is None
                            else self.frames, dtype=int)
        if frames.size and (frames.min() < 0 or frames.max() >= n_frames):
            raise ValueError(f"{self.kind} penalty frames outside "
                             f"[0, {n_frames})")
        if self.kind == "boundary":
            w = {**BOUNDARY_WINDOW, **self.params}
            if not (w["window_len"] >= 3 and
                    0 <= w["window_start"] <= n_frames - w["window_len"]):
                raise ValueError(f"boundary penalty window {w} must span "
                                 f">= 3 frames in [0, {n_frames})")
        width = TARGET_WIDTH.get(self.kind)
        if width and np.size(self.params["targets"]) != width * frames.size:
            raise ValueError(f"{self.kind} penalty needs one target per frame")

    def frames_read(self, n_frames: int) -> range:
        """The frames of n_frames a term reads: a boundary window's rows, the
        hull of `frames`, or all (if None, or for overlap, region, relative)."""
        if self.kind == "boundary":
            return range(*boundary_rows(n_frames,
                                        **{**BOUNDARY_WINDOW, **self.params}))
        f = range(n_frames) if self.frames is None or self.kind in (
            "overlap", "region", "relative") else self.frames
        return range(min(f, default=0), max(f, default=-1) + 1)


@dataclass
class LossBreakdown:
    total: float
    terms: dict                  # (kind, subjects) -> unweighted value
    weighted: dict               # (kind, subjects) -> weighted value

    @classmethod
    def empty(cls):
        return cls(0.0, {}, {})


def evaluate_penalty(cfg: PenaltyConfig, world: dict, skeleton: Skeleton) -> ad.Var:
    """Dispatch one configured term. `world` maps person id -> (N x D)
    world-space frames (Var for optimized persons, numpy for fixed ones)."""
    p = cfg.params
    subjects = cfg.subjects
    first = world[subjects[0]]
    N = _value(first).shape[0]
    frames = cfg.frames if cfg.frames is not None else np.arange(N)
    if cfg.kind == "overlap":
        others = [world[i] for i in subjects[1:]]
        return overlap_penalty(first, others, p.get("delta", 0.30))
    if cfg.kind == "root":
        return root_penalty(first, p["targets"], frames, p.get("delta", 0.0))
    if cfg.kind == "region":
        return region_penalty(first, p["lower"], p["upper"], skeleton,
                              p.get("joints"))
    if cfg.kind == "orientation":
        return orientation_penalty(first, p["targets"], frames, skeleton,
                                   p.get("delta", 0.2))
    if cfg.kind == "relative":
        return relative_penalty(first, world[subjects[1]], p["d_min"],
                                p["d_max"], cfg.frames)
    if cfg.kind == "boundary":
        return boundary_penalty(first, **{**BOUNDARY_WINDOW, **p},
                                skeleton=skeleton)
    raise AssertionError(cfg.kind)


def aggregate(configs, world: dict, skeleton: Skeleton):
    """Weighted sum of all configured terms as one tape node, whose
    backward hands term i the adjoint w_i * g (a constant when there are no
    terms). Returns (total Var, breakdown)."""
    terms, weighted, parts = {}, {}, []
    total = np.asarray(0.0)
    for i, cfg in enumerate(configs):
        term = evaluate_penalty(cfg, world, skeleton)
        key = (cfg.kind, cfg.subjects, i)
        terms[key] = float(term.value)
        weighted[key] = cfg.weight * float(term.value)
        total = total + cfg.weight * term.value
        parts.append(term)
    out = ad.Var(total, parts, lambda g: [cfg.weight * g for cfg in configs],
                 requires_grad=bool(parts))
    return out, LossBreakdown(float(total), terms, weighted)
