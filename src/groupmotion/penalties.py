"""Differentiable penalty terms evaluated on world-space motion.

All penalties are hinge-style: nonnegative, exactly zero when the
constraint is satisfied, with zero subgradient at the kink so satisfied
constraints stay inert. Inputs are (N x D) frame arrays (autodiff Vars or
numpy); distances are meters, so thresholds carry physical units. Facing
comes from ``motion.facing_directions``, the definition the metrics score.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .motion import Skeleton, facing_directions, glo_slice


def _roots(frames: ad.Var) -> ad.Var:
    return frames[:, 0:3]


def _root_distance(f1: ad.Var, f2: ad.Var) -> ad.Var:
    return ad.norm(_roots(f1) - _roots(f2), axis=1)


def overlap_penalty(target, others, delta: float = 0.30) -> ad.Var:
    """Sum over other persons and frames of max(0, delta - root distance)."""
    target = ad.as_var(target)
    if not others:
        import warnings
        warnings.warn("overlap_penalty: empty `others`, penalty is 0")
        return ad.constant(0.0)
    total = ad.constant(0.0)
    for other in others:
        other = ad.as_var(other)
        if other.shape != target.shape:
            raise ad.ShapeMismatchError("overlap_penalty: sequence shapes differ")
        dist = _root_distance(target, other)
        total = total + ad.sum_(ad.relu(delta - dist))
    return total


def root_penalty(frames, targets, frame_set, delta: float = 0.0) -> ad.Var:
    """Squared-distance hinge to per-frame target root positions."""
    frames = ad.as_var(frames)
    frame_set = np.asarray(frame_set, dtype=int)
    if frame_set.size and (frame_set.min() < 0 or frame_set.max() >= frames.shape[0]):
        raise IndexError("root_penalty: frame set out of range")
    targets = np.asarray(targets, dtype=np.float64).reshape(len(frame_set), 3)
    d = _roots(frames)[frame_set] - ad.constant(targets)
    sq = ad.sum_(d * d, axis=1)
    return ad.sum_(ad.relu(sq - delta))


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
    frames = ad.as_var(frames)
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    if np.any(lower > upper):
        raise ValueError("region_penalty: lower bound exceeds upper bound")
    J, N = skeleton.J, frames.shape[0]
    joints = region_joints(joints, J)
    # (N * J, 3) positions, row n * J + j; keep the chosen joints' rows
    p = ad.reshape(frames[:, glo_slice(J)], (N * J, 3))
    if len(joints) < J:
        p = p[(np.arange(N)[:, None] * J + joints).ravel()]
    low = ad.constant(np.broadcast_to(lower, p.shape))
    up = ad.constant(np.broadcast_to(upper, p.shape))
    total = ad.sum_(ad.relu(low - p)) + ad.sum_(ad.relu(p - up))
    return total * (1.0 / (N * len(joints)))


def orientation_penalty(frames, d_target, frame_set, skeleton: Skeleton,
                        delta: float = 0.2) -> ad.Var:
    """Hinge on facing alignment: max(0, 1 - d . d_target - delta)."""
    frame_set = np.asarray(frame_set, dtype=int)
    d_target = np.asarray(d_target, dtype=np.float64).reshape(len(frame_set), 2)
    norms = np.linalg.norm(d_target, axis=1)
    if np.any(norms < 1e-9):
        raise ValueError("orientation_penalty: zero-norm target direction")
    d_target = d_target / norms[:, None]
    d = facing_directions(frames, skeleton, frame_set)
    dots = ad.sum_(d * ad.constant(d_target), axis=1)
    return ad.sum_(ad.relu(1.0 - dots - delta))


def relative_penalty(frames1, frames2, d_min: float, d_max: float,
                     frame_set=None) -> ad.Var:
    """Keep root distance within [d_min, d_max] on the given frames."""
    if d_min > d_max:
        raise ValueError("relative_penalty: d_min exceeds d_max")
    f1, f2 = ad.as_var(frames1), ad.as_var(frames2)
    dist = _root_distance(f1, f2)
    if frame_set is not None:
        dist = dist[np.asarray(frame_set, dtype=int)]
    return ad.sum_(ad.relu(d_min - dist)) + ad.sum_(ad.relu(dist - d_max))


def boundary_penalty(frames, window_start: int, window_len: int,
                     skeleton: Skeleton) -> ad.Var:
    """Mean squared joint acceleration (per joint, per frame) over the
    acceleration frames [window_start, window_start + window_len)."""
    frames = ad.as_var(frames)
    N, J = frames.shape[0], skeleton.J
    if window_len < 3:
        raise ValueError("boundary_penalty: window must span >= 3 frames")
    if not (0 <= window_start and window_start + window_len <= N):
        raise ValueError("boundary_penalty: window outside sequence")
    p = ad.reshape(frames[:, glo_slice(J)], (N, J, 3))
    acc = p[2:, :, :] - 2.0 * p[1:-1, :, :] + p[:-2, :, :]
    # acceleration at frame n uses p(n-1), p(n), p(n+1); index shift of 1
    lo = max(window_start - 1, 0)
    hi = min(window_start + window_len - 1, N - 2)
    if hi - lo < 1:
        raise ValueError("boundary_penalty: window too small after clipping")
    a = acc[lo:hi, :, :]
    return ad.sum_(a * a) * (1.0 / ((hi - lo) * J))


# -- configuration & aggregation ----------------------------------------------


# the params each kind reads; any other key is rejected
PARAMS = {"overlap": ("delta",), "root": ("targets", "delta"),
          "region": ("lower", "upper", "joints"),
          "orientation": ("targets", "delta"), "relative": ("d_min", "d_max"),
          "boundary": ("window_start", "window_len")}
KINDS = tuple(PARAMS)
REQUIRED_PARAMS = {"root": ("targets",), "orientation": ("targets",),
                   "region": ("lower", "upper"), "relative": ("d_min", "d_max")}
TARGET_WIDTH = {"root": 3, "orientation": 2}   # values per target frame
# (least, most) subjects per kind; None is no upper bound
SUBJECTS = {"overlap": (2, None), "relative": (2, 2), "root": (1, 1),
            "region": (1, 1), "orientation": (1, 1), "boundary": (1, 1)}


@dataclass
class PenaltyConfig:
    kind: str
    weight: float = 1.0
    subjects: tuple = ()         # person ids the term applies to
    frames: np.ndarray | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        # JSON lists become the tuple and int array the terms read
        self.subjects = tuple(self.subjects)
        if self.frames is not None:
            self.frames = np.asarray(self.frames, dtype=int)
        if self.kind not in KINDS:
            raise ValueError(f"unknown penalty kind {self.kind!r}")
        if self.weight < 0:
            raise ValueError("penalty weight must be >= 0")
        if not isinstance(self.params, dict):
            raise ValueError(f"{self.kind} penalty params must be an object")
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
        if self.kind == "region" and np.any(np.asarray(p["lower"], float) >
                                            np.asarray(p["upper"], float)):
            raise ValueError("region penalty lower bound exceeds upper bound")
        if self.kind == "orientation" and np.size(p["targets"]) % 2 == 0 and \
                np.any(np.hypot(*np.reshape(p["targets"], (-1, 2)).T) < 1e-9):
            raise ValueError("orientation penalty targets must be nonzero")

    def check_frames(self, n_frames: int) -> None:
        """Raise ValueError unless the frames lie in [0, n_frames) and
        root/orientation targets hold one point per frame."""
        frames = np.asarray(range(n_frames) if self.frames is None
                            else self.frames, dtype=int)
        if frames.size and (frames.min() < 0 or frames.max() >= n_frames):
            raise ValueError(f"{self.kind} penalty frames outside "
                             f"[0, {n_frames})")
        width = TARGET_WIDTH.get(self.kind)
        if width and np.size(self.params["targets"]) != width * frames.size:
            raise ValueError(f"{self.kind} penalty needs one target per frame")


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
    N = first.shape[0]
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
        return boundary_penalty(first, p.get("window_start", 0),
                                p.get("window_len", 25), skeleton)
    raise AssertionError(cfg.kind)


def aggregate(configs, world: dict, skeleton: Skeleton):
    """Weighted sum of all configured terms. Returns (total Var, breakdown)."""
    total = ad.constant(0.0)
    terms, weighted = {}, {}
    for i, cfg in enumerate(configs):
        term = evaluate_penalty(cfg, world, skeleton)
        key = (cfg.kind, cfg.subjects, i)
        terms[key] = float(term.value)
        weighted[key] = cfg.weight * float(term.value)
        total = total + cfg.weight * term
    return total, LossBreakdown(float(total.value), terms, weighted)
