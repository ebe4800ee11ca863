"""Skeleton, per-frame pose layout, kinematic helpers and motion file I/O.

A frame is a flat vector of width D = 3J + 3J + 6J + 4:

    [ global joint positions | joint velocities | 6D joint rotations | foot contacts ]

Positions and velocities are world-space meters (y up, xz ground plane),
velocities in meters/frame. Rotations use the continuous 6D representation
(first two columns of the rotation matrix). The 4 contact features map to
``Skeleton.foot_joint_ids``.

Facing is defined once, by the numpy Gram-Schmidt ``facing_gram_schmidt``
beside its vjp: ``facing_direction`` reads it for the metrics, and the
orientation penalty's tape node for its value and backward.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

MOTION_FORMAT_VERSION = 1
N_FRAMES_MAX = 1000     # the most frames a config asks of one sampled window


def pose_width(J: int) -> int:
    return 12 * J + 4


@dataclass(frozen=True)
class Skeleton:
    joint_names: tuple
    parent: tuple            # -1 for the root (joint 0)
    bone_lengths: tuple      # meters, root entry unused but must be > 0
    foot_joint_ids: tuple    # 4 entries, one per contact feature
    proxy_radii: tuple       # per-joint collision sphere radius, meters

    def __post_init__(self):
        J = len(self.joint_names)
        if len(self.parent) != J or len(self.bone_lengths) != J or len(self.proxy_radii) != J:
            raise ValueError("Skeleton: field lengths disagree")
        if self.parent[0] != -1:
            raise ValueError("Skeleton: joint 0 must be the root")
        for j, p in enumerate(self.parent[1:], start=1):
            if not (0 <= p < j):
                raise ValueError(f"Skeleton: parent of joint {j} must precede it")
        if any(b <= 0 for b in self.bone_lengths) or any(r <= 0 for r in self.proxy_radii):
            raise ValueError("Skeleton: bone lengths and proxy radii must be positive")
        if len(self.foot_joint_ids) != 4:
            raise ValueError("Skeleton: exactly 4 foot contact features required")
        if any(not (0 <= f < J) for f in self.foot_joint_ids):
            raise ValueError("Skeleton: foot joint id out of range")

    @property
    def J(self) -> int:
        return len(self.joint_names)

    @property
    def D(self) -> int:
        return pose_width(self.J)


def default_skeleton() -> Skeleton:
    """Desk-scale 8-joint skeleton. Both contact features of each foot share
    the single foot joint (no separate heel/toe at this scale)."""
    return Skeleton(
        joint_names=("root", "spine", "neck", "head", "l_hand", "r_hand",
                     "l_foot", "r_foot"),
        parent=(-1, 0, 1, 2, 1, 1, 0, 0),
        bone_lengths=(0.10, 0.35, 0.25, 0.15, 0.55, 0.55, 0.90, 0.90),
        foot_joint_ids=(6, 6, 7, 7),
        proxy_radii=(0.14, 0.12, 0.08, 0.10, 0.06, 0.06, 0.07, 0.07),
    )


# -- slicing helpers (shared by numpy and autodiff paths) -------------------


def glo_slice(J: int) -> slice:
    return slice(0, 3 * J)


def vel_slice(J: int) -> slice:
    return slice(3 * J, 6 * J)


def rot_slice(J: int) -> slice:
    return slice(6 * J, 12 * J)


def foot_slice(J: int) -> slice:
    return slice(12 * J, 12 * J + 4)


class MotionSequence:
    """N frames of one person's motion, world space."""

    def __init__(self, skeleton: Skeleton, frames: np.ndarray, fps: float = 20.0,
                 person_id: int = 0):
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim != 2:
            raise ValueError("MotionSequence: frames must be 2-D (N x D)")
        if frames.shape[0] < 2:
            raise ValueError("MotionSequence: need at least 2 frames")
        if frames.shape[1] != skeleton.D:
            raise ValueError(
                f"MotionSequence: frame width {frames.shape[1]} != "
                f"12*J+4 = {skeleton.D} for J={skeleton.J}")
        self.skeleton = skeleton
        self.frames = frames
        self.fps = float(fps)
        self.person_id = int(person_id)

    @property
    def N(self) -> int:
        return self.frames.shape[0]

    @property
    def D(self) -> int:
        return self.frames.shape[1]

    def copy(self) -> "MotionSequence":
        return MotionSequence(self.skeleton, self.frames.copy(), self.fps,
                              self.person_id)

    def joint_positions(self) -> np.ndarray:
        """(N, J, 3) global joint positions."""
        J = self.skeleton.J
        return self.frames[:, glo_slice(J)].reshape(self.N, J, 3)

    def joint_velocities(self) -> np.ndarray:
        J = self.skeleton.J
        return self.frames[:, vel_slice(J)].reshape(self.N, J, 3)

    def foot_contacts(self) -> np.ndarray:
        J = self.skeleton.J
        return self.frames[:, foot_slice(J)]

    def root_trajectory(self) -> np.ndarray:
        return self.joint_positions()[:, 0, :]

    def translated(self, offset) -> "MotionSequence":
        """Rigid translation of all joints (velocities/rotations untouched)."""
        offset = np.asarray(offset, dtype=np.float64)
        J = self.skeleton.J
        out = self.frames.copy()
        out[:, glo_slice(J)] = (self.joint_positions() + offset).reshape(self.N, -1)
        return MotionSequence(self.skeleton, out, self.fps, self.person_id)


def root_position(seq: MotionSequence, n: int) -> np.ndarray:
    if not (0 <= n < seq.N):
        raise IndexError(f"root_position: frame {n} out of range [0, {seq.N})")
    return seq.joint_positions()[n, 0, :]


def rotation_to_6d(R: np.ndarray) -> np.ndarray:
    return np.concatenate([R[:, 0], R[:, 1]])


def yaw_rotation(theta: float) -> np.ndarray:
    """Rotation about +y whose forward axis (3rd column) is
    (cos theta, 0, sin theta); theta=pi/2 is the identity's forward +z."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[s, 0.0, c],
                     [0.0, 1.0, 0.0],
                     [-c, 0.0, s]])


def _unit_rows(v: np.ndarray):
    """(v / n, n): each row of the (K, m) array over its norm n, smoothed
    by eps 1e-9 as n = sqrt(|v|^2 + eps * eps)."""
    n = np.sqrt(np.sum(v * v, axis=1) + 1e-9 * 1e-9)
    return v * (1.0 / n)[:, None], n


def _unit_rows_vjp(g, v, n):
    """Adjoint of v from the adjoint g of v / n, in the tape's arithmetic."""
    inv = (1.0 / n)[:, None]
    gn = np.sum(-g * v * inv * inv, axis=1) * 0.5 / n
    gv = gn[:, None] * v
    return g * inv + gv + gv


def facing_gram_schmidt(r6: np.ndarray):
    """Gram-Schmidt of (K, 6) root 6D rotations (a, b): c1 = a / |a|, c2 the
    unit part of b orthogonal to c1, forward axis c1 x c2. Returns the
    forward axis's (K, 2) ground-plane (x, z) part f, its unit rows d, and
    the vjp taking an adjoint of d to one of r6."""
    a, b = r6[:, 0:3], r6[:, 3:6]
    c1, n1 = _unit_rows(a)
    dot = np.sum(b * c1, axis=1)
    w = b - dot[:, None] * c1
    c2, n2 = _unit_rows(w)
    f = np.stack([c1[:, 1] * c2[:, 2] - c1[:, 2] * c2[:, 1],
                  c1[:, 0] * c2[:, 1] - c1[:, 1] * c2[:, 0]], axis=1)
    d, nf = _unit_rows(f)

    def vjp(g):
        gf = np.zeros_like(c1)
        gf[:, 0::2] = _unit_rows_vjp(g, f, nf)
        gc1, gc2 = np.cross(c2, gf), np.cross(gf, c1)
        gw = _unit_rows_vjp(gc2, w, n2)
        gdot = -np.sum(gw * c1, axis=1)[:, None]
        gc1 = gc1 - dot[:, None] * gw + gdot * b
        return np.concatenate([_unit_rows_vjp(gc1, a, n1), gw + gdot * c1],
                              axis=1)

    return f, d, vjp


def facing_direction(seq: MotionSequence, n: int) -> np.ndarray:
    """Unit ground-plane (x, z) facing direction at frame n, from
    `facing_gram_schmidt`. A frame whose forward axis projects onto the
    ground shorter than 1e-6 falls back to the previous frame."""
    if not (0 <= n < seq.N):
        raise IndexError(f"facing_direction: frame {n} out of range")
    rb = rot_slice(seq.skeleton.J).start
    f, d, _ = facing_gram_schmidt(seq.frames[n::-1, rb:rb + 6])
    ok = np.flatnonzero(np.linalg.norm(f, axis=1) >= 1e-6)
    if not ok.size:
        raise ValueError("facing_direction: degenerate at frame 0, no fallback")
    return d[ok[0]]


def joint_acceleration(seq: MotionSequence) -> np.ndarray:
    """(N-2, J, 3) second difference of joint positions, meters/frame^2."""
    if seq.N < 3:
        raise ValueError("joint_acceleration: need at least 3 frames")
    p = seq.joint_positions()
    return p[2:] - 2.0 * p[1:-1] + p[:-2]


def repair_velocities(seq: MotionSequence) -> MotionSequence:
    """Rewrite the velocity channels as backward finite differences of the
    stored positions (frame 0 velocity = 0). Applied to clean outputs only."""
    J = seq.skeleton.J
    p = seq.joint_positions()
    v = np.zeros_like(p)
    v[1:] = p[1:] - p[:-1]
    out = seq.frames.copy()
    out[:, vel_slice(J)] = v.reshape(seq.N, -1)
    return MotionSequence(seq.skeleton, out, seq.fps, seq.person_id)


# -- normalization ----------------------------------------------------------


@dataclass
class NormalizationStats:
    MIN_STD = 1e-6           # floor of a std estimated by from_frames
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise ValueError("NormalizationStats: mean/std must be matching 1-D")
        if np.any(self.std <= 1e-8):
            raise ValueError("NormalizationStats: std underflow (<= 1e-8)")

    def __eq__(self, other):
        return isinstance(other, NormalizationStats) and \
            np.array_equal(self.mean, other.mean) and \
            np.array_equal(self.std, other.std)

    @property
    def D(self) -> int:
        return self.mean.shape[0]

    @classmethod
    def from_frames(cls, frames: np.ndarray):
        frames = np.asarray(frames, dtype=np.float64).reshape(-1, frames.shape[-1])
        return cls(frames.mean(axis=0), np.maximum(frames.std(axis=0), cls.MIN_STD))

    @classmethod
    def reference(cls, skeleton: Skeleton):
        """Hand-set stats for the analytic pipeline: roots spread over a few
        meters, small velocities, O(1) rotation components."""
        J = skeleton.J
        mean = np.zeros(skeleton.D)
        std = np.ones(skeleton.D)
        pos = np.zeros((J, 3))
        pos[:, 1] = 0.9            # typical joint height
        mean[glo_slice(J)] = pos.reshape(-1)
        std[glo_slice(J)] = 1.5    # room-scale position spread
        std[vel_slice(J)] = 0.08
        std[rot_slice(J)] = 0.7
        mean[foot_slice(J)] = 0.5
        std[foot_slice(J)] = 0.5
        return cls(mean, std)

    def to_json(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}


def normalize(frames, stats: NormalizationStats) -> np.ndarray:
    """(x - mean) / std over the last axis of an array."""
    if np.shape(frames)[-1] != stats.D:
        raise ValueError("normalize: dimension mismatch")
    return (np.asarray(frames, dtype=np.float64) - stats.mean) / stats.std


def denormalize(frames, stats: NormalizationStats):
    """x * std + mean; on an autodiff Var one node, backward g * std."""
    if np.shape(frames)[-1] != stats.D:
        raise ValueError("denormalize: dimension mismatch")
    if isinstance(frames, ad.Var):
        return ad.Var(frames.value * stats.std + stats.mean, (frames,),
                      lambda g: (g * stats.std,))
    return np.asarray(frames, dtype=np.float64) * stats.std + stats.mean


# -- motion file format ------------------------------------------------------


def write_motion(seq: MotionSequence, path) -> None:
    """Header line (JSON) + one whitespace-separated row of D reals per frame.
    Floats use repr, so read(write(x)) round-trips bit-exactly."""
    header = {
        "version": MOTION_FORMAT_VERSION,
        "J": seq.skeleton.J,
        "fps": seq.fps,
        "N": seq.N,
        "joint_names": list(seq.skeleton.joint_names),
        "person_id": seq.person_id,
    }
    buf = io.StringIO()
    buf.write(json.dumps(header) + "\n")
    for row in seq.frames.tolist():
        buf.write(" ".join(map(repr, row)) + "\n")
    with open(path, "w") as f:
        f.write(buf.getvalue())


def read_motion(path, skeleton: Skeleton) -> MotionSequence:
    with open(path) as f:
        header = json.loads(f.readline())
        if header.get("version") != MOTION_FORMAT_VERSION:
            raise ValueError(f"read_motion: unsupported version {header.get('version')}")
        # a ragged row makes numpy raise ValueError
        frames = np.array([line.split() for line in f if line.strip()],
                          dtype=np.float64)
    for key in ("N", "J", "fps", "joint_names", "person_id"):
        if key not in header:
            raise ValueError(f"read_motion: header has no {key!r}")
    if frames.shape[0] != header["N"]:
        raise ValueError("read_motion: frame count disagrees with header")
    if header["J"] != skeleton.J or list(skeleton.joint_names) != header["joint_names"]:
        raise ValueError("read_motion: skeleton does not match file header")
    return MotionSequence(skeleton, frames, fps=header["fps"],
                          person_id=header["person_id"])
