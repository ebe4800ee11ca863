"""Scripted two-person motion families, one per interaction label.

Each label defines a smooth, closed-form pair of trajectories driven by a
small set of parameters per person (start anchor, horizontal drift, speed
scale, heading offset, phase). The same builder serves two purposes:

* the analytic denoising prior extracts the parameters from a (noisy)
  state and predicts the scripted motion as its clean estimate;
* the corpus generator samples the parameters directly and keeps them as
  ground truth for oracle tests.

Parameter extraction uses carrier channels: the script stores each soft
parameter, spread uniformly, in the root/spine velocity channels, so that
extraction (a per-channel sum over frames, squashed through tanh) is exact
on scripted motion and smooth everywhere else. Velocity channels of clean
final outputs are rewritten to finite differences afterwards, so carriers
never leak into delivered motion files.

Everything is built from autodiff ops; gradients flow from any scripted
coordinate back to the raw state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from . import autodiff as ad
from .motion import Skeleton, glo_slice, vel_slice

GROUND_FOOT_Y = 0.02
ROOT_HEIGHT = 0.88

# local joint offsets relative to the root, in the heading frame
# (x: left, y: up, z: forward before rotation)
_BASE_OFFSETS = {
    "spine": (0.0, 0.25, 0.0),
    "neck": (0.0, 0.50, 0.0),
    "head": (0.0, 0.64, 0.0),
    "l_hand": (0.30, 0.05, 0.12),
    "r_hand": (-0.30, 0.05, 0.12),
    "l_foot": (0.12, -(ROOT_HEIGHT - GROUND_FOOT_Y), 0.0),
    "r_foot": (-0.12, -(ROOT_HEIGHT - GROUND_FOOT_Y), 0.0),
}

IDENTITY_ROT6D = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])


@dataclass(frozen=True)
class LabelSpec:
    """One vocabulary entry: label semantics plus script constants."""
    name: str
    kind: str                  # approach | circle | talk | pose | follow
    symmetric: bool = True
    stationary: bool = False
    gap: float = 0.7           # target final root separation (approach)
    walk_span: float = 4.0     # soft cap on walk distance, meters
    drift_max: float = 1.5     # bound on per-person horizontal drift
    drift_gain: float = 1.0    # tanh steepness of drift extraction
    speed_log_max: float = 0.35
    heading_max: float = 1.2   # bound on heading offset, radians
    heading_gain: float = 1.0
    heading_weight: float = 1.0  # how strongly psi perturbs the heading
    gesture_amp: float = 0.0   # hand oscillation amplitude, meters
    gesture_cycles: float = 1.5
    sway_amp: float = 0.0      # lateral root sway for stationary labels
    sway_cycles: float = 2.0
    circle_sweep: float = 1.6  # radians swept by circle labels
    follow_gap: float = 0.8


def default_vocabulary() -> list:
    return [
        LabelSpec("approach", "approach", gesture_amp=0.04),
        LabelSpec("circle-together", "circle", gesture_amp=0.04),
        # stationary labels keep a tight drift budget: talking or posing
        # people should stay near their anchors
        LabelSpec("face-and-talk", "talk", stationary=True, drift_max=0.2,
                  gesture_amp=0.10, sway_amp=0.03, heading_weight=0.2),
        LabelSpec("pose-pair", "pose", stationary=True, drift_max=0.2,
                  gesture_amp=0.06, heading_weight=0.4),
        LabelSpec("follow", "follow", symmetric=False, gesture_amp=0.04),
        # near-collision family: near-exact walk (huge cap, tight speed
        # range) ends at a 10 cm gap; the drift channels remain the escape
        # route for separation
        LabelSpec("close-approach", "approach", gap=0.10, walk_span=50.0,
                  drift_max=0.3, drift_gain=1.2, speed_log_max=0.02,
                  gesture_amp=0.04),
        # high-energy conversation: pronounced sway keeps every joint
        # moving, so acceleration medians are meaningful
        LabelSpec("animated-talk", "talk", stationary=True, drift_max=0.2,
                  gesture_amp=0.12, sway_amp=0.2, sway_cycles=7.0,
                  heading_weight=0.2),
    ]


@dataclass(frozen=True)
class InteractionLabel:
    label_id: int
    vocabulary: tuple = field(default_factory=lambda: tuple(default_vocabulary()))

    def __post_init__(self):
        if not (0 <= self.label_id < len(self.vocabulary)):
            raise ValueError(f"label_id {self.label_id} outside vocabulary")

    @property
    def spec(self) -> LabelSpec:
        return self.vocabulary[self.label_id]

    @property
    def name(self) -> str:
        return self.spec.name


def label_by_name(name: str, vocabulary=None) -> InteractionLabel:
    vocab = tuple(vocabulary) if vocabulary is not None else tuple(default_vocabulary())
    for i, spec in enumerate(vocab):
        if spec.name == name:
            return InteractionLabel(i, vocab)
    raise KeyError(f"unknown interaction label {name!r}")


# -- parameter extraction ----------------------------------------------------


def extract_params(w, skeleton: Skeleton, spec: LabelSpec) -> dict:
    """Read script parameters from one person's world-space state (N x D Var).

    Anchors come straight from the frame-0 root position; the soft
    parameters come from per-channel frame sums of the root and spine
    velocity channels, squashed through tanh to their label bounds.
    """
    J = skeleton.J
    vb = vel_slice(J).start
    g0 = glo_slice(J).start
    # anchor height is pinned: the family lives on the ground plane, so a
    # noisy y at frame 0 must decay instead of passing through as a fixed
    # point of the denoiser
    anchor = ad.stack([w[0, g0], ad.constant(ROOT_HEIGHT), w[0, g0 + 2]])
    u = ad.sum_(w[:, vb:vb + 3], axis=0)          # root velocity carriers
    v = ad.sum_(w[:, vb + 3:vb + 6], axis=0)      # spine velocity carriers
    drift_x = spec.drift_max * ad.tanh(spec.drift_gain * u[0])
    drift_z = spec.drift_max * ad.tanh(spec.drift_gain * u[2])
    speed = ad.exp(spec.speed_log_max * ad.tanh(u[1]))
    psi = spec.heading_max * ad.tanh(spec.heading_gain * v[0])
    phase = np.pi * ad.tanh(spec.heading_gain * v[2])
    return {
        "anchor": anchor,
        "drift": (drift_x, drift_z),
        "speed": speed,
        "psi": psi,
        "phase": phase,
        # raw carrier sums, re-encoded by the builder so extraction is
        # exact on scripted motion
        "carriers": (u, v),
    }


def _inv_squash(value: float, bound: float, gain: float = 1.0) -> float:
    """Carrier value whose tanh squashing reproduces `value`."""
    ratio = np.clip(value / bound, -0.999999, 0.999999)
    return float(np.arctanh(ratio) / gain)


def params_from_values(spec: LabelSpec, anchor, drift=(0.0, 0.0), speed=1.0,
                       psi=0.0, phase=0.0) -> dict:
    """Wrap plain numbers (corpus ground truth) into the params structure.

    Carriers are set to the inverse of the extraction squashing, so the
    built script is an exact fixed point of extract_params."""
    anchor = np.asarray(anchor, dtype=np.float64)
    u = np.array([
        _inv_squash(float(drift[0]), spec.drift_max, spec.drift_gain),
        _inv_squash(float(np.log(speed)), spec.speed_log_max),
        _inv_squash(float(drift[1]), spec.drift_max, spec.drift_gain),
    ])
    v = np.array([
        _inv_squash(float(psi), spec.heading_max, spec.heading_gain),
        0.0,
        _inv_squash(float(phase), np.pi, spec.heading_gain),
    ])
    return {
        "anchor": ad.constant(anchor),
        "drift": (ad.constant(float(drift[0])), ad.constant(float(drift[1]))),
        "speed": ad.constant(float(speed)),
        "psi": ad.constant(float(psi)),
        "phase": ad.constant(float(phase)),
        "carriers": (ad.constant(u), ad.constant(v)),
    }


# -- small geometry helpers on Vars ------------------------------------------


def _ease(N: int) -> np.ndarray:
    """Smoothstep ramp 0 -> 1 with zero end-point slope."""
    s = np.linspace(0.0, 1.0, N)
    return 3.0 * s**2 - 2.0 * s**3


def _ramp_times_vec3(ramp: np.ndarray, vec) -> ad.Var:
    """(N,) numpy ramp x (3,) Var -> (N, 3) Var."""
    N = ramp.shape[0]
    r = ad.broadcast_to(ad.reshape(ad.constant(ramp), (N, 1)), (N, 3))
    v = ad.broadcast_to(ad.reshape(vec, (1, 3)), (N, 3))
    return r * v


def _heading_of(delta: ad.Var) -> ad.Var:
    """atan2 heading of a ground-plane displacement (3,) Var, smooth at 0."""
    return ad.atan2(delta[2], delta[0] + 1e-9)


def _rotate_offsets(offsets: np.ndarray, c: ad.Var, s: ad.Var) -> ad.Var:
    """Rotate (..., 3) local offsets about +y by the heading t whose cos
    and sin are c and s: forward = (c, 0, s), left = (s, 0, -c)."""
    ox = ad.constant(offsets[..., 0])
    oz = ad.constant(offsets[..., 2])
    wx = ox * s + oz * c
    wz = ox * (-1.0 * c) + oz * s
    return ad.stack([wx, offsets[..., 1], wz], axis=-1)


def _root_rot6d(c: ad.Var, s: ad.Var, N: int) -> ad.Var:
    """(N, 6) root rotation whose forward axis is (c, 0, s)."""
    ones = ad.constant(np.ones(N))
    zeros = ad.constant(np.zeros(N))
    s = ad.broadcast_to(ad.reshape(s, (1,)), (N,))
    c = ad.broadcast_to(ad.reshape(c, (1,)), (N,))
    return ad.stack([s, zeros, -1.0 * c, zeros, ones, zeros], axis=1)


def _drift_curve(params: dict, N: int) -> ad.Var:
    """(N, 3) horizontal drift, eased in so frame 0 stays anchored."""
    dx, dz = params["drift"]
    vec = ad.stack([dx, 0.0, dz])
    return _ramp_times_vec3(_ease(N), vec)


def _soft_cap(x: ad.Var, cap: float) -> ad.Var:
    """Smooth min(x, cap) for x >= 0."""
    return cap * ad.tanh(x * (1.0 / cap))


# -- root curve per label kind ------------------------------------------------


def _approach_root(params, other_params, spec: LabelSpec, N: int):
    a = params["anchor"]
    b = other_params["anchor"]
    mid = (a + b) * 0.5
    to_mid = mid - a
    dist = ad.norm(to_mid, eps=1e-6)
    unit = to_mid / dist
    walk = _soft_cap(ad.relu(dist - 0.5 * spec.gap), spec.walk_span) * params["speed"]
    target_step = _ramp_times_vec3(_ease(N), unit * walk)
    base = ad.broadcast_to(ad.reshape(a, (1, 3)), (N, 3)) + target_step
    heading = _heading_of(to_mid) + spec.heading_weight * params["psi"]
    return base, heading


def _circle_root(params, other_params, spec: LabelSpec, N: int):
    a = params["anchor"]
    b = other_params["anchor"]
    center = (a + b) * 0.5
    rel = a - center
    radius = ad.norm(ad.stack([rel[0], 0.0, rel[2]]), eps=1e-3) + 0.3
    alpha0 = ad.atan2(rel[2], rel[0] + 1e-9)
    sweep = spec.circle_sweep
    alpha = alpha0 + ad.constant(_ease(N) * sweep) * ad.broadcast_to(
        ad.reshape(params["speed"], (1,)), (N,))
    cx = center[0] + radius * ad.cos(alpha)
    cz = center[2] + radius * ad.sin(alpha)
    cy = ad.broadcast_to(ad.reshape(a[1], (1,)), (N,))
    base = ad.stack([cx, cy, cz], axis=1)
    # tangent heading plus user offset
    heading = alpha0 + 0.5 * sweep + np.pi / 2.0 + spec.heading_weight * params["psi"]
    return base, heading


def _talk_root(params, other_params, spec: LabelSpec, N: int):
    a = params["anchor"]
    b = other_params["anchor"]
    base = ad.broadcast_to(ad.reshape(a, (1, 3)), (N, 3))
    if spec.sway_amp > 0.0:
        # circular sway through the anchor: constant-magnitude acceleration,
        # zero offset at frame 0 so the anchor stays extractable
        phase = np.linspace(0, 2 * np.pi * spec.sway_cycles, N)
        sway = np.zeros((N, 3))
        sway[:, 0] = spec.sway_amp * np.sin(phase)
        sway[:, 2] = spec.sway_amp * (1.0 - np.cos(phase))
        base = base + ad.constant(sway)
    heading = _heading_of(b - a) + spec.heading_weight * params["psi"]
    return base, heading


def _follow_root(params, other_params, spec: LabelSpec, N: int, role: int):
    a = params["anchor"]
    if role == 0:
        # leader walks along its own heading
        theta = _heading_of(other_params["anchor"] - a) + params["psi"]
        step = ad.stack([ad.cos(theta), 0.0, ad.sin(theta)]) * \
            (2.0 * params["speed"])
        base = ad.broadcast_to(ad.reshape(a, (1, 3)), (N, 3)) + \
            _ramp_times_vec3(_ease(N), step)
        return base, theta
    # follower heads to a point trailing the leader's end position
    lead_base, lead_theta = _follow_root(other_params, params, spec, N, 0)
    lead_end = lead_base[N - 1, :]
    trail = lead_end - \
        ad.stack([ad.cos(lead_theta), 0.0, ad.sin(lead_theta)]) * spec.follow_gap
    base = ad.broadcast_to(ad.reshape(a, (1, 3)), (N, 3)) + \
        _ramp_times_vec3(_ease(N), (trail - a) * params["speed"])
    heading = _heading_of(trail - a) + spec.heading_weight * params["psi"]
    return base, heading


def _root_curve(params, other_params, spec: LabelSpec, N: int, role: int):
    if spec.kind == "approach":
        base, heading = _approach_root(params, other_params, spec, N)
    elif spec.kind == "circle":
        base, heading = _circle_root(params, other_params, spec, N)
    elif spec.kind in ("talk", "pose"):
        base, heading = _talk_root(params, other_params, spec, N)
    elif spec.kind == "follow":
        base, heading = _follow_root(params, other_params, spec, N, role)
    else:
        raise ValueError(f"unknown script kind {spec.kind!r}")
    return base + _drift_curve(params, N), heading


# -- full pose assembly --------------------------------------------------------


def _gesture_offsets(spec: LabelSpec, N: int) -> dict:
    """Per-joint (N, 3) local-space offset modulation, numpy constants."""
    out = {name: np.tile(np.asarray(off, dtype=np.float64), (N, 1))
           for name, off in _BASE_OFFSETS.items()}
    if spec.gesture_amp > 0.0:
        t = np.linspace(0.0, 2 * np.pi * spec.gesture_cycles, N)
        out["l_hand"][:, 1] += spec.gesture_amp * np.sin(t)
        out["r_hand"][:, 1] += spec.gesture_amp * np.sin(t + np.pi)
        out["l_hand"][:, 2] += 0.5 * spec.gesture_amp * np.cos(t)
        out["r_hand"][:, 2] += 0.5 * spec.gesture_amp * np.cos(t + np.pi)
    if spec.kind == "pose":
        out["l_hand"][:, 1] += 0.45
        out["r_hand"][:, 1] += 0.45
    return out


def _foot_contacts(spec: LabelSpec, N: int) -> np.ndarray:
    """(N, 4) contact features; stationary labels keep feet planted."""
    if spec.stationary:
        return np.ones((N, 4))
    # alternating square-ish gait, half-overlapped
    t = np.linspace(0.0, 2 * np.pi * 2.0, N)
    left = (np.sin(t) > -0.2).astype(np.float64)
    right = (np.sin(t + np.pi) > -0.2).astype(np.float64)
    return np.stack([left, left, right, right], axis=1)


def build_person_script(params: dict, other_params: dict, spec: LabelSpec,
                        skeleton: Skeleton, N: int, role: int) -> ad.Var:
    """One person's scripted (N, D) world-space frames as a Var."""
    J = skeleton.J
    root, heading = _root_curve(params, other_params, spec, N, role)
    offsets = _gesture_offsets(spec, N)
    local = np.stack([offsets[name] for name in skeleton.joint_names[1:]],
                     axis=1)                    # (N, J-1, 3)
    c, s = ad.cos(heading), ad.sin(heading)

    # each non-root joint sits at its base plus its rotated offset; the base
    # is the root, except that stationary labels keep their feet planted at
    # the anchor, so root sway and drift do not move them
    planted = [spec.stationary and name in ("l_foot", "r_foot")
               for name in skeleton.joint_names[1:]]
    root_b = ad.reshape(root, (N, 1, 3))
    anchor_b = ad.reshape(params["anchor"], (1, 1, 3))
    base = ad.concat([ad.broadcast_to(anchor_b if p else root_b,
                                      (N, len(list(run)), 3))
                      for p, run in groupby(planted)], axis=1)
    joints = base + _rotate_offsets(local, c, s)
    glo = ad.concat([root, ad.reshape(joints, (N, 3 * (J - 1)))], axis=1)

    # velocities: carrier channels for root and spine, finite differences
    # for the remaining joints
    u, v = params["carriers"]
    rest = glo[:, 6:]
    vel = ad.concat([
        ad.broadcast_to(ad.reshape(u * (1.0 / N), (1, 3)), (N, 3)),
        ad.broadcast_to(ad.reshape(v * (1.0 / N), (1, 3)), (N, 3)),
        ad.concat([np.zeros((1, 3 * (J - 2))), rest[1:, :] - rest[:-1, :]],
                  axis=0),
    ], axis=1)                                  # (N, 3J)

    rot = ad.concat([_root_rot6d(c, s, N),
                     np.tile(IDENTITY_ROT6D, (N, J - 1))], axis=1)  # (N, 6J)

    foot = ad.constant(_foot_contacts(spec, N))  # (N, 4)
    return ad.concat([glo, vel, rot, foot], axis=1)


def build_pair_scripts(w1: ad.Var, w2: ad.Var, spec: LabelSpec,
                       skeleton: Skeleton):
    """Scripted clean estimate for both slots from world-space states."""
    N = w1.shape[0]
    p1 = extract_params(w1, skeleton, spec)
    p2 = extract_params(w2, skeleton, spec)
    s1 = build_person_script(p1, p2, spec, skeleton, N, role=0)
    s2 = build_person_script(p2, p1, spec, skeleton, N, role=1)
    return s1, s2


def build_pair_from_values(values1: dict, values2: dict, spec: LabelSpec,
                           skeleton: Skeleton, N: int):
    """Numpy script pair from explicit parameter values (corpus path)."""
    p1 = params_from_values(spec, **values1)
    p2 = params_from_values(spec, **values2)
    s1 = build_person_script(p1, p2, spec, skeleton, N, role=0)
    s2 = build_person_script(p2, p1, spec, skeleton, N, role=1)
    return s1.value, s2.value
