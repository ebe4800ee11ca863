"""Reverse-mode tape builder of the scripted pair: the gradient oracle of
`groupmotion.scripts`.

This is the builder written entirely in `autodiff` ops, one tape node per
op, kept here to check the hand-written backward pass of
`scripts.build_pair_scripts` and the bit-identity of its numpy forward.
It reads the label constants from `groupmotion.scripts` but rebuilds every
script constant (ease, gesture offsets, foot contacts, sway) itself.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from groupmotion import autodiff as ad
from groupmotion.motion import Skeleton, glo_slice, vel_slice
from groupmotion.scripts import (CIRCLE_SWEEP, FOLLOW_GAP, GESTURE_CYCLES,
                                 HEADING_MAX, IDENTITY_ROT6D, ROOT_HEIGHT,
                                 LabelSpec, _BASE_OFFSETS, _inv_squash)

import tape_ops as to

# per-person values indexed by _SWAP give each person its partner's values
_SWAP = np.array([1, 0])


def _widen(x: ad.Var, shape: tuple) -> ad.Var:
    """Per-person values (P, *tail) broadcast to (P, *shape), where `shape`
    ends in tail, by an explicit reshape and broadcast_to: the tape
    broadcasts scalars only."""
    mid = (1,) * (len(shape) + 1 - x.ndim)
    return to.broadcast_to(to.reshape(x, x.shape[:1] + mid + x.shape[1:]),
                           x.shape[:1] + shape)


def extract_params(w, skeleton: Skeleton, spec: LabelSpec) -> dict:
    """Read script parameters from stacked world-space states, a (P, N, D)
    Var; every parameter keeps the leading person axis.

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
    anchor = ad.stack([w[:, 0, g0], np.full(w.shape[0], ROOT_HEIGHT),
                       w[:, 0, g0 + 2]], axis=1)
    u = to.sum_(w[:, :, vb:vb + 3], axis=1)       # root velocity carriers
    v = to.sum_(w[:, :, vb + 3:vb + 6], axis=1)   # spine velocity carriers
    drift_x = spec.drift_max * to.tanh(spec.drift_gain * u[:, 0])
    drift_z = spec.drift_max * to.tanh(spec.drift_gain * u[:, 2])
    speed = to.exp(spec.speed_log_max * to.tanh(u[:, 1]))
    psi = HEADING_MAX * to.tanh(v[:, 0])
    return {
        "anchor": anchor,
        "drift": (drift_x, drift_z),
        "speed": speed,
        "psi": psi,
        # raw carrier sums, re-encoded by the builder so extraction is
        # exact on scripted motion
        "carriers": (u, v),
    }


def params_from_values(spec: LabelSpec, values) -> dict:
    """Stack plain numbers (corpus ground truth), one dict of `anchor`,
    `drift`, `speed`, `psi` and `phase` per person, into params. Carriers
    are set to the inverse of the extraction squashing, so the built script
    is an exact fixed point of extract_params; no script reads the phase."""
    rows = [dict({"drift": (0.0, 0.0), "speed": 1.0, "psi": 0.0,
                  "phase": 0.0}, **v) for v in values]
    anchor, drift, speed, psi, phase = (
        np.array([np.asarray(r[k], dtype=np.float64) for r in rows])
        for k in ("anchor", "drift", "speed", "psi", "phase"))
    u = np.stack([_inv_squash(drift[:, 0], spec.drift_max, spec.drift_gain),
                  _inv_squash(np.log(speed), spec.speed_log_max),
                  _inv_squash(drift[:, 1], spec.drift_max, spec.drift_gain)],
                 axis=1)
    v = np.stack([_inv_squash(psi, HEADING_MAX), np.zeros(len(rows)),
                  _inv_squash(phase, np.pi)], axis=1)
    c = ad.constant
    return {"anchor": c(anchor), "drift": (c(drift[:, 0]), c(drift[:, 1])),
            "speed": c(speed), "psi": c(psi), "carriers": (c(u), c(v))}


# -- small geometry helpers on Vars ------------------------------------------


def _ease(N: int) -> np.ndarray:
    """Smoothstep ramp 0 -> 1 with zero end-point slope."""
    s = np.linspace(0.0, 1.0, N)
    return 3.0 * s**2 - 2.0 * s**3


def _ramp_times_vec3(ramp: np.ndarray, vec) -> ad.Var:
    """(N,) numpy ramp x (P, 3) Var -> (P, N, 3) Var."""
    r = ad.constant(np.broadcast_to(ramp[:, None], (vec.shape[0],) +
                                    (ramp.shape[0], 3)))
    return r * _widen(vec, (ramp.shape[0], 3))


def _heading_of(delta: ad.Var) -> ad.Var:
    """atan2 heading of ground-plane displacements (P, 3), smooth at 0."""
    return to.atan2(delta[:, 2], delta[:, 0] + 1e-9)


def _rotate_offsets(offsets: np.ndarray, c: ad.Var, s: ad.Var) -> ad.Var:
    """Rotate (N, K, 3) local offsets about +y by each person's heading t,
    whose cos and sin are the (P,) c and s: forward = (c, 0, s),
    left = (s, 0, -c). Returns (P, N, K, 3)."""
    local = offsets.shape[:-1]
    ox, oy, oz = (np.broadcast_to(offsets[..., i], c.shape + local)
                  for i in range(3))
    ox, oz = ad.constant(ox), ad.constant(oz)
    # one widening per product: each reduces its own gradient, as the
    # single-person scalar products did
    wx = ox * _widen(s, local) + oz * _widen(c, local)
    wz = ox * _widen(-1.0 * c, local) + oz * _widen(s, local)
    return ad.stack([wx, oy, wz], axis=-1)


def _root_rot6d(c: ad.Var, s: ad.Var, N: int) -> ad.Var:
    """(P, N, 6) root rotations whose forward axes are (c, 0, s)."""
    ones, zeros = np.ones(c.shape + (N,)), np.zeros(c.shape + (N,))
    s, c = _widen(s, (N,)), _widen(c, (N,))
    return ad.stack([s, zeros, -1.0 * c, zeros, ones, zeros], axis=2)


# -- root curve per label kind ------------------------------------------------
# Each returns the (P, N, 3) root path and the (P,) heading of both persons
# of a pair; partner values come from indexing by _SWAP.


def _approach_root(params, spec: LabelSpec, N: int):
    a = params["anchor"]
    mid = (a + a[_SWAP]) * 0.5
    to_mid = mid - a
    dist = to.norm(to_mid, axis=1, eps=1e-6)
    unit = to.div(to_mid, _widen(dist, (3,)))
    # walked distance: a smooth min(dist - gap / 2, walk_span), times speed
    walk = spec.walk_span * to.tanh(to.relu(dist - 0.5 * spec.gap) * (
        1.0 / spec.walk_span)) * params["speed"]
    target_step = _ramp_times_vec3(_ease(N), unit * _widen(walk, (3,)))
    base = _widen(a, (N, 3)) + target_step
    heading = _heading_of(to_mid) + spec.heading_weight * params["psi"]
    return base, heading


def _circle_root(params, spec: LabelSpec, N: int):
    a = params["anchor"]
    P = a.shape[0]
    center = (a + a[_SWAP]) * 0.5
    rel = a - center
    r0 = to.norm(ad.stack([rel[:, 0], np.zeros(P), rel[:, 2]], axis=1),
                 axis=1, eps=1e-3)
    radius = _widen(r0, (N,)) + \
        ad.constant(np.broadcast_to(0.3 * _ease(N), (P, N)))
    alpha0 = to.atan2(rel[:, 2], rel[:, 0] + 1e-9)
    sweep = CIRCLE_SWEEP
    alpha = _widen(alpha0, (N,)) + \
        ad.constant(np.broadcast_to(_ease(N) * sweep, (P, N))) * \
        _widen(params["speed"], (N,))
    # the circle point minus its frame-0 point, added to the anchor
    cos, sin = to.cos(alpha), to.sin(alpha)
    cx = _widen(a[:, 0], (N,)) + (radius * cos - _widen(r0 * cos[:, 0], (N,)))
    cz = _widen(a[:, 2], (N,)) + (radius * sin - _widen(r0 * sin[:, 0], (N,)))
    cy = _widen(a[:, 1], (N,))
    base = ad.stack([cx, cy, cz], axis=2)
    # tangent heading plus user offset
    heading = alpha0 + 0.5 * sweep + np.pi / 2.0 + spec.heading_weight * params["psi"]
    return base, heading


def _talk_root(params, spec: LabelSpec, N: int):
    a = params["anchor"]
    base = _widen(a, (N, 3))
    if spec.sway_amp > 0.0:
        # circular sway through the anchor: constant-magnitude acceleration,
        # zero offset at frame 0 so the anchor stays extractable
        phase = np.linspace(0, 2 * np.pi * spec.sway_cycles, N)
        sway = np.zeros((N, 3))
        sway[:, 0] = spec.sway_amp * np.sin(phase)
        sway[:, 2] = spec.sway_amp * (1.0 - np.cos(phase))
        base = base + ad.constant(np.broadcast_to(sway, base.shape))
    heading = _heading_of(a[_SWAP] - a) + spec.heading_weight * params["psi"]
    return base, heading


def _follow_root(params, spec: LabelSpec, N: int):
    """Person 0 leads, person 1 follows. Both paths are built for both
    rows; row 0 keeps the leader path and row 1 the follower path."""
    a = params["anchor"]
    speed = _widen(params["speed"], (3,))
    # the leader walks along its own heading
    theta = _heading_of(a[_SWAP] - a) + params["psi"]
    forward = ad.stack([to.cos(theta), np.zeros(theta.shape), to.sin(theta)],
                       axis=1)
    lead_base = _widen(a, (N, 3)) + \
        _ramp_times_vec3(_ease(N), forward * (2.0 * speed))
    # the follower heads to a point trailing its leader's end position
    trail = (lead_base[:, N - 1, :] - forward * FOLLOW_GAP)[_SWAP]
    base = _widen(a, (N, 3)) + _ramp_times_vec3(_ease(N), (trail - a) * speed)
    heading = _heading_of(trail - a) + spec.heading_weight * params["psi"]
    return (to.concat([lead_base[:1], base[1:]], axis=0),
            to.concat([theta[:1], heading[1:]], axis=0))


_ROOT_CURVES = {"approach": _approach_root, "circle": _circle_root,
                "talk": _talk_root, "pose": _talk_root,
                "follow": _follow_root}


def _root_curve(params, spec: LabelSpec, N: int):
    """The kind's root path plus the horizontal drift, eased in so frame 0
    stays anchored, and the heading."""
    if spec.kind not in _ROOT_CURVES:
        raise ValueError(f"unknown script kind {spec.kind!r}")
    base, heading = _ROOT_CURVES[spec.kind](params, spec, N)
    dx, dz = params["drift"]
    drift = ad.stack([dx, np.zeros(dx.shape), dz], axis=1)
    return base + _ramp_times_vec3(_ease(N), drift), heading


# -- full pose assembly --------------------------------------------------------


def _gesture_offsets(spec: LabelSpec, N: int) -> dict:
    """Per-joint (N, 3) local-space offset modulation, numpy constants."""
    out = {name: np.tile(np.asarray(off, dtype=np.float64), (N, 1))
           for name, off in _BASE_OFFSETS.items()}
    if spec.gesture_amp > 0.0:
        t = np.linspace(0.0, 2 * np.pi * GESTURE_CYCLES, N)
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


def build_scripts(params: dict, spec: LabelSpec, skeleton: Skeleton,
                  N: int) -> ad.Var:
    """Both persons' scripted (P, N, D) world-space frames as one Var."""
    J = skeleton.J
    P = params["anchor"].shape[0]
    root, heading = _root_curve(params, spec, N)
    offsets = _gesture_offsets(spec, N)
    local = np.stack([offsets[name] for name in skeleton.joint_names[1:]],
                     axis=1)                    # (N, J-1, 3)
    c, s = to.cos(heading), to.sin(heading)

    # each non-root joint sits at its base plus its rotated offset; the base
    # is the root, except that stationary labels keep their feet planted at
    # the anchor, so root sway and drift do not move them
    planted = [spec.stationary and name in ("l_foot", "r_foot")
               for name in skeleton.joint_names[1:]]
    root_b = to.reshape(root, (P, N, 1, 3))
    anchor_b = to.reshape(params["anchor"], (P, 1, 1, 3))
    base = to.concat([to.broadcast_to(anchor_b if p else root_b,
                                      (P, N, len(list(run)), 3))
                      for p, run in groupby(planted)], axis=2)
    joints = base + _rotate_offsets(local, c, s)
    glo = to.concat([root, to.reshape(joints, (P, N, 3 * (J - 1)))], axis=2)

    # velocities: carrier channels for root and spine, finite differences
    # for the remaining joints
    u, v = params["carriers"]
    rest = glo[:, :, 6:]
    vel = to.concat([
        _widen(u * (1.0 / N), (N, 3)),
        _widen(v * (1.0 / N), (N, 3)),
        to.concat([np.zeros((P, 1, 3 * (J - 2))),
                   rest[:, 1:, :] - rest[:, :-1, :]], axis=1),
    ], axis=2)                                  # (P, N, 3J)

    rot = to.concat([_root_rot6d(c, s, N),
                     np.tile(IDENTITY_ROT6D, (P, N, J - 1))], axis=2)

    foot = np.broadcast_to(_foot_contacts(spec, N), (P, N, 4))
    return to.concat([glo, vel, rot, foot], axis=2)


def build_pair_scripts(w: ad.Var, spec: LabelSpec, skeleton: Skeleton):
    """Scripted clean estimate of both persons from their stacked (2, N, D)
    world-space states."""
    return build_scripts(extract_params(w, skeleton, spec), spec, skeleton,
                         w.shape[1])


def build_pair_from_values(values1: dict, values2: dict, spec: LabelSpec,
                           skeleton: Skeleton, N: int):
    """Numpy script pair from explicit parameter values (corpus path)."""
    return tuple(build_scripts(params_from_values(spec, (values1, values2)),
                               spec, skeleton, N).value)
