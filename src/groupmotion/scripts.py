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

The builder runs in numpy: `pair_scripts` returns the scripted frames and
a hand-written backward pass that maps their adjoint back to the raw
state at the cost of a few reductions. `build_pair_scripts` records it as
one tape node; the analytic prior folds it into its one clean-estimate
node.

The builder is one chain of stages: it reads a state only through 8
linear functionals per person (`functionals`: the anchor's x and z, six
carrier sums), maps them to its assembly inputs (`script_inputs`: root
path, anchor, heading cosine and sine, carriers) and assembles the frames
(`assemble`). Every kind starts at its anchor, so a script's functionals
are its inputs': the analytic prior's sampler chain steps them alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .motion import Skeleton, foot_slice, glo_slice, rot_slice, vel_slice

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
HEADING_MAX = 1.2      # bound on the heading offset psi, radians
GESTURE_CYCLES = 1.5   # hand oscillations per script
CIRCLE_SWEEP = 1.6     # radians swept by circle labels
FOLLOW_GAP = 0.8       # meters the follower ends behind its leader


@dataclass(frozen=True)
class LabelSpec:
    """One vocabulary entry: label semantics plus script constants."""
    name: str
    kind: str                  # approach | circle | talk | pose | follow
    stationary: bool = False
    gap: float = 0.7           # target final root separation (approach)
    walk_span: float = 4.0     # soft cap on walk distance, meters
    drift_max: float = 1.5     # bound on per-person horizontal drift
    drift_gain: float = 1.0    # tanh steepness of drift extraction
    speed_log_max: float = 0.35
    heading_weight: float = 1.0  # how strongly psi perturbs the heading
    gesture_amp: float = 0.0   # hand oscillation amplitude, meters
    sway_amp: float = 0.0      # lateral root sway for stationary labels
    sway_cycles: float = 2.0

    @property
    def symmetric(self) -> bool:
        """Swapping the persons swaps the script; only follow has roles."""
        return self.kind != "follow"


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
        LabelSpec("follow", "follow", gesture_amp=0.04),
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


VOCABULARY = tuple(default_vocabulary())


@dataclass(frozen=True)
class InteractionLabel:
    label_id: int                # index into VOCABULARY

    def __post_init__(self):
        if not (0 <= self.label_id < len(VOCABULARY)):
            raise ValueError(f"label_id {self.label_id} outside vocabulary")

    @property
    def spec(self) -> LabelSpec:
        return VOCABULARY[self.label_id]

    @property
    def name(self) -> str:
        return self.spec.name


def label_by_name(name: str) -> InteractionLabel:
    for i, spec in enumerate(VOCABULARY):
        if spec.name == name:
            return InteractionLabel(i)
    raise KeyError(f"unknown interaction label {name!r}")


# -- the builder ----------------------------------------------------------------
# Numpy stages: the functionals, the params, the assembly inputs (the root
# curve among them) and the pose assembly. Each returns its values and a
# vector-Jacobian function (vjp); pair_scripts chains them in reverse. Param
# adjoints travel as one dict with the keys of the params.

# per-person values indexed by _SWAP give each person its partner's values
_SWAP = np.array([1, 0])


def functional_channels(skeleton: Skeleton) -> np.ndarray:
    """The channels the script reads: the root's x and z, whose frame-0
    values are the anchor, then the root and spine velocity channels,
    whose frame sums are the carriers."""
    g0, vb = glo_slice(skeleton.J).start, vel_slice(skeleton.J).start
    return np.array([g0, g0 + 2] + list(range(vb, vb + 6)))


def functionals(w: np.ndarray, ch=np.arange(8)) -> np.ndarray:
    """The (P, 8) functionals of (P, N, ...) values whose channels `ch`
    (the carriers consecutive) are the functional channels, by default the
    (P, N, 8) values of those channels alone: the frame-0 anchor x and z,
    then the six carrier frame sums. They are linear."""
    return np.concatenate([w[:, 0, ch[:2]],
                           np.sum(w[:, :, ch[2]:ch[7] + 1], axis=1)], axis=1)


def functionals_vjp(gF: np.ndarray, N: int) -> np.ndarray:
    """The (P, N, 8) adjoint of the functional channels from the (P, 8)
    functionals' adjoint."""
    gy = np.zeros((gF.shape[0], N, 8))
    gy[:, 0, :2] = gF[:, :2]
    gy[:, :, 2:] = gF[:, None, 2:]
    return gy


def _params(F: np.ndarray, spec: LabelSpec):
    """Script parameters of (P, 8) functionals, and the vjp from their
    adjoints to the functionals'.

    The anchor is the frame-0 root position; the soft parameters are the
    carrier sums squashed through tanh to their label bounds.
    """
    P = F.shape[0]
    # anchor height is pinned: the family lives on the ground plane, so a
    # noisy y at frame 0 must decay instead of passing through as a fixed
    # point of the denoiser
    anchor = np.stack([F[:, 0], np.full(P, ROOT_HEIGHT), F[:, 1]], axis=1)
    # raw carrier sums of the root and spine velocity channels, re-encoded
    # by the builder so extraction is exact on scripted motion
    u, v = F[:, 2:5], F[:, 5:8]
    tx, tz = np.tanh(spec.drift_gain * u[:, 0]), np.tanh(spec.drift_gain * u[:, 2])
    ts, tp = np.tanh(u[:, 1]), np.tanh(v[:, 0])
    p = {"anchor": anchor, "u": u, "v": v,
         "drift": np.stack([spec.drift_max * tx, np.zeros(P),
                            spec.drift_max * tz], axis=1),
         "speed": np.exp(spec.speed_log_max * ts), "psi": HEADING_MAX * tp}

    def vjp(g):
        gu, gv, gain = g["u"], g["v"], spec.drift_max * spec.drift_gain
        gu[:, 0] += g["drift"][:, 0] * gain * (1.0 - tx * tx)
        gu[:, 2] += g["drift"][:, 2] * gain * (1.0 - tz * tz)
        gu[:, 1] += g["speed"] * p["speed"] * spec.speed_log_max * (1.0 - ts * ts)
        gv[:, 0] += g["psi"] * HEADING_MAX * (1.0 - tp * tp)
        return np.concatenate([g["anchor"][:, [0, 2]], gu, gv], axis=1)

    return p, vjp


def _inv_squash(value, bound: float, gain: float = 1.0):
    """Carrier values whose tanh squashing reproduces `value`."""
    return np.arctanh(np.clip(value / bound, -0.999999, 0.999999)) / gain


def params_from_values(spec: LabelSpec, values) -> dict:
    """Stack plain numbers (corpus ground truth), one dict of `anchor`,
    `drift`, `speed`, `psi` and `phase` per person, into params. Carriers
    are set to the inverse of the extraction squashing, so the built script
    is an exact fixed point of extraction; no script reads the phase."""
    rows = [dict({"drift": (0.0, 0.0), "speed": 1.0, "psi": 0.0,
                  "phase": 0.0}, **v) for v in values]
    anchor, drift, speed, psi, phase = (
        np.array([np.asarray(r[k], dtype=np.float64) for r in rows])
        for k in ("anchor", "drift", "speed", "psi", "phase"))
    zeros = np.zeros(len(rows))
    u = np.stack([_inv_squash(drift[:, 0], spec.drift_max, spec.drift_gain),
                  _inv_squash(np.log(speed), spec.speed_log_max),
                  _inv_squash(drift[:, 1], spec.drift_max, spec.drift_gain)],
                 axis=1)
    v = np.stack([_inv_squash(psi, HEADING_MAX), zeros,
                  _inv_squash(phase, np.pi)], axis=1)
    return {"anchor": anchor, "speed": speed, "psi": psi, "u": u, "v": v,
            "drift": np.stack([drift[:, 0], zeros, drift[:, 1]], axis=1)}


@lru_cache(maxsize=32)
def _constants(spec: LabelSpec, skeleton: Skeleton, N: int) -> dict:
    """Read-only script constants of (spec, N), built on first use: the
    `ease` ramp, the root `sway`, the non-root joints' local offsets as
    (N, J-1) blocks `ox`, `oy` and `oz`, their `planted` mask, the (N, 4)
    `foot` contacts and the (6J,) identity rotations `rot`."""
    s = np.linspace(0.0, 1.0, N)
    # smoothstep ease with zero end-point slope; circular sway through the
    # anchor with constant-magnitude acceleration and zero offset at frame 0
    # so the anchor stays extractable
    phase = np.linspace(0, 2 * np.pi * spec.sway_cycles, N)
    k = {"ease": 3.0 * s**2 - 2.0 * s**3, "sway": np.zeros((N, 3))}
    k["sway"][:, 0] = spec.sway_amp * np.sin(phase)
    k["sway"][:, 2] = spec.sway_amp * (1.0 - np.cos(phase))
    off = {name: np.tile(np.asarray(o, dtype=np.float64), (N, 1))
           for name, o in _BASE_OFFSETS.items()}
    t = np.linspace(0.0, 2 * np.pi * GESTURE_CYCLES, N)
    for name, shift in (("l_hand", 0.0), ("r_hand", np.pi)):
        off[name][:, 1] += spec.gesture_amp * np.sin(t + shift)
        off[name][:, 2] += 0.5 * spec.gesture_amp * np.cos(t + shift)
        off[name][:, 1] += 0.45 if spec.kind == "pose" else 0.0
    names = skeleton.joint_names[1:]
    for i, axis in enumerate(("ox", "oy", "oz")):
        k[axis] = np.stack([off[name][:, i] for name in names], axis=1)
    # stationary labels keep feet planted at the anchor, out of reach of
    # root sway and drift; walkers get an alternating square-ish gait
    k["planted"] = np.array([spec.stationary and name in ("l_foot", "r_foot")
                             for name in names])
    t = np.linspace(0.0, 2 * np.pi * 2.0, N)
    left, right = (np.sin(t) > -0.2) * 1.0, (np.sin(t + np.pi) > -0.2) * 1.0
    k["foot"] = np.ones((N, 4)) if spec.stationary else \
        np.stack([left, left, right, right], axis=1)
    k["rot"] = np.tile(IDENTITY_ROT6D, skeleton.J)
    for a in k.values():
        a.flags.writeable = False
    return k


# -- root curve per label kind ------------------------------------------------
# Each returns the (P, N, 3) root path and the (P,) heading of both persons
# of a pair, and a vjp(g_base, g_heading, g) that adds to the param
# adjoints in g; partner values come from indexing by _SWAP.


def _eased_sum(ease: np.ndarray, a: np.ndarray) -> np.ndarray:
    """sum_n ease[n] a[:, n] of (P, N, 3) `a`, as (P, 3): the adjoint of an
    eased-in step. The one dot `np.tensordot` makes, without its overhead
    per call."""
    P, N = a.shape[:2]
    return np.dot(ease, a.transpose(1, 0, 2).reshape(N, -1)).reshape(P, 3)


def _heading(d: np.ndarray):
    """atan2 heading of ground-plane displacements (P, 3), smooth at 0, and
    its vjp to the displacements."""
    y, x = d[:, 2], d[:, 0] + 1e-9

    def vjp(g):
        k = g / (y * y + x * x)
        return np.stack([-k * y, np.zeros_like(k), k * x], axis=1)

    return np.arctan2(y, x), vjp


def _approach_root(p, spec: LabelSpec, k: dict):
    a, speed, ease = p["anchor"], p["speed"], k["ease"]
    to_mid = (a + a[_SWAP]) * 0.5 - a
    dist = np.sqrt(np.sum(to_mid * to_mid, axis=1) + 1e-6 * 1e-6)
    inv = 1.0 / dist
    unit = to_mid * inv[:, None]
    # walked distance: a smooth min(dist - gap / 2, walk_span), times speed
    over = dist - 0.5 * spec.gap
    th = np.tanh(np.where(over > 0.0, over, 0.0) * (1.0 / spec.walk_span))
    walk = spec.walk_span * th * speed
    base = a[:, None, :] + ease[:, None] * (unit * walk[:, None])[:, None, :]
    head, head_vjp = _heading(to_mid)

    def vjp(gb, gh, g):
        gstep = _eased_sum(ease, gb)
        gunit, gwalk = gstep * walk[:, None], np.sum(gstep * unit, axis=1)
        g["speed"] += gwalk * spec.walk_span * th
        g["psi"] += spec.heading_weight * gh
        gdist = gwalk * speed * (1.0 - th * th) * (over > 0.0) - \
            np.sum(gunit * to_mid, axis=1) * inv * inv
        gmid = gunit * inv[:, None] + (gdist * inv)[:, None] * to_mid + \
            head_vjp(gh)
        g["anchor"] += np.sum(gb, axis=1) + 0.5 * (gmid[_SWAP] - gmid)

    return base, head + spec.heading_weight * p["psi"], vjp


def _circle_root(p, spec: LabelSpec, k: dict):
    """Both persons circle their pair's centre, the radius easing out from
    `r0` to `r0 + 0.3`. The path is the anchor plus the circle point less
    frame 0's, so frame 0, where ease is 0, is the anchor bit for bit."""
    a, speed, P = p["anchor"], p["speed"], p["anchor"].shape[0]
    center = (a + a[_SWAP]) * 0.5
    rel = a - center
    flat = np.stack([rel[:, 0], np.zeros(P), rel[:, 2]], axis=1)
    r0 = np.sqrt(np.sum(flat * flat, axis=1) + 1e-3 * 1e-3)
    radius = r0[:, None] + 0.3 * k["ease"]
    alpha0, alpha0_vjp = _heading(rel)
    sweep = k["ease"] * CIRCLE_SWEEP
    alpha = alpha0[:, None] + sweep * speed[:, None]
    cos, sin = np.cos(alpha), np.sin(alpha)
    c0, s0 = cos[:, 0], sin[:, 0]
    base = np.stack([a[:, 0:1] + (radius * cos - (r0 * c0)[:, None]),
                     np.broadcast_to(a[:, 1:2], cos.shape),
                     a[:, 2:3] + (radius * sin - (r0 * s0)[:, None])], axis=2)
    # tangent heading plus user offset
    heading = alpha0 + 0.5 * CIRCLE_SWEEP + np.pi / 2.0 + \
        spec.heading_weight * p["psi"]

    def vjp(gb, gh, g):
        gx, gz, gs = gb[:, :, 0], gb[:, :, 2], np.sum(gb, axis=1)
        galpha = radius * (gz * cos - gx * sin)
        galpha[:, 0] -= r0 * (gs[:, 2] * c0 - gs[:, 0] * s0)
        g["speed"] += galpha @ sweep
        g["psi"] += spec.heading_weight * gh
        gr0 = np.sum(gx * cos + gz * sin, axis=1) - gs[:, 0] * c0 - gs[:, 2] * s0
        grel = alpha0_vjp(np.sum(galpha, axis=1) + gh) + \
            (gr0 / r0)[:, None] * flat
        g["anchor"] += gs + 0.5 * (grel - grel[_SWAP])

    return base, heading, vjp


def _talk_root(p, spec: LabelSpec, k: dict):
    a = p["anchor"]
    base = np.broadcast_to(a[:, None, :], (a.shape[0],) + k["sway"].shape)
    if spec.sway_amp > 0.0:
        base = base + k["sway"]
    head, head_vjp = _heading(a[_SWAP] - a)

    def vjp(gb, gh, g):
        gd = head_vjp(gh)
        g["anchor"] += np.sum(gb, axis=1) + gd[_SWAP] - gd
        g["psi"] += spec.heading_weight * gh

    return base, head + spec.heading_weight * p["psi"], vjp


_LEADER = np.array([1.0, 0.0])


def _follow_root(p, spec: LabelSpec, k: dict):
    """Person 0 leads, person 1 follows. Both paths are built for both
    rows; row 0 keeps the leader path and row 1 the follower path, and
    their adjoints are routed the same way."""
    a, speed, ease, P = p["anchor"], p["speed"], k["ease"], p["anchor"].shape[0]
    # the leader walks along its own heading
    theta, theta_vjp = _heading(a[_SWAP] - a)
    theta = theta + p["psi"]
    ct, st = np.cos(theta), np.sin(theta)
    forward = np.stack([ct, np.zeros(P), st], axis=1)
    lead = a[:, None, :] + \
        ease[:, None] * (forward * (2.0 * speed[:, None]))[:, None, :]
    # the follower heads to a point trailing its leader's end position
    trail = (lead[:, -1, :] - forward * FOLLOW_GAP)[_SWAP]
    to_trail = trail - a
    base = a[:, None, :] + ease[:, None] * (to_trail * speed[:, None])[:, None, :]
    head, head_vjp = _heading(to_trail)
    head = head + spec.heading_weight * p["psi"]

    def vjp(gb, gh, g):
        glead, gbase = gb * _LEADER[:, None, None], gb * _LEADER[::-1, None, None]
        gtheta, ghead = gh * _LEADER, gh * _LEADER[::-1]
        gstep = _eased_sum(ease, gbase)
        g["speed"] += np.sum(gstep * to_trail, axis=1)
        g["psi"] += spec.heading_weight * ghead
        gtrail = gstep * speed[:, None] + head_vjp(ghead)
        glead[:, -1, :] += gtrail[_SWAP]
        gstep = _eased_sum(ease, glead)
        g["speed"] += 2.0 * np.sum(gstep * forward, axis=1)
        gfwd = gstep * (2.0 * speed[:, None]) - FOLLOW_GAP * gtrail[_SWAP]
        gtheta = gtheta + gfwd[:, 2] * ct - gfwd[:, 0] * st
        g["psi"] += gtheta
        gd = theta_vjp(gtheta)
        g["anchor"] += np.sum(gbase + glead, axis=1) - gtrail + gd[_SWAP] - gd

    return (np.concatenate([lead[:1], base[1:]]),
            np.concatenate([theta[:1], head[1:]]), vjp)


_ROOT_CURVES = {"approach": _approach_root, "circle": _circle_root,
                "talk": _talk_root, "pose": _talk_root,
                "follow": _follow_root}


# -- full pose assembly --------------------------------------------------------


def _inputs(p, spec: LabelSpec, k: dict):
    """The assembly inputs of params `p`: the kind's root curve plus the
    horizontal drift, eased in so frame 0 stays anchored, as the (P, N, 3)
    `root` path; the `anchor`; the cosine `c` and sine `s` of the heading;
    the carriers `u` and `v`. Returns them and the vjp from their adjoints
    to the params'."""
    if spec.kind not in _ROOT_CURVES:
        raise ValueError(f"unknown script kind {spec.kind!r}")
    base, heading, curve_vjp = _ROOT_CURVES[spec.kind](p, spec, k)
    c, s = np.cos(heading), np.sin(heading)
    q = {"root": base + k["ease"][:, None] * p["drift"][:, None, :],
         "anchor": p["anchor"], "c": c, "s": s, "u": p["u"], "v": p["v"]}

    def vjp(gq):
        P = c.shape[0]
        g = {"anchor": gq["anchor"], "u": gq["u"], "v": gq["v"],
             "drift": _eased_sum(k["ease"], gq["root"]),
             "speed": np.zeros(P), "psi": np.zeros(P)}
        curve_vjp(gq["root"], c * gq["s"] - s * gq["c"], g)
        return g

    return q, vjp


def _assemble(q, skeleton: Skeleton, k: dict, frames=slice(None)):
    """Both persons' (P, N, D) frames from the assembly inputs `q`, exact on
    `frames` (a slice of step 1) and NaN elsewhere, and the vjp from the
    adjoint of `out[:, frames]` to the inputs' (a dict with the keys of q).
    Contacts and the constant rotations get no adjoint."""
    J, root, c, s = skeleton.J, q["root"], q["c"], q["s"]
    (P, N), planted = root.shape[:2], k["planted"]
    vb, rb, fb = (vel_slice(J).start, rot_slice(J).start, foot_slice(J).start)
    lo, hi, _ = frames.indices(N)
    w = slice(max(lo - 1, 0), hi)   # the differences at lo read frame lo - 1
    cb, sb = c[:, None, None], s[:, None, None]
    ox, oy, oz = k["ox"][w], k["oy"][w], k["oz"][w]
    # each non-root joint sits at its base, the root or for planted feet
    # the anchor, plus its offset rotated about +y by the heading:
    # forward = (c, 0, s), left = (s, 0, -c)
    base = np.where(planted[:, None], q["anchor"][:, None, None, :],
                    root[:, w, None, :])
    joints = base + np.stack([ox * sb + oz * cb, np.broadcast_to(oy, (P,) + oy.shape),
                              ox * (-1.0 * cb) + oz * sb], axis=-1)
    out = np.full((P, N, skeleton.D), np.nan)
    o = out[:, w]
    o[:, :, :3] = root[:, w]
    o[:, :, 3:vb] = joints.reshape(P, joints.shape[1], 3 * (J - 1))
    # velocities: carrier channels for root and spine, finite differences
    # for the remaining joints
    o[:, :, vb:vb + 3] = (q["u"] * (1.0 / N))[:, None, :]
    o[:, :, vb + 3:vb + 6] = (q["v"] * (1.0 / N))[:, None, :]
    o[:, 0, vb + 6:rb] = 0.0
    o[:, 1:, vb + 6:rb] = o[:, 1:, 6:vb] - o[:, :-1, 6:vb]
    # root rotation (s, 0, -c, 0, 1, 0), identity for the other joints
    o[:, :, rb:fb] = k["rot"]
    o[:, :, rb] = s[:, None]
    o[:, :, rb + 2] = (-1.0 * c)[:, None]
    o[:, :, fb:] = k["foot"][w]
    out[:, w.start:lo] = np.nan      # frame lo - 1, read for the differences

    def vjp(G):
        # all frames, zero off the window: frame sums add as the full ones
        Gg = np.zeros((P, N, rb + 3))
        Gg[:, lo:hi] = G[:, :, :rb + 3]
        # a finite difference's adjoint is a difference of adjoints
        Gg[:, 1:, 6:vb] += Gg[:, 1:, vb + 6:rb]
        Gg[:, :-1, 6:vb] -= Gg[:, 1:, vb + 6:rb]
        Gj = Gg[:, :, 3:vb].reshape(P, N, J - 1, 3)
        Gx, Gz, ox, oz = Gj[..., 0], Gj[..., 2], k["ox"], k["oz"]
        Grot = np.sum(Gg[:, :, rb:rb + 3], axis=1)
        gcarrier = np.sum(Gg[:, :, vb:vb + 6], axis=1) * (1.0 / N)
        return {"root": Gg[:, :, :3] + np.sum(Gj[:, :, ~planted], axis=2),
                "anchor": np.sum(Gj[:, :, planted], axis=(1, 2)),
                "c": np.sum(Gx * oz - Gz * ox, axis=(1, 2)) - Grot[:, 2],
                "s": np.sum(Gx * ox + Gz * oz, axis=(1, 2)) + Grot[:, 0],
                "u": gcarrier[:, :3], "v": gcarrier[:, 3:]}

    return out, vjp


def script_inputs(F: np.ndarray, spec: LabelSpec, skeleton: Skeleton,
                  N: int):
    """The assembly inputs of the N-frame script of (P, 8) functionals `F`
    (see `functionals`), and the vjp from their adjoints to F's."""
    p, params_vjp = _params(F, spec)
    q, inputs_vjp = _inputs(p, spec, _constants(spec, skeleton, N))
    return q, lambda gq: params_vjp(inputs_vjp(gq))


def assemble(q, spec: LabelSpec, skeleton: Skeleton, frames=slice(None)):
    """The (P, N, D) frames of assembly inputs `q` on `frames`, and a vjp."""
    return _assemble(q, skeleton, _constants(spec, skeleton, q["root"].shape[1]),
                     frames)


def pair_scripts(w: np.ndarray, spec: LabelSpec, skeleton: Skeleton):
    """Scripted clean estimate of both persons from their stacked (2, N, D)
    world-space states in numpy, and the vjp from its adjoint to the
    states', made of reductions."""
    ch, N = functional_channels(skeleton), w.shape[1]
    q, inputs_vjp = script_inputs(functionals(w, ch), spec, skeleton, N)
    out, assemble_vjp = assemble(q, spec, skeleton)

    def vjp(G):
        gw = np.zeros(w.shape)
        gw[:, :, ch] = functionals_vjp(inputs_vjp(assemble_vjp(G)), N)
        return gw

    return out, vjp


def build_pair_scripts(w, spec: LabelSpec, skeleton: Skeleton) -> ad.Var:
    """`pair_scripts` of a stacked (2, N, D) Var, recorded as one tape
    node."""
    w = ad.as_var(w)
    out, vjp = pair_scripts(w.value, spec, skeleton)
    return ad.Var(out, (w,), lambda G: (vjp(G),))


def build_pair_from_values(values1: dict, values2: dict, spec: LabelSpec,
                           skeleton: Skeleton, N: int):
    """Numpy script pair from explicit parameter values (corpus path)."""
    p = params_from_values(spec, (values1, values2))
    q, _ = _inputs(p, spec, _constants(spec, skeleton, N))
    return tuple(assemble(q, spec, skeleton)[0])
