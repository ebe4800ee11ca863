"""Op-by-op tape forms of the penalty terms: the gradient oracle of
`groupmotion.penalties`.

Every term here is written in `autodiff` ops, one tape node per op, with
constant operands as constant leaves, so the one-node terms of the package
can be checked against it for bit-identical values and gradients. The
facing chain is the tape Gram-Schmidt whose numpy forward and vjp are
`motion.facing_gram_schmidt`. Validation is the package's; these forms
assume valid arguments.

One deliberate difference: at coincident roots `sqrt`'s backward gives
0.5 / 0 times a zero difference, a NaN, where the package's terms give the
subgradient 0.
"""

from __future__ import annotations

import numpy as np

from groupmotion import autodiff as ad
from groupmotion.motion import glo_slice, rot_slice
from groupmotion.penalties import region_joints

import tape_ops as to


def _unit_rows(v: ad.Var) -> ad.Var:
    """Each row of the (K, m) Var over its norm, smoothed by eps 1e-9."""
    n = to.norm(v, axis=1, eps=1e-9)
    return to.div(v, to.broadcast_to(to.reshape(n, (v.shape[0], 1)), v.shape))


def _ground_forward(frames, skeleton, frame_set) -> ad.Var:
    """(K, 2) ground-plane (x, z) part of the root's forward axis, not
    normalised, by differentiable Gram-Schmidt of its 6D rotation."""
    rb = rot_slice(skeleton.J).start
    r6 = ad.as_var(frames)[:, rb:rb + 6][np.asarray(frame_set, dtype=int)]
    a, b = r6[:, 0:3], r6[:, 3:6]
    c1 = _unit_rows(a)
    dot = to.sum_(b * c1, axis=1)
    c2 = _unit_rows(
        b - to.broadcast_to(to.reshape(dot, (r6.shape[0], 1)), b.shape) * c1)
    # forward axis = c1 x c2; only its ground-plane (x, z) components matter
    fx = c1[:, 1] * c2[:, 2] - c1[:, 2] * c2[:, 1]
    fz = c1[:, 0] * c2[:, 1] - c1[:, 1] * c2[:, 0]
    return ad.stack([fx, fz], axis=1)


def facing_directions(frames, skeleton, frame_set) -> ad.Var:
    """(K, 2) unit ground-plane facing directions at the frames of
    `frame_set`, from the root's 6D rotation."""
    return _unit_rows(_ground_forward(frames, skeleton, frame_set))


def _roots(frames: ad.Var) -> ad.Var:
    return frames[:, 0:3]


def _root_distance(f1, f2) -> ad.Var:
    return to.norm(_roots(f1) - _roots(f2), axis=1)


def overlap_penalty(target, others, delta=0.30) -> ad.Var:
    target = ad.as_var(target)
    total = ad.constant(0.0)
    for other in others:
        dist = _root_distance(target, ad.as_var(other))
        total = total + to.sum_(to.relu(delta - dist))
    return total


def root_penalty(frames, targets, frame_set, delta=0.0) -> ad.Var:
    frame_set = np.asarray(frame_set, dtype=int)
    targets = np.asarray(targets, dtype=np.float64).reshape(len(frame_set), 3)
    d = _roots(ad.as_var(frames))[frame_set] - ad.constant(targets)
    sq = to.sum_(d * d, axis=1)
    return to.sum_(to.relu(sq - delta))


def region_penalty(frames, lower, upper, skeleton, joints=None) -> ad.Var:
    frames = ad.as_var(frames)
    J, N = skeleton.J, frames.shape[0]
    joints = region_joints(joints, J)
    # (N * J, 3) positions, row n * J + j; keep the chosen joints' rows
    p = to.reshape(frames[:, glo_slice(J)], (N * J, 3))
    if len(joints) < J:
        p = p[(np.arange(N)[:, None] * J + joints).ravel()]
    low = ad.constant(np.broadcast_to(np.asarray(lower, float), p.shape))
    up = ad.constant(np.broadcast_to(np.asarray(upper, float), p.shape))
    total = to.sum_(to.relu(low - p)) + to.sum_(to.relu(p - up))
    return total * (1.0 / (N * len(joints)))


def orientation_penalty(frames, d_target, frame_set, skeleton,
                        delta=0.2) -> ad.Var:
    frame_set = np.asarray(frame_set, dtype=int)
    d_target = np.asarray(d_target, dtype=np.float64).reshape(len(frame_set), 2)
    d_target = d_target / np.linalg.norm(d_target, axis=1)[:, None]
    d = facing_directions(frames, skeleton, frame_set)
    dots = to.sum_(d * ad.constant(d_target), axis=1)
    return to.sum_(to.relu(1.0 - dots - delta))


def relative_penalty(frames1, frames2, d_min, d_max,
                     frame_set=None) -> ad.Var:
    dist = _root_distance(ad.as_var(frames1), ad.as_var(frames2))
    if frame_set is not None:
        dist = dist[np.asarray(frame_set, dtype=int)]
    return to.sum_(to.relu(d_min - dist)) + to.sum_(to.relu(dist - d_max))


def boundary_penalty(frames, window_start, window_len, skeleton) -> ad.Var:
    frames = ad.as_var(frames)
    N, J = frames.shape[0], skeleton.J
    p = to.reshape(frames[:, glo_slice(J)], (N, J, 3))
    acc = p[2:, :, :] - 2.0 * p[1:-1, :, :] + p[:-2, :, :]
    # acceleration at frame n uses p(n-1), p(n), p(n+1); index shift of 1
    lo = max(window_start - 1, 0)
    hi = min(window_start + window_len - 1, N - 2)
    a = acc[lo:hi, :, :]
    return to.sum_(a * a) * (1.0 / ((hi - lo) * J))


def aggregate(terms, weights) -> ad.Var:
    """The weighted sum of term Vars, one add and one mul per term."""
    total = ad.constant(0.0)
    for term, w in zip(terms, weights):
        total = total + w * term
    return total
