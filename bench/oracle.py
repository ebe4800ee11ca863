"""Numpy-only recomputations behind the benchmark's correctness checks.

Nothing here imports groupmotion: the checks recompute penalties, metrics
and file contents from the documented formats, so a fault in the program
cannot hide itself by also being in the check.

Frame layout (motion.py): [3J positions | 3J velocities | 6J rotations |
4 foot contacts]; the root is joint 0, its 6D rotation the first 6
rotation channels.
"""

from __future__ import annotations

import csv
import json

import numpy as np


def close(got: float, want: float, rtol: float = 1e-9,
          atol: float = 1e-15) -> bool:
    return abs(got - want) <= max(rtol * abs(want), atol)


# -- motion files -------------------------------------------------------------


def parse_motion(path):
    """(header dict, (N, D) frames) from a .motion file: one JSON header
    line, then one whitespace-separated row of reals per frame."""
    with open(path) as f:
        header = json.loads(f.readline())
        rows = [[float(tok) for tok in line.split()] for line in f
                if line.strip()]
    frames = np.array(rows, dtype=np.float64)
    if frames.shape[0] != header["N"]:
        raise ValueError(f"{path}: {frames.shape[0]} rows, header says "
                         f"{header['N']}")
    return header, frames


def positions(frames: np.ndarray, J: int) -> np.ndarray:
    return frames[:, :3 * J].reshape(frames.shape[0], J, 3)


def roots(frames: np.ndarray) -> np.ndarray:
    return frames[:, 0:3]


# -- penalty terms --------------------------------------------------------------


def overlap_term(roots_a, roots_b, delta: float) -> float:
    d = np.linalg.norm(roots_a - roots_b, axis=1)
    return float(np.maximum(delta - d, 0.0).sum())


def root_term(frames, frame_set, targets, delta: float = 0.0) -> float:
    d = roots(frames)[frame_set] - np.reshape(targets, (len(frame_set), 3))
    return float(np.maximum((d * d).sum(axis=1) - delta, 0.0).sum())


def region_term(frames, J: int, lower, upper) -> float:
    p = positions(frames, J)
    viol = np.maximum(np.asarray(lower) - p, 0.0) + \
        np.maximum(p - np.asarray(upper), 0.0)
    return float(viol.sum() / (frames.shape[0] * J))


def facing(frames, J: int, frame_set) -> np.ndarray:
    """(K, 2) unit ground-plane forward axis of the root rotation."""
    r6 = frames[frame_set, 6 * J:6 * J + 6]
    a, b = r6[:, 0:3], r6[:, 3:6]
    c1 = a / np.linalg.norm(a, axis=1, keepdims=True)
    b2 = b - (b * c1).sum(axis=1, keepdims=True) * c1
    c2 = b2 / np.linalg.norm(b2, axis=1, keepdims=True)
    fwd = np.cross(c1, c2)[:, [0, 2]]
    return fwd / np.linalg.norm(fwd, axis=1, keepdims=True)


def orientation_term(frames, J: int, frame_set, targets,
                     delta: float) -> float:
    t = np.reshape(targets, (len(frame_set), 2))
    t = t / np.linalg.norm(t, axis=1, keepdims=True)
    dots = (facing(frames, J, frame_set) * t).sum(axis=1)
    return float(np.maximum(1.0 - dots - delta, 0.0).sum())


def boundary_term(frames, J: int, window_start: int, window_len: int) -> float:
    """Mean squared joint acceleration over the acceleration frames
    [window_start, window_start + window_len)."""
    p = positions(frames, J)
    acc = p[2:] - 2.0 * p[1:-1] + p[:-2]
    lo = max(window_start - 1, 0)
    hi = min(window_start + window_len - 1, frames.shape[0] - 2)
    return float((acc[lo:hi] ** 2).sum() / ((hi - lo) * J))


# -- metrics ---------------------------------------------------------------------


def lens_volume(r1, r2, d) -> np.ndarray:
    """Closed-form intersection volume of two spheres, elementwise."""
    r1, r2, d = np.broadcast_arrays(np.asarray(r1, float),
                                    np.asarray(r2, float),
                                    np.asarray(d, float))
    vol = np.zeros(d.shape)
    inside = d <= np.abs(r1 - r2)
    vol[inside] = 4.0 / 3.0 * np.pi * np.minimum(r1, r2)[inside] ** 3
    lens = (d < r1 + r2) & ~inside
    s, dl = r1[lens] + r2[lens], d[lens]
    vol[lens] = (np.pi * (s - dl) ** 2 *
                 (dl * dl + 2.0 * dl * s - 3.0 * (r1[lens] - r2[lens]) ** 2)
                 / (12.0 * dl))
    return vol


def penetration_volume(pos_list, radii) -> float:
    """Max over frames of the summed cross-person joint-sphere
    intersection volume, cm^3. `pos_list` holds (N, J, 3) arrays."""
    radii = np.asarray(radii, dtype=np.float64)
    per_frame = np.zeros(pos_list[0].shape[0])
    for a in range(len(pos_list)):
        for b in range(a + 1, len(pos_list)):
            d = np.linalg.norm(pos_list[a][:, :, None, :] -
                               pos_list[b][:, None, :, :], axis=3)
            per_frame += lens_volume(radii[:, None], radii[None, :],
                                     d).sum(axis=(1, 2))
    return float(per_frame.max() * 1e6)


def any_overlap(root_list, threshold: float) -> bool:
    for a in range(len(root_list)):
        for b in range(a + 1, len(root_list)):
            if (np.linalg.norm(root_list[a] - root_list[b], axis=1)
                    < threshold).any():
                return True
    return False


def min_root_distance(root_list) -> float:
    return min(float(np.linalg.norm(root_list[a] - root_list[b], axis=1).min())
               for a in range(len(root_list))
               for b in range(a + 1, len(root_list)))


def read_csv(path) -> list:
    with open(path, newline="") as f:
        return list(csv.reader(f))


# -- gradients ---------------------------------------------------------------------


def fd_mismatches(f, x: np.ndarray, grad: np.ndarray, coords,
                  h: float = 1e-5, rtol: float = 1e-4,
                  atol: float = 1e-7) -> list:
    """Coordinates where `grad` disagrees with central finite differences
    of the scalar function f; returns (coord, reverse, fd) triples."""
    bad = []
    for c in coords:
        xp, xm = x.copy(), x.copy()
        xp.flat[c] += h
        xm.flat[c] -= h
        fd = (f(xp) - f(xm)) / (2.0 * h)
        got = float(grad.flat[c])
        if abs(got - fd) > rtol * max(abs(fd), atol / rtol):
            bad.append((int(c), got, fd))
    return bad
