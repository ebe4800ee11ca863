"""Evaluation metrics for multi-person motion.

All metrics operate on world-space MotionSequences and are pure functions.
They match naive loop oracles to 1e-9 relative; the vectorised penetration
volume sums in a different order than a loop does.
Units: meters, frames (accelerations are meters/frame^2), volumes cm^3.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .motion import MotionSequence, facing_direction, joint_acceleration

CONTACT_HEIGHT = 0.05        # a foot in contact is lower than this, meters
CONTACT_FLAG = 0.5           # and its contact feature exceeds this
# a run violates a target that it misses by more than these
POS_THRESHOLD = 0.20         # meters from a root target
REGION_THRESHOLD = 0.10      # meters outside a region
ORIENT_THRESHOLD_DEG = 20.0  # degrees from a facing target


def pair_overlaps(seq1: MotionSequence, seq2: MotionSequence,
                  threshold: float = 0.25) -> np.ndarray:
    """Per-frame booleans: root distance below the threshold, over the
    frames both sequences have (both start at frame 0)."""
    n = min(seq1.N, seq2.N)
    d = np.linalg.norm(seq1.root_trajectory()[:n] - seq2.root_trajectory()[:n],
                       axis=1)
    return d < threshold


def run_has_overlap(sequences, threshold: float = 0.25) -> bool:
    """Any pair at any frame closer than the threshold at the roots."""
    seqs = list(sequences.values()) if isinstance(sequences, dict) else list(sequences)
    for i in range(len(seqs)):
        for j in range(i + 1, len(seqs)):
            if pair_overlaps(seqs[i], seqs[j], threshold).any():
                return True
    return False


def overlap_rate(runs, threshold: float = 0.25) -> float:
    """Fraction of runs where any pair at any frame overlaps."""
    if not runs:
        raise ValueError("overlap_rate: need at least one run")
    return sum(run_has_overlap(r, threshold) for r in runs) / len(runs)


def foot_skate(seq: MotionSequence) -> float:
    """Mean horizontal foot displacement per frame over contact frames.

    A foot is in contact at frame n when its height is below CONTACT_HEIGHT
    and its contact flag exceeds CONTACT_FLAG. Displacement is measured
    from the previous frame; frame 0 never counts. Returns 0 when no foot
    is ever in contact.
    """
    p = seq.joint_positions()
    flags = seq.foot_contacts()
    slides = []
    for fi, j in enumerate(seq.skeleton.foot_joint_ids):
        for n in range(1, seq.N):
            if p[n, j, 1] < CONTACT_HEIGHT and flags[n, fi] > CONTACT_FLAG:
                dx = p[n, j, 0] - p[n - 1, j, 0]
                dz = p[n, j, 2] - p[n - 1, j, 2]
                slides.append(np.hypot(dx, dz))
    return float(np.mean(slides)) if slides else 0.0


def max_acceleration(seq: MotionSequence) -> float:
    """Max over frames and joints of the acceleration magnitude."""
    acc = joint_acceleration(seq)
    return float(np.linalg.norm(acc, axis=2).max())


def median_acceleration(seq: MotionSequence) -> float:
    acc = joint_acceleration(seq)
    return float(np.median(np.linalg.norm(acc, axis=2)))


def sphere_lens_volume(r1, r2, d):
    """Intersection volume of two spheres, closed form, input units cubed.
    Arguments broadcast; scalar inputs give a float."""
    r1, r2, d = np.broadcast_arrays(*(np.asarray(x, dtype=np.float64)
                                      for x in (r1, r2, d)))
    contained = d <= np.abs(r1 - r2)
    # the lens branch only applies where d > |r1 - r2| >= 0
    dd = np.where(contained, 1.0, d)
    lens = (np.pi * (r1 + r2 - d) ** 2 *
            (d * d + 2.0 * d * (r1 + r2) - 3.0 * (r1 - r2) ** 2) / (12.0 * dd))
    vol = np.where(contained, 4.0 / 3.0 * np.pi * np.minimum(r1, r2) ** 3, lens)
    vol = np.where(d >= r1 + r2, 0.0, vol)
    return float(vol) if vol.ndim == 0 else vol


def proxy_penetration_volume(sequences) -> float:
    """Max over frames of the summed cross-person joint-sphere intersection
    volume, in cm^3. Spheres use the skeleton's per-joint proxy radii. A
    pair counts at the frames both persons have (all start at frame 0)."""
    seqs = list(sequences.values()) if isinstance(sequences, dict) else list(sequences)
    if len(seqs) < 2:
        return 0.0
    radii = np.stack([np.asarray(s.skeleton.proxy_radii) for s in seqs])
    N = max(s.N for s in seqs)
    pos = np.zeros((len(seqs), N, seqs[0].skeleton.J, 3))   # (P, N, J, 3)
    has = np.zeros((len(seqs), N), dtype=bool)
    for i, s in enumerate(seqs):
        pos[i, :s.N], has[i, :s.N] = s.joint_positions(), True
    a, b = np.triu_indices(len(seqs), 1)
    d = np.linalg.norm(pos[a][:, :, :, None] - pos[b][:, :, None, :], axis=4)
    vol = np.where((has[a] & has[b])[:, :, None, None],
                   sphere_lens_volume(radii[a][:, None, :, None],
                                      radii[b][:, None, None, :], d), 0.0)
    return float(vol.sum(axis=(0, 2, 3)).max(initial=0.0)) * 1e6  # m^3 -> cm^3


def pose_diversity(runs) -> float:
    """Mean pairwise L2 distance between flattened runs; regression
    tracking only, not comparable to learned diversity metrics."""
    flats = []
    for r in runs:
        seqs = list(r.values()) if isinstance(r, dict) else list(r)
        flats.append(np.concatenate([s.frames.ravel() for s in seqs]))
    if len(flats) < 2:
        return 0.0
    total, count = 0.0, 0
    for i in range(len(flats)):
        for j in range(i + 1, len(flats)):
            d = flats[i] - flats[j]     # no BLAS: ddot may take a 2nd core
            total += float(np.sqrt(np.sum(d * d)))
            count += 1
    return total / count


# -- constraint violation harness ---------------------------------------------


@dataclass
class ScenarioTargets:
    """Ground-truth constraints of one evaluation scenario. Each field is
    optional; omitted kinds never register violations."""
    root_targets: dict = field(default_factory=dict)
    # person -> list of (frame, xyz target)
    regions: dict = field(default_factory=dict)
    # person -> (lower xyz, upper xyz, joint ids or None)
    orientations: dict = field(default_factory=dict)
    # person -> list of (frame, unit xz direction)


@dataclass
class ViolationReport:
    pos_err_rate: float
    overlap_rate: float
    region_viol_rate: float
    orient_err_rate: float

    def __post_init__(self):
        for r in (self.pos_err_rate, self.overlap_rate,
                  self.region_viol_rate, self.orient_err_rate):
            if not (0.0 <= r <= 1.0):
                raise ValueError("ViolationReport: rate outside [0, 1]")

    def rates(self) -> dict:
        return {"position": self.pos_err_rate, "overlap": self.overlap_rate,
                "region": self.region_viol_rate,
                "orientation": self.orient_err_rate}


def _run_violations(run, targets: ScenarioTargets) -> dict:
    seqs = run if isinstance(run, dict) else dict(enumerate(run))
    out = {"position": False, "overlap": False, "region": False,
           "orientation": False}
    out["overlap"] = run_has_overlap(seqs)
    for pid, entries in targets.root_targets.items():
        roots = seqs[pid].root_trajectory()
        for frame, tgt in entries:
            if np.linalg.norm(roots[frame] - np.asarray(tgt)) > POS_THRESHOLD:
                out["position"] = True
    for pid, (lower, upper, joints) in targets.regions.items():
        p = seqs[pid].joint_positions()
        joints = range(p.shape[1]) if joints is None else joints
        lower, upper = np.asarray(lower), np.asarray(upper)
        for j in joints:
            excess = np.maximum(lower - p[:, j, :], 0.0) + \
                np.maximum(p[:, j, :] - upper, 0.0)
            if np.linalg.norm(excess, axis=1).max() > REGION_THRESHOLD:
                out["region"] = True
    cos_thr = np.cos(np.deg2rad(ORIENT_THRESHOLD_DEG))
    for pid, entries in targets.orientations.items():
        for frame, d_tgt in entries:
            d_tgt = np.asarray(d_tgt, dtype=np.float64)
            d_tgt = d_tgt / np.linalg.norm(d_tgt)
            d = facing_direction(seqs[pid], frame)
            if float(d @ d_tgt) < cos_thr:
                out["orientation"] = True
    return out


def ablation_violations(runs, targets: ScenarioTargets) -> ViolationReport:
    """Per-run violation booleans aggregated to rates."""
    if not runs:
        raise ValueError("ablation_violations: need at least one run")
    counts = {"position": 0, "overlap": 0, "region": 0, "orientation": 0}
    for run in runs:
        v = _run_violations(run, targets)
        for k in counts:
            counts[k] += bool(v[k])
    n = len(runs)
    return ViolationReport(counts["position"] / n, counts["overlap"] / n,
                           counts["region"] / n, counts["orientation"] / n)


# -- pairwise decomposition & reporting ----------------------------------------


def pairwise_decompose(sequences: dict, pivot) -> list:
    """Two-person views (pivot, p) for all p != pivot, for pair metrics."""
    if pivot not in sequences:
        raise KeyError(f"pairwise_decompose: pivot {pivot} not in result")
    if len(sequences) < 2:
        raise ValueError("pairwise_decompose: need at least two persons")
    return [{pivot: sequences[pivot], p: s}
            for p, s in sequences.items() if p != pivot]


@dataclass
class MetricReport:
    overlap_rate: float
    foot_skate: float
    max_acc: float
    proxy_pen_vol: float
    diversity: float
    n_runs: int
    per_run: list = field(default_factory=list)   # dicts, one per run

    def __post_init__(self):
        if not (0.0 <= self.overlap_rate <= 1.0):
            raise ValueError("MetricReport: overlap_rate outside [0, 1]")
        if self.proxy_pen_vol < 0:
            raise ValueError("MetricReport: negative volume")


def evaluate_runs(runs, overlap_threshold: float = 0.25) -> MetricReport:
    """Aggregate the standard metric set over a list of runs (each a dict
    person id -> MotionSequence)."""
    if not runs:
        raise ValueError("evaluate_runs: need at least one run")
    per_run = []
    for ri, run in enumerate(runs):
        seqs = run if isinstance(run, dict) else dict(enumerate(run))
        per_run.append({
            "run": ri,
            "overlap": float(run_has_overlap(seqs, overlap_threshold)),
            "foot_skate": float(np.mean([foot_skate(s) for s in seqs.values()])),
            "max_acc": float(max(max_acceleration(s) for s in seqs.values())),
            "pen_vol": proxy_penetration_volume(seqs),
        })
    return MetricReport(
        overlap_rate=float(np.mean([r["overlap"] for r in per_run])),
        foot_skate=float(np.mean([r["foot_skate"] for r in per_run])),
        max_acc=float(np.mean([r["max_acc"] for r in per_run])),
        proxy_pen_vol=float(np.mean([r["pen_vol"] for r in per_run])),
        diversity=pose_diversity(runs),
        n_runs=len(runs),
        per_run=per_run,
    )


def write_report_csv(report: MetricReport, path) -> None:
    """One row per run plus an aggregate row. `diversity` scores the set of
    runs, so only the aggregate row has a value in its column."""
    cols = ["run", "overlap", "foot_skate", "max_acc", "pen_vol"]
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(cols + ["diversity"])
        for row in report.per_run:
            w.writerow([row[c] for c in cols] + [""])
        w.writerow(["aggregate", report.overlap_rate, report.foot_skate,
                    report.max_acc, report.proxy_pen_vol, report.diversity])
