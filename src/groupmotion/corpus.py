"""Synthetic two-person interaction corpus.

Each sample is a scripted pair of motions with its generating parameters
kept as ground truth, so metric and penalty oracles never depend on
learned behavior. Stored on disk as a directory of motion files plus a
JSON manifest.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import TypedDict

import numpy as np

from .motion import (N_FRAMES_MAX, MotionSequence, NormalizationStats,
                     Skeleton, default_skeleton, repair_velocities,
                     write_motion)
from .scripts import (InteractionLabel, ROOT_HEIGHT, build_pair_from_values,
                      default_vocabulary, label_by_name)

SAMPLES_PER_LABEL_MAX = 1000


# one person's ground-truth script values, as a manifest holds them
ScriptValues = TypedDict("ScriptValues", {
    "anchor": np.ndarray, "drift": np.ndarray, "speed": float, "psi": float,
    "phase": float})
# the manifest.json that `save_corpus` writes
CorpusManifest = TypedDict("CorpusManifest", {
    "fps": float, "samples": tuple[TypedDict("Sample", {
        "files": tuple[str, str], "label": InteractionLabel,
        "params": tuple[ScriptValues, ScriptValues]}), ...]})


@dataclass
class CorpusSample:
    seqs: tuple                  # (MotionSequence, MotionSequence)
    label: InteractionLabel
    params: tuple                # (ScriptValues, ScriptValues)


@dataclass
class SyntheticCorpus:
    skeleton: Skeleton
    samples: list = field(default_factory=list)
    fps: float = 20.0

    def stats(self) -> NormalizationStats:
        frames = np.concatenate(
            [seq.frames for s in self.samples for seq in s.seqs], axis=0)
        return NormalizationStats.from_frames(frames)


@dataclass
class CorpusConfig:
    labels: tuple[str, ...] = ("approach", "circle-together",
                               "face-and-talk", "pose-pair", "follow")
    samples_per_label: int = 8
    n_frames: int = 32
    fps: float = 20.0
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.samples_per_label <= SAMPLES_PER_LABEL_MAX:
            raise ValueError(f"CorpusConfig: samples_per_label must be in "
                             f"[1, {SAMPLES_PER_LABEL_MAX}]")
        if not 4 <= self.n_frames <= N_FRAMES_MAX:
            raise ValueError(f"CorpusConfig: n_frames must be in [4, "
                             f"{N_FRAMES_MAX}]")
        if not 0 < self.fps < np.inf:
            raise ValueError("CorpusConfig: fps must be positive and finite")
        known = {s.name for s in default_vocabulary()}
        unknown = [l for l in self.labels if l not in known]
        if unknown:
            raise ValueError(f"CorpusConfig: unknown labels {unknown}")
        if not self.labels:
            raise ValueError("CorpusConfig: labels must not be empty")


def _sample_pair_params(rng: np.random.Generator) -> tuple:
    """Moderate, well-separated script parameters for one sample."""
    p1_xz = rng.uniform(-2.0, 2.0, size=2)
    heading = rng.uniform(0.0, 2 * np.pi)
    dist = rng.uniform(1.8, 3.5)
    p2_xz = p1_xz + dist * np.array([np.cos(heading), np.sin(heading)])
    out = []
    for xz in (p1_xz, p2_xz):
        out.append({
            "anchor": np.array([xz[0], ROOT_HEIGHT, xz[1]]),
            "drift": rng.uniform(-0.2, 0.2, size=2),
            "speed": float(np.exp(rng.uniform(-0.1, 0.1))),
            "psi": float(rng.uniform(-0.15, 0.15)),
            "phase": float(rng.uniform(-np.pi, np.pi)),
        })
    return tuple(out)


def generate_corpus(config: CorpusConfig,
                    skeleton: Skeleton | None = None) -> SyntheticCorpus:
    skeleton = skeleton or default_skeleton()
    rng = np.random.default_rng(config.seed)
    corpus = SyntheticCorpus(skeleton=skeleton, fps=config.fps)
    for name in config.labels:
        label = label_by_name(name)
        for _ in range(config.samples_per_label):
            v1, v2 = _sample_pair_params(rng)
            f1, f2 = build_pair_from_values(v1, v2, label.spec, skeleton,
                                            config.n_frames)
            seqs = tuple(
                repair_velocities(
                    MotionSequence(skeleton, f, fps=config.fps, person_id=i))
                for i, f in enumerate((f1, f2)))
            corpus.samples.append(CorpusSample(seqs, label, (v1, v2)))
    return corpus


def save_corpus(corpus: SyntheticCorpus, out_dir: str) -> dict:
    """Write the motion files and manifest.json; returns the manifest."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = {"fps": corpus.fps, "samples": []}
    for i, s in enumerate(corpus.samples):
        files = []
        for seq in s.seqs:
            fname = f"sample{i:04d}_p{seq.person_id}.motion"
            write_motion(seq, os.path.join(out_dir, fname))
            files.append(fname)
        manifest["samples"].append({
            "files": files,
            "label": s.label.name,
            "params": [_params_json(p) for p in s.params],
        })
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    return manifest


def _params_json(p: dict) -> dict:
    return {k: (np.asarray(v).tolist() if isinstance(v, np.ndarray) else v)
            for k, v in p.items()}
