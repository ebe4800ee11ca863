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

import numpy as np

from .motion import (MotionSequence, NormalizationStats, Skeleton,
                     default_skeleton, read_motion, repair_velocities,
                     write_motion)
from .scripts import (InteractionLabel, ROOT_HEIGHT, build_pair_from_values,
                      default_vocabulary, label_by_name)


@dataclass
class CorpusSample:
    seqs: tuple                  # (MotionSequence, MotionSequence)
    label: InteractionLabel
    params: tuple                # ground-truth script parameter dicts


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
    labels: tuple = ("approach", "circle-together", "face-and-talk",
                     "pose-pair", "follow")
    samples_per_label: int = 8
    n_frames: int = 32
    fps: float = 20.0
    seed: int = 0

    def __post_init__(self):
        if self.samples_per_label < 1 or self.n_frames < 4:
            raise ValueError("CorpusConfig: need >=1 sample and >=4 frames")
        known = {s.name for s in default_vocabulary()}
        unknown = [l for l in self.labels if l not in known]
        if unknown:
            raise ValueError(f"CorpusConfig: unknown labels {unknown}")


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


def save_corpus(corpus: SyntheticCorpus, out_dir: str) -> None:
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


def load_corpus(in_dir: str, skeleton: Skeleton) -> SyntheticCorpus:
    with open(os.path.join(in_dir, "manifest.json")) as f:
        manifest = json.load(f)
    corpus = SyntheticCorpus(skeleton=skeleton, fps=manifest["fps"])
    for entry in manifest["samples"]:
        seqs = tuple(read_motion(os.path.join(in_dir, fn), skeleton)
                     for fn in entry["files"])
        params = tuple(_params_from_json(p) for p in entry["params"])
        corpus.samples.append(
            CorpusSample(seqs, label_by_name(entry["label"]), params))
    return corpus


def _params_json(p: dict) -> dict:
    return {k: (np.asarray(v).tolist() if isinstance(v, np.ndarray) else v)
            for k, v in p.items()}


def _params_from_json(p: dict) -> dict:
    out = dict(p)
    out["anchor"] = np.array(p["anchor"])
    out["drift"] = np.array(p["drift"])
    return out
