"""Synthetic corpus: shapes, determinism, ground-truth consistency, disk
round trip."""

import numpy as np
import pytest

from groupmotion.cli import _load_corpus
from groupmotion.corpus import CorpusConfig, generate_corpus, save_corpus
from groupmotion.motion import facing_direction
from groupmotion.scripts import build_pair_from_values


def small_config(**kw):
    base = dict(labels=("approach", "face-and-talk"), samples_per_label=3,
                n_frames=16, seed=5)
    base.update(kw)
    return CorpusConfig(**base)


def test_sample_shapes(skeleton):
    corpus = generate_corpus(small_config(n_frames=60))
    assert len(corpus.samples) == 6
    for s in corpus.samples:
        for seq in s.seqs:
            assert seq.frames.shape == (60, 100)


def test_config_validation():
    with pytest.raises(ValueError, match="unknown labels"):
        CorpusConfig(labels=("approach", "tango"))
    with pytest.raises(ValueError):
        CorpusConfig(samples_per_label=0)


def test_seed_determinism():
    c1 = generate_corpus(small_config())
    c2 = generate_corpus(small_config())
    for s1, s2 in zip(c1.samples, c2.samples):
        for a, b in zip(s1.seqs, s2.seqs):
            assert a.frames.tobytes() == b.frames.tobytes()
    c3 = generate_corpus(small_config(seed=6))
    assert not np.array_equal(c1.samples[0].seqs[0].frames,
                              c3.samples[0].seqs[0].frames)


def test_ground_truth_params_regenerate_positions(skeleton):
    """Stored parameters rebuild the sample's joint positions exactly
    (velocity channels are finite-difference repaired afterwards)."""
    corpus = generate_corpus(small_config())
    s = corpus.samples[0]
    f1, f2 = build_pair_from_values(s.params[0], s.params[1],
                                    s.label.spec, skeleton,
                                    s.seqs[0].N)
    J = skeleton.J
    assert np.allclose(f1[:, :3 * J], s.seqs[0].frames[:, :3 * J], atol=1e-12)
    assert np.allclose(f2[:, :3 * J], s.seqs[1].frames[:, :3 * J], atol=1e-12)


def test_face_and_talk_mutual_facing(skeleton):
    corpus = generate_corpus(small_config())
    talk = [s for s in corpus.samples if s.label.name == "face-and-talk"]
    assert talk
    for s in talk:
        d1 = facing_direction(s.seqs[0], s.seqs[0].N - 1)
        d2 = facing_direction(s.seqs[1], s.seqs[1].N - 1)
        assert float(d1 @ (-d2)) > 0.9


def test_root_matches_scripted_curve(skeleton):
    corpus = generate_corpus(small_config())
    s = corpus.samples[1]
    f1, _ = build_pair_from_values(s.params[0], s.params[1], s.label.spec,
                                   skeleton, s.seqs[0].N)
    assert np.allclose(s.seqs[0].root_trajectory(), f1[:, :3], atol=1e-12)


def test_save_load_round_trip(tmp_path, skeleton):
    corpus = generate_corpus(small_config())
    save_corpus(corpus, tmp_path / "c")
    again = _load_corpus(str(tmp_path / "c"), skeleton)
    assert len(again.samples) == len(corpus.samples)
    for s1, s2 in zip(corpus.samples, again.samples):
        assert s1.label.name == s2.label.name
        for a, b in zip(s1.seqs, s2.seqs):
            assert np.array_equal(a.frames, b.frames)
        for p1, p2 in zip(s1.params, s2.params):
            assert np.allclose(p1["anchor"], p2["anchor"])
            assert np.allclose(p1["drift"], p2["drift"])
            assert p1["speed"] == p2["speed"]


def test_stats_cover_corpus(skeleton):
    corpus = generate_corpus(small_config())
    stats = corpus.stats()
    assert stats.D == skeleton.D
    assert np.all(stats.std > 0)
