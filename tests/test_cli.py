"""End-to-end command-line pipeline: file outputs, determinism, exit codes."""

import csv
import itertools
import json
import os

import numpy as np
import pytest

from groupmotion import cli
from groupmotion import metrics as me
from groupmotion.cli import (EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, HIDDEN_MAX,
                             _load_runs, main)
from groupmotion.composer import Composer
from groupmotion.corpus import SAMPLES_PER_LABEL_MAX
from groupmotion.diffusion import DiffusionSchedule
from groupmotion.motion import (N_FRAMES_MAX, MotionSequence,
                                NormalizationStats, default_skeleton,
                                read_motion)
from groupmotion.priors import MLPPrior
from groupmotion.scripts import VOCABULARY


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


FAST = {"schedule": {"t_train": 50, "ddim_steps": 5},
        "optimizer": {"max_steps": 5}}


SCENE = {"participants": [1, 2], "first_label": "approach", "n_frames": 12,
         "first_penalties": [{"kind": "overlap", "weight": 1.0,
                              "params": {"delta": 0.3}}]}


def compose_config(tmp_path, name="compose.json", **scene_extra):
    return write_config(tmp_path, name,
                        dict(FAST, scene=dict(SCENE, **scene_extra)))


def read_manifest(out):
    with open(os.path.join(out, "manifest.json")) as f:
        return json.load(f)


# -- corpus ----------------------------------------------------------------------


def test_corpus_writes_expected_file_count(tmp_path):
    cfg = write_config(tmp_path, "c.json",
                       {"labels": ["approach", "face-and-talk"],
                        "samples_per_label": 3, "n_frames": 12})
    out = str(tmp_path / "corpus")
    assert main(["corpus", "--config", cfg, "--out", out]) == EXIT_OK
    motions = [f for f in os.listdir(out) if f.endswith(".motion")]
    assert len(motions) == 2 * 2 * 3  # two persons per sample
    assert os.path.isfile(os.path.join(out, "stats.json"))
    assert read_manifest(out)["n_samples"] == 6


def test_corpus_dry_run_writes_nothing(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"samples_per_label": 1})
    out = tmp_path / "corpus"
    assert main(["corpus", "--config", cfg, "--out", str(out),
                 "--dry-run"]) == EXIT_OK
    assert not out.exists()
    assert "corpus" in capsys.readouterr().out


def test_corpus_rejects_unknown_label(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"labels": ["tango"]})
    assert main(["corpus", "--config", cfg,
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert "tango" in capsys.readouterr().err


# -- compose ----------------------------------------------------------------------


def test_compose_writes_runs_and_losses(tmp_path):
    cfg = compose_config(tmp_path)
    out = str(tmp_path / "runs")
    assert main(["compose", "--config", cfg, "--out", out,
                 "--seed", "3,4"]) == EXIT_OK
    manifest = read_manifest(out)
    assert manifest["seeds"] == [3, 4]
    skeleton = default_skeleton()
    for run in manifest["runs"]:
        run_dir = os.path.join(out, run["dir"])
        assert sorted(run["files"]) == ["person1.motion", "person2.motion"]
        for fname in run["files"]:
            seq = read_motion(os.path.join(run_dir, fname), skeleton)
            assert seq.frames.shape == (12, skeleton.D)
            assert np.isfinite(seq.frames).all()
        assert os.path.isfile(os.path.join(run_dir, "loss.csv"))


def test_compose_byte_identical_across_invocations(tmp_path):
    cfg = compose_config(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert main(["compose", "--config", cfg, "--out", out,
                     "--seed", "7"]) == EXIT_OK
        outs.append(out)
    for fname in ("seed00007/person1.motion", "seed00007/person2.motion",
                  "manifest.json"):
        b1 = open(os.path.join(outs[0], fname), "rb").read()
        b2 = open(os.path.join(outs[1], fname), "rb").read()
        assert b1 == b2, fname


def test_compose_jobs_matches_serial(tmp_path):
    cfg = compose_config(tmp_path)
    serial, parallel = str(tmp_path / "s"), str(tmp_path / "p")
    assert main(["compose", "--config", cfg, "--out", serial,
                 "--seed", "1,2"]) == EXIT_OK
    assert main(["compose", "--config", cfg, "--out", parallel,
                 "--seed", "1,2", "--jobs", "2"]) == EXIT_OK
    for run in ("seed00001", "seed00002"):
        for person in ("person1.motion", "person2.motion"):
            rel = os.path.join(run, person)
            assert open(os.path.join(serial, rel), "rb").read() == \
                open(os.path.join(parallel, rel), "rb").read()


def test_compose_dry_run_prints_plan(tmp_path, capsys):
    cfg = compose_config(tmp_path)
    out = tmp_path / "runs"
    assert main(["compose", "--config", cfg, "--out", str(out),
                 "--dry-run"]) == EXIT_OK
    plan = capsys.readouterr().out
    assert "approach" in plan and "(1, 2)" in plan
    assert not out.exists()


def test_compose_refuses_nonempty_out(tmp_path):
    cfg = compose_config(tmp_path)
    out = tmp_path / "runs"
    out.mkdir()
    (out / "junk.txt").write_text("x")
    assert main(["compose", "--config", cfg,
                 "--out", str(out)]) == EXIT_CONFIG
    assert main(["compose", "--config", cfg, "--out", str(out),
                 "--overwrite", "--seed", "1"]) == EXIT_OK


def test_compose_missing_field_names_it(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json",
                       {"scene": {"participants": [1, 2]}})
    assert main(["compose", "--config", cfg,
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert "first_label" in capsys.readouterr().err


def test_compose_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["compose", "--config", str(path),
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert "JSON" in capsys.readouterr().err


def test_compose_missing_config_flag(tmp_path, capsys):
    assert main(["compose", "--out", str(tmp_path / "x")]) == EXIT_CONFIG


def test_compose_bad_penalty_kind(tmp_path, capsys):
    cfg = compose_config(tmp_path,
                         first_penalties=[{"kind": "gravity", "weight": 1.0}])
    assert main(["compose", "--config", cfg,
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert "gravity" in capsys.readouterr().err


def test_compose_three_person_step(tmp_path):
    cfg = compose_config(
        tmp_path, participants=[1, 2, 3],
        steps=[{"target": 3, "reference": 1, "label": "approach",
                "opt_subset": [1, 2]}])
    out = str(tmp_path / "runs")
    assert main(["compose", "--config", cfg, "--out", out,
                 "--seed", "5"]) == EXIT_OK
    files = read_manifest(out)["runs"][0]["files"]
    assert sorted(files) == ["person1.motion", "person2.motion",
                             "person3.motion"]


def assert_config_error_writes_nothing(tmp_path, capsys, command, cfg):
    """Exit 2 on --dry-run and on the real run, no traceback, no --out."""
    out = tmp_path / "out"
    for extra in (["--dry-run"], []):
        assert main([command, "--config", cfg, "--out", str(out)]
                    + extra) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert not out.exists()
    return err


@pytest.mark.parametrize("kind,params,missing", [
    ("root", {}, "targets"),
    ("orientation", {"delta": 0.2}, "targets"),
    ("region", {"lower": [-1, -1, -1]}, "upper"),
    ("relative", {"d_max": 2.0}, "d_min"),
])
def test_compose_penalty_missing_params(tmp_path, capsys, kind, params,
                                        missing):
    cfg = compose_config(tmp_path, first_penalties=[
        {"kind": kind, "subjects": [1], "params": params}])
    err = assert_config_error_writes_nothing(tmp_path, capsys, "compose", cfg)
    assert missing in err


@pytest.mark.parametrize("scene_extra", [
    {"first_penalties": [{"kind": "overlap", "subjects": [1, 7]}]},
    {"participants": [1, 2, 3],
     "steps": [{"target": 3, "reference": 1, "label": "approach",
                "opt_subset": [1],
                "penalties": [{"kind": "overlap", "subjects": [3, 2]}]}]},
    {"participants": [1, 2, 3],
     "steps": [{"target": 3, "reference": 1, "label": "approach",
                "opt_subset": [1], "penalties": [{"kind": "overlap"}]}]},
    # a one-person kind names one person, overlap at least two
    {"first_penalties": [{"kind": "root", "subjects": [1, 2], "frames": [11],
                          "params": {"targets": [0.0, 0.9, 0.0]}}]},
    {"first_penalties": [{"kind": "overlap", "subjects": [1]}]},
], ids=["unknown-person", "not-in-opt-subset", "no-subjects",
        "root-two-subjects", "overlap-one-subject"])
def test_compose_penalty_subject_not_generated(tmp_path, capsys,
                                               scene_extra):
    cfg = compose_config(tmp_path, **scene_extra)
    err = assert_config_error_writes_nothing(tmp_path, capsys, "compose", cfg)
    assert "subjects" in err


@pytest.mark.parametrize("scene_extra", [
    {"first_penalties": [{"kind": "root", "subjects": [1], "frames": [40],
                          "params": {"targets": [0.0, 0.9, 0.0]}}]},
    {"first_penalties": [{"kind": "relative", "subjects": [1, 2],
                          "frames": [-1],
                          "params": {"d_min": 0.5, "d_max": 3.0}}]},
    {"first_penalties": [{"kind": "root", "subjects": [1],
                          "params": {"targets": [0.0, 0.9, 0.0]}}]},
    {"first_penalties": [{"kind": "orientation", "subjects": [2],
                          "frames": [3, 11], "params": {"targets": [1, 0]}}]},
    {"participants": [1, 2, 3],
     "steps": [{"target": 3, "reference": 1, "label": "approach",
                "opt_subset": [1],
                "penalties": [{"kind": "root", "subjects": [3],
                               "frames": [12],
                               "params": {"targets": [0.0, 0.9, 0.0]}}]}]},
], ids=["root-frame-beyond-scene", "negative-frame", "one-target-all-frames",
        "orientation-target-count", "step-frame-beyond-scene"])
def test_compose_penalty_frames_checked(tmp_path, capsys, scene_extra):
    cfg = compose_config(tmp_path, **scene_extra)
    assert_config_error_writes_nothing(tmp_path, capsys, "compose", cfg)


@pytest.mark.parametrize("params", [
    {"kind": "orientation", "subjects": [1], "frames": [11],
     "params": {"targets": [0, 0]}},
    {"kind": "region", "subjects": [2],
     "params": {"lower": [-1, 0, 1], "upper": [1, 2, 0]}},
], ids=["orientation-zero-target", "region-lower-above-upper"])
def test_compose_penalty_bad_values(tmp_path, capsys, params):
    cfg = compose_config(tmp_path, first_penalties=[params])
    assert_config_error_writes_nothing(tmp_path, capsys, "compose", cfg)


@pytest.mark.parametrize("section,key,value", [
    ("optimizer", "grad_clip", 1.0),
    ("schedule", "eta", 0.0),
    ("schedule", "schedule_kind", "linear"),
    ("schedule", "kind", "cosine"),        # the schedule is always cosine
    ("prior", "guidance_scale", 2.0),
    ("optimizer", "max_step", 3),          # typo of max_steps
    ("optimizer", "beta1", 0.9),           # Adam's constants are fixed
    ("optimizer", "beta2", 0.999),
    ("optimizer", "eps", 1e-8),
    ("prior", "hidden", 8),                # read from the weights file
    ("prior", "n_labels", 7),
])
def test_compose_rejects_unknown_config_keys(tmp_path, capsys, section, key,
                                             value):
    payload = json.loads(open(compose_config(tmp_path)).read())
    payload.setdefault(section, {})[key] = value
    cfg = write_config(tmp_path, "unknown.json", payload)
    err = assert_config_error_writes_nothing(tmp_path, capsys, "compose", cfg)
    assert key in err


@pytest.mark.parametrize("steps", [0, 51], ids=["zero", "above-t-train"])
def test_compose_ddim_steps_checked(tmp_path, capsys, steps):
    """ddim_steps must be in [1, t_train]: a sampler of no step would
    return its noise."""
    payload = json.loads(open(compose_config(tmp_path)).read())
    payload["schedule"]["ddim_steps"] = steps
    cfg = write_config(tmp_path, "steps.json", payload)
    err = assert_config_error_writes_nothing(tmp_path, capsys, "compose", cfg)
    assert "ddim_steps" in err


@pytest.mark.parametrize("joints", [[9], [-1], [], [0.5], "spine", [2, 2]],
                         ids=["beyond-skeleton", "negative", "empty", "float",
                              "string", "repeated"])
def test_compose_region_joints_checked(tmp_path, capsys, joints):
    """A region penalty's joints must be a non-empty list of distinct joint
    ids of the 8-joint skeleton."""
    cfg = compose_config(tmp_path, first_penalties=[
        {"kind": "region", "subjects": [2],
         "params": {"lower": [-5, -1, -5], "upper": [5, 3, 5],
                    "joints": joints}}])
    err = assert_config_error_writes_nothing(tmp_path, capsys, "compose", cfg)
    assert "joints" in err


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def assert_diverged_dump(tmp_path, capsys, command, cfg):
    """Exit 3 with diverged.json in --out and no traceback."""
    out = tmp_path / "diverged"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("numeric error:") and "Traceback" not in err
    with open(out / "diverged.json") as f:
        dump = json.load(f, parse_constant=_reject_constant)
    assert "non-finite" in dump["error"]
    return dump


def test_compose_divergence_writes_dump(tmp_path, capsys):
    cfg = compose_config(tmp_path, first_penalties=[
        {"kind": "root", "subjects": [1], "frames": [11],
         "params": {"targets": [[1e200, 0, 0]]}}])
    with pytest.warns(RuntimeWarning, match="overflow"):
        dump = assert_diverged_dump(tmp_path, capsys, "compose", cfg)
    # non-finite values are written as strings, which strict JSON holds
    assert dump["breakdown"]["total"] == "inf"
    assert list(dump["breakdown"]["terms"].values()) == ["inf"]


SEGMENT = {"window": 12, "kept": 6, "boundary_frames": 4,
           "pairs": [[1, 2, "approach"]]}


@pytest.mark.parametrize("scene_extra,key", [
    ({"n_frame": 12}, "n_frame"),
    ({"first_penalty": [{"kind": "overlap"}]}, "first_penalty"),
    ({"first_penalties": [{"kind": "overlap", "wieght": 5,
                           "params": {"delta": 0.3}}]}, "wieght"),
    ({"first_penalties": [{"kind": "overlap", "params": {"detla": 0.3}}]},
     "detla"),
    ({"first_penalties": [{"kind": "root", "subjects": [1], "frames": [11],
                           "params": {"targets": [0.0, 0.9, 0.0],
                                      "d_max": 1.0}}]}, "d_max"),
    ({"participants": [1, 2, 3],
      "steps": [{"target": 3, "reference": 1, "label": "approach",
                 "opt_subset": [1], "penalty": []}]}, "penalty"),
    ({"extension": [dict(SEGMENT, kep=3)]}, "kep"),
    ({"extension": [dict(SEGMENT, mode="bogus")]}, "bogus"),
    ({"participants": [1, 2, 3],
      "steps": [{"target": 3, "reference": 1, "label": "approach",
                 "opt_subset": [1],
                 "penalties": [{"kind": "overlap", "subjects": [3, 1],
                                "params": 0.3}]}]}, "params"),
], ids=["scene-key", "scene-key-typo", "penalty-key", "params-key",
        "params-of-another-kind", "step-key", "segment-key",
        "segment-mode", "params-not-an-object"])
def test_compose_rejects_unknown_scene_keys(tmp_path, capsys, scene_extra,
                                            key):
    """Every level of the scene is strict: scene, step, extension segment,
    penalty and each kind's params, plus the segment's mode."""
    cfg = compose_config(tmp_path, **scene_extra)
    err = assert_config_error_writes_nothing(tmp_path, capsys, "compose", cfg)
    assert key in err


# -- train ------------------------------------------------------------------------


def test_train_writes_weights_and_curve(tmp_path):
    corpus_cfg = write_config(tmp_path, "c.json",
                              {"labels": ["approach"], "samples_per_label": 2,
                               "n_frames": 8})
    corpus_dir = str(tmp_path / "corpus")
    assert main(["corpus", "--config", corpus_cfg,
                 "--out", corpus_dir]) == EXIT_OK
    train_cfg = write_config(tmp_path, "t.json", dict(
        schedule=FAST["schedule"], corpus_dir=corpus_dir, epochs=2, hidden=8))
    out = str(tmp_path / "model")
    assert main(["train", "--config", train_cfg, "--out", out]) == EXIT_OK
    for fname in ("weights.npz", "stats.json", "loss.csv", "manifest.json"):
        assert os.path.isfile(os.path.join(out, fname)), fname
    with open(os.path.join(out, "loss.csv")) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["evaluation", "loss"] and len(rows) > 1
    # the trained model must be loadable for composition
    compose_cfg = json.loads(open(compose_config(tmp_path)).read())
    # its dimensions (hidden=8 here) come from the weights file alone
    compose_cfg["prior"] = {"kind": "mlp",
                            "weights": os.path.join(out, "weights.npz")}
    compose_cfg["stats"] = os.path.join(out, "stats.json")
    cfg2 = write_config(tmp_path, "c2.json", compose_cfg)
    assert main(["compose", "--config", cfg2, "--out",
                 str(tmp_path / "mlpruns"), "--seed", "1"]) == EXIT_OK


def test_compose_unreadable_weights_file(tmp_path, capsys):
    """A weights file that is not an npz, or lacks the meta entry or a
    weight array, is a config error rather than a traceback."""
    junk, no_meta = tmp_path / "junk.npz", tmp_path / "no_meta.npz"
    junk.write_text("not an archive")
    np.savez(no_meta, W1=np.zeros(3))
    for path in (junk, no_meta):
        payload = json.loads(open(compose_config(tmp_path)).read())
        payload["prior"] = {"kind": "mlp", "weights": str(path)}
        cfg = write_config(tmp_path, "w.json", payload)
        err = assert_config_error_writes_nothing(tmp_path, capsys, "compose",
                                                 cfg)
        assert "weights file unreadable" in err


def weights_file(path, meta=(), **arrays):
    """A weights file of an 8-wide MLP prior with entries of its meta and
    weight arrays replaced."""
    prior = MLPPrior(DiffusionSchedule(50, 5),
                     NormalizationStats.reference(default_skeleton()),
                     len(VOCABULARY), hidden=8)
    meta = dict({"D": prior.D, "n_labels": prior.n_labels, "hidden": 8},
                **dict(meta))
    np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), np.uint8),
             **dict(prior.weights, **arrays))


@pytest.mark.parametrize("meta,arrays,key", [
    ({"hidden": "8"}, {}, "hidden"),
    ({"hidden": HIDDEN_MAX + 1}, {}, "hidden"),
    ({}, {"W1": np.zeros((3, 8))}, "W1")],
    ids=["hidden-string", "hidden-above-bound", "W1-shape"])
def test_weights_meta_and_shapes_checked(tmp_path, capsys, meta, arrays, key):
    """The weights file's meta is typed and bounded, and each array must
    have the shape it gives, before --dry-run returns or --out exists."""
    weights_file(tmp_path / "w.npz", meta, **arrays)
    payload = json.loads(open(compose_config(tmp_path)).read())
    payload["prior"] = {"kind": "mlp", "weights": str(tmp_path / "w.npz")}
    cfg = write_config(tmp_path, "w.json", payload)
    err = assert_config_error_writes_nothing(tmp_path, capsys, "compose", cfg)
    assert "weights file" in err and key in err


def small_corpus(tmp_path) -> str:
    cfg = write_config(tmp_path, "c.json", {"labels": ["approach"],
                                            "samples_per_label": 1,
                                            "n_frames": 8})
    corpus_dir = str(tmp_path / "corpus")
    assert main(["corpus", "--config", cfg, "--out", corpus_dir]) == EXIT_OK
    return corpus_dir


@pytest.mark.parametrize("edit,key", [
    (lambda m: m.pop("fps"), "fps"),
    (lambda m: [m.clear(), m.update(samples=[])], "fps"),
    (lambda m: m.update(samples=[]), "sample"),
    (lambda m: m.update(samples={}), "samples"),
    (lambda m: m["samples"][0].pop("files"), "files"),
    (lambda m: m["samples"][0]["files"].pop(), "files"),
    (lambda m: m["samples"][0].update(label="tango"), "label"),
    (lambda m: m["samples"][0].pop("params"), "params"),
    (lambda m: m["samples"][0]["params"][0].update(anchor="x"), "anchor")],
    ids=["fps-missing", "only-samples", "samples-empty",
         "samples-not-a-list", "files-missing", "one-file", "label-unknown",
         "params-missing", "anchor-not-numbers"])
def test_train_corpus_manifest_checked(tmp_path, capsys, edit, key):
    """A malformed corpus manifest exits 2 on --dry-run and for real,
    before --out exists, naming the key."""
    corpus_dir = small_corpus(tmp_path)
    path = os.path.join(corpus_dir, "manifest.json")
    manifest = read_manifest(corpus_dir)
    edit(manifest)
    with open(path, "w") as f:
        json.dump(manifest, f)
    cfg = write_config(tmp_path, "t.json", {"corpus_dir": corpus_dir})
    err = assert_config_error_writes_nothing(tmp_path, capsys, "train", cfg)
    assert key in err


def test_train_unreadable_motion_file(tmp_path, capsys):
    """A corpus motion file that cannot be read exits 3 on --dry-run and
    for real, before --out exists."""
    corpus_dir = small_corpus(tmp_path)
    os.remove(os.path.join(corpus_dir, "sample0000_p0.motion"))
    cfg = write_config(tmp_path, "t.json", {"corpus_dir": corpus_dir})
    out = tmp_path / "out"
    for extra in (["--dry-run"], []):
        assert main(["train", "--config", cfg, "--out", str(out)]
                    + extra) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "sample0000_p0.motion" in err and not out.exists()


def test_train_divergence_writes_dump(tmp_path, capsys):
    corpus_cfg = write_config(tmp_path, "c.json",
                              {"labels": ["approach"], "samples_per_label": 1,
                               "n_frames": 8})
    corpus_dir = str(tmp_path / "corpus")
    assert main(["corpus", "--config", corpus_cfg,
                 "--out", corpus_dir]) == EXIT_OK
    cfg = write_config(tmp_path, "t.json", dict(
        schedule=FAST["schedule"], corpus_dir=corpus_dir, epochs=2, hidden=8,
        lr=1e300))
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert_diverged_dump(tmp_path, capsys, "train", cfg)


def test_train_missing_corpus_dir(tmp_path):
    cfg = write_config(tmp_path, "t.json",
                       {"corpus_dir": str(tmp_path / "nope")})
    assert main(["train", "--config", cfg,
                 "--out", str(tmp_path / "m")]) == EXIT_CONFIG


# -- extend -----------------------------------------------------------------------


@pytest.fixture()
def composed(tmp_path):
    cfg = compose_config(tmp_path)
    out = str(tmp_path / "base")
    assert main(["compose", "--config", cfg, "--out", out,
                 "--seed", "2"]) == EXIT_OK
    return out


def test_extend_adds_window_minus_kept_frames(tmp_path, composed):
    cfg = write_config(tmp_path, "e.json", dict(
        FAST, results_dir=composed,
        scene={"extension": [{"window": 12, "kept": 6,
                              "pairs": [[1, 2, "face-and-talk"]],
                              "boundary_frames": 4}]}))
    out = str(tmp_path / "ext")
    assert main(["extend", "--config", cfg, "--out", out]) == EXIT_OK
    skeleton = default_skeleton()
    for pid in (1, 2):
        before = read_motion(os.path.join(composed, "seed00002",
                                          f"person{pid}.motion"), skeleton)
        after = read_motion(os.path.join(out, "seed00002",
                                         f"person{pid}.motion"), skeleton)
        assert after.N == before.N + 6
        J = skeleton.J
        assert np.allclose(after.frames[:before.N, :3 * J],
                           before.frames[:, :3 * J], atol=1e-9)


def test_extend_keeps_each_sequence_fps(tmp_path):
    """A run composed at 30 fps stays at 30 fps when an extend config sets
    no fps of its own."""
    payload = json.loads(open(compose_config(tmp_path)).read())
    cfg = write_config(tmp_path, "c30.json", dict(payload, fps=30))
    base = str(tmp_path / "base30")
    assert main(["compose", "--config", cfg, "--out", base,
                 "--seed", "2"]) == EXIT_OK
    ext_cfg = write_config(tmp_path, "e.json", dict(
        FAST, results_dir=base, scene={"extension": [SEGMENT]}))
    out = str(tmp_path / "ext")
    assert main(["extend", "--config", ext_cfg, "--out", out]) == EXIT_OK
    for d in (base, out):
        for pid in (1, 2):
            path = os.path.join(d, "seed00002", f"person{pid}.motion")
            assert read_motion(path, default_skeleton()).fps == 30.0


@pytest.mark.parametrize("value", ["x", 0, -20, float("inf")],
                         ids=["string", "zero", "negative", "infinite"])
@pytest.mark.parametrize("command", ["compose", "extend"])
def test_fps_checked(tmp_path, capsys, composed, command, value):
    """fps must be a positive finite number."""
    scene = SCENE if command == "compose" else {"extension": [SEGMENT]}
    extra = {} if command == "compose" else {"results_dir": composed}
    cfg = write_config(tmp_path, "c.json",
                       dict(FAST, fps=value, scene=scene, **extra))
    err = assert_config_error_writes_nothing(tmp_path, capsys, command, cfg)
    assert "fps" in err


@pytest.mark.parametrize("subjects,code", [
    (None, EXIT_OK), ([1, 2], EXIT_OK), ([4, 3], EXIT_OK),
    ([1, 3], EXIT_CONFIG)],
    ids=["no-subjects", "first-pair", "second-pair", "across-pairs"])
def test_compose_two_pair_segment_penalties(tmp_path, capsys, subjects, code):
    """An extension segment of two pairs takes a penalty without subjects or
    one within either pair; one whose subjects span both pairs exits 2."""
    lab = "approach"
    pen = {"kind": "overlap", "params": {"delta": 0.3}}
    if subjects:
        pen["subjects"] = subjects
    cfg = compose_config(
        tmp_path, participants=[1, 2, 3, 4],
        steps=[{"target": 3, "reference": 1, "label": lab},
               {"target": 4, "reference": 3, "label": lab}],
        extension=[{"window": 12, "kept": 6, "boundary_frames": 4,
                    "pairs": [[1, 2, lab], [3, 4, "follow"]],
                    "penalties": [pen]}])
    if code == EXIT_CONFIG:
        err = assert_config_error_writes_nothing(tmp_path, capsys, "compose",
                                                 cfg)
        assert "[1, 3]" in err
        return
    out = str(tmp_path / "runs")
    assert main(["compose", "--config", cfg, "--out", out]) == EXIT_OK
    for pid in (1, 2, 3, 4):
        path = os.path.join(out, "seed00000", f"person{pid}.motion")
        assert read_motion(path, default_skeleton()).N == 18


def test_extend_requires_segments(tmp_path, composed):
    cfg = write_config(tmp_path, "e.json", dict(
        FAST, results_dir=composed, scene={"extension": []}))
    assert main(["extend", "--config", cfg,
                 "--out", str(tmp_path / "ext")]) == EXIT_CONFIG


@pytest.mark.parametrize("extra", [
    {"optimizer": {"max_steps": 5, "grad_clip": 1.0}},
    {"scene": {"extension": [{"window": 12, "kept": 6,
                              "pairs": [[1, 2, "approach"]],
                              "penalties": [{"kind": "overlap",
                                             "subjects": [1, 3]}]}]}},
    {"scene": {"extension": [{"window": 12, "kept": 6,
                              "pairs": [[1, 5, "approach"]]}]}},
    {"scene": {"extension": [{"window": 12, "kept": 6, "pairs": 5}]}},
    {"scene": {"extension": [{"window": 12, "kept": 0, "boundary_frames": 4,
                              "pairs": [[1, 2, "approach"]]}]}},
    {"scene": {"extension": [{"window": 12, "kept": 6, "boundary_frames": 2,
                              "pairs": [[1, 2, "approach"]]}]}},
    {"scene": {"extension": [{"window": 20, "kept": 5, "boundary_frames": 40,
                              "pairs": [[1, 2, "approach"]]}]}},
    {"scene": {"extension": [{"window": 12, "kept": 6, "boundary_frames": 4,
                              "pairs": [[1, 2, "approach"]],
                              "penalties": [{"kind": "relative",
                                             "subjects": [1, 2],
                                             "frames": [12],
                                             "params": {"d_min": 0.5,
                                                        "d_max": 3.0}}]}]}},
    {"scene": {"extension": [dict(SEGMENT, mode="bogus")]}},
    {"scene": {"extension": [dict(SEGMENT, windows=12)]}},
    {"scene": {"extension": [SEGMENT], "extensions": []}},
    {"scene": {"extension": [dict(SEGMENT, penalties=[
        {"kind": "boundary", "subjects": [1],
         "params": {"window_lenght": 4}}])]}},
    {"optimiser": {"max_steps": 5}},
    # an extend scene reads only its extension
    {"scene": {"extension": [SEGMENT], "participants": [1, 2]}},
    {"scene": {"extension": [{"window": 12, "kept": 6}]}},
    {"scene": {"extension": 5}},
    # the composed run has 12 frames
    {"scene": {"extension": [dict(SEGMENT, window=20, kept=14)]}},
    {"scene": {"extension": [SEGMENT, dict(SEGMENT, window=24, kept=19)]}},
    {"prior": {"kind": "analytic", "weights": "x.npz"}},
    {"scene": {"extension": [dict(SEGMENT, penalties=[
        {"kind": "region", "subjects": [1],
         "params": {"lower": [0, 0], "upper": [1, 1]}}])]}},
], ids=["unknown-optimizer-key", "penalty-outside-pair", "unknown-person",
        "pairs-not-a-list", "kept-zero", "seam-too-short",
        "seam-beyond-window", "penalty-frame-beyond-window", "unknown-mode",
        "unknown-segment-key", "unknown-scene-key", "unknown-params-key",
        "top-level-key", "scene-key-of-compose", "pairs-missing",
        "extension-not-a-list", "kept-beyond-sequence",
        "kept-beyond-grown-sequence", "weights-of-analytic-prior",
        "region-bound-of-two"])
def test_extend_config_errors(tmp_path, capsys, composed, extra):
    payload = dict(FAST, results_dir=composed,
                   scene={"extension": [{"window": 12, "kept": 6,
                                         "boundary_frames": 4,
                                         "pairs": [[1, 2, "approach"]]}]})
    payload.update(extra)
    cfg = write_config(tmp_path, "e.json", payload)
    assert_config_error_writes_nothing(tmp_path, capsys, "extend", cfg)


def test_extend_stats_of_wrong_width(tmp_path, capsys, composed):
    """Stats narrower than the skeleton's D are a config error of extend
    too, before --out exists, not a normalize error after it."""
    path = write_config(tmp_path, "stats.json",
                        {"mean": [0.0] * 2, "std": [1.0] * 2})
    cfg = write_config(tmp_path, "e.json", dict(
        FAST, stats=path, results_dir=composed,
        scene={"extension": [SEGMENT]}))
    err = assert_config_error_writes_nothing(tmp_path, capsys, "extend", cfg)
    assert "stats" in err


def test_segments_fit_sequences_grown_by_earlier_ones(tmp_path, composed):
    """A segment may keep more frames than the sequence had at first once
    earlier segments have grown it by window - kept: 4 + 8 + 4 = 16 frames
    in a compose, 12 + 6 + 8 = 26 in an extend of the 12-frame run."""
    cfg = compose_config(tmp_path, n_frames=4, extension=[
        dict(SEGMENT, window=12, kept=4), dict(SEGMENT, window=14, kept=10)])
    ext = write_config(tmp_path, "e.json", dict(
        FAST, results_dir=composed, scene={"extension": [
            SEGMENT, dict(SEGMENT, window=24, kept=16)]}))
    for command, config, n in (("compose", cfg, 16), ("extend", ext, 26)):
        out = str(tmp_path / command)
        for extra in (["--dry-run"], []):
            assert main([command, "--config", config, "--out", out]
                        + extra) == EXIT_OK
        run = "seed00002" if command == "extend" else "seed00000"
        for pid in (1, 2):
            seq = read_motion(os.path.join(out, run, f"person{pid}.motion"),
                              default_skeleton())
            assert seq.N == n


def test_extend_divergence_writes_dump(tmp_path, capsys, composed):
    cfg = write_config(tmp_path, "e.json", dict(
        FAST, optimizer={"max_steps": 5}, results_dir=composed,
        scene={"extension": [dict(SEGMENT, penalties=[
            {"kind": "root", "subjects": [1], "frames": [11],
             "params": {"targets": [[1e200, 0, 0]]}}])]}))
    with pytest.warns(RuntimeWarning, match="overflow"):
        dump = assert_diverged_dump(tmp_path, capsys, "extend", cfg)
    assert dump["breakdown"]["total"] == "inf"


def test_extend_huge_lr_stays_finite(tmp_path, composed):
    """An lr of 1e300 throws the noise far out, but each sampler step ends
    on the bounded clean estimate, so the extension stays finite."""
    cfg = write_config(tmp_path, "e.json", dict(
        FAST, optimizer={"max_steps": 5, "lr": 1e300}, results_dir=composed,
        scene={"extension": [SEGMENT]}))
    out = str(tmp_path / "ext")
    assert main(["extend", "--config", cfg, "--out", out]) == EXIT_OK
    for pid in (1, 2):
        path = os.path.join(out, "seed00002", f"person{pid}.motion")
        seq = read_motion(path, default_skeleton())
        assert seq.N == 18 and np.isfinite(seq.frames).all()


# -- every command -----------------------------------------------------------------


@pytest.mark.parametrize("error,prefix", [
    (OSError("disk full"), "error:"), (ValueError("bad value"), "error:"),
    (FloatingPointError("overflow"), "numeric error:")],
    ids=["OSError", "ValueError", "FloatingPointError"])
@pytest.mark.parametrize("command,target", [
    ("corpus", "generate_corpus"), ("train", "train"),
    ("compose", "Composer.compose"), ("extend", "Composer.extend"),
    ("eval", "evaluate_runs"), ("export", "read_motion")])
def test_runtime_failure_leaves_dump(tmp_path, capsys, monkeypatch, composed,
                                     command, target, error, prefix):
    """Whichever command's work fails after --out exists, it exits 3 and
    leaves diverged.json in --out, with no manifest and no traceback."""
    corpus_dir = small_corpus(tmp_path)
    payload = {"corpus": {"samples_per_label": 1, "n_frames": 8},
               "train": {"corpus_dir": corpus_dir, "epochs": 1, "hidden": 8},
               "compose": dict(FAST, scene=SCENE),
               "extend": dict(FAST, results_dir=composed,
                              scene={"extension": [SEGMENT]}),
               "eval": {"results_dir": composed},
               "export": {"inputs": [f"{composed}/seed00002"]}}[command]
    cfg = write_config(tmp_path, "x.json", payload)

    def fail(*args, **kwargs):
        raise error
    owner, _, name = target.rpartition(".")
    monkeypatch.setattr(Composer if owner else cli, name, fail)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err == f"{prefix} {error}\n"
    assert "manifest.json" not in os.listdir(out)
    with open(out / "diverged.json") as f:
        assert json.load(f) == {"error": str(error), "breakdown": None}


# -- eval and export ---------------------------------------------------------------


def test_eval_reports_metrics(tmp_path, composed, capsys):
    cfg = write_config(tmp_path, "ev.json", {"results_dir": composed})
    out = str(tmp_path / "eval")
    assert main(["eval", "--config", cfg, "--out", out]) == EXIT_OK
    assert "overlap_rate=" in capsys.readouterr().out
    with open(os.path.join(out, "metrics.csv")) as f:
        rows = list(csv.reader(f))
    assert len(rows) == 1 + 1 + 1  # header, one run, aggregate
    assert rows[-1][0] == "aggregate"
    manifest = read_manifest(out)
    assert 0.0 <= manifest["overlap_rate"] <= 1.0


@pytest.mark.parametrize("value", ["x", 0, -1.0, float("inf")],
                         ids=["string", "zero", "negative", "infinite"])
def test_eval_overlap_threshold_checked(tmp_path, capsys, composed, value):
    """overlap_threshold must be a positive finite number."""
    cfg = write_config(tmp_path, "ev.json", {"results_dir": composed,
                                             "overlap_threshold": value})
    err = assert_config_error_writes_nothing(tmp_path, capsys, "eval", cfg)
    assert "overlap_threshold" in err


# a near-collision first pair, left unpenalised so that it overlaps
THREE = {"participants": [1, 2, 3], "first_label": "close-approach",
         "first_penalties": [],
         "steps": [{"target": 3, "reference": 1, "label": "approach",
                    "opt_subset": [1, 2]}]}


def cut(seq, frames):
    return MotionSequence(seq.skeleton, seq.frames[frames], seq.fps,
                          seq.person_id)


def assert_eval_on_common_frames(tmp_path, results_dir, lengths):
    """`eval` of a run whose persons have the given lengths reports each
    pair's overlap over the frames both have, and the penetration volume
    of each frame summed over the persons present at that frame."""
    (_, _, seqs), = _load_runs(results_dir, default_skeleton())
    assert {p: s.N for p, s in seqs.items()} == lengths
    overlap = any(
        me.run_has_overlap([cut(seqs[a], slice(n)), cut(seqs[b], slice(n))])
        for a, b in itertools.combinations(seqs, 2)
        for n in [min(seqs[a].N, seqs[b].N)])
    pen_vol = max(me.proxy_penetration_volume(
        [cut(s, [n, n]) for s in seqs.values() if s.N > n])
        for n in range(max(lengths.values())))
    cfg = write_config(tmp_path, "ev.json", {"results_dir": results_dir})
    out = str(tmp_path / "eval")
    assert main(["eval", "--config", cfg, "--out", out]) == EXIT_OK
    with open(os.path.join(out, "metrics.csv")) as f:
        row = next(csv.DictReader(f))
    assert float(row["overlap"]) == float(overlap)
    assert float(row["pen_vol"]) == pytest.approx(pen_vol, rel=1e-9, abs=0.0)


def test_eval_compose_with_partial_extension(tmp_path):
    """A three-person compose whose extension covers persons 1 and 2
    leaves person 3 shorter; eval compares each pair over common frames."""
    cfg = compose_config(tmp_path, extension=[SEGMENT], **THREE)
    out = str(tmp_path / "runs")
    assert main(["compose", "--config", cfg, "--out", out,
                 "--seed", "5"]) == EXIT_OK
    assert_eval_on_common_frames(tmp_path, out, {1: 18, 2: 18, 3: 12})


def test_eval_after_chained_partial_extensions(tmp_path):
    """Extending pair [1, 2] and then pair [2, 3] leaves three lengths."""
    base = str(tmp_path / "base")
    assert main(["compose", "--config", compose_config(tmp_path, **THREE),
                 "--out", base, "--seed", "5"]) == EXIT_OK
    cfg = write_config(tmp_path, "e.json", dict(
        FAST, results_dir=base, scene={"extension": [
            SEGMENT, dict(SEGMENT, pairs=[[2, 3, "approach"]])]}))
    out = str(tmp_path / "ext")
    assert main(["extend", "--config", cfg, "--out", out]) == EXIT_OK
    assert_eval_on_common_frames(tmp_path, out, {1: 18, 2: 24, 3: 18})


def test_export_round_trips_positions(tmp_path, composed):
    run_dir = os.path.join(composed, "seed00002")
    cfg = write_config(tmp_path, "x.json", {"inputs": [run_dir]})
    out = str(tmp_path / "exp")
    assert main(["export", "--config", cfg, "--out", out]) == EXIT_OK
    skeleton = default_skeleton()
    seq = read_motion(os.path.join(run_dir, "person1.motion"), skeleton)
    p = seq.joint_positions()
    with open(os.path.join(out, "positions.csv")) as f:
        rows = [r for r in csv.DictReader(f)
                if r["file"] == "person1.motion"]
    assert len(rows) == seq.N * skeleton.J
    for r in rows[:20]:
        n, j = int(r["frame"]), skeleton.joint_names.index(r["joint"])
        assert float(r["x"]) == p[n, j, 0]  # repr precision: exact
        assert float(r["y"]) == p[n, j, 1]
        assert float(r["z"]) == p[n, j, 2]


@pytest.mark.parametrize("key", ["N", "J", "fps", "joint_names",
                                 "person_id"])
def test_motion_header_missing_key(tmp_path, capsys, composed, key):
    """A motion file whose header lacks a key fails `eval` and `export`
    with exit 3, naming the key, and no traceback."""
    path = os.path.join(composed, "seed00002", "person1.motion")
    with open(path) as f:
        header, rest = f.readline(), f.read()
    header = json.loads(header)
    del header[key]
    with open(path, "w") as f:
        f.write(json.dumps(header) + "\n" + rest)
    for command, payload in (("eval", {"results_dir": composed}),
                             ("export", {"inputs": [path]})):
        cfg = write_config(tmp_path, f"{command}.json", payload)
        out = str(tmp_path / command)
        assert main([command, "--config", cfg, "--out", out]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(key) in err
        assert "Traceback" not in err


@pytest.mark.parametrize("key", ["dir", "files", "seed"])
def test_manifest_run_missing_field(tmp_path, capsys, composed, key):
    """A manifest run without one of its fields is a config error of the
    commands that read it, named, on --dry-run too."""
    manifest = read_manifest(composed)
    del manifest["runs"][0][key]
    with open(os.path.join(composed, "manifest.json"), "w") as f:
        json.dump(manifest, f)
    cfg = write_config(tmp_path, "ev.json", {"results_dir": composed})
    err = assert_config_error_writes_nothing(tmp_path, capsys, "eval", cfg)
    assert repr(key) in err


@pytest.mark.parametrize("edit,key", [
    (lambda m: m.update(runs=5), "runs"),
    (lambda m: m.update(runs=[5]), "runs"),
    (lambda m: m["runs"][0].update(files=5), "files"),
    (lambda m: m["runs"][0].update(files=["person1.motion", "p2.motion"]),
     "files"),
    (lambda m: m.update(runs=[]), "runs"),
], ids=["runs-not-a-list", "run-not-an-object", "files-not-a-list",
        "file-not-person-id", "runs-empty"])
@pytest.mark.parametrize("command", ["eval", "extend"])
def test_manifest_values_checked(tmp_path, capsys, composed, command, edit,
                                 key):
    """A manifest's runs are a list of objects, each with a list of
    `person<id>.motion` file names: anything else is a config error of the
    commands that read it, named, on --dry-run too."""
    manifest = read_manifest(composed)
    edit(manifest)
    with open(os.path.join(composed, "manifest.json"), "w") as f:
        json.dump(manifest, f)
    payload = {"results_dir": composed} if command == "eval" else dict(
        FAST, results_dir=composed, scene={"extension": [SEGMENT]})
    cfg = write_config(tmp_path, "c.json", payload)
    err = assert_config_error_writes_nothing(tmp_path, capsys, command, cfg)
    assert key in err


@pytest.mark.parametrize("stats,key", [
    ({"mean": [0.0] * 100}, "std"),
    ({"mean": [0.0] * 100, "std": [1.0] * 99 + ["x"]}, "std"),
    ([0.0], "object"),
    ({"mean": [0.0] * 3, "std": [1.0] * 3}, "stats"),
], ids=["std-missing", "std-not-numbers", "not-an-object", "wrong-width"])
def test_stats_file_checked(tmp_path, capsys, stats, key):
    """A stats file holds `mean` and `std`, lists of finite numbers."""
    path = write_config(tmp_path, "stats.json", stats)
    cfg = write_config(tmp_path, "c.json", dict(FAST, stats=path, scene=SCENE))
    err = assert_config_error_writes_nothing(tmp_path, capsys, "compose", cfg)
    assert key in err


@pytest.mark.parametrize("inputs", [5, "abc", [5]])
def test_export_inputs_are_path_strings(tmp_path, capsys, inputs):
    """`inputs` is a list of path strings; a bare string is not walked
    character by character."""
    cfg = write_config(tmp_path, "x.json", {"inputs": inputs})
    err = assert_config_error_writes_nothing(tmp_path, capsys, "export", cfg)
    assert "inputs" in err and "expected a" in err


def test_export_missing_input(tmp_path):
    cfg = write_config(tmp_path, "x.json",
                       {"inputs": [str(tmp_path / "ghost.motion")]})
    assert main(["export", "--config", cfg,
                 "--out", str(tmp_path / "exp")]) == EXIT_CONFIG


# -- generic flag handling -----------------------------------------------------------


def test_all_subcommands_accept_standard_flags(capsys):
    """Every command takes the standard flags; only corpus, train and
    compose, which draw samples, take --seed, and only compose, which fans
    its seeds out over workers, takes --jobs."""
    from groupmotion.cli import build_parser
    parser = build_parser()
    for name in ("corpus", "train", "compose", "extend", "eval", "export"):
        args = parser.parse_args([name, "--config", "c", "--out", "o",
                                  "--dry-run", "--overwrite"])
        assert args.command == name and args.dry_run and args.overwrite
        if name in ("corpus", "train", "compose"):
            assert parser.parse_args([name, "--seed", "1,4"]).seed == [1, 4]
        else:
            with pytest.raises(SystemExit):
                parser.parse_args([name, "--seed", "1"])
            assert "--seed" in capsys.readouterr().err
        if name == "compose":
            assert parser.parse_args([name, "--jobs", "2"]).jobs == 2
        else:
            with pytest.raises(SystemExit):
                parser.parse_args([name, "--jobs", "2"])
            assert "--jobs" in capsys.readouterr().err


def test_seed_flag_overrides_config(tmp_path):
    cfg = compose_config(tmp_path)
    out = str(tmp_path / "runs")
    assert main(["compose", "--config", cfg, "--out", out,
                 "--seed", "11"]) == EXIT_OK
    assert read_manifest(out)["seeds"] == [11]


@pytest.mark.parametrize("seed", ["1,x", "3,3", "-1", ""],
                         ids=["not-an-int", "repeated", "negative", "empty"])
def test_seed_flag_rejects_bad_lists(tmp_path, capsys, seed):
    """A bad --seed exits 2 through argparse, before --out exists."""
    cfg, out = compose_config(tmp_path), tmp_path / "out"
    for extra in (["--dry-run"], []):
        with pytest.raises(SystemExit) as exc:
            main(["compose", "--config", cfg, "--out", str(out),
                  "--seed", seed] + extra)
        assert exc.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "argument --seed" in err and "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3", "x"])
def test_jobs_flag_rejects_bad_values(tmp_path, capsys, jobs):
    """A --jobs that is not an integer >= 1 exits 2 through argparse,
    before --out exists."""
    cfg, out = compose_config(tmp_path), tmp_path / "out"
    for extra in (["--dry-run"], []):
        with pytest.raises(SystemExit) as exc:
            main(["compose", "--config", cfg, "--out", str(out),
                  "--seed", "1,2", "--jobs", jobs] + extra)
        assert exc.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "argument --jobs" in err and "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize("command,payload,key", [
    ("corpus", {"samples_per_lable": 1}, "samples_per_lable"),
    ("corpus", {"samples_per_label": "3"}, "samples_per_label"),
    ("corpus", {"seed": 3}, "seed"),
    ("train", {"corpus_dir": ".", "epoch": 1}, "epoch"),
    ("train", {"corpus_dir": ".", "epochs": "2"}, "epochs"),
    ("train", {"corpus_dir": ".", "hidden": 0}, "hidden"),
    ("train", {"corpus_dir": ".", "lr": 0}, "lr"),
    ("train", {"corpus_dir": ".", "optimizer": {"lr": 0.1}}, "optimizer"),
    ("compose", dict(FAST, scene=SCENE, optimiser={"lr": 0.1}), "optimiser"),
    ("compose", dict(FAST, scene=SCENE, seeds=[1, 2]), "seeds"),
    ("eval", {"results_dir": ".", "overlap_treshold": 0.2},
     "overlap_treshold"),
    ("export", {"input": ["."]}, "input"),
] + [(command, [1, 2], "object") for command in
     ("corpus", "train", "compose", "extend", "eval", "export")] + [
    ("compose", dict(FAST, scene=dict(SCENE, n_frames=n)), "n_frames")
    for n in (0, 1, -4, True)] + [
    ("compose", dict(FAST, optimizer={"lr": float("nan")}, scene=SCENE), "lr")
] + [("compose", dict(FAST, scene=dict(SCENE, first_penalties=[
    {"kind": "overlap", "weight": w, "params": {"delta": 0.3}}])), "weight")
     for w in (float("nan"), float("inf"))] + [
    ("compose", dict(FAST, optimizer={key: v}, scene=SCENE), key)
    for key, v in (("max_steps", 2.5), ("max_steps", True),
                   ("early_stop_loss", "x"),
                   ("early_stop_loss", float("nan")))] + [
    ("compose", dict(FAST, schedule=dict(FAST["schedule"], **{key: v}),
                     scene=SCENE), key)
    for key, v in (("t_train", 50.5), ("t_train", 100001),
                   ("ddim_steps", True))] + [
    ("train", {"corpus_dir": ".", "schedule": {"t_train": 50.5}}, "t_train")
] + [("compose", dict(FAST, scene=dict(SCENE, first_penalties=[
    {"kind": "overlap", "frames": f, "params": {"delta": 0.3}}])), "frames")
     for f in ([1.5], [True])] + [
    # each value is typed by the annotation of the field it fills
    ("compose", dict(FAST, optimizer={key: True}, scene=SCENE), key)
    for key in ("lr", "lr_decay")] + [
    ("compose", dict(FAST, scene=dict(SCENE, **{key: v})), key)
    for key, v in (("participants", [1, 2.5]), ("participants", "ab"))] + [
    ("compose", dict(FAST, scene=dict(SCENE, first_penalties=[dict(
        {"kind": "overlap", "params": {"delta": 0.3}}, **pen)])), key)
    for key, pen in (("delta", {"params": {"delta": True}}),
                     ("delta", {"params": {"delta": float("nan")}}),
                     ("weight", {"weight": True}),
                     ("subjects", {"subjects": [1, 2.0]}))] + [
    ("compose", dict(FAST, scene=dict(SCENE, extension=[
        dict(SEGMENT, **{key: v})])), key)
    for key, v in (("boundary_weight", True), ("boundary_weight", "x"),
                   ("boundary_weight", float("nan")), ("kept", True),
                   ("window", 10.5), ("boundary_frames", 4.0))] + [
    ("corpus", {"fps": v}, "fps")
    for v in (True, 0, -1, float("nan"), "x")] + [
    # paths are strings
    ("train", {"corpus_dir": []}, "corpus_dir"),
    ("eval", {"results_dir": []}, "results_dir"),
    ("compose", dict(FAST, stats=[], scene=SCENE), "stats"),
    ("compose", dict(FAST, prior={"kind": "mlp", "weights": []},
                     scene=SCENE), "weights"),
    # size bounds, one past each
    ("compose", dict(FAST, scene=dict(SCENE, n_frames=N_FRAMES_MAX + 1)),
     "n_frames"),
    ("compose", dict(FAST, scene=dict(SCENE, extension=[
        dict(SEGMENT, window=N_FRAMES_MAX + 1)])), "window"),
    ("corpus", {"n_frames": N_FRAMES_MAX + 1}, "n_frames"),
    ("corpus", {"samples_per_label": SAMPLES_PER_LABEL_MAX + 1},
     "samples_per_label"),
    ("train", {"corpus_dir": ".", "hidden": HIDDEN_MAX + 1}, "hidden"),
    # values the real run could not use: weights the analytic prior would
    # ignore, more kept frames than the sequence has
    ("compose", dict(FAST, prior={"kind": "analytic", "weights": "x.npz"},
                     scene=SCENE), "weights"),
    ("compose", dict(FAST, scene=dict(SCENE, n_frames=4,
                                      extension=[SEGMENT])), "kept"),
] + [
    # region bounds that do not broadcast against (M, 3) joint positions
    ("compose", dict(FAST, scene=dict(SCENE, first_penalties=[
        {"kind": "region", "subjects": [1],
         "params": {"lower": lower, "upper": np.add(lower, 1).tolist()}}])),
     "lower") for lower in ([0, 0], [0] * 4, [[0, 0, 0]] * 2)])
def test_config_errors_before_any_output(tmp_path, capsys, command, payload,
                                         key):
    """Each command reads a fixed set of top-level keys: a typo, a key of
    another command, a value of the wrong type or range, a size above its
    bound, or a config that is not an object exits 2 before --out is
    created."""
    cfg = write_config(tmp_path, "bad.json", payload)
    err = assert_config_error_writes_nothing(tmp_path, capsys, command, cfg)
    assert key in err
