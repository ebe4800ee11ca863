"""Command-line interface: corpus generation, prior training, scene
composition, extension, evaluation and export.

All commands consume one self-contained JSON config (--config) and write
to a results directory (--out). Exit codes: 0 success, 2 config error,
3 runtime/numeric error. Manifests embed the config hash and seeds, never
timestamps, so identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .composer import (Composer, CompositionResult, ExtensionSegment,
                       OptimizationDiverged, OptimizerConfig, SceneSpec,
                       SceneStep, check_segments)
from .corpus import CorpusConfig, generate_corpus, load_corpus, save_corpus
from .diffusion import DiffusionSchedule
from .metrics import evaluate_runs, write_report_csv
from .motion import (NormalizationStats, default_skeleton, normalize,
                     read_motion, write_motion)
from .penalties import PenaltyConfig, region_joints
from .priors import AnalyticPrior, MLPPrior, TrainingDiverged, train
from .scripts import VOCABULARY, label_by_name

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
PRIOR_KEYS = ("kind", "weights")
SCENE_KEYS = ("participants", "first_label", "first_penalties", "steps",
              "extension", "n_frames")
STEP_KEYS = ("target", "reference", "label", "opt_subset", "penalties")
SEGMENT_KEYS = ("window", "kept", "pairs", "penalties", "boundary_frames",
                "boundary_weight", "mode")


class ConfigError(ValueError):
    pass


def _load_config(path) -> dict:
    if path is None:
        raise ConfigError("--config is required")
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from e


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _require(cfg: dict, key: str, ctx: str = "config"):
    if key not in cfg:
        raise ConfigError(f"{ctx}: missing required field {key!r}")
    return cfg[key]


def _check_keys(cfg, keys, ctx: str) -> None:
    """Reject a section that is not an object or holds an unknown key."""
    if not isinstance(cfg, dict) or set(cfg) - set(keys):
        raise ConfigError(f"{ctx}: accepted keys are {list(keys)}, "
                          f"got {cfg!r}")


def _prepare_out(out, overwrite: bool) -> str:
    if out is None:
        raise ConfigError("--out is required")
    if os.path.isdir(out) and os.listdir(out) and not overwrite:
        raise ConfigError(f"output dir {out} not empty; pass --overwrite")
    os.makedirs(out, exist_ok=True)
    return out


def _json_float(v: float):
    """`v`, or the string "inf", "-inf" or "nan", which strict JSON holds."""
    return v if math.isfinite(v) else str(v)


def _diverged(out, e) -> int:
    """Write diverged.json (the error and the last loss breakdown, if any)
    into `out` for post-mortem; returns the numeric-error exit code."""
    b = getattr(e, "breakdown", None)
    with open(os.path.join(out, "diverged.json"), "w") as f:
        json.dump({"error": str(e), "breakdown": None if b is None else {
            "total": _json_float(b.total),
            "terms": {str(k): _json_float(v) for k, v in b.terms.items()}}}, f)
    print(f"numeric error: {e}", file=sys.stderr)
    return EXIT_RUNTIME


def _write_manifest(out, payload: dict) -> None:
    with open(os.path.join(out, "manifest.json"), "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)


def _seeds(args, cfg: dict) -> list:
    if args.seed is not None:
        return [int(s) for s in str(args.seed).split(",")]
    seeds = cfg.get("seeds", [cfg.get("seed", 0)])
    return [int(s) for s in seeds]


# -- config -> domain objects --------------------------------------------------


def _schedule_from(cfg: dict) -> DiffusionSchedule:
    try:
        return DiffusionSchedule(**cfg.get("schedule", {}))
    except (TypeError, ValueError) as e:
        raise ConfigError(f"schedule: {e}") from e


def _optimizer_from(cfg: dict) -> OptimizerConfig:
    try:
        return OptimizerConfig(**cfg.get("optimizer", {}))
    except (TypeError, ValueError) as e:
        raise ConfigError(f"optimizer: {e}") from e


def _penalties_from(items, ctx: str) -> tuple:
    out = []
    for i, d in enumerate(items or ()):
        try:
            out.append(PenaltyConfig.from_json(d))
            if out[-1].kind == "region":
                region_joints(out[-1].params.get("joints"),
                              default_skeleton().J)
        except (KeyError, ValueError) as e:
            raise ConfigError(f"{ctx}: penalty {i}: {e}") from e
    return tuple(out)


def _label_from(name, ctx: str):
    try:
        return label_by_name(name)
    except KeyError as e:
        raise ConfigError(f"{ctx}: {e}") from e


def _segments_from(scene: dict) -> tuple:
    segments = []
    for i, s in enumerate(scene.get("extension", ())):
        ctx = f"scene.extension[{i}]"
        _check_keys(s, SEGMENT_KEYS, ctx)
        pairs = tuple((a, b, _label_from(name, ctx))
                      for a, b, name in _require(s, "pairs", ctx))
        segments.append(ExtensionSegment(
            window=_require(s, "window", ctx), kept=_require(s, "kept", ctx),
            pairs=pairs, penalties=_penalties_from(s.get("penalties"), ctx),
            boundary_frames=s.get("boundary_frames", 25),
            boundary_weight=s.get("boundary_weight", 1.0),
            mode=s.get("mode", "noised")))
    return tuple(segments)


def _scene_from(cfg: dict, seed: int) -> SceneSpec:
    scene = _require(cfg, "scene")
    _check_keys(scene, SCENE_KEYS, "scene")
    participants = tuple(_require(scene, "participants", "scene"))
    steps = []
    for i, s in enumerate(scene.get("steps", ())):
        _check_keys(s, STEP_KEYS, f"scene.steps[{i}]")
        steps.append(SceneStep(
            target=_require(s, "target", f"scene.steps[{i}]"),
            reference=_require(s, "reference", f"scene.steps[{i}]"),
            label=_label_from(_require(s, "label", f"scene.steps[{i}]"),
                              f"scene.steps[{i}]"),
            opt_subset=tuple(s.get("opt_subset", ())),
            penalties=_penalties_from(s.get("penalties"),
                                      f"scene.steps[{i}]")))
    try:
        return SceneSpec(
            participants=participants,
            first_label=_label_from(_require(scene, "first_label", "scene"),
                                    "scene"),
            first_penalties=_penalties_from(scene.get("first_penalties"),
                                            "scene"),
            steps=tuple(steps), extension=_segments_from(scene), seed=seed,
            n_frames=scene.get("n_frames", 32))
    except (TypeError, ValueError) as e:
        raise ConfigError(f"scene: {e}") from e


def _prior_from(cfg: dict, schedule, stats, skeleton):
    prior_cfg = cfg.get("prior", {"kind": "analytic"})
    _check_keys(prior_cfg, PRIOR_KEYS, "prior")
    kind = prior_cfg.get("kind", "analytic")
    if kind == "analytic":
        return AnalyticPrior(schedule, stats, skeleton)
    if kind == "mlp":
        weights = _require(prior_cfg, "weights", "prior")
        if not os.path.isfile(weights):
            raise ConfigError(f"prior: weights file not found: {weights}")
        try:
            prior = MLPPrior.load(weights, schedule)
        except (KeyError, ValueError) as e:     # not an npz, or entries missing
            raise ConfigError(f"prior: weights file unreadable: {e}") from e
        if (prior.D, prior.n_labels) != (skeleton.D, len(VOCABULARY)):
            raise ConfigError(f"prior: weights file has D={prior.D}, n_labels="
                              f"{prior.n_labels}; need {skeleton.D}, "
                              f"{len(VOCABULARY)}")
        return prior
    raise ConfigError(f"prior: unknown kind {kind!r}")


def _stats_from(cfg: dict, skeleton) -> NormalizationStats:
    path = cfg.get("stats")
    if path is None:
        return NormalizationStats.reference(skeleton)
    if not os.path.isfile(path):
        raise ConfigError(f"stats file not found: {path}")
    with open(path) as f:
        return NormalizationStats.from_json(json.load(f))


# -- subcommands ----------------------------------------------------------------


def cmd_corpus(args) -> int:
    cfg = _load_config(args.config)
    try:
        corpus_cfg = CorpusConfig(
            labels=tuple(cfg.get("labels", CorpusConfig.labels)),
            samples_per_label=cfg.get("samples_per_label", 8),
            n_frames=cfg.get("n_frames", 32),
            fps=cfg.get("fps", 20.0),
            seed=_seeds(args, cfg)[0])
    except ValueError as e:
        raise ConfigError(str(e)) from e
    if args.dry_run:
        print(f"corpus: {len(corpus_cfg.labels)} labels x "
              f"{corpus_cfg.samples_per_label} samples, "
              f"{corpus_cfg.n_frames} frames, seed {corpus_cfg.seed}")
        return EXIT_OK
    out = _prepare_out(args.out, args.overwrite)
    corpus = generate_corpus(corpus_cfg)
    save_corpus(corpus, out)
    stats = corpus.stats()
    with open(os.path.join(out, "stats.json"), "w") as f:
        json.dump(stats.to_json(), f)
    # merge into the manifest save_corpus wrote; load_corpus reads it back
    with open(os.path.join(out, "manifest.json")) as f:
        manifest = json.load(f)
    manifest.update({"command": "corpus", "config_hash": _config_hash(cfg),
                     "seed": corpus_cfg.seed,
                     "n_samples": len(corpus.samples)})
    _write_manifest(out, manifest)
    print(f"wrote {2 * len(corpus.samples)} motion files to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    corpus_dir = _require(cfg, "corpus_dir")
    if not os.path.isdir(corpus_dir):
        raise ConfigError(f"corpus_dir not found: {corpus_dir}")
    schedule = _schedule_from(cfg)
    skeleton = default_skeleton()
    epochs = cfg.get("epochs", 5)
    seed = _seeds(args, cfg)[0]
    if args.dry_run:
        print(f"train: corpus {corpus_dir}, {epochs} epochs, seed {seed}")
        return EXIT_OK
    out = _prepare_out(args.out, args.overwrite)
    corpus = load_corpus(corpus_dir, skeleton)
    stats = corpus.stats()
    pairs = [((normalize(s.seqs[0].frames, stats),
               normalize(s.seqs[1].frames, stats)), s.label)
             for s in corpus.samples]
    prior = MLPPrior(schedule, skeleton.D, n_labels=len(VOCABULARY),
                     hidden=cfg.get("hidden", 64), seed=seed)
    try:
        curve = train(prior, pairs, schedule, epochs,
                      lr=cfg.get("lr", 1e-3), seed=seed)
    except TrainingDiverged as e:
        return _diverged(out, e)
    prior.save_weights(os.path.join(out, "weights.npz"))
    with open(os.path.join(out, "stats.json"), "w") as f:
        json.dump(stats.to_json(), f)
    with open(os.path.join(out, "loss.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["evaluation", "loss"])
        w.writerows(enumerate(curve))
    _write_manifest(out, {
        "command": "train", "config_hash": _config_hash(cfg), "seed": seed,
        "epochs": epochs, "final_loss": curve[-1] if curve else None})
    print(f"trained {epochs} epochs; final loss "
          f"{curve[-1]:.6f}" if curve else "no training performed")
    return EXIT_OK


def _composer_from(cfg: dict) -> Composer:
    """Schedule, stats, prior and optimizer of a run; raises ConfigError."""
    skeleton = default_skeleton()
    schedule = _schedule_from(cfg)
    stats = _stats_from(cfg, skeleton)
    prior = _prior_from(cfg, schedule, stats, skeleton)
    return Composer(prior, schedule, stats, skeleton, _optimizer_from(cfg),
                    fps=cfg.get("fps", 20.0))


def _write_sequences(sequences: dict, run_dir: str) -> list:
    os.makedirs(run_dir, exist_ok=True)
    files = []
    for pid in sorted(sequences):
        fname = f"person{pid}.motion"
        write_motion(sequences[pid], os.path.join(run_dir, fname))
        files.append(fname)
    return files


def _compose_one(cfg: dict, seed: int, out_dir: str) -> dict:
    """One seeded composition run; returns its manifest entry."""
    result = _composer_from(cfg).compose(_scene_from(cfg, seed))
    run_dir = os.path.join(out_dir, f"seed{seed:05d}")
    files = _write_sequences(result.sequences, run_dir)
    with open(os.path.join(run_dir, "loss.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["person", "evaluation", "loss"])
        for rec in result.records:
            for i, v in enumerate(rec.losses):
                w.writerow([rec.person, i, repr(v)])
    return {"seed": seed, "dir": os.path.basename(run_dir), "files": files,
            "final_losses": {str(r.person): r.best_loss
                             for r in result.records if r.losses}}


def cmd_compose(args) -> int:
    cfg = _load_config(args.config)
    seeds = _seeds(args, cfg)
    # validate everything up front so --dry-run and config errors never sample
    spec = _scene_from(cfg, seeds[0])
    _composer_from(cfg)
    if args.dry_run:
        print(f"compose: persons {spec.participants}, first label "
              f"{spec.first_label.name!r}, {len(spec.steps)} additional "
              f"steps, {len(spec.extension)} extension segments, "
              f"seeds {seeds}")
        for step in spec.steps:
            print(f"  step: person {step.target} vs reference "
                  f"{step.reference} ({step.label.name}), "
                  f"subset {step.opt_subset}")
        return EXIT_OK
    out = _prepare_out(args.out, args.overwrite)
    jobs = max(1, args.jobs)
    try:
        if jobs == 1 or len(seeds) == 1:
            entries = [_compose_one(cfg, s, out) for s in seeds]
        else:
            with ProcessPoolExecutor(max_workers=jobs) as ex:
                entries = list(ex.map(_compose_one, [cfg] * len(seeds),
                                      seeds, [out] * len(seeds)))
    except OptimizationDiverged as e:
        return _diverged(out, e)
    _write_manifest(out, {
        "command": "compose", "config_hash": _config_hash(cfg),
        "seeds": seeds, "runs": entries})
    print(f"composed {len(seeds)} run(s) into {out}")
    return EXIT_OK


def _load_runs(results_dir: str, skeleton) -> list:
    """(seed, run dir name, person id -> MotionSequence) per manifest run."""
    if not os.path.isdir(results_dir):
        raise ConfigError(f"results_dir not found: {results_dir}")
    manifest_path = os.path.join(results_dir, "manifest.json")
    if not os.path.isfile(manifest_path):
        raise ConfigError(f"no manifest in {results_dir}")
    with open(manifest_path) as f:
        manifest = json.load(f)
    runs = []
    for run in _require(manifest, "runs", manifest_path):
        run_dir = os.path.join(results_dir, run["dir"])
        seqs = {}
        for fname in run["files"]:
            pid = int(fname[len("person"):-len(".motion")])
            seqs[pid] = read_motion(os.path.join(run_dir, fname), skeleton)
        runs.append((run["seed"], run["dir"], seqs))
    return runs


def cmd_extend(args) -> int:
    cfg = _load_config(args.config)
    results_dir = _require(cfg, "results_dir")
    composer = _composer_from(cfg)
    runs = _load_runs(results_dir, composer.skeleton)
    try:
        scene = _require(cfg, "scene")
        _check_keys(scene, SCENE_KEYS, "scene")
        segments = _segments_from(scene)
        for _, _, seqs in runs:
            check_segments(segments, seqs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"scene: {e}") from e
    if not segments:
        raise ConfigError("scene.extension: no segments configured")
    if args.dry_run:
        print(f"extend: {len(runs)} run(s), {len(segments)} segment(s)")
        return EXIT_OK
    out = _prepare_out(args.out, args.overwrite)
    entries = []
    for seed, run_dir, seqs in runs:
        result = CompositionResult(sequences=seqs, seed=seed)
        try:
            extended = composer.extend(result, segments, seed)
        except OptimizationDiverged as e:
            return _diverged(out, e)
        files = _write_sequences(extended.sequences, os.path.join(out, run_dir))
        entries.append({"seed": seed, "dir": run_dir, "files": files})
    _write_manifest(out, {
        "command": "extend", "config_hash": _config_hash(cfg),
        "source": results_dir, "runs": entries})
    print(f"extended {len(entries)} run(s) into {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _load_config(args.config)
    results_dir = _require(cfg, "results_dir")
    runs = [seqs for _, _, seqs in _load_runs(results_dir, default_skeleton())]
    if args.dry_run:
        print(f"eval: {len(runs)} run(s) from {results_dir}")
        return EXIT_OK
    out = _prepare_out(args.out, args.overwrite)
    report = evaluate_runs(runs, cfg.get("overlap_threshold", 0.25))
    write_report_csv(report, os.path.join(out, "metrics.csv"))
    _write_manifest(out, {
        "command": "eval", "config_hash": _config_hash(cfg),
        "n_runs": report.n_runs,
        "overlap_rate": report.overlap_rate,
        "foot_skate": report.foot_skate,
        "max_acc": report.max_acc,
        "proxy_pen_vol": report.proxy_pen_vol})
    print(f"overlap_rate={report.overlap_rate:.3f} "
          f"foot_skate={report.foot_skate:.4f} "
          f"max_acc={report.max_acc:.4f} "
          f"pen_vol={report.proxy_pen_vol:.2f}cm^3")
    return EXIT_OK


def cmd_export(args) -> int:
    cfg = _load_config(args.config)
    inputs = _require(cfg, "inputs")
    paths = []
    for item in inputs:
        if os.path.isdir(item):
            paths.extend(sorted(
                os.path.join(item, f) for f in os.listdir(item)
                if f.endswith(".motion")))
        elif os.path.isfile(item):
            paths.append(item)
        else:
            raise ConfigError(f"inputs: path not found: {item}")
    if not paths:
        raise ConfigError("inputs: no motion files found")
    if args.dry_run:
        print(f"export: {len(paths)} motion file(s)")
        return EXIT_OK
    out = _prepare_out(args.out, args.overwrite)
    skeleton = default_skeleton()
    with open(os.path.join(out, "positions.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["file", "person", "frame", "joint", "x", "y", "z"])
        for path in paths:
            seq = read_motion(path, skeleton)
            p = seq.joint_positions()
            base = os.path.basename(path)
            for n in range(seq.N):
                for j in range(skeleton.J):
                    w.writerow([base, seq.person_id, n,
                                skeleton.joint_names[j],
                                repr(float(p[n, j, 0])),
                                repr(float(p[n, j, 1])),
                                repr(float(p[n, j, 2]))])
    _write_manifest(out, {"command": "export",
                          "config_hash": _config_hash(cfg),
                          "n_files": len(paths)})
    print(f"exported {len(paths)} file(s) to {out}/positions.csv")
    return EXIT_OK


# -- entry point -----------------------------------------------------------------


COMMANDS = {
    "corpus": cmd_corpus,
    "train": cmd_train,
    "compose": cmd_compose,
    "extend": cmd_extend,
    "eval": cmd_eval,
    "export": cmd_export,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupmotion",
        description="multi-person motion composition toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", help="seed or comma-separated seed list")
        p.add_argument("--dry-run", action="store_true",
                       help="validate and print the plan without writing")
        p.add_argument("--overwrite", action="store_true",
                       help="allow writing into a non-empty directory")
        if name == "compose":
            p.add_argument("--jobs", type=int, default=1,
                           help="parallel workers across seeds")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (OptimizationDiverged, TrainingDiverged, FloatingPointError) as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
