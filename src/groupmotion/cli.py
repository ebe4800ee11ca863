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
from dataclasses import fields

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
# the top-level keys each command reads; any other key is a config error
RUN_KEYS = ("schedule", "optimizer", "prior", "stats", "fps")
CONFIG_KEYS = {
    "corpus": tuple(f.name for f in fields(CorpusConfig) if f.name != "seed"),
    "train": ("corpus_dir", "schedule", "epochs", "hidden", "lr"),
    "compose": RUN_KEYS + ("scene",),
    "extend": RUN_KEYS + ("results_dir", "scene"),
    "eval": ("results_dir", "overlap_threshold"),
    "export": ("inputs",),
}


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
    if not isinstance(cfg, dict):
        raise ConfigError(f"{ctx}: expected an object, got {cfg!r}")
    unknown = sorted(set(cfg) - set(keys))
    if unknown:
        raise ConfigError(f"{ctx}: unknown keys {unknown}; accepted are "
                          f"{list(keys)}")


def _given(cfg: dict, *keys) -> dict:
    """The entries of `keys` that `cfg` sets, so that an unset one keeps
    the default of the function it is passed to."""
    return {k: cfg[k] for k in keys if k in cfg}


def _positive(cfg: dict, *keys) -> dict:
    """`_given(cfg, *keys)`, each value checked to be a positive finite
    number."""
    given = _given(cfg, *keys)
    for key, v in given.items():
        if type(v) not in (int, float) or not 0 < v < math.inf:
            raise ConfigError(f"{key} must be a positive finite number, "
                              f"got {v!r}")
    return given


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


def _seed_list(text: str) -> list:
    """`--seed`: one seed or a comma-separated list of distinct seeds."""
    parts = text.split(",")
    if not all(p.isdecimal() for p in parts) or \
            len(set(map(int, parts))) < len(parts):
        raise argparse.ArgumentTypeError(
            f"need distinct integers >= 0, comma-separated; got {text!r}")
    return [int(p) for p in parts]


def _jobs(text: str) -> int:
    """`--jobs`: a number of worker processes, at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"need an integer >= 1; got {text!r}")
    return int(text)


# -- config -> domain objects --------------------------------------------------


def _build(cls, section, ctx: str, **given):
    """`cls(**section, **given)` for the dataclass `cls` that owns the
    config object `section`, after `_parsed` has turned its JSON values into
    the objects `cls` takes. A key that is not a field of `cls`, a missing
    one or a value that `cls` rejects is a ConfigError naming `ctx`."""
    _check_keys(section, [f.name for f in fields(cls) if f.name not in given],
                ctx)
    try:
        return cls(**{k: _parsed(k, v, ctx) for k, v in section.items()},
                   **given)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as e:     # KeyError: a label name
        raise ConfigError(f"{ctx}: {e}") from e


def _parsed(key: str, value, ctx: str):
    """The object a section's JSON `value` under `key` stands for: labels
    for label names, tuples of person ids, and PenaltyConfig, SceneStep and
    ExtensionSegment tuples."""
    if key in ("label", "first_label"):
        return label_by_name(value)
    if key in ("penalties", "first_penalties"):
        pens = _items(PenaltyConfig, value, f"{ctx}.{key}")
        for p in pens:
            if p.kind == "region":
                region_joints(p.params.get("joints"), default_skeleton().J)
        return pens
    if key in ("participants", "opt_subset"):
        return tuple(value)
    if key == "pairs":
        return tuple((a, b, label_by_name(name)) for a, b, name in value)
    if key == "steps":
        return _items(SceneStep, value, f"{ctx}.steps")
    if key == "extension":
        return _items(ExtensionSegment, value, f"{ctx}.extension")
    return value


def _items(cls, items, ctx: str) -> tuple:
    """A list of config objects, each built by `_build(cls, ...)`."""
    if not isinstance(items, (list, tuple)):
        raise ConfigError(f"{ctx}: expected a list, got {items!r}")
    return tuple(_build(cls, s, f"{ctx}[{i}]") for i, s in enumerate(items))


def _prior_from(cfg: dict, schedule, stats, skeleton):
    prior_cfg = cfg.get("prior", {})
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


def cmd_corpus(args, cfg: dict) -> int:
    corpus_cfg = _build(CorpusConfig, cfg, "config", seed=args.seed[0])
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


def cmd_train(args, cfg: dict) -> int:
    corpus_dir = _require(cfg, "corpus_dir")
    if not os.path.isdir(corpus_dir):
        raise ConfigError(f"corpus_dir not found: {corpus_dir}")
    schedule = _build(DiffusionSchedule, cfg.get("schedule", {}), "schedule")
    for key, least in (("epochs", 0), ("hidden", 1)):
        if key in cfg and (type(cfg[key]) is not int or cfg[key] < least):
            raise ConfigError(f"{key} must be an int >= {least}, "
                              f"got {cfg[key]!r}")
    lr = _positive(cfg, "lr")
    skeleton = default_skeleton()
    epochs = cfg.get("epochs", 5)
    seed = args.seed[0]
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
                     seed=seed, **_given(cfg, "hidden"))
    try:
        curve = train(prior, pairs, schedule, epochs, seed=seed, **lr)
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
    schedule = _build(DiffusionSchedule, cfg.get("schedule", {}), "schedule")
    stats = _stats_from(cfg, skeleton)
    prior = _prior_from(cfg, schedule, stats, skeleton)
    opt = _build(OptimizerConfig, cfg.get("optimizer", {}), "optimizer")
    return Composer(prior, schedule, stats, skeleton, opt,
                    **_positive(cfg, "fps"))


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
    spec = _build(SceneSpec, cfg["scene"], "scene", seed=seed)
    result = _composer_from(cfg).compose(spec)
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


def cmd_compose(args, cfg: dict) -> int:
    seeds = args.seed
    # validate everything up front so --dry-run and config errors never sample
    spec = _build(SceneSpec, _require(cfg, "scene"), "scene", seed=seeds[0])
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
    try:
        if args.jobs == 1 or len(seeds) == 1:
            entries = [_compose_one(cfg, s, out) for s in seeds]
        else:
            with ProcessPoolExecutor(max_workers=args.jobs) as ex:
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
        name = _require(run, "dir", manifest_path)
        seqs = {}
        for fname in _require(run, "files", manifest_path):
            pid = int(fname[len("person"):-len(".motion")])
            seqs[pid] = read_motion(os.path.join(results_dir, name, fname),
                                    skeleton)
        runs.append((_require(run, "seed", manifest_path), name, seqs))
    return runs


def cmd_extend(args, cfg: dict) -> int:
    results_dir = _require(cfg, "results_dir")
    composer = _composer_from(cfg)
    runs = _load_runs(results_dir, composer.skeleton)
    scene = _require(cfg, "scene")
    _check_keys(scene, ("extension",), "scene")
    segments = _items(ExtensionSegment, scene.get("extension", ()),
                      "scene.extension")
    try:
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


def cmd_eval(args, cfg: dict) -> int:
    results_dir = _require(cfg, "results_dir")
    threshold = _positive(cfg, "overlap_threshold")
    runs = [seqs for _, _, seqs in _load_runs(results_dir, default_skeleton())]
    if args.dry_run:
        print(f"eval: {len(runs)} run(s) from {results_dir}")
        return EXIT_OK
    out = _prepare_out(args.out, args.overwrite)
    report = evaluate_runs(runs, **threshold)
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


def cmd_export(args, cfg: dict) -> int:
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
            base = os.path.basename(path)
            for n, frame in enumerate(seq.joint_positions().tolist()):
                for name, xyz in zip(skeleton.joint_names, frame):
                    w.writerow([base, seq.person_id, n, name,
                                *map(repr, xyz)])
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
SEEDED = ("corpus", "train", "compose")   # the commands that draw samples


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupmotion",
        description="multi-person motion composition toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--dry-run", action="store_true",
                       help="validate and print the plan without writing")
        p.add_argument("--overwrite", action="store_true",
                       help="allow writing into a non-empty directory")
        if name in SEEDED:
            p.add_argument("--seed", type=_seed_list, default=[0],
                           help="seed or comma-separated list of seeds")
        if name == "compose":
            p.add_argument("--jobs", type=_jobs, default=1,
                           help="parallel workers across seeds")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        _check_keys(cfg, CONFIG_KEYS[args.command], "config")
        return COMMANDS[args.command](args, cfg)
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
