"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed in its constructor
(the set-up), runs one whole job per `run_round` (the timed part), and
checks the job's outputs afterwards with numpy recomputations from
`oracle`. Operations are keyed by name; `run_round` returns the outputs
of round r keyed the same way, and `fingerprints` digests them so that
later rounds can be compared with the first.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import traceback

import numpy as np

import oracle

from groupmotion import autodiff as ad
from groupmotion import cli
from groupmotion.composer import (Composer, CompositionResult,
                                  ExtensionSegment, OptimizerConfig,
                                  SceneSpec)
from groupmotion.diffusion import (DiffusionSchedule, FrameMask, ddim_sample,
                                   inpaint_extend)
from groupmotion.motion import (MotionSequence, NormalizationStats,
                                default_skeleton, denormalize,
                                facing_direction, normalize,
                                repair_velocities)
from groupmotion.penalties import PenaltyConfig, aggregate
from groupmotion.priors import AnalyticPrior
from groupmotion.scripts import label_by_name

T_TRAIN, DDIM_STEPS = 50, 5
OVERLAP_DELTA = 0.30       # penalty hinge, meters
OVERLAP_THRESHOLD = 0.25   # metric and check threshold, meters
FD_COORDS = 2              # random finite-difference coordinates per check


class Ops:
    """Attempted and failed operations of one run. An operation is one
    composed scene, extension or CLI command of one round; it fails when it
    raises, exits non-zero or fails a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = set()

    def run(self, r, key, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.fail((r, key), "raised")
            return None

    def fail(self, op, msg):
        self.failed.add(op)
        print(f"bench: FAILED {op}: {msg}", file=sys.stderr)


def _substream(seed, *key):
    # the composer's documented per-step seeding (Composer._substream)
    return np.random.default_rng(np.random.SeedSequence((seed,) + key))


def _pair_noise(seed, D, N=32):
    """The first pair's initial noise, persons 1 and 2 stacked."""
    return np.stack([_substream(seed, 0, p).standard_normal((N, D))
                     for p in (1, 2)])


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _result_digest(res) -> str:
    return _digest(*(res.sequences[p].frames for p in sorted(res.sequences)),
                   np.array([r.best_loss for r in res.records]))


def gradient_failures(key, objective, x, first_loss, coords) -> list:
    """Reverse-mode gradient of the first evaluation against central finite
    differences, at the given random coordinates and at the two where the
    reverse gradient is largest. The rebuilt objective must also reproduce
    the program's first recorded loss."""
    var = ad.Var(x)
    loss = objective(var)
    (g,) = ad.grad(loss, [var])
    coords = list(coords) + [int(c) for c in np.argsort(np.abs(g), axis=None)
                             [-2:] if c not in coords]
    out = []
    if not oracle.close(float(loss.value), first_loss, rtol=1e-12):
        out.append((key, "gradient", f"rebuilt objective {float(loss.value)!r}"
                    f" != first recorded loss {first_loss!r}"))
    out += [(key, "gradient", f"coord {c}: reverse {got!r} vs fd {fd!r}")
            for c, got, fd in oracle.fd_mismatches(
                lambda a: float(objective(ad.Var(a)).value), x, g, coords)]
    return out


class _AnalyticSetup:
    """Skeleton, reference stats, 5-step schedule and analytic prior."""

    def __init__(self):
        self.skeleton = default_skeleton()
        self.J, self.D = self.skeleton.J, self.skeleton.D
        self.stats = NormalizationStats.reference(self.skeleton)
        self.schedule = DiffusionSchedule(t_train=T_TRAIN,
                                          ddim_steps=DDIM_STEPS)
        self.prior = AnalyticPrior(self.schedule, self.stats, self.skeleton)

    def _world(self, x):
        return denormalize(x, self.stats)

    def pair_objective(self, label, penalties):
        """The first pair's objective: joint DDIM sample from the stacked
        noise, then the weighted penalties on the world-space pair."""
        def objective(var):
            o1, o2 = ddim_sample(self.prior, self.schedule,
                                 (var[0, :, :], var[1, :, :]), label)
            world = {1: self._world(o1), 2: self._world(o2)}
            return aggregate(penalties, world, self.skeleton)[0]
        return objective

    def prepare(self, r):
        pass

    def finish(self, r, out):
        return out

    def fingerprints(self, out) -> dict:
        return {k: _result_digest(v[0] if isinstance(v, tuple) else v)
                for k, v in out.items() if v is not None}


# -- pair-ablation-32 -------------------------------------------------------------


def _rot2(d, ang):
    c, s = np.cos(ang), np.sin(ang)
    return np.array([c * d[0] - s * d[1], s * d[0] + c * d[1]])


class PairAblation(_AnalyticSetup):
    """Two persons, 32 frames, `close-approach`. Per seed: the unpenalised
    compose, then the acceptance ablation's four penalty sets added one at
    a time (root, overlap, region, orientation), targets derived from the
    unpenalised run."""

    name = "pair-ablation-32"
    N = 32

    def __init__(self, seed, work_dir, n_seeds=3, steps=20):
        super().__init__()
        self.opt = OptimizerConfig(lr=0.01, max_steps=steps,
                                   early_stop_loss=1e-12)
        self.composer = Composer(self.prior, self.schedule, self.stats,
                                 self.skeleton, self.opt)
        self.label = label_by_name("close-approach")
        rng = np.random.default_rng(seed)
        self.seeds = [int(s) for s in rng.choice(100_000, n_seeds,
                                                 replace=False)]
        self.coords = rng.choice(2 * self.N * self.D, FD_COORDS,
                                 replace=False)

    def _spec(self, seed, penalties=()):
        return SceneSpec(participants=(1, 2), first_label=self.label,
                         first_penalties=tuple(penalties), seed=seed,
                         n_frames=self.N)

    def penalty_sets(self, run) -> list:
        """The acceptance ablation's targets: shifted root goal, tightened
        region box, facing goal rotated by 40 degrees."""
        N = self.N
        root_tgt = run[1].root_trajectory()[-1] + np.array([0.35, 0.0, 0.0])
        p2 = run[2].joint_positions()
        lower = p2.min(axis=(0, 1)) + np.array([0.30, 0.0, 0.0])
        lower[1] = -0.5
        upper = p2.max(axis=(0, 1)) + np.array([0.50, 0.0, 0.50])
        upper[1] = 2.5
        face = _rot2(facing_direction(run[1], N - 1), np.deg2rad(40.0))
        last = np.array([N - 1])
        return [
            PenaltyConfig("root", 1.0, (1,), frames=last,
                          params={"targets": root_tgt.reshape(1, 3)}),
            PenaltyConfig("overlap", 1.0, (1, 2),
                          params={"delta": OVERLAP_DELTA}),
            PenaltyConfig("region", 1.0, (2,),
                          params={"lower": lower, "upper": upper}),
            PenaltyConfig("orientation", 1.0, (1,), frames=last,
                          params={"targets": face.reshape(1, 2),
                                  "delta": 0.06}),
        ]

    def _base(self, seed):
        res = self.composer.compose(self._spec(seed))
        return res, self.penalty_sets(res.sequences)

    def run_round(self, ops, r) -> dict:
        out = {}
        for s in self.seeds:
            base = ops.run(r, f"{s}/base", self._base, s)
            out[f"{s}/base"] = base
            pens = base[1] if base else None
            for k in range(1, 5):
                out[f"{s}/k{k}"] = ops.run(
                    r, f"{s}/k{k}",
                    lambda: self.composer.compose(self._spec(s, pens[:k])))
        return out

    def _terms(self, pens, frames) -> float:
        """Weighted penalty total recomputed with numpy."""
        total = 0.0
        for cfg in pens:
            f = frames[cfg.subjects[0]]
            p = cfg.params
            if cfg.kind == "root":
                v = oracle.root_term(f, cfg.frames, p["targets"])
            elif cfg.kind == "overlap":
                v = oracle.overlap_term(oracle.roots(f),
                                        oracle.roots(frames[cfg.subjects[1]]),
                                        p["delta"])
            elif cfg.kind == "region":
                v = oracle.region_term(f, self.J, p["lower"], p["upper"])
            else:
                v = oracle.orientation_term(f, self.J, cfg.frames,
                                            p["targets"], p["delta"])
            total += cfg.weight * v
        return total

    def check(self, out) -> list:
        bad = []
        for s in self.seeds:
            base = out.get(f"{s}/base")
            if base is None:
                continue
            pens = base[1]
            for k in range(1, 5):
                key = f"{s}/k{k}"
                res = out.get(key)
                if res is None:
                    continue
                frames = {p: q.frames for p, q in res.sequences.items()}
                rec = res.records[0]
                want = self._terms(pens[:k], frames)
                if not oracle.close(rec.best_loss, want):
                    bad.append((key, "loss", f"best loss {rec.best_loss!r} "
                                f"!= recomputed {want!r}"))
                if rec.best_loss > rec.losses[0]:
                    bad.append((key, "best", f"best loss {rec.best_loss!r} "
                                f"above first {rec.losses[0]!r}"))
                if k >= 2:
                    d = oracle.min_root_distance(
                        [oracle.roots(frames[1]), oracle.roots(frames[2])])
                    if d < OVERLAP_THRESHOLD:
                        bad.append((key, "overlap",
                                    f"roots {d:.4f} m apart"))
        return bad

    def gradient_check(self, out) -> list:
        """On the root + overlap scene. With the region term the first
        evaluation sits exactly on a hinge kink: the first evaluation
        reproduces the unpenalised run, whose lowest z defines the region's
        lower z bound, and finite differences there average two slopes."""
        s = self.seeds[0]
        key = f"{s}/k2"
        if out.get(key) is None or out.get(f"{s}/base") is None:
            return []
        pens = out[f"{s}/base"][1][:2]
        return gradient_failures(key, self.pair_objective(self.label, pens),
                                 _pair_noise(s, self.D, self.N),
                                 out[key].records[0].losses[0], self.coords)


# -- cli-chain5 ---------------------------------------------------------------------


def _five_person_scene(participants):
    """The pivot chain (1,2), (1,3), (1,4), (1,5) with overlap penalties
    against everyone already in the scene."""
    overlap = {"kind": "overlap", "weight": 1.0,
               "params": {"delta": OVERLAP_DELTA}}
    steps = [{"target": k, "reference": 1, "label": "approach",
              "opt_subset": list(range(1, k)),
              "penalties": [dict(overlap, subjects=[k, j])
                            for j in range(1, k)]}
             for k in participants[2:]]
    return {"participants": list(participants),
            "first_label": "close-approach", "n_frames": 32,
            "first_penalties": [dict(overlap, subjects=[1, 2])],
            "steps": steps}


class CliChain:
    """The README pipeline through `groupmotion.cli.main`: corpus, train,
    compose of the five-person chain over a seed list, eval, export."""

    name = "cli-chain5"
    COMMANDS = ("corpus", "train", "compose", "eval", "export")
    PERSONS = (1, 2, 3, 4, 5)

    def __init__(self, seed, work_dir, n_seeds=16, epochs=3,
                 samples_per_label=8):
        rng = np.random.default_rng(seed)
        self.seeds = sorted(int(s) for s in rng.choice(100_000, n_seeds,
                                                       replace=False))
        corpus_seed, train_seed = (int(v) for v in rng.integers(0, 100_000, 2))
        skeleton = default_skeleton()
        self.J, self.radii = skeleton.J, skeleton.proxy_radii
        self.coords = rng.choice(2 * 32 * skeleton.D, FD_COORDS,
                                 replace=False)
        self.epochs, self.n_samples = epochs, 5 * samples_per_label
        self.work = work_dir
        self.run_dir = os.path.join(work_dir, "run")
        self.dirs = {c: os.path.join(self.run_dir, c) for c in self.COMMANDS}
        schedule = {"t_train": T_TRAIN, "ddim_steps": DDIM_STEPS}
        self.scene_cfg = {"schedule": schedule,
                          "optimizer": {"lr": 0.03, "max_steps": 100},
                          "scene": _five_person_scene(self.PERSONS)}
        pair_cfg = dict(self.scene_cfg, scene=_five_person_scene((1, 2)))
        run_dirs = [os.path.join(self.dirs["compose"], f"seed{s:05d}")
                    for s in self.seeds]
        configs = {
            "corpus": {"samples_per_label": samples_per_label,
                       "n_frames": 32},
            "train": {"corpus_dir": self.dirs["corpus"], "epochs": epochs,
                      "schedule": schedule},
            "compose": self.scene_cfg,
            "pair": pair_cfg,
            "eval": {"results_dir": self.dirs["compose"],
                     "overlap_threshold": OVERLAP_THRESHOLD},
            "export": {"inputs": run_dirs},
        }
        cfg_dir = os.path.join(work_dir, "configs")
        os.makedirs(cfg_dir)
        self.cfg = {}
        for name, cfg in configs.items():
            self.cfg[name] = os.path.join(cfg_dir, f"{name}.json")
            with open(self.cfg[name], "w") as f:
                json.dump(cfg, f)
        seeds = ",".join(map(str, self.seeds))
        self.extra = {"corpus": ["--seed", str(corpus_seed)],
                      "train": ["--seed", str(train_seed)],
                      "compose": ["--seed", seeds, "--jobs", "1"],
                      "eval": [], "export": []}

    @staticmethod
    def _main(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"groupmotion {' '.join(argv)} exited {rc}")

    def _argv(self, cmd):
        return [cmd, "--config", self.cfg[cmd], "--out", self.dirs[cmd]] + \
            self.extra[cmd]

    def prepare(self, r):
        # round 0 is kept for the checks; later rounds only for their digest
        shutil.rmtree(self.run_dir, ignore_errors=True)
        if r > 1:
            shutil.rmtree(os.path.join(self.work, f"round{r - 1}"))

    def run_round(self, ops, r) -> dict:
        for cmd in self.COMMANDS:
            ops.run(r, cmd, self._main, self._argv(cmd))
        return {}

    def finish(self, r, out) -> dict:
        kept = os.path.join(self.work, f"round{r}")
        os.makedirs(self.run_dir, exist_ok=True)
        os.rename(self.run_dir, kept)
        return {c: os.path.join(kept, c) for c in self.COMMANDS}

    def fingerprints(self, out) -> dict:
        fp = {}
        for cmd, d in out.items():
            h = hashlib.sha256()
            for root, dirs, files in os.walk(d):
                dirs.sort()
                for name in sorted(files):
                    path = os.path.join(root, name)
                    h.update(os.path.relpath(path, d).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
            fp[cmd] = h.hexdigest()
        return fp

    def check(self, out) -> list:
        bad = []
        bad += self._check_corpus_train(out)
        scene = out["compose"]
        runs = {}
        for s in self.seeds:
            d = os.path.join(scene, f"seed{s:05d}")
            try:
                runs[s] = {p: oracle.parse_motion(
                    os.path.join(d, f"person{p}.motion"))[1]
                    for p in self.PERSONS}
            except (OSError, ValueError) as e:
                bad.append(("compose", "files", f"seed {s}: {e}"))
        if len(runs) != len(self.seeds):
            return bad
        bad += self._check_history(scene)
        bad += self._check_losses(scene, runs)
        bad += self._check_export(out["export"], scene)
        bad += self._check_eval(out["eval"], runs)
        return bad

    def _check_corpus_train(self, out) -> list:
        bad = []
        try:
            with open(os.path.join(out["corpus"], "manifest.json")) as f:
                n = json.load(f)["n_samples"]
            if n != self.n_samples:
                bad.append(("corpus", "samples", f"{n} != {self.n_samples}"))
            rows = oracle.read_csv(os.path.join(out["train"], "loss.csv"))[1:]
            losses = np.array([float(v) for _, v in rows])
            if len(losses) != self.epochs * self.n_samples or \
                    not np.all(np.isfinite(losses)):
                bad.append(("train", "loss", f"{len(losses)} rows, finite "
                            f"{bool(np.all(np.isfinite(losses)))}"))
        except (OSError, KeyError, ValueError) as e:
            bad.append(("corpus", "files", str(e)))
        return bad

    def _check_history(self, scene) -> list:
        """Persons 1 and 2 of every five-person scene equal a pair-only
        compose of the same seed byte for byte."""
        pair_out = os.path.join(self.work, "pair-check")
        shutil.rmtree(pair_out, ignore_errors=True)
        try:
            self._main(["compose", "--config", self.cfg["pair"], "--out",
                        pair_out] + self.extra["compose"])
        except RuntimeError as e:
            return [("compose", "history", str(e))]
        bad = []
        for s in self.seeds:
            for p in (1, 2):
                rel = os.path.join(f"seed{s:05d}", f"person{p}.motion")
                with open(os.path.join(scene, rel), "rb") as f1, \
                        open(os.path.join(pair_out, rel), "rb") as f2:
                    if f1.read() != f2.read():
                        bad.append(("compose", "history",
                                    f"{rel} differs from the pair-only run"))
        shutil.rmtree(pair_out)
        return bad

    def _check_losses(self, scene, runs) -> list:
        """Each step's best loss equals its overlap hinges recomputed."""
        with open(os.path.join(scene, "manifest.json")) as f:
            manifest = json.load(f)
        bad = []
        for entry in manifest["runs"]:
            roots = {p: oracle.roots(f) for p, f in runs[entry["seed"]].items()}
            for person, best in entry["final_losses"].items():
                k = int(person)
                others = (2,) if k == 1 else range(1, k)
                want = sum(oracle.overlap_term(roots[k], roots[j],
                                               OVERLAP_DELTA) for j in others)
                if not oracle.close(best, want):
                    bad.append(("compose", "loss",
                                f"seed {entry['seed']} person {k}: best "
                                f"{best!r} != recomputed {want!r}"))
        return bad

    def _check_export(self, export, scene) -> list:
        rows = oracle.read_csv(os.path.join(export, "positions.csv"))[1:]
        want = []
        for s in self.seeds:
            for p in self.PERSONS:
                header, frames = oracle.parse_motion(
                    os.path.join(scene, f"seed{s:05d}", f"person{p}.motion"))
                pos = oracle.positions(frames, header["J"])
                for n in range(pos.shape[0]):
                    for j, joint in enumerate(header["joint_names"]):
                        want.append((f"person{p}.motion", p, n, joint,
                                     *pos[n, j]))
        got = [(r[0], int(r[1]), int(r[2]), r[3], float(r[4]), float(r[5]),
                float(r[6])) for r in rows]
        if got != want:
            first = next((i for i, (a, b) in enumerate(zip(got, want))
                          if a != b), min(len(got), len(want)))
            return [("export", "positions",
                     f"{len(got)} rows vs {len(want)} expected, first "
                     f"difference at row {first}")]
        return []

    def _check_eval(self, report, runs) -> list:
        rows = oracle.read_csv(os.path.join(report, "metrics.csv"))
        cols = rows[0]
        overlaps, vols, bad = [], [], []
        for i, s in enumerate(self.seeds):
            frames = runs[s]
            ov = float(oracle.any_overlap(
                [oracle.roots(frames[p]) for p in self.PERSONS],
                OVERLAP_THRESHOLD))
            vol = oracle.penetration_volume(
                [oracle.positions(frames[p], self.J) for p in self.PERSONS],
                self.radii)
            overlaps.append(ov)
            vols.append(vol)
            row = dict(zip(cols, rows[1 + i]))
            if float(row["overlap"]) != ov or \
                    not oracle.close(float(row["pen_vol"]), vol):
                bad.append(("eval", "metrics",
                            f"run {i}: overlap {row['overlap']} pen_vol "
                            f"{row['pen_vol']} vs {ov} {vol!r}"))
        agg = dict(zip(cols, rows[-1]))
        if not oracle.close(float(agg["overlap"]), float(np.mean(overlaps))) \
                or not oracle.close(float(agg["pen_vol"]),
                                    float(np.mean(vols))):
            bad.append(("eval", "metrics", f"aggregate row {rows[-1]}"))
        return bad

    def gradient_check(self, out) -> list:
        """First evaluation of the first pair, on the seed whose first loss
        is largest (an overlap hinge that is active)."""
        first = {}
        for s in self.seeds:
            path = os.path.join(out["compose"], f"seed{s:05d}", "loss.csv")
            for person, ev, loss in oracle.read_csv(path)[1:]:
                if person == "1" and ev == "0":
                    first[s] = float(loss)
        s = max(self.seeds, key=lambda k: first[k])
        model = _AnalyticSetup()
        pens = (PenaltyConfig("overlap", 1.0, (1, 2),
                              params={"delta": OVERLAP_DELTA}),)
        objective = model.pair_objective(label_by_name("close-approach"),
                                         pens)
        return gradient_failures("compose", objective, _pair_noise(s, model.D),
                                 first[s], self.coords)


# -- extend-240 ------------------------------------------------------------------------


class Extend(_AnalyticSetup):
    """A 240-frame `animated-talk` pair, then 50 frames kept and 190
    regenerated by inpainting with boundary weight 1000. Optimizer as the
    acceptance suite's EXT_OPT (lr 0.01, decay 0.99, early stop 1e-12), so
    the evaluation count is steps + 1 on every seed."""

    name = "extend-240"
    N, KEPT, SEAM = 240, 50, 25
    WEIGHT = 1000.0

    def __init__(self, seed, work_dir, n_seeds=2, steps=40):
        super().__init__()
        self.opt = OptimizerConfig(lr=0.01, max_steps=steps,
                                   early_stop_loss=1e-12, lr_decay=0.99)
        self.composer = Composer(self.prior, self.schedule, self.stats,
                                 self.skeleton, self.opt)
        self.label = label_by_name("animated-talk")
        rng = np.random.default_rng(seed)
        self.seeds = [int(s) for s in rng.choice(100_000, n_seeds,
                                                 replace=False)]
        # coordinates in the generated frames of both persons
        free = (self.N - self.KEPT) * self.D
        self.coords = [(c // free) * self.N * self.D + self.KEPT * self.D +
                       c % free for c in rng.choice(2 * free, FD_COORDS,
                                                    replace=False)]
        self.segment = ExtensionSegment(
            window=self.N, kept=self.KEPT, pairs=((1, 2, self.label),),
            boundary_frames=self.SEAM, boundary_weight=self.WEIGHT,
            mode="literal")

    def _compose(self, seed):
        return self.composer.compose(SceneSpec(
            participants=(1, 2), first_label=self.label, seed=seed,
            n_frames=self.N))

    def _extend(self, seed, full):
        trunc = {pid: repair_velocities(MotionSequence(
                     self.skeleton, s.frames[:self.KEPT].copy(), fps=s.fps,
                     person_id=pid))
                 for pid, s in full.sequences.items()}
        ext = self.composer.extend(CompositionResult(sequences=trunc,
                                                     seed=seed),
                                   [self.segment], seed)
        return ext, trunc

    def run_round(self, ops, r) -> dict:
        out = {}
        for s in self.seeds:
            full = ops.run(r, f"{s}/compose", self._compose, s)
            out[f"{s}/compose"] = full
            out[f"{s}/extend"] = ops.run(r, f"{s}/extend", self._extend, s,
                                         full)
        return out

    def check(self, out) -> list:
        bad = []
        for s in self.seeds:
            full = out.get(f"{s}/compose")
            if full is not None and not all(
                    q.N == self.N and np.all(np.isfinite(q.frames))
                    for q in full.sequences.values()):
                bad.append((f"{s}/compose", "frames", "not 240 finite frames"))
            key = f"{s}/extend"
            if out.get(key) is None:
                continue
            ext, trunc = out[key]
            frames = {p: q.frames for p, q in ext.sequences.items()}
            if any(f.shape[0] != self.N for f in frames.values()):
                bad.append((key, "frames", "sequence is not 240 frames"))
                continue
            for p in (1, 2):
                if not np.array_equal(frames[p][:self.KEPT], trunc[p].frames):
                    bad.append((key, "kept", f"person {p}: kept frames "
                                "changed"))
            want = self.WEIGHT * sum(
                oracle.boundary_term(frames[p], self.J, self.KEPT - 1,
                                     self.SEAM) for p in (1, 2))
            best = ext.records[-1].best_loss
            if not oracle.close(best, want):
                bad.append((key, "loss", f"best loss {best!r} != recomputed "
                            f"{want!r}"))
        return bad

    def gradient_check(self, out) -> list:
        s = self.seeds[0]
        key = f"{s}/extend"
        if out.get(key) is None:
            return []
        ext, trunc = out[key]
        kept = [normalize(trunc[p].frames[-self.KEPT:], self.stats)
                for p in (1, 2)]
        mask = FrameMask(self.N, self.KEPT)
        xT = _substream(s, 2, 0, 0).standard_normal((2, self.N, self.D))
        zseed = int(_substream(s, 3, 0, 0).integers(2**31))
        pens = [PenaltyConfig("boundary", self.WEIGHT, (p,),
                              params={"window_start": self.KEPT - 1,
                                      "window_len": self.SEAM})
                for p in (1, 2)]

        def objective(var):
            o1, o2 = inpaint_extend(self.prior, self.schedule,
                                    (var[0, :, :], var[1, :, :]), kept, mask,
                                    self.label, zseed, mode="literal")
            world = {1: self._world(o1), 2: self._world(o2)}
            return aggregate(pens, world, self.skeleton)[0]

        return gradient_failures(key, objective, xT,
                                 ext.records[-1].losses[0], self.coords)


WORKLOADS = {w.name: w for w in (PairAblation, CliChain, Extend)}
