"""Sequential multi-person motion composition with initial-noise optimization.

Pipeline, per scene:

1. first pair: draw both persons' initial noise as one stacked (2, N, D)
   state, optimize it jointly through the unrolled DDIM sampler against
   the first-pair penalties, and keep the pair sampled from the best
   iterate;
2. each additional person: optimize its initial noise so the masked
   conditional sample (reference slot pinned) minimizes the configured
   penalties against the chosen set of already-generated persons;
3. optional long-duration extension by inpainting, with a boundary
   (acceleration) penalty over the seam window and per-segment label
   switching.

Each optimization holds its pair's whole noise on the channels the prior
reads (its `noise_channels`: 8 of D for the analytic prior, all for an eps
prior); the rest, and a masked step's reference row, which the chain's
kept block overwrites, get a gradient of exactly zero and never move. An
evaluation is one world-space state from noise to loss: the Adam variable
goes into the prior's chain, one tape node of world frames on the frames
the penalties read (`PenaltyConfig.frames_read`), whose rows they read.
Previously generated sequences are never modified: later steps read them
as constants.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .diffusion import DiffusionSchedule, FrameMask, Kept, inpaint_kept, \
    masked_kept
from .motion import N_FRAMES_MAX, MotionSequence, NormalizationStats, \
    Skeleton, normalize, repair_velocities
from .penalties import SUBJECTS, PenaltyConfig, Row, aggregate
from .scripts import InteractionLabel


@dataclass
class OptimizerConfig:
    lr: float = 0.003
    max_steps: int = 100
    early_stop_loss: float = 1e-6
    lr_decay: float = 1.0          # multiplicative per step; 1.0 = constant

    def __post_init__(self):
        if not 0 < self.lr < np.inf:
            raise ValueError("OptimizerConfig: lr must be positive and finite")
        if self.max_steps < 1:
            raise ValueError("OptimizerConfig: max_steps must be >= 1")
        if not (0.0 < self.lr_decay <= 1.0):
            raise ValueError("OptimizerConfig: lr_decay must be in (0, 1]")


@dataclass
class SceneStep:
    target: int                    # person id being generated
    reference: int                 # pivot person id (== target for step 1 slot)
    label: InteractionLabel
    opt_subset: tuple[int, ...] = ()     # already-generated ids in the loss
    penalties: tuple[PenaltyConfig, ...] = ()


@dataclass
class ExtensionSegment:
    window: int                    # frames in the new window
    kept: int                      # leading frames clamped to the references
    pairs: tuple[tuple[int, int, InteractionLabel], ...]
    penalties: tuple[PenaltyConfig, ...] = ()   # besides the boundary term
    boundary_frames: int = 25
    boundary_weight: float = 1.0
    mode: str = "noised"


@dataclass
class SceneSpec:
    participants: tuple[int, ...]
    first_label: InteractionLabel
    first_penalties: tuple[PenaltyConfig, ...] = ()
    steps: tuple[SceneStep, ...] = ()              # persons 3..M
    extension: tuple[ExtensionSegment, ...] = ()
    seed: int = 0
    n_frames: int = 32

    def __post_init__(self):
        if len(self.participants) < 2:
            raise ValueError("SceneSpec: need at least two participants")
        if not 2 <= self.n_frames <= N_FRAMES_MAX:
            raise ValueError(f"SceneSpec: n_frames must be in [2, "
                             f"{N_FRAMES_MAX}], got {self.n_frames!r}")
        generated = set(self.participants[:2])
        _check_penalties(_default_pair_subjects(self.first_penalties,
                                                *self.participants[:2]),
                         generated, self.n_frames, "first pair")
        for step in self.steps:
            if step.reference not in generated:
                raise ValueError(
                    f"SceneSpec: reference {step.reference} not yet generated "
                    f"when adding {step.target}")
            if not set(step.opt_subset) <= generated:
                raise ValueError("SceneSpec: opt_subset contains ungenerated ids")
            # the step's loss sees only opt_subset and the new person
            _check_penalties(step.penalties,
                             set(step.opt_subset) | {step.target},
                             self.n_frames, f"step adding {step.target}")
            generated.add(step.target)
        if set(self.participants) != generated:
            raise ValueError("SceneSpec: steps do not cover the participants")
        check_segments(self.extension, dict.fromkeys(generated, self.n_frames))


def _check_penalties(penalties, allowed: set, n_frames: int,
                     where: str) -> None:
    for cfg in penalties:
        if not cfg.subjects or not set(cfg.subjects) <= allowed:
            raise ValueError(
                f"{where}: {cfg.kind} penalty subjects {list(cfg.subjects)} "
                f"must be non-empty and among {sorted(allowed)}")
        cfg.check_frames(n_frames)


def check_segments(segments, frames: dict) -> None:
    """Raise ValueError unless every extension segment fits a scene of
    `frames`, person id -> frame count: at least one kept frame, no more
    than each of its persons has by then (a segment adds window - kept to
    each), and a window longer than the kept block, each person in at most
    one pair, extra penalties whose subjects lie within one pair, and each
    pair's penalties, its seam terms included, fitting the window."""
    frames = dict(frames)
    for si, seg in enumerate(segments):
        if seg.mode not in ("noised", "literal"):
            raise ValueError(f"extension segment {si}: unknown mode "
                             f"{seg.mode!r}")
        if not 1 <= seg.kept < seg.window <= N_FRAMES_MAX:
            raise ValueError(f"extension segment {si}: window must exceed "
                             f"kept >= 1 frames and be <= {N_FRAMES_MAX}")
        covered = [p for pair in seg.pairs for p in pair[:2]]
        if len(covered) != len(set(covered)):
            raise ValueError(
                f"extension segment {si}: a person appears in two pairs")
        if not set(covered) <= set(frames):
            raise ValueError(f"extension segment {si}: pairs name persons "
                             f"outside {sorted(frames)}")
        for p in covered:
            if seg.kept > frames[p]:
                raise ValueError(f"extension segment {si}: kept {seg.kept} "
                                 f"frames, but person {p} has {frames[p]}")
            frames[p] += seg.window - seg.kept
        pairs = [{a, b} for a, b, _ in seg.pairs]
        for cfg in seg.penalties:
            if cfg.subjects and not any(set(cfg.subjects) <= p for p in pairs):
                raise ValueError(
                    f"extension segment {si}: {cfg.kind} penalty subjects "
                    f"{list(cfg.subjects)} must lie within one of its pairs "
                    f"{[sorted(p) for p in pairs]}")
        for a, b, _ in seg.pairs:
            _check_penalties(_pair_penalties(seg, a, b), {a, b}, seg.window,
                             f"extension segment {si}")


@dataclass
class StepRecord:
    person: int
    losses: list = field(default_factory=list)       # per-evaluation total
    breakdowns: list = field(default_factory=list)   # per-evaluation LossBreakdown
    best_loss: float = float("inf")
    evaluations: int = 0
    wall_seconds: float = 0.0


@dataclass
class CompositionResult:
    sequences: dict                 # person id -> MotionSequence
    records: list = field(default_factory=list)
    seed: int = 0


class OptimizationDiverged(RuntimeError):
    def __init__(self, msg, breakdown=None):
        super().__init__(msg)
        self.breakdown = breakdown


def optimize_noise(objective, x_init: np.ndarray, config: OptimizerConfig):
    """Adam on the initial noise. `objective(x: Var) -> (loss Var, breakdown)`.

    Returns (best x seen, StepRecord). Stops early once an evaluation's
    total loss drops below `early_stop_loss`; the reported noise is always
    the best-so-far iterate, not the last one.
    """
    record = StepRecord(person=-1)
    t0 = time.perf_counter()
    x = np.array(x_init, dtype=np.float64)
    best_x = x.copy()
    opt = ad.Adam([x.shape], lr=config.lr)

    def evaluate(arr):
        var = ad.Var(arr)
        loss, breakdown = objective(var)
        val = float(loss.value)
        if not np.isfinite(val):
            raise OptimizationDiverged("loss became non-finite", breakdown)
        record.losses.append(val)
        record.breakdowns.append(breakdown)
        record.evaluations += 1
        return var, loss, val

    var, loss, val = evaluate(x)
    record.best_loss = val
    for _ in range(config.max_steps):
        if val < config.early_stop_loss:
            break
        (g,) = ad.grad(loss, [var])
        if not np.all(np.isfinite(g)):
            raise OptimizationDiverged("gradient became non-finite",
                                       record.breakdowns[-1])
        (x,) = opt.step([x], [g])
        opt.lr *= config.lr_decay
        var, loss, val = evaluate(x)
        if val < record.best_loss:
            record.best_loss = val
            best_x = x.copy()
    record.wall_seconds = time.perf_counter() - t0
    return best_x, record


class Composer:
    """Binds a prior, schedule, normalization stats and optimizer config.
    The prior must normalize with the same stats."""

    def __init__(self, prior, schedule: DiffusionSchedule,
                 stats: NormalizationStats, skeleton: Skeleton,
                 opt_config: OptimizerConfig, fps: float = 20.0):
        if prior.stats != stats:
            raise ValueError("Composer: the prior's stats are not the "
                             "composer's")
        self.prior = prior
        self.schedule = schedule
        self.stats = stats
        self.skeleton = skeleton
        self.opt = opt_config
        self.fps = fps

    # seeds: one master seed expands to independent substreams per step so
    # adding a person never perturbs earlier draws
    @staticmethod
    def _substream(seed: int, *key) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence((seed,) + key))

    def _sequence(self, frames: np.ndarray, person_id: int) -> MotionSequence:
        return repair_velocities(MotionSequence(
            self.skeleton, frames, fps=self.fps, person_id=person_id))

    def _optimize_and_sample(self, label, xT, persons, pens, kept: Kept,
                             fixed=None):
        """Adam on the pair's (2, N, D) noise `xT` against `pens` over
        `fixed` world frames plus the chain's world frames under the `kept`
        block, row i for persons[i]. Without penalties, one sample from
        `xT`. Returns the world frames sampled from the best noise and the
        StepRecord of persons[0].

        Adam steps only the channels of `xT` that the prior's chain reads
        (its `noise_channels`); the others, and the kept block's, would get
        a gradient of exactly zero and so keep their values. The chain runs
        on the frames the penalties read; unless those are all, the best
        noise is sampled once more."""
        xT, N = xT[:, :, self.prior.noise_channels], xT.shape[1]
        if not pens:
            out = self.prior.chain(self.schedule, ad.constant(xT), label, kept)
            return out.value, StepRecord(person=persons[0])
        reads = [r for cfg in pens if (r := cfg.frames_read(N))]
        frames = slice(min((r.start for r in reads), default=0),
                       max((r.stop for r in reads), default=N))
        full = frames == slice(0, N)
        best = {}

        def objective(var):
            out = self.prior.chain(self.schedule, var, label, kept, frames)
            world = dict(fixed or {})
            world.update((pid, Row(out, i)) for i, pid in enumerate(persons))
            loss, breakdown = aggregate(pens, world, self.skeleton)
            # optimize_noise's best iterate: the first evaluation or one
            # strictly lower; only the values are kept, not the tape
            if full and (not best or float(loss.value) < best["loss"]):
                best.update(loss=float(loss.value), values=out.value)
            return loss, breakdown

        best_x, rec = optimize_noise(objective, xT, self.opt)
        rec.person = persons[0]
        if not full:
            best["values"] = self.prior.chain(
                self.schedule, ad.constant(best_x), label, kept).value
        return best["values"], rec

    def generate_first_pair(self, spec: SceneSpec):
        """Algorithm: draw both persons' initial noise, optimize the stacked
        noise jointly through the coupled sampler, keep the sample of the
        best iterate. The reported loss is that sample's own loss."""
        p1, p2 = spec.participants[:2]
        N, D = spec.n_frames, self.skeleton.D
        rng1 = self._substream(spec.seed, 0, p1)
        rng2 = self._substream(spec.seed, 0, p2)
        xT = np.stack([rng1.standard_normal((N, D)),
                       rng2.standard_normal((N, D))])
        world, rec = self._optimize_and_sample(
            spec.first_label, xT, (p1, p2),
            _default_pair_subjects(spec.first_penalties, p1, p2),
            Kept.none(xT.shape))
        return {p1: self._sequence(world[0], p1),
                p2: self._sequence(world[1], p2)}, [rec]

    def add_person(self, step: SceneStep, sequences: dict, seed: int):
        """Optimize the new person's noise through the masked sampler and
        keep the sample of the best iterate. Existing sequences are
        constants."""
        N, D = next(iter(sequences.values())).N, self.skeleton.D
        ref_norm = normalize(sequences[step.reference].frames, self.stats)
        rng = self._substream(seed, 0, step.target)
        xT = np.stack([rng.standard_normal((N, D)), ref_norm])
        mask_seed = int(self._substream(seed, 1, step.target).integers(2**31))
        world, rec = self._optimize_and_sample(
            step.label, xT, (step.target,), step.penalties,
            masked_kept(self.schedule, (N, D), ref_norm, mask_seed),
            fixed={i: sequences[i].frames for i in step.opt_subset})
        return self._sequence(world[0], step.target), rec

    def compose(self, spec: SceneSpec) -> CompositionResult:
        sequences, records = self.generate_first_pair(spec)
        for step in spec.steps:
            before = {i: s.frames.tobytes() for i, s in sequences.items()}
            seq, rec = self.add_person(step, sequences, spec.seed)
            for i, h in before.items():
                assert sequences[i].frames.tobytes() == h, \
                    f"history mutated for person {i}"
            sequences[step.target] = seq
            records.append(rec)
        result = CompositionResult(sequences=sequences, records=records,
                                   seed=spec.seed)
        if spec.extension:
            result = self.extend(result, spec.extension, spec.seed)
        return result

    def extend(self, result: CompositionResult, segments, seed: int):
        """Inpainting-based extension; per segment, each listed pair is
        jointly re-sampled over a fresh window whose first `kept` frames are
        clamped to the tail of the current sequences."""
        check_segments(segments, {p: s.N for p, s in result.sequences.items()})
        sequences = dict(result.sequences)
        records = list(result.records)
        for si, seg in enumerate(segments):
            new_tails = {}
            for pi, (a, b, label) in enumerate(seg.pairs):
                kept_pair = [normalize(sequences[pid].frames[-seg.kept:],
                                       self.stats) for pid in (a, b)]
                rng = self._substream(seed, 2, si, pi)
                xT = rng.standard_normal((2, seg.window, self.skeleton.D))
                zseed = int(self._substream(seed, 3, si, pi).integers(2**31))
                kept = inpaint_kept(self.schedule, xT.shape, kept_pair,
                                    FrameMask(seg.window, seg.kept), zseed,
                                    seg.mode)
                world, rec = self._optimize_and_sample(
                    label, xT, (a, b), _pair_penalties(seg, a, b), kept)
                records.append(rec)
                new_tails[a], new_tails[b] = world[:, seg.kept:]
            # persons not listed in any pair keep their current sequences
            for pid, tail in new_tails.items():
                frames = np.concatenate([sequences[pid].frames, tail], axis=0)
                seq = MotionSequence(self.skeleton, frames,
                                     fps=sequences[pid].fps, person_id=pid)
                sequences[pid] = repair_velocities(seq)
        return CompositionResult(sequences=sequences, records=records,
                                 seed=result.seed)


def _default_pair_subjects(pens, p1, p2):
    """First pair: terms with empty subjects act on both persons, pair
    kinds as one (p1, p2) term and single-person kinds as one term each."""
    out = []
    for cfg in pens:
        if cfg.subjects:
            out.append(cfg)
        elif SUBJECTS[cfg.kind][0] == 2:
            out.append(PenaltyConfig(cfg.kind, cfg.weight, (p1, p2),
                                     cfg.frames, cfg.params))
        else:
            for pid in (p1, p2):
                out.append(PenaltyConfig(cfg.kind, cfg.weight, (pid,),
                                         cfg.frames, cfg.params))
    return tuple(out)


def _pair_penalties(seg, a, b):
    """The penalties of extension segment `seg` on its pair (a, b): its own
    that the pair's subjects hold or that have none (acting as first-pair
    ones do), then a boundary term per person from one frame before the
    seam, whose centered acceleration reads the first generated frame."""
    own = [cfg for cfg in seg.penalties if set(cfg.subjects) <= {a, b}]
    return _default_pair_subjects(own, a, b) + tuple(
        PenaltyConfig("boundary", seg.boundary_weight, (pid,),
                      params={"window_start": seg.kept - 1,
                              "window_len": seg.boundary_frames})
        for pid in (a, b))
