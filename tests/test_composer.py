"""Composition orchestration: optimizer loop contracts, sequential
generation, history immutability, extension plumbing."""

import numpy as np
import pytest

from groupmotion import autodiff as ad
from groupmotion import composer
from groupmotion.composer import (Composer, CompositionResult,
                                  ExtensionSegment, OptimizationDiverged,
                                  OptimizerConfig, SceneSpec, SceneStep,
                                  optimize_noise)
from groupmotion.diffusion import (FrameMask, Kept, ddim_sample,
                                   inpaint_extend, inpaint_kept, masked_kept)
from groupmotion.motion import NormalizationStats, denormalize, normalize
from groupmotion.penalties import (LossBreakdown, PenaltyConfig, aggregate,
                                   root_penalty)
from groupmotion.priors import AnalyticPrior, MLPPrior
from groupmotion.scripts import label_by_name

import tape_ops as to
from conftest import ZeroPrior


def make_composer(analytic_prior, small_schedule, stats, skeleton, **kw):
    opt = OptimizerConfig(**{"max_steps": 8, **kw})
    return Composer(analytic_prior, small_schedule, stats, skeleton, opt)


def pair_spec(n_frames=12, seed=3, penalties=(), label="approach"):
    return SceneSpec(participants=(1, 2), first_label=label_by_name(label),
                     first_penalties=tuple(penalties), seed=seed,
                     n_frames=n_frames)


# -- optimize_noise ---------------------------------------------------------------


def test_early_stop_on_zero_objective():
    def objective(x):
        return to.sum_(x * 0.0), LossBreakdown.empty()

    x0 = np.ones((4, 4))
    best, rec = optimize_noise(objective, x0, OptimizerConfig(max_steps=50))
    assert rec.evaluations == 1
    assert np.array_equal(best, x0)


def test_max_steps_cap_and_curve_length():
    def objective(x):
        loss = to.sum_(x * x) + 1.0  # never reaches early stop
        return loss, LossBreakdown.empty()

    _, rec = optimize_noise(objective, np.ones(3),
                            OptimizerConfig(max_steps=10))
    assert rec.evaluations == 11  # init + one per step
    assert len(rec.breakdowns) == rec.evaluations


def test_best_so_far_is_min_of_curve():
    rng = np.random.default_rng(0)
    c = rng.standard_normal(6)

    def objective(x):
        # oscillation-prone: steep quadratic
        d = x - ad.constant(c)
        return 40.0 * to.sum_(d * d), LossBreakdown.empty()

    best, rec = optimize_noise(objective, np.zeros(6),
                               OptimizerConfig(lr=0.3, max_steps=40))
    assert np.isclose(rec.best_loss, min(rec.losses))
    re_eval = 40.0 * float(np.sum((best - c) ** 2))
    assert np.isclose(re_eval, rec.best_loss)


def test_nan_loss_aborts_with_breakdown():
    marker = LossBreakdown(float("nan"), {"here": 1.0}, {})

    def objective(x):
        return to.sum_(x) * float("nan"), marker

    with pytest.raises(OptimizationDiverged) as exc:
        optimize_noise(objective, np.ones(2), OptimizerConfig())
    assert exc.value.breakdown is marker


def test_zero_prior_root_projection_oracle(stats, skeleton, small_schedule):
    """The zero prior makes the sampler affine (x_0 = x_T / sqrt(ab_T)), so
    optimizing a root penalty is a solvable quadratic: the optimized output
    root must land on the target."""
    lab = label_by_name("approach")
    prior = ZeroPrior(small_schedule, skeleton.D)
    N = 6
    rng = np.random.default_rng(1)
    xT0 = rng.standard_normal((N, skeleton.D)) * 0.1
    target = denormalize(xT0 / np.sqrt(small_schedule.alpha_bar(
        small_schedule.t_train)), stats)[0, :3] + np.array([0.2, 0.0, -0.15])

    def objective(v):
        o1, _ = ddim_sample(prior, small_schedule, (v, ad.constant(xT0)), lab)
        world = denormalize(o1, stats)
        loss = root_penalty(world, [target], [0], delta=0.0)
        return loss, LossBreakdown.empty()

    best, rec = optimize_noise(
        objective, xT0, OptimizerConfig(lr=0.05, max_steps=300,
                                        early_stop_loss=1e-10))
    o1, _ = ddim_sample(prior, small_schedule,
                        (ad.constant(best), ad.constant(xT0)), lab)
    root = denormalize(o1.value, stats)[0, :3]
    assert np.linalg.norm(root - target) < 1e-3


# -- first pair ---------------------------------------------------------------------


def test_compose_m2_reduces_to_first_pair(analytic_prior, small_schedule,
                                          stats, skeleton):
    comp = make_composer(analytic_prior, small_schedule, stats, skeleton)
    spec = pair_spec()
    res = comp.compose(spec)
    seqs, _ = comp.generate_first_pair(spec)
    for pid in (1, 2):
        assert np.array_equal(res.sequences[pid].frames, seqs[pid].frames)


def chain_sample(prior, schedule, xT, label, kept):
    """The world frames of the prior's chain from the full-width noise
    `xT`, with no gradient."""
    return prior.chain(schedule, ad.constant(xT[..., prior.noise_channels]),
                       label, kept).value


def test_no_penalties_equals_plain_sample(analytic_prior, small_schedule,
                                          stats, skeleton):
    comp = make_composer(analytic_prior, small_schedule, stats, skeleton)
    spec = pair_spec(seed=9)
    seqs, recs = comp.generate_first_pair(spec)
    # replicate the seeded noise draws and sample directly
    N, D = spec.n_frames, skeleton.D
    xT1 = Composer._substream(9, 0, 1).standard_normal((N, D))
    xT2 = Composer._substream(9, 0, 2).standard_normal((N, D))
    world = chain_sample(analytic_prior, small_schedule,
                         np.stack([xT1, xT2]), spec.first_label,
                         Kept.none((2, N, D)))
    from groupmotion.motion import MotionSequence, repair_velocities
    for pid, w in zip((1, 2), world):
        want = repair_velocities(MotionSequence(skeleton, w))
        assert np.array_equal(seqs[pid].frames, want.frames)
    assert all(r.evaluations == 0 for r in recs)


def test_compose_deterministic(analytic_prior, small_schedule, stats,
                               skeleton):
    comp = make_composer(analytic_prior, small_schedule, stats, skeleton)
    pen = PenaltyConfig("overlap", 1.0, (1, 2), params={"delta": 0.3})
    r1 = comp.compose(pair_spec(penalties=[pen], label="close-approach"))
    r2 = comp.compose(pair_spec(penalties=[pen], label="close-approach"))
    for pid in (1, 2):
        assert r1.sequences[pid].frames.tobytes() == \
            r2.sequences[pid].frames.tobytes()


def test_first_pair_refinement_runs_when_violated(analytic_prior,
                                                  small_schedule, stats,
                                                  skeleton):
    comp = make_composer(analytic_prior, small_schedule, stats, skeleton)
    pen = PenaltyConfig("overlap", 1.0, (1, 2), params={"delta": 0.3})
    spec = pair_spec(penalties=[pen], label="close-approach", seed=5)
    seqs, recs = comp.generate_first_pair(spec)
    assert any(r.evaluations > 0 for r in recs)
    assert len(recs) == 1
    # joint optimization: the reported best loss is the loss of the
    # regenerated pair, not a surrogate
    assert recs[0].best_loss == min(recs[0].losses)


# sampler -> (the persons, the kept block), from the composer, the kept
# frames of an extension and the (N, D) reference of a masked sample
SAMPLES = {
    "ddim": lambda comp, kept, ref: ((1, 2), Kept.none((2,) + ref.shape)),
    "masked": lambda comp, kept, ref: ((1,), masked_kept(
        comp.schedule, ref.shape, ref, 4)),
    "inpaint": lambda comp, kept, ref: ((1, 2), inpaint_kept(
        comp.schedule, (2,) + ref.shape, kept, FrameMask(12, 4), 5)),
}


@pytest.mark.parametrize("mlp", [False, True], ids=["analytic", "mlp"])
@pytest.mark.parametrize("name", SAMPLES)
def test_kept_values_equal_fresh_sample_from_best_noise(
        name, mlp, analytic_prior, small_schedule, stats, skeleton,
        monkeypatch):
    """The output values kept from the best evaluation, here the third of
    seven, equal, bit for bit, a fresh sample from the best noise with no
    gradient: the best iterate of the prior's `noise_channels` of the
    pair's rows, put back into `xT`."""
    prior = MLPPrior(small_schedule, stats, 7, hidden=8) if mlp \
        else analytic_prior
    comp = Composer(prior, small_schedule, stats, skeleton,
                    OptimizerConfig(lr=0.05, max_steps=6,
                                    early_stop_loss=1e-12))
    rng = np.random.default_rng(47)
    kept = [rng.standard_normal((4, skeleton.D)) * 0.2 for _ in range(2)]
    ref = rng.standard_normal((12, skeleton.D)) * 0.3
    xT = rng.standard_normal((2, 12, skeleton.D))
    persons, kept = SAMPLES[name](comp, kept, ref)
    if name == "masked":
        xT[1] = ref
    label = label_by_name("close-approach")
    pens = [PenaltyConfig("region", 1.0, (p,),
                          params={"lower": [-0.2, -1.0, -0.2],
                                  "upper": [0.2, 3.0, 0.2]})
            for p in persons]
    # the third evaluation's loss scaled down, so that it is the best
    scales = iter([1.0, 1.0, 1e-3] + [1.0] * 4)
    found = []

    def scaled(*args):
        loss, breakdown = aggregate(*args)
        return loss * next(scales), breakdown

    def recording(*args):
        found.append(optimize_noise(*args))
        return found[-1]

    monkeypatch.setattr(composer, "aggregate", scaled)
    monkeypatch.setattr(composer, "optimize_noise", recording)
    values, rec = comp._optimize_and_sample(label, xT, persons, pens, kept)
    (best_x, _), = found
    assert int(np.argmin(rec.losses)) == 2 and rec.evaluations == 7
    best_noise = xT.copy()
    best_noise[:, :, prior.noise_channels] = best_x
    fresh = chain_sample(prior, small_schedule, best_noise, label, kept)
    assert np.array_equal(values, fresh)


@pytest.mark.parametrize("mlp", [False, True], ids=["analytic", "mlp"])
def test_masked_reference_row_never_moves(mlp, analytic_prior, small_schedule,
                                          stats, skeleton, monkeypatch):
    """A masked step's Adam state is the pair's whole noise on the prior's
    `noise_channels`. Its reference row is the kept block, so at every
    evaluation its gradient is exactly 0.0 and it equals `xT[1]` on those
    channels bit for bit, while the target row moves."""
    prior = MLPPrior(small_schedule, stats, 7, hidden=8) if mlp \
        else analytic_prior
    comp = Composer(prior, small_schedule, stats, skeleton,
                    OptimizerConfig(lr=0.05, max_steps=6,
                                    early_stop_loss=1e-12))
    rng = np.random.default_rng(53)
    ref = rng.standard_normal((12, skeleton.D)) * 0.3
    xT = np.stack([rng.standard_normal((12, skeleton.D)), ref])
    kept = masked_kept(small_schedule, ref.shape, ref, 4)
    pens = [PenaltyConfig("region", 1.0, (1,),
                          params={"lower": [-0.2, -1.0, -0.2],
                                  "upper": [0.2, 3.0, 0.2]})]
    states, grads = [], []

    def recording(objective, x_init, config):
        def traced(var):
            loss, breakdown = objective(var)
            states.append(var.value.copy())
            grads.append(ad.grad(loss, [var])[0])
            return loss, breakdown
        return optimize_noise(traced, x_init, config)

    monkeypatch.setattr(composer, "optimize_noise", recording)
    comp._optimize_and_sample(label_by_name("close-approach"), xT, (1,), pens,
                              kept)
    want = xT[1][:, prior.noise_channels]
    assert len(states) == 7
    for x, g in zip(states, grads):
        assert x.shape == (2,) + want.shape
        assert np.array_equal(x[1], want)
        assert np.array_equal(g[1], np.zeros_like(want)) and g[0].any()
    assert not np.array_equal(states[-1][0], states[0][0])


@pytest.mark.parametrize("mlp", [False, True], ids=["analytic", "mlp"])
def test_restricted_noise_compose_byte_identical(mlp, small_schedule, stats,
                                                 skeleton, monkeypatch):
    """Adam over the prior's `noise_channels` alone gives the bytes and
    losses of Adam over every channel of a chain that reads them all and
    passes the prior's on (`FullWidth`): first pair, added person, and
    extension segments in noised and literal modes."""
    prior = MLPPrior(small_schedule, stats, 7, hidden=8, seed=3) if mlp \
        else AnalyticPrior(small_schedule, stats, skeleton)

    def root(pid, x):
        return PenaltyConfig("root", 1.0, (pid,), frames=(11,),
                             params={"targets": [[x, 0.0, 1.0]]})

    spec = SceneSpec(
        participants=(1, 2, 3), first_label=label_by_name("close-approach"),
        first_penalties=(root(1, 2.0),), n_frames=12, seed=4,
        steps=(SceneStep(3, 1, label_by_name("approach"), (1, 2),
                         (root(3, -2.0),)),),
        extension=(
            ExtensionSegment(14, 6, ((1, 2, label_by_name("face-and-talk")),),
                             penalties=(root(1, 1.0),), boundary_frames=5),
            ExtensionSegment(12, 4, ((3, 1, label_by_name("approach")),),
                             boundary_frames=5, mode="literal")))
    widths = []

    def recording(objective, x, config):
        widths.append(x.shape[-1])
        return optimize_noise(objective, x, config)

    monkeypatch.setattr(composer, "optimize_noise", recording)
    runs = [Composer(p, small_schedule, stats, skeleton,
                     OptimizerConfig(lr=0.03, max_steps=6)).compose(spec)
            for p in (prior, FullWidth(prior))]
    assert widths == [skeleton.D if mlp else 8] * 4 + [skeleton.D] * 4
    for pid in (1, 2, 3):
        assert runs[0].sequences[pid].frames.tobytes() == \
            runs[1].sequences[pid].frames.tobytes()
    assert [r.losses for r in runs[0].records] == \
        [r.losses for r in runs[1].records]
    assert all(r.evaluations == 7 for r in runs[0].records)


def test_early_stop_at_first_evaluation_samples_once(
        analytic_prior, small_schedule, stats, skeleton, monkeypatch):
    """A compose that stops at its first evaluation runs the sampler once:
    the kept values are that evaluation's, with no second sample."""
    prior = RecordingPrior(analytic_prior)
    comp = make_composer(prior, small_schedule, stats, skeleton,
                         early_stop_loss=1e9)
    pen = PenaltyConfig("overlap", 1.0, (1, 2), params={"delta": 0.3})
    res = comp.compose(pair_spec(penalties=[pen], label="close-approach"))
    assert res.records[0].evaluations == 1 and len(prior.labels) == 1


# -- scene validation ------------------------------------------------------------------


def test_scene_spec_validation():
    lab = label_by_name("approach")
    with pytest.raises(ValueError, match="two participants"):
        SceneSpec(participants=(1,), first_label=lab)
    with pytest.raises(ValueError, match="not yet generated"):
        SceneSpec(participants=(1, 2, 3, 4), first_label=lab,
                  steps=(SceneStep(target=3, reference=4, label=lab),
                         SceneStep(target=4, reference=1, label=lab)))
    with pytest.raises(ValueError, match="opt_subset"):
        SceneSpec(participants=(1, 2, 3), first_label=lab,
                  steps=(SceneStep(target=3, reference=1, label=lab,
                                   opt_subset=(7,)),))
    with pytest.raises(ValueError, match="cover"):
        SceneSpec(participants=(1, 2, 3), first_label=lab)


def test_optimizer_config_validation():
    with pytest.raises(ValueError, match="lr"):
        OptimizerConfig(lr=0.0)
    with pytest.raises(ValueError, match="max_steps"):
        OptimizerConfig(max_steps=0)
    with pytest.raises(ValueError, match="lr_decay"):
        OptimizerConfig(lr_decay=0.0)
    with pytest.raises(ValueError, match="lr_decay"):
        OptimizerConfig(lr_decay=1.5)


def test_optimizer_lr_decay_shrinks_steps():
    # with decay d, total travel is bounded by lr / (1 - d); a far-away
    # minimum must stay out of reach while the undecayed run gets closer
    def objective(v):
        d = v - 10.0
        return to.sum_(d * d), None

    x0 = np.zeros(1)
    cfg = OptimizerConfig(lr=0.1, max_steps=50, lr_decay=0.5)
    best, _ = optimize_noise(objective, x0, cfg)
    assert abs(best[0]) <= 0.1 / (1.0 - 0.5) + 1e-9
    plain, _ = optimize_noise(
        objective, x0, OptimizerConfig(lr=0.1, max_steps=50))
    assert plain[0] > best[0]


# -- add_person ---------------------------------------------------------------------


def three_person_spec(seed=4, with_penalty=True):
    lab = label_by_name("approach")
    pens = ()
    if with_penalty:
        pens = (PenaltyConfig("overlap", 1.0, (3, 1, 2),
                              params={"delta": 0.3}),)
    return SceneSpec(
        participants=(1, 2, 3), first_label=lab,
        steps=(SceneStep(target=3, reference=1,
                         label=label_by_name("face-and-talk"),
                         opt_subset=(1, 2) if with_penalty else (),
                         penalties=pens),),
        seed=seed, n_frames=12)


def test_add_person_history_immutable(analytic_prior, small_schedule, stats,
                                      skeleton):
    comp = make_composer(analytic_prior, small_schedule, stats, skeleton)
    spec = three_person_spec()
    pair, _ = comp.generate_first_pair(spec)
    before = {i: s.frames.tobytes() for i, s in pair.items()}
    comp.add_person(spec.steps[0], pair, spec.seed)
    for i, h in before.items():
        assert pair[i].frames.tobytes() == h


def test_add_person_no_penalty_equals_masked_sample(analytic_prior,
                                                    small_schedule, stats,
                                                    skeleton):
    comp = make_composer(analytic_prior, small_schedule, stats, skeleton)
    spec = three_person_spec(with_penalty=False)
    pair, _ = comp.generate_first_pair(spec)
    seq, rec = comp.add_person(spec.steps[0], pair, spec.seed)
    assert rec.evaluations == 0
    # replicate the seeded draw and the masked sampler directly
    xT = Composer._substream(spec.seed, 0, 3).standard_normal(
        (12, skeleton.D))
    mask_seed = int(Composer._substream(spec.seed, 1, 3).integers(2 ** 31))
    ref = normalize(pair[1].frames, stats)
    world = chain_sample(analytic_prior, small_schedule, np.stack([xT, ref]),
                         spec.steps[0].label,
                         masked_kept(small_schedule, ref.shape, ref,
                                     mask_seed))
    from groupmotion.motion import MotionSequence, repair_velocities
    want = repair_velocities(MotionSequence(skeleton, world[0]))
    assert np.array_equal(seq.frames, want.frames)


def test_compose_three_persons(analytic_prior, small_schedule, stats,
                               skeleton):
    comp = make_composer(analytic_prior, small_schedule, stats, skeleton)
    res = comp.compose(three_person_spec())
    assert sorted(res.sequences) == [1, 2, 3]
    assert all(np.isfinite(s.frames).all() for s in res.sequences.values())
    assert any(r.person == 3 for r in res.records)


# -- extension ----------------------------------------------------------------------


class RecordingPrior:
    """Wraps a prior and logs the labels its chain runs with."""

    def __init__(self, inner):
        self.inner = inner
        self.noise_channels = inner.noise_channels
        self.stats = inner.stats
        self.labels = []

    def chain(self, schedule, x, label, kept, frames=slice(None)):
        self.labels.append(label.name)
        return self.inner.chain(schedule, x, label, kept, frames)


class FullWidth:
    """Wraps a prior to read every channel of x_T: its chain passes the
    prior's `noise_channels` on, so the others get a gradient of exactly
    zero."""

    noise_channels = slice(None)

    def __init__(self, inner):
        self.inner = inner
        self.stats = inner.stats

    def chain(self, schedule, x, label, kept, frames=slice(None)):
        return self.inner.chain(
            schedule, ad.take(x, (Ellipsis, self.inner.noise_channels)),
            label, kept, frames)



# -- frame windows ------------------------------------------------------------------


def last_frame_root(pid, N, x=2.0):
    return PenaltyConfig("root", 1.0, (pid,), frames=(N - 1,),
                         params={"targets": [[x, 0.88, 1.0]]})


def facing(pid, frames):
    return PenaltyConfig("orientation", 1.0, (pid,), frames=frames,
                         params={"targets": [[1.0, 0.0]] * len(frames),
                                 "delta": 0.0})


WINDOW_SPEC = SceneSpec(
    participants=(1, 2, 3), first_label=label_by_name("approach"),
    first_penalties=(last_frame_root(1, 12), facing(2, (8, 10))),
    steps=(SceneStep(3, 1, label_by_name("face-and-talk"),
                     penalties=(facing(3, (9,)),)),),
    extension=(ExtensionSegment(20, 6, ((1, 2, label_by_name("follow")),),
                                boundary_frames=5),
               ExtensionSegment(16, 4, ((3, 1, label_by_name("approach")),),
                                boundary_frames=4, mode="literal")),
    n_frames=12, seed=5)


@pytest.mark.parametrize("mlp", [False, True], ids=["analytic", "mlp"])
def test_narrow_windows_equal_full_window(mlp, small_schedule, stats,
                                          skeleton, monkeypatch):
    """Composes and extends whose penalties read a few frames (a root target
    at the last frame, orientation targets, extension seams) give the
    frames, losses and records of the same runs forced onto every frame,
    byte for byte. Each narrow optimisation runs the chain once per
    evaluation on its window, then once more on every frame."""
    prior = MLPPrior(small_schedule, stats, 7, hidden=8, seed=3) if mlp \
        else AnalyticPrior(small_schedule, stats, skeleton)
    chain, seen = type(prior).chain, []

    def recorded(self, schedule, x, label, kept, frames=slice(None)):
        seen.append(frames)
        return chain(self, schedule, x, label, kept, frames)

    monkeypatch.setattr(type(prior), "chain", recorded)
    runs = []
    for forced in (False, True):
        if forced:
            monkeypatch.setattr(PenaltyConfig, "frames_read",
                                lambda self, n: range(n))
        seen.clear()
        res = Composer(prior, small_schedule, stats, skeleton,
                       OptimizerConfig(lr=0.03, max_steps=6)).compose(
                           WINDOW_SPEC)
        windows = []
        for f in seen:
            if f != slice(None) and f not in windows:
                windows.append(f)
        evaluations = sum(r.evaluations for r in res.records)
        runs.append((res, windows, len(seen) - evaluations))
    (narrow, windows, extra), (full, full_windows, full_extra) = runs
    assert windows == [slice(8, 12), slice(9, 10), slice(4, 11),
                       slice(2, 8)]
    assert full_windows == [slice(0, 12), slice(0, 20), slice(0, 16)]
    assert extra == len(narrow.records) == 4 and full_extra == 0
    for pid in (1, 2, 3):
        assert narrow.sequences[pid].frames.tobytes() == \
            full.sequences[pid].frames.tobytes()
    for a, b in zip(narrow.records, full.records):
        assert (a.person, a.losses, a.best_loss, a.evaluations) == \
            (b.person, b.losses, b.best_loss, b.evaluations)
        assert [x.terms for x in a.breakdowns] == \
            [x.terms for x in b.breakdowns]


def test_narrow_window_samples_once_more(analytic_prior, small_schedule,
                                         stats, skeleton):
    """An optimisation on a window narrower than the sequence runs the
    chain exactly once more than it evaluates: the sample of its best
    noise on every frame."""
    prior = RecordingPrior(analytic_prior)
    comp = make_composer(prior, small_schedule, stats, skeleton)
    res = comp.compose(pair_spec(penalties=[last_frame_root(1, 12)]))
    assert len(prior.labels) == res.records[0].evaluations + 1


def test_under_declared_window_diverges(analytic_prior, small_schedule,
                                        stats, skeleton, monkeypatch):
    """A term that reads a frame off the declared window reads NaN, and the
    optimisation raises OptimizationDiverged."""
    monkeypatch.setattr(PenaltyConfig, "frames_read",
                        lambda self, n: range(0, 1))
    comp = make_composer(analytic_prior, small_schedule, stats, skeleton)
    with pytest.raises(OptimizationDiverged):
        comp.compose(pair_spec(penalties=[last_frame_root(1, 12)]))

def test_extend_appends_frames_and_preserves_prefix(analytic_prior,
                                                    small_schedule, stats,
                                                    skeleton):
    comp = make_composer(analytic_prior, small_schedule, stats, skeleton,
                         max_steps=3)
    res = comp.compose(pair_spec(seed=6))
    seg = ExtensionSegment(window=14, kept=6,
                           pairs=((1, 2, label_by_name("approach")),),
                           boundary_frames=5, boundary_weight=0.5)
    ext = comp.extend(res, [seg], seed=6)
    for pid in (1, 2):
        old, new = res.sequences[pid], ext.sequences[pid]
        assert new.N == old.N + (seg.window - seg.kept)
        J = skeleton.J
        # positions of the original frames are untouched by the extension
        assert np.array_equal(new.frames[:old.N, :3 * J],
                              old.frames[:, :3 * J])


def test_extend_switches_label(analytic_prior, small_schedule, stats,
                               skeleton):
    rec_prior = RecordingPrior(analytic_prior)
    comp = Composer(rec_prior, small_schedule, stats, skeleton,
                    OptimizerConfig(max_steps=2))
    res = comp.compose(pair_spec(seed=7))
    rec_prior.labels.clear()
    seg = ExtensionSegment(window=14, kept=6,
                           pairs=((1, 2, label_by_name("face-and-talk")),),
                           boundary_frames=5)
    comp.extend(res, [seg], seed=7)
    assert set(rec_prior.labels) == {"face-and-talk"}


@pytest.mark.parametrize("subjects,want", [
    ((), {1: [("overlap", (1, 2))], 3: [("overlap", (3, 4))]}),
    ((1, 2), {1: [("overlap", (1, 2))], 3: []}),
    ((4, 3), {1: [], 3: [("overlap", (4, 3))]}),
], ids=["no-subjects", "first-pair", "second-pair"])
def test_extend_two_pair_segment_penalties(analytic_prior, small_schedule,
                                           stats, skeleton, subjects, want):
    """In a segment of two pairs, a penalty without subjects is one term on
    each pair, and one with subjects acts on the pair that holds them."""
    comp = make_composer(analytic_prior, small_schedule, stats, skeleton,
                         max_steps=1)
    lab = label_by_name("approach")
    res = comp.compose(SceneSpec(
        participants=(1, 2, 3, 4), first_label=lab, seed=5, n_frames=12,
        steps=(SceneStep(3, 1, lab), SceneStep(4, 3, lab))))
    seg = ExtensionSegment(
        window=12, kept=6, boundary_frames=4,
        pairs=((1, 2, lab), (3, 4, label_by_name("follow"))),
        penalties=(PenaltyConfig("overlap", 1.0, subjects,
                                 params={"delta": 0.3}),))
    ext = comp.extend(res, [seg], seed=5)
    got = {rec.person: sorted(k[:2] for k in rec.breakdowns[0].terms)
           for rec in ext.records[-2:]}
    assert got == {a: sorted(want[a] + [("boundary", (a,)),
                                        ("boundary", (a + 1,))])
                   for a in (1, 3)}
    seg.penalties[0].subjects = (1, 3)
    with pytest.raises(ValueError, match="within one of its pairs"):
        comp.extend(res, [seg], seed=5)


def benchmark_objective(prior, schedule, stats, skeleton, sample, pens):
    """The objective `bench/workloads.py` rebuilds to check the composer's
    gradient: a sampler on the full-width rows (var[0], var[1]), each
    output row denormalized, then the penalties over a dict."""
    def objective(var):
        o1, o2 = sample(prior, schedule, (var[0, :, :], var[1, :, :]))
        world = {1: denormalize(o1, stats), 2: denormalize(o2, stats)}
        return aggregate(pens, world, skeleton)[0]
    return objective


def test_benchmark_objective_reproduces_first_loss(analytic_prior,
                                                   small_schedule, stats,
                                                   skeleton):
    """The benchmark's rebuilt objective gives the composer's first
    recorded loss to rtol 1e-12, for a penalised first pair and a literal
    extension: the samplers' normalized view, denormalized, is the chain's
    world state to rounding."""
    comp = make_composer(analytic_prior, small_schedule, stats, skeleton)
    lab = label_by_name("close-approach")
    pens = (PenaltyConfig("overlap", 1.0, (1, 2), params={"delta": 0.3}),
            PenaltyConfig("root", 1.0, (1,), frames=(11,),
                          params={"targets": [[1.0, 0.9, 2.0]]}))
    res = comp.compose(pair_spec(penalties=pens, label="close-approach",
                                 seed=5))
    xT = np.stack([Composer._substream(5, 0, p).standard_normal(
        (12, skeleton.D)) for p in (1, 2)])
    first = benchmark_objective(
        analytic_prior, small_schedule, stats, skeleton,
        lambda *a: ddim_sample(*a, lab), pens)(ad.Var(xT))
    assert np.isclose(float(first.value), res.records[0].losses[0],
                      rtol=1e-12, atol=0.0)

    seg = ExtensionSegment(window=16, kept=6, pairs=((1, 2, lab),),
                           boundary_frames=5, boundary_weight=1000.0,
                           mode="literal")
    ext = comp.extend(res, [seg], seed=5)
    kept = [normalize(res.sequences[p].frames[-6:], stats) for p in (1, 2)]
    xT = Composer._substream(5, 2, 0, 0).standard_normal((2, 16, skeleton.D))
    zseed = int(Composer._substream(5, 3, 0, 0).integers(2**31))
    first = benchmark_objective(
        analytic_prior, small_schedule, stats, skeleton,
        lambda *a: inpaint_extend(*a, kept, FrameMask(16, 6), lab, zseed,
                                  mode="literal"),
        composer._pair_penalties(seg, 1, 2))(ad.Var(xT))
    assert first.value > 0.0
    assert np.isclose(float(first.value), ext.records[-1].losses[0],
                      rtol=1e-12, atol=0.0)


def test_composer_rejects_prior_with_other_stats(small_schedule, stats,
                                                 skeleton):
    """The chain returns world frames under the prior's stats, so the
    composer, which normalizes references with its own, needs the same."""
    other = NormalizationStats(stats.mean + 0.5, stats.std)
    with pytest.raises(ValueError, match="stats"):
        Composer(AnalyticPrior(small_schedule, other, skeleton),
                 small_schedule, stats, skeleton, OptimizerConfig())
    Composer(AnalyticPrior(small_schedule, NormalizationStats(
        stats.mean.copy(), stats.std.copy()), skeleton), small_schedule,
        stats, skeleton, OptimizerConfig())


def test_extend_zero_length_plan(analytic_prior, small_schedule, stats,
                                 skeleton):
    comp = make_composer(analytic_prior, small_schedule, stats, skeleton)
    res = comp.compose(pair_spec(seed=8))
    same = comp.extend(res, [], seed=8)
    for pid in (1, 2):
        assert np.array_equal(same.sequences[pid].frames,
                              res.sequences[pid].frames)


def test_extend_rejects_duplicate_person(analytic_prior, small_schedule,
                                         stats, skeleton):
    comp = make_composer(analytic_prior, small_schedule, stats, skeleton)
    res = comp.compose(pair_spec(seed=2))
    lab = label_by_name("approach")
    seg = ExtensionSegment(window=14, kept=6,
                           pairs=((1, 2, lab), (2, 1, lab)))
    with pytest.raises(ValueError, match="two pairs"):
        comp.extend(res, [seg], seed=2)


def test_extend_rejects_bad_window(analytic_prior, small_schedule, stats,
                                   skeleton):
    comp = make_composer(analytic_prior, small_schedule, stats, skeleton)
    res = comp.compose(pair_spec(seed=2))
    seg = ExtensionSegment(window=6, kept=6,
                           pairs=((1, 2, label_by_name("approach")),))
    with pytest.raises(ValueError, match="exceed"):
        comp.extend(res, [seg], seed=2)
