"""Composition orchestration: optimizer loop contracts, sequential
generation, history immutability, extension plumbing."""

import numpy as np
import pytest

from groupmotion import autodiff as ad
from groupmotion.composer import (Composer, CompositionResult,
                                  ExtensionSegment, OptimizationDiverged,
                                  OptimizerConfig, SceneSpec, SceneStep,
                                  optimize_noise)
from groupmotion.diffusion import ddim_sample, masked_sample
from groupmotion.motion import denormalize, normalize
from groupmotion.penalties import LossBreakdown, PenaltyConfig, root_penalty
from groupmotion.scripts import label_by_name

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
        return ad.sum_(x * 0.0), LossBreakdown.empty()

    x0 = np.ones((4, 4))
    best, rec = optimize_noise(objective, x0, OptimizerConfig(max_steps=50))
    assert rec.evaluations == 1
    assert np.array_equal(best, x0)


def test_max_steps_cap_and_curve_length():
    def objective(x):
        loss = ad.sum_(x * x) + 1.0  # never reaches early stop
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
        return 40.0 * ad.sum_(d * d), LossBreakdown.empty()

    best, rec = optimize_noise(objective, np.zeros(6),
                               OptimizerConfig(lr=0.3, max_steps=40))
    assert np.isclose(rec.best_loss, min(rec.losses))
    re_eval = 40.0 * float(np.sum((best - c) ** 2))
    assert np.isclose(re_eval, rec.best_loss)


def test_nan_loss_aborts_with_breakdown():
    marker = LossBreakdown(float("nan"), {"here": 1.0}, {})

    def objective(x):
        return ad.sum_(x) * float("nan"), marker

    with pytest.raises(OptimizationDiverged) as exc:
        optimize_noise(objective, np.ones(2), OptimizerConfig())
    assert exc.value.breakdown is marker


def test_zero_prior_root_projection_oracle(stats, skeleton, small_schedule):
    """The zero prior makes the sampler affine (x_0 = x_T / sqrt(ab_T)), so
    optimizing a root penalty is a solvable quadratic: the optimized output
    root must land on the target."""
    lab = label_by_name("approach")
    prior = ZeroPrior(small_schedule)
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


def test_no_penalties_equals_plain_sample(analytic_prior, small_schedule,
                                          stats, skeleton):
    comp = make_composer(analytic_prior, small_schedule, stats, skeleton)
    spec = pair_spec(seed=9)
    seqs, recs = comp.generate_first_pair(spec)
    # replicate the seeded noise draws and sample directly
    N, D = spec.n_frames, skeleton.D
    xT1 = Composer._substream(9, 0, 1).standard_normal((N, D))
    xT2 = Composer._substream(9, 0, 2).standard_normal((N, D))
    o1, o2 = ddim_sample(analytic_prior, small_schedule,
                         (ad.constant(xT1), ad.constant(xT2)),
                         spec.first_label)
    from groupmotion.motion import MotionSequence, repair_velocities
    w1 = repair_velocities(MotionSequence(
        skeleton, denormalize(o1.value, stats)))
    assert np.array_equal(seqs[1].frames, w1.frames)
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
        return ad.sum_(d * d), None

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
    out = masked_sample(analytic_prior, small_schedule, ad.constant(xT),
                        normalize(pair[1].frames, stats),
                        spec.steps[0].label, mask_seed)
    from groupmotion.motion import MotionSequence, repair_velocities
    want = repair_velocities(MotionSequence(
        skeleton, denormalize(out.value, stats)))
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
    """Wraps a prior and logs the labels it is called with."""

    def __init__(self, inner):
        self.inner = inner
        self.labels = []

    def clean_estimate(self, x, t, label):
        self.labels.append(label.name)
        return self.inner.clean_estimate(x, t, label)


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
