"""Acceptance suite: one test per headline criterion.

Each test pins a full scenario (seeds, labels, penalty weights) and asserts
the behavioral claim at its stated tolerance, with a wall-clock budget where
one is part of the contract. Scenario constants are frozen so a pass is a
property of the code, not of a lucky draw.
"""

import json
import os
import time

import numpy as np
import pytest

from groupmotion import autodiff as ad
from groupmotion import metrics as me
from groupmotion import penalties as pe
from groupmotion.cli import EXIT_OK, main
from groupmotion.composer import (Composer, CompositionResult,
                                  ExtensionSegment, OptimizerConfig,
                                  SceneSpec, SceneStep, optimize_noise)
from groupmotion.diffusion import (DiffusionSchedule, FrameMask, ddim_sample,
                                   inpaint_extend)
from groupmotion.motion import (MotionSequence, NormalizationStats,
                                default_skeleton, denormalize,
                                facing_direction, normalize,
                                repair_velocities)
from groupmotion.priors import AnalyticPrior
from groupmotion.scripts import label_by_name

import tape_ops as to
from conftest import check_gradient, gs_facing, parallel_map


# -- 1. gradient integrity ----------------------------------------------------
#
# Every penalty kernel and the fully unrolled sampler objective must match
# central finite differences to relative error < 1e-4 on 10 random
# coordinates for each of 5 seeds. Budget: 2 minutes for the whole block.
#
# Penalty parameters are chosen so every hinge is strictly active on the
# random inputs: the finite-difference probe then never straddles a kink
# and the comparison is meaningful at every checked coordinate.

GRAD_BUDGET = [120.0]  # shared across the parametrized cases


def _random_frames(skeleton, seed, N=16, scale=0.5):
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal((N, skeleton.D))


def _penalty_cases(skeleton, seed):
    rng = np.random.default_rng(1000 + seed)
    other = ad.constant(_random_frames(skeleton, 2000 + seed))
    frame_set = np.array([0, 5, 15])
    targets = rng.standard_normal((3, 3))
    dirs = rng.standard_normal((3, 2))
    return {
        "overlap": lambda v: pe.overlap_penalty(v, [other], delta=5.0),
        "root": lambda v: pe.root_penalty(v, targets, frame_set),
        "region": lambda v: pe.region_penalty(
            v, np.full(3, -10.0), np.full(3, -5.0), skeleton),
        "orientation": lambda v: pe.orientation_penalty(
            v, dirs, frame_set, skeleton, delta=-2.0),
        "relative": lambda v: pe.relative_penalty(v, other, 5.0, 6.0),
        "boundary": lambda v: pe.boundary_penalty(v, 5, 6, skeleton),
    }


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("kind", pe.KINDS)
def test_penalty_gradients_match_finite_differences(kind, seed, skeleton):
    t0 = time.perf_counter()
    loss = _penalty_cases(skeleton, seed)[kind]
    x = _random_frames(skeleton, seed)
    check_gradient(loss, x, n_coords=10, seed=seed, rtol=1e-4)
    GRAD_BUDGET[0] -= time.perf_counter() - t0
    assert GRAD_BUDGET[0] > 0.0, "gradient block exceeded its 2 min budget"


@pytest.mark.parametrize("seed", range(5))
def test_sampler_gradient_matches_finite_differences(
        seed, skeleton, stats, small_schedule, analytic_prior):
    """Penalty evaluated on the output of the full unrolled deterministic
    sampler (5 denoising steps, 8 joints, 16 frames), differentiated back
    to the initial noise of both persons."""
    t0 = time.perf_counter()
    label = label_by_name("approach")

    def loss(v):
        o1, o2 = ddim_sample(analytic_prior, small_schedule,
                             (v[0, :, :], v[1, :, :]), label)
        w1 = denormalize(o1, stats)
        w2 = denormalize(o2, stats)
        return pe.overlap_penalty(w1, [w2], delta=10.0)

    rng = np.random.default_rng(seed)
    xT = rng.standard_normal((2, 16, skeleton.D))
    check_gradient(loss, xT, n_coords=10, seed=seed, rtol=1e-4)
    GRAD_BUDGET[0] -= time.perf_counter() - t0
    assert GRAD_BUDGET[0] > 0.0, "gradient block exceeded its 2 min budget"


# -- shared scenario plumbing --------------------------------------------------


def _composer(skeleton, stats, small_schedule, analytic_prior, opt=None):
    return Composer(analytic_prior, small_schedule, stats, skeleton,
                    opt or OptimizerConfig())


def _compose_pair(comp, seed, penalties, label, n_frames=32):
    spec = SceneSpec(participants=(1, 2), first_label=label_by_name(label),
                     first_penalties=tuple(penalties), seed=seed,
                     n_frames=n_frames)
    return comp.compose(spec).sequences


# -- 2. overlap elimination ----------------------------------------------------


def test_overlap_eliminated_on_near_collision_family(
        skeleton, stats, small_schedule, analytic_prior):
    """The near-collision label family yields baseline overlap rate >= 0.3
    over 20 seeds; adding the overlap penalty (delta 0.30 m) drives the
    0.25 m overlap rate to exactly zero. Budget: 10 minutes."""
    t0 = time.perf_counter()
    comp = _composer(skeleton, stats, small_schedule, analytic_prior)
    seeds = range(20)
    base = [_compose_pair(comp, s, (), "close-approach") for s in seeds]
    pen = (pe.PenaltyConfig(kind="overlap", weight=1.0,
                            params={"delta": 0.30}),)
    opt = [_compose_pair(comp, s, pen, "close-approach") for s in seeds]
    assert me.overlap_rate(base) >= 0.3
    assert me.overlap_rate(opt) == 0.0
    assert time.perf_counter() - t0 < 600.0


# -- 3. multi-person composition -----------------------------------------------


def _five_person_spec(seed, optimized):
    first = (pe.PenaltyConfig("overlap", 1.0, (1, 2),
                              params={"delta": 0.30}),) if optimized else ()
    steps = []
    for k in (3, 4, 5):
        subset = tuple(range(1, k))
        pens = tuple(pe.PenaltyConfig("overlap", 1.0, (k, j),
                                      params={"delta": 0.30})
                     for j in subset) if optimized else ()
        steps.append(SceneStep(target=k, reference=1,
                               label=label_by_name("approach"),
                               opt_subset=subset if optimized else (),
                               penalties=pens))
    return SceneSpec(participants=(1, 2, 3, 4, 5),
                     first_label=label_by_name("close-approach"),
                     first_penalties=first, steps=tuple(steps),
                     seed=seed, n_frames=32)


def test_five_person_chain_no_pair_degrades(
        skeleton, stats, small_schedule, analytic_prior):
    """Five persons added along the pivot chain (1,2)..(1,5), 10 seeds.
    Optimized pairwise overlap rate never exceeds the unoptimized
    masked-sample baseline, is exactly zero for pair (1,2), and foot skate
    and max acceleration stay within 25% of the baseline.
    Budget: 30 minutes."""
    t0 = time.perf_counter()
    comp = _composer(skeleton, stats, small_schedule, analytic_prior)
    base = [comp.compose(_five_person_spec(s, False)).sequences
            for s in range(10)]
    opt = [comp.compose(_five_person_spec(s, True)).sequences
           for s in range(10)]
    ids = (1, 2, 3, 4, 5)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            rb = me.overlap_rate([{a: r[a], b: r[b]} for r in base])
            ro = me.overlap_rate([{a: r[a], b: r[b]} for r in opt])
            assert ro <= rb, f"pair ({a},{b}): {ro} > baseline {rb}"
            if (a, b) == (1, 2):
                assert ro == 0.0
    fs_b = np.mean([me.foot_skate(s) for r in base for s in r.values()])
    fs_o = np.mean([me.foot_skate(s) for r in opt for s in r.values()])
    ma_b = np.mean([me.max_acceleration(s) for r in base for s in r.values()])
    ma_o = np.mean([me.max_acceleration(s) for r in opt for s in r.values()])
    assert abs(fs_o - fs_b) <= 0.25 * fs_b
    assert abs(ma_o - ma_b) <= 0.25 * ma_b
    assert time.perf_counter() - t0 < 1800.0


# -- 4. penalty ablation -------------------------------------------------------


def _rot2(d, ang):
    c, s = np.cos(ang), np.sin(ang)
    return np.array([c * d[0] - s * d[1], s * d[0] + c * d[1]])


@pytest.mark.slow
def test_each_penalty_reduces_its_own_violations(
        skeleton, stats, small_schedule, analytic_prior):
    """24 seeds, penalties added cumulatively (root, overlap, region,
    orientation). Each addition lowers its own violation rate at the
    20 cm / 10 cm / 20 degree thresholds, and the all-four configuration is
    never worse than the unpenalized baseline on any rate.
    Budget: 30 minutes.

    Targets are derived per seed from the unpenalized run (shifted root
    goal, tightened region box, rotated facing goal) so every seed starts
    from a violating configuration of comparable difficulty."""
    t0 = time.perf_counter()
    comp = _composer(skeleton, stats, small_schedule, analytic_prior)
    N, seeds = 32, range(24)
    baselines = {s: _compose_pair(comp, s, (), "close-approach") for s in seeds}

    targets, penalty_sets = {}, {}
    for s, run in baselines.items():
        root_tgt = run[1].root_trajectory()[-1] + np.array([0.35, 0.0, 0.0])
        p2 = run[2].joint_positions()
        lower = p2.min(axis=(0, 1)) + np.array([0.30, 0.0, 0.0])
        lower[1] = -0.5
        upper = p2.max(axis=(0, 1)) + np.array([0.50, 0.0, 0.50])
        upper[1] = 2.5
        face_tgt = _rot2(facing_direction(run[1], N - 1), np.deg2rad(40.0))
        targets[s] = me.ScenarioTargets(
            root_targets={1: [(N - 1, root_tgt)]},
            regions={2: (lower, upper, None)},
            orientations={1: [(N - 1, face_tgt)]})
        penalty_sets[s] = [
            pe.PenaltyConfig("root", 1.0, (1,), frames=np.array([N - 1]),
                             params={"targets": root_tgt.reshape(1, 3)}),
            pe.PenaltyConfig("overlap", 1.0, (1, 2), params={"delta": 0.30}),
            pe.PenaltyConfig("region", 1.0, (2,),
                             params={"lower": lower, "upper": upper}),
            pe.PenaltyConfig("orientation", 1.0, (1,),
                             frames=np.array([N - 1]),
                             params={"targets": face_tgt.reshape(1, 2),
                                     "delta": 0.06}),
        ]

    def rates(runs_by_seed):
        acc = {"position": 0.0, "overlap": 0.0, "region": 0.0,
               "orientation": 0.0}
        for s, run in runs_by_seed.items():
            r = me.ablation_violations([run], targets[s]).rates()
            for k in acc:
                acc[k] += r[k]
        return {k: v / len(runs_by_seed) for k, v in acc.items()}

    configs = {0: baselines}
    jobs = [(k, s) for k in range(1, 5) for s in seeds]
    runs = parallel_map(_compose_pair, [comp] * len(jobs),
                        [s for _, s in jobs],
                        [penalty_sets[s][:k] for k, s in jobs],
                        ["close-approach"] * len(jobs))
    for (k, s), run in zip(jobs, runs):
        configs.setdefault(k, {})[s] = run
    R = {k: rates(v) for k, v in configs.items()}

    order = ("position", "overlap", "region", "orientation")
    for k, kind in enumerate(order, start=1):
        assert R[k][kind] < R[k - 1][kind], \
            f"adding {kind}: {R[k - 1][kind]} -> {R[k][kind]}"
    for kind in order:
        assert R[4][kind] <= R[0][kind], \
            f"all-four worse than baseline on {kind}"
    assert time.perf_counter() - t0 < 1800.0


# -- 5. extension seam quality -------------------------------------------------

EXT_LABEL = "animated-talk"
EXT_OPT = OptimizerConfig(lr=0.01, max_steps=400, early_stop_loss=1e-12,
                          lr_decay=0.99)


def _extend_run(comp, skeleton, seed, mode="literal"):
    """Compose a full 240-frame scene, keep its first 50 frames, then
    regenerate the remaining 190 via inpainting with a boundary penalty."""
    label = label_by_name(EXT_LABEL)
    spec = SceneSpec(participants=(1, 2), first_label=label, seed=seed,
                     n_frames=240)
    full = comp.compose(spec)
    trunc = {pid: repair_velocities(MotionSequence(
                 skeleton, s.frames[:50].copy(), fps=s.fps, person_id=pid))
             for pid, s in full.sequences.items()}
    base = CompositionResult(sequences=trunc, seed=seed)
    seg = ExtensionSegment(window=240, kept=50, pairs=((1, 2, label),),
                           boundary_frames=25, boundary_weight=1000.0,
                           mode=mode)
    return trunc, comp.extend(base, [seg], seed)


@pytest.mark.slow
def test_extension_seam_acceleration_bounded(
        skeleton, stats, small_schedule, analytic_prior):
    """50 kept + 190 generated frames over 20 seeds. With the boundary
    penalty the 25-frame seam window's max joint acceleration stays within
    2x the sequence median acceleration for at least 90% of seeds, and the
    kept frames are preserved bit-exactly."""
    comp = _composer(skeleton, stats, small_schedule, analytic_prior, EXT_OPT)
    passes = 0
    runs = parallel_map(_extend_run, [comp] * 20, [skeleton] * 20, range(20))
    for trunc, ext in runs:
        ok = True
        for pid in (1, 2):
            seq = ext.sequences[pid]
            assert seq.N == 240
            assert np.array_equal(seq.frames[:50], trunc[pid].frames)
            acc = np.linalg.norm(
                np.diff(seq.joint_positions(), n=2, axis=0), axis=2)
            ok = ok and acc[48:48 + 25].max() <= 2.0 * np.median(acc)
        passes += ok
    assert passes >= 18, f"seam criterion held in only {passes}/20 seeds"


@pytest.mark.parametrize("mode,atol", [("literal", 0.0), ("noised", 1e-9)])
def test_inpainting_preserves_kept_frames(
        mode, atol, skeleton, stats, small_schedule, analytic_prior):
    """The inpainting sampler returns the reference content on kept frames:
    bit-exact in literal mode, to 1e-9 in noised mode."""
    rng = np.random.default_rng(11)
    label = label_by_name("approach")
    spec = SceneSpec(participants=(1, 2), first_label=label, seed=11,
                     n_frames=40)
    comp = _composer(skeleton, stats, small_schedule, analytic_prior)
    run = comp.compose(spec).sequences
    kept_pair = [normalize(run[pid].frames[-16:], stats) for pid in (1, 2)]
    xT = rng.standard_normal((2, 48, skeleton.D))
    o1, o2 = inpaint_extend(analytic_prior, small_schedule,
                            (ad.constant(xT[0]), ad.constant(xT[1])),
                            kept_pair, FrameMask(48, 16), label,
                            noise_seed=5, mode=mode)
    for out, kept in ((o1, kept_pair[0]), (o2, kept_pair[1])):
        if atol == 0.0:
            assert np.array_equal(out.value[:16], kept)
        else:
            assert np.abs(out.value[:16] - kept).max() <= atol
        assert not np.allclose(out.value[16:24], 0.0)  # new frames generated


# -- 6. optimizer contract -----------------------------------------------------


def test_optimizer_defaults():
    cfg = OptimizerConfig()
    assert cfg.lr == 0.003
    assert cfg.max_steps == 100
    assert cfg.early_stop_loss == 1e-6


def test_optimizer_early_stop_on_zero_loss():
    # hinge objective that is exactly zero at the start point
    def objective(v):
        return ad.sum_(to.relu(v - 1.0)), None

    x0 = np.zeros(4)
    best, rec = optimize_noise(objective, x0, OptimizerConfig())
    assert rec.evaluations == 1
    assert rec.best_loss == 0.0
    assert np.array_equal(best, x0)


def test_optimizer_early_stop_mid_run():
    # quadratic that crosses the 1e-6 threshold well before the step cap
    def objective(v):
        return ad.sum_(v * v), None

    x0 = np.full(2, 0.02)
    cfg = OptimizerConfig(lr=0.01, lr_decay=0.9)  # geometric step shrink
    best, rec = optimize_noise(objective, x0, cfg)
    assert rec.best_loss < 1e-6
    assert rec.evaluations < 101
    assert float(np.sum(best * best)) == rec.best_loss


def test_optimizer_step_cap_honored():
    def objective(v):
        return ad.sum_(v * v) + 1.0, None

    _, rec = optimize_noise(objective, np.zeros(3), OptimizerConfig())
    assert rec.evaluations == 101  # initial evaluation + 100 capped steps


def test_optimizer_returns_best_iterate_not_last():
    # large step size makes Adam overshoot and oscillate; the returned
    # noise must correspond to the best loss seen, not the final state
    def objective(v):
        d = v - 1.0
        return ad.sum_(d * d), None

    x0 = np.zeros(2)
    cfg = OptimizerConfig(lr=0.9, max_steps=25, early_stop_loss=0.0)
    best, rec = optimize_noise(objective, x0, cfg)
    assert rec.best_loss == min(rec.losses)
    assert rec.losses[-1] > rec.best_loss  # it did oscillate past the best
    d = best - 1.0
    assert float(np.sum(d * d)) == rec.best_loss


# -- 7. oracle equivalence -----------------------------------------------------
#
# Every metric and penalty kernel is compared against an independently
# coded naive implementation on 100 random instances; closed-form sphere
# intersection is compared against a Monte-Carlo estimate to 2%.

N_INSTANCES = 100


def _random_sequence(skeleton, rng, N=6):
    frames = rng.standard_normal((N, skeleton.D))
    return MotionSequence(skeleton, frames)


def test_overlap_rate_matches_loop_oracle(skeleton):
    rng = np.random.default_rng(70)
    for _ in range(N_INSTANCES):
        runs = [{pid: _random_sequence(skeleton, rng)
                 for pid in range(rng.integers(2, 5))}
                for _ in range(3)]
        thr = float(rng.uniform(0.5, 3.0))
        hits = 0
        for run in runs:
            seqs = list(run.values())
            found = False
            for i in range(len(seqs)):
                for j in range(i + 1, len(seqs)):
                    for n in range(seqs[i].N):
                        d = np.linalg.norm(seqs[i].frames[n, :3]
                                           - seqs[j].frames[n, :3])
                        found = found or d < thr
            hits += found
        assert me.overlap_rate(runs, thr) == hits / len(runs)


def test_foot_skate_matches_loop_oracle(skeleton):
    rng = np.random.default_rng(71)
    from groupmotion.motion import foot_slice
    fs = foot_slice(skeleton.J)
    for _ in range(N_INSTANCES):
        seq = _random_sequence(skeleton, rng, N=8)
        seq.frames[:, fs] = rng.integers(0, 2, (8, 4)).astype(float)
        p = seq.joint_positions()
        flags = seq.frames[:, fs]
        slides = []
        for fi, j in enumerate(skeleton.foot_joint_ids):
            for n in range(1, 8):
                if p[n, j, 1] < 0.05 and flags[n, fi] > 0.5:
                    slides.append(np.linalg.norm(p[n, j, [0, 2]]
                                                 - p[n - 1, j, [0, 2]]))
        want = float(np.mean(slides)) if slides else 0.0
        assert me.foot_skate(seq) == pytest.approx(want, abs=1e-12)


def test_acceleration_metrics_match_loop_oracle(skeleton):
    rng = np.random.default_rng(72)
    for _ in range(N_INSTANCES):
        seq = _random_sequence(skeleton, rng, N=7)
        p = seq.joint_positions()
        mags = [np.linalg.norm(p[n + 1, j] - 2 * p[n, j] + p[n - 1, j])
                for n in range(1, 6) for j in range(skeleton.J)]
        assert me.max_acceleration(seq) == pytest.approx(max(mags), abs=1e-12)
        assert me.median_acceleration(seq) == pytest.approx(
            np.median(mags), abs=1e-12)


def test_sphere_intersection_matches_monte_carlo():
    rng = np.random.default_rng(73)
    for _ in range(N_INSTANCES):
        r1, r2 = rng.uniform(0.5, 1.2, 2)
        d = float(rng.uniform(0.0, 0.75 * (r1 + r2)))
        want = me.sphere_lens_volume(r1, r2, d)
        # sample in the bounding box of the smaller sphere; the lens is a
        # subset of the smaller sphere, so the estimate is unbiased
        r_small = min(r1, r2)
        c_small = 0.0 if r1 <= r2 else d
        pts = c_small + rng.uniform(-r_small, r_small, (1_000_000, 3))
        pts[:, 1:] -= c_small  # offset applies along the x axis only
        inside = ((np.sum(pts * pts, axis=1) <= r1 * r1)
                  & (np.sum((pts - [d, 0.0, 0.0]) ** 2, axis=1) <= r2 * r2))
        mc = inside.mean() * (2.0 * r_small) ** 3
        assert want == pytest.approx(mc, rel=0.02)
    # disjoint and containment limits are exact
    assert me.sphere_lens_volume(1.0, 1.0, 2.5) == 0.0
    assert me.sphere_lens_volume(1.0, 0.3, 0.1) == pytest.approx(
        4.0 / 3.0 * np.pi * 0.027)


def test_penetration_volume_matches_loop_oracle(skeleton):
    rng = np.random.default_rng(74)
    radii = np.asarray(skeleton.proxy_radii)
    for _ in range(N_INSTANCES):
        seqs = [_random_sequence(skeleton, rng, N=4) for _ in range(3)]
        pos = [s.joint_positions() for s in seqs]
        worst = 0.0
        for n in range(4):
            total = 0.0
            for a in range(3):
                for b in range(a + 1, 3):
                    for i in range(skeleton.J):
                        for j in range(skeleton.J):
                            d = np.linalg.norm(pos[a][n, i] - pos[b][n, j])
                            total += me.sphere_lens_volume(
                                radii[i], radii[j], float(d))
            worst = max(worst, total)
        assert me.proxy_penetration_volume(seqs) == pytest.approx(
            worst * 1e6, rel=1e-12)


def test_penalty_kernels_match_numpy_oracles(skeleton):
    rng = np.random.default_rng(75)
    N = 6
    for _ in range(N_INSTANCES):
        f1 = rng.standard_normal((N, skeleton.D))
        f2 = rng.standard_normal((N, skeleton.D))
        v1, v2 = ad.constant(f1), ad.constant(f2)

        delta = float(rng.uniform(0.5, 3.0))
        dist = np.linalg.norm(f1[:, :3] - f2[:, :3], axis=1)
        want = np.maximum(0.0, delta - dist).sum()
        got = float(pe.overlap_penalty(v1, [v2], delta=delta).value)
        assert got == pytest.approx(want, abs=1e-12)

        frame_set = np.array([0, 2, 5])
        targets = rng.standard_normal((3, 3))
        sq = np.sum((f1[frame_set, :3] - targets) ** 2, axis=1)
        want = np.maximum(0.0, sq - 0.1).sum()
        got = float(pe.root_penalty(v1, targets, frame_set, delta=0.1).value)
        assert got == pytest.approx(want, abs=1e-12)

        lower = rng.uniform(-1.0, 0.0, 3)
        upper = lower + rng.uniform(0.5, 2.0, 3)
        total = 0.0
        for j in range(skeleton.J):
            p = f1[:, 3 * j:3 * j + 3]
            total += np.maximum(0.0, lower - p).sum()
            total += np.maximum(0.0, p - upper).sum()
        want = total / (N * skeleton.J)
        got = float(pe.region_penalty(v1, lower, upper, skeleton).value)
        assert got == pytest.approx(want, abs=1e-12)

        dirs = rng.standard_normal((3, 2))
        unit = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
        want = sum(max(0.0, 1.0 - gs_facing(f1[n], skeleton) @ unit[k] - 0.2)
                   for k, n in enumerate(frame_set))
        got = float(pe.orientation_penalty(v1, dirs, frame_set,
                                           skeleton).value)
        assert got == pytest.approx(want, abs=1e-11)

        d_min, d_max = 1.0, 2.0
        want = (np.maximum(0.0, d_min - dist).sum()
                + np.maximum(0.0, dist - d_max).sum())
        got = float(pe.relative_penalty(v1, v2, d_min, d_max).value)
        assert got == pytest.approx(want, abs=1e-12)

        p = f1[:, :3 * skeleton.J].reshape(N, skeleton.J, 3)
        acc = p[2:] - 2.0 * p[1:-1] + p[:-2]
        want = np.sum(acc[1:4] ** 2) / (3 * skeleton.J)
        got = float(pe.boundary_penalty(v1, 2, 4, skeleton).value)
        assert got == pytest.approx(want, abs=1e-12)


# -- 8. determinism ------------------------------------------------------------


def test_compose_outputs_are_byte_identical(tmp_path):
    """Two invocations of the compose command with identical config and
    seeds produce byte-identical motion files and manifests."""
    cfg = {"schedule": {"t_train": 50, "ddim_steps": 5},
           "optimizer": {"max_steps": 5},
           "scene": {"participants": [1, 2, 3], "first_label": "approach",
                     "n_frames": 12,
                     "first_penalties": [{"kind": "overlap", "weight": 1.0,
                                          "params": {"delta": 0.3}}],
                     "steps": [{"target": 3, "reference": 1,
                                "label": "follow", "opt_subset": [1, 2],
                                "penalties": [{"kind": "overlap",
                                               "weight": 1.0,
                                               "subjects": [3, 1],
                                               "params": {"delta": 0.3}}]}]}}
    cfg_path = tmp_path / "compose.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert main(["compose", "--config", str(cfg_path), "--out", out,
                     "--seed", "3,9"]) == EXIT_OK
        outs.append(out)
    files = sorted(
        os.path.relpath(os.path.join(root, f), outs[0])
        for root, _, names in os.walk(outs[0]) for f in names
        if f.endswith(".motion") or f == "manifest.json")
    assert any(f.endswith(".motion") for f in files)
    for rel in files:
        b1 = open(os.path.join(outs[0], rel), "rb").read()
        b2 = open(os.path.join(outs[1], rel), "rb").read()
        assert b1 == b2, f"{rel} differs between invocations"
