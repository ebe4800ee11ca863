"""Metric kernels against counting, loop and Monte-Carlo oracles."""

import csv
import warnings

import numpy as np
import pytest

from groupmotion import metrics as me
from groupmotion.motion import (MotionSequence, foot_slice, glo_slice,
                                rot_slice, rotation_to_6d, yaw_rotation)


def seq_with_roots(roots, skeleton, **kw):
    roots = np.asarray(roots, dtype=np.float64)
    f = np.zeros((roots.shape[0], skeleton.D))
    f[:, 0:3] = roots
    rot = np.tile([1.0, 0, 0, 0, 1, 0], skeleton.J)
    f[:, rot_slice(skeleton.J)] = rot
    return MotionSequence(skeleton, f, **kw)


def random_seq(skeleton, N=10, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return MotionSequence(skeleton, rng.standard_normal((N, skeleton.D)) * scale)


# -- overlap rate ----------------------------------------------------------------


def test_overlap_rate_all_far(skeleton):
    a = seq_with_roots(np.zeros((6, 3)), skeleton)
    b = seq_with_roots(np.tile([2.0, 0, 0], (6, 1)), skeleton)
    assert me.overlap_rate([{1: a, 2: b}]) == 0.0


def test_overlap_rate_counts_single_run(skeleton):
    far = np.tile([2.0, 0, 0], (6, 1))
    runs = []
    for i in range(10):
        roots = far.copy()
        if i == 0:
            roots[3] = [0.1, 0, 0]  # one sub-25cm frame in one run
        runs.append({1: seq_with_roots(np.zeros((6, 3)), skeleton),
                     2: seq_with_roots(roots, skeleton)})
    assert me.overlap_rate(runs) == 0.1


def test_overlap_rate_matches_triple_loop_oracle(skeleton):
    rng = np.random.default_rng(1)
    runs = []
    for _ in range(20):
        runs.append({i: seq_with_roots(rng.normal(0, 0.3, (5, 3)), skeleton)
                     for i in range(3)})
    got = me.overlap_rate(runs, threshold=0.25)
    hits = 0
    for run in runs:
        seqs = list(run.values())
        found = False
        for i in range(3):
            for j in range(i + 1, 3):
                for n in range(5):
                    d = np.linalg.norm(seqs[i].root_trajectory()[n] -
                                       seqs[j].root_trajectory()[n])
                    if d < 0.25:
                        found = True
        hits += found
    assert got == hits / 20


def test_overlap_rate_needs_runs():
    with pytest.raises(ValueError):
        me.overlap_rate([])


# -- foot skate ------------------------------------------------------------------


def skate_seq(skeleton, slide_per_frame, N=12, contact=True, height=0.01):
    f = np.zeros((N, skeleton.D))
    J = skeleton.J
    for n in range(N):
        pos = np.zeros((J, 3))
        pos[:, 1] = 1.0  # everything airborne except feet
        for j in set(skeleton.foot_joint_ids):
            pos[j] = [slide_per_frame * n, height, 0.0]
        f[n, glo_slice(J)] = pos.reshape(-1)
    f[:, foot_slice(J)] = 1.0 if contact else 0.0
    return MotionSequence(skeleton, f)


def test_foot_skate_pinned_zero(skeleton):
    assert me.foot_skate(skate_seq(skeleton, 0.0)) == 0.0


def test_foot_skate_constant_slide(skeleton):
    assert np.isclose(me.foot_skate(skate_seq(skeleton, 0.02)), 0.02)


def test_foot_skate_requires_contact_and_height(skeleton):
    assert me.foot_skate(skate_seq(skeleton, 0.02, contact=False)) == 0.0
    assert me.foot_skate(skate_seq(skeleton, 0.02, height=0.2)) == 0.0


def test_foot_skate_matches_loop_oracle(skeleton):
    seq = random_seq(skeleton, N=14, seed=2, scale=0.1)
    got = me.foot_skate(seq)
    p = seq.joint_positions()
    flags = seq.foot_contacts()
    vals = []
    for fi, j in enumerate(skeleton.foot_joint_ids):
        for n in range(1, seq.N):
            if p[n, j, 1] < 0.05 and flags[n, fi] > 0.5:
                vals.append(np.hypot(p[n, j, 0] - p[n - 1, j, 0],
                                     p[n, j, 2] - p[n - 1, j, 2]))
    want = float(np.mean(vals)) if vals else 0.0
    assert got == want


# -- max acceleration -------------------------------------------------------------


def test_max_acceleration_linear_zero(skeleton):
    roots = np.outer(np.arange(8.0), [0.1, 0.0, 0.2])
    assert me.max_acceleration(seq_with_roots(roots, skeleton)) < 1e-12


def test_max_acceleration_quadratic(skeleton):
    roots = np.zeros((8, 3))
    roots[:, 0] = np.arange(8.0) ** 2
    assert np.isclose(me.max_acceleration(seq_with_roots(roots, skeleton)),
                      2.0)


def test_max_acceleration_matches_oracle(skeleton):
    seq = random_seq(skeleton, N=9, seed=3)
    from groupmotion.motion import joint_acceleration
    want = 0.0
    acc = joint_acceleration(seq)
    for n in range(acc.shape[0]):
        for j in range(skeleton.J):
            want = max(want, float(np.linalg.norm(acc[n, j])))
    assert me.max_acceleration(seq) == want


# -- penetration volume -------------------------------------------------------------


def test_lens_volume_disjoint():
    assert me.sphere_lens_volume(0.1, 0.1, 0.25) == 0.0


def test_lens_volume_coincident_10cm():
    v = me.sphere_lens_volume(0.1, 0.1, 0.0) * 1e6
    assert abs(v - 4188.79) < 0.01


def test_lens_volume_containment():
    v = me.sphere_lens_volume(0.02, 0.5, 0.1)
    assert np.isclose(v, 4.0 / 3.0 * np.pi * 0.02 ** 3)


def test_lens_volume_monte_carlo_oracle():
    rng = np.random.default_rng(4)
    for r1, r2, d in [(0.1, 0.1, 0.12), (0.14, 0.07, 0.1),
                      (0.2, 0.1, 0.25)]:
        got = me.sphere_lens_volume(r1, r2, d)
        # sample inside sphere 1, count points also inside sphere 2
        pts = rng.uniform(-r1, r1, size=(10 ** 6, 3))
        inside1 = np.linalg.norm(pts, axis=1) <= r1
        c2 = np.array([d, 0.0, 0.0])
        inside2 = np.linalg.norm(pts - c2, axis=1) <= r2
        frac = (inside1 & inside2).sum() / inside1.sum()
        mc = frac * 4.0 / 3.0 * np.pi * r1 ** 3
        assert abs(got - mc) <= 0.02 * max(mc, 1e-9), (r1, r2, d)


def test_lens_volume_monotone_in_distance():
    vols = [me.sphere_lens_volume(0.1, 0.08, d)
            for d in np.linspace(0.0, 0.2, 30)]
    assert all(b <= a + 1e-15 for a, b in zip(vols, vols[1:]))


def _lens_volume_loop_oracle(r1, r2, d):
    if d >= r1 + r2:
        return 0.0
    if d <= abs(r1 - r2):
        return 4.0 / 3.0 * np.pi * min(r1, r2) ** 3
    return (np.pi * (r1 + r2 - d) ** 2 *
            (d * d + 2.0 * d * (r1 + r2) - 3.0 * (r1 - r2) ** 2) / (12.0 * d))


def test_lens_volume_broadcast_matches_branchy_oracle():
    r1 = np.array([0.1, 0.14, 0.02, 0.1, 0.0])[:, None]
    r2 = np.array([0.1, 0.07, 0.5])[None, :]
    d = np.array([0.0, 0.05, 0.12, 0.3])[:, None, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # d = 0 must not divide by zero
        got = me.sphere_lens_volume(r1, r2, d)
        scalar = me.sphere_lens_volume(0.1, 0.1, 0.0)
    assert got.shape == (4, 5, 3) and isinstance(scalar, float)
    for k, i, j in np.ndindex(got.shape):
        want = _lens_volume_loop_oracle(r1[i, 0], r2[0, j], d[k, 0, 0])
        assert got[k, i, j] == pytest.approx(want, rel=1e-9, abs=0.0)


def test_penetration_volume_disjoint_people(skeleton):
    a = seq_with_roots(np.zeros((5, 3)), skeleton)
    b = a.translated([10.0, 0.0, 0.0])
    assert me.proxy_penetration_volume({1: a, 2: b}) == 0.0


def test_penetration_volume_max_over_frames(skeleton):
    # identical skeleton poses at the origin for exactly one frame
    roots_b = np.tile([5.0, 0, 0], (6, 1))
    roots_b[2] = 0.0
    a = seq_with_roots(np.zeros((6, 3)), skeleton)
    b = seq_with_roots(roots_b, skeleton)
    got = me.proxy_penetration_volume({1: a, 2: b})
    # oracle: all cross pairs of coincident-origin joints at frame 2
    want = 0.0
    radii = skeleton.proxy_radii
    for i in range(skeleton.J):
        for j in range(skeleton.J):
            want += me.sphere_lens_volume(radii[i], radii[j], 0.0)
    assert np.isclose(got, want * 1e6)


def test_pair_metrics_over_common_frames(skeleton):
    """Persons of different lengths are compared over the frames both have:
    b (4 frames) coincides with a (6 frames) at frames 0-3, and c meets a
    only at frames 4 and 5, where b has no frames to count."""
    a = seq_with_roots(np.zeros((6, 3)), skeleton)
    b = seq_with_roots(np.zeros((4, 3)), skeleton)
    far = a.translated([5.0, 0.0, 0.0])
    c = MotionSequence(skeleton, np.concatenate([far.frames[:4],
                                                 a.frames[4:]]))
    assert me.pair_overlaps(a, b).tolist() == [True] * 4
    assert me.pair_overlaps(c, b).tolist() == [False] * 4
    one_pair = me.proxy_penetration_volume({1: a, 2: a})
    assert one_pair > 0.0
    assert me.proxy_penetration_volume({1: a, 2: b, 3: c}) == one_pair


def test_penetration_translation_and_yaw_invariance(skeleton):
    a = random_seq(skeleton, N=5, seed=5, scale=0.2)
    b = random_seq(skeleton, N=5, seed=6, scale=0.2)
    base = me.proxy_penetration_volume({1: a, 2: b})
    shifted = me.proxy_penetration_volume(
        {1: a.translated([3.0, 1.0, -2.0]), 2: b.translated([3.0, 1.0, -2.0])})
    assert np.isclose(base, shifted)
    R = yaw_rotation(0.7)
    rotated = []
    for s in (a, b):
        f = s.frames.copy()
        p = s.joint_positions() @ R.T
        f[:, glo_slice(skeleton.J)] = p.reshape(s.N, -1)
        rotated.append(MotionSequence(skeleton, f))
    assert np.isclose(base, me.proxy_penetration_volume(
        {1: rotated[0], 2: rotated[1]}), atol=1e-12)


# -- violations --------------------------------------------------------------------


def aligned_run(skeleton, theta=0.0):
    roots = np.tile([0.0, 0.9, 0.0], (6, 1))
    f = np.zeros((6, skeleton.D))
    f[:, 0:3] = roots
    f[:, rot_slice(skeleton.J).start:rot_slice(skeleton.J).start + 6] = \
        rotation_to_6d(yaw_rotation(theta))
    a = MotionSequence(skeleton, f)
    b = seq_with_roots(np.tile([2.0, 0.9, 0.0], (6, 1)), skeleton)
    return {1: a, 2: b}


def scenario(skeleton):
    return me.ScenarioTargets(
        root_targets={1: [(5, np.array([0.0, 0.9, 0.0]))]},
        regions={1: ([-1, -1, -1], [1, 2, 1], None)},
        orientations={1: [(5, np.array([1.0, 0.0]))]})


def test_violations_all_zero_when_satisfied(skeleton):
    report = me.ablation_violations([aligned_run(skeleton)],
                                    scenario(skeleton))
    assert report.rates() == {"position": 0.0, "overlap": 0.0,
                              "region": 0.0, "orientation": 0.0}


def test_violation_orientation_only(skeleton):
    run = aligned_run(skeleton, theta=np.deg2rad(25.0))
    report = me.ablation_violations([run], scenario(skeleton))
    assert report.orient_err_rate == 1.0
    assert report.pos_err_rate == 0.0
    assert report.region_viol_rate == 0.0
    assert report.overlap_rate == 0.0


def test_violation_threshold_edges(skeleton):
    # 19 degrees off: inside the 20 degree budget
    run = aligned_run(skeleton, theta=np.deg2rad(19.0))
    report = me.ablation_violations([run], scenario(skeleton))
    assert report.orient_err_rate == 0.0
    # root 25 cm off target: beyond the 20 cm budget
    run = aligned_run(skeleton)
    run[1].frames[5, 0] += 0.25
    report = me.ablation_violations([run], scenario(skeleton))
    assert report.pos_err_rate == 1.0


# -- decomposition and report --------------------------------------------------------


def test_pairwise_decompose_m2(skeleton):
    run = aligned_run(skeleton)
    views = me.pairwise_decompose(run, pivot=1)
    assert len(views) == 1 and set(views[0]) == {1, 2}


def test_pairwise_decompose_m5(skeleton):
    seqs = {i: seq_with_roots(np.zeros((4, 3)) + i, skeleton)
            for i in range(1, 6)}
    views = me.pairwise_decompose(seqs, pivot=1)
    assert [sorted(v) for v in views] == [[1, 2], [1, 3], [1, 4], [1, 5]]
    with pytest.raises(KeyError):
        me.pairwise_decompose(seqs, pivot=9)


def test_pairwise_views_equal_manual_slices(skeleton):
    seqs = {i: random_seq(skeleton, seed=10 + i, scale=0.3)
            for i in range(1, 4)}
    for view in me.pairwise_decompose(seqs, pivot=1):
        ids = sorted(view)
        manual = {ids[0]: seqs[ids[0]], ids[1]: seqs[ids[1]]}
        assert me.proxy_penetration_volume(view) == \
            me.proxy_penetration_volume(manual)


def test_report_csv_rows(skeleton, tmp_path):
    runs = [aligned_run(skeleton) for _ in range(3)]
    report = me.evaluate_runs(runs)
    path = tmp_path / "m.csv"
    me.write_report_csv(report, path)
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 3 + 1  # per-run + aggregate, under one header
    assert report.n_runs == 3
    assert [r["diversity"] for r in rows[:-1]] == ["", "", ""]
    assert rows[-1]["run"] == "aggregate"
    assert float(rows[-1]["diversity"]) == report.diversity
