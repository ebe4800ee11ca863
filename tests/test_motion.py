"""Pose layout, kinematics, normalization, motion file format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupmotion import autodiff as ad
from groupmotion import motion as mo

import tape_ops as to
import tape_penalties
import tape_samplers as tape
from conftest import check_gradient, gs_facing


def make_seq(skeleton, N=10, seed=0):
    rng = np.random.default_rng(seed)
    return mo.MotionSequence(skeleton, rng.standard_normal((N, skeleton.D)))


def rest_seq(skeleton, N=5):
    """All joints at the origin, identity rotations."""
    frames = np.zeros((N, skeleton.D))
    rot = np.tile(np.array([1.0, 0, 0, 0, 1, 0]), skeleton.J)
    frames[:, mo.rot_slice(skeleton.J)] = rot
    return mo.MotionSequence(skeleton, frames)


# -- skeleton and layout --------------------------------------------------------


def test_pose_width_formula(skeleton):
    assert mo.pose_width(8) == 100
    assert skeleton.D == 12 * skeleton.J + 4


def test_wrong_width_rejected(skeleton):
    with pytest.raises(ValueError, match="12\\*J\\+4"):
        mo.MotionSequence(skeleton, np.zeros((5, skeleton.D + 1)))


def test_too_few_frames_rejected(skeleton):
    with pytest.raises(ValueError, match="2 frames"):
        mo.MotionSequence(skeleton, np.zeros((1, skeleton.D)))


def test_skeleton_validation():
    base = mo.default_skeleton()
    with pytest.raises(ValueError, match="root"):
        mo.Skeleton(base.joint_names, (0,) + base.parent[1:],
                    base.bone_lengths, base.foot_joint_ids, base.proxy_radii)
    with pytest.raises(ValueError, match="precede"):
        mo.Skeleton(base.joint_names, (-1, 5) + base.parent[2:],
                    base.bone_lengths, base.foot_joint_ids, base.proxy_radii)
    with pytest.raises(ValueError, match="4 foot"):
        mo.Skeleton(base.joint_names, base.parent, base.bone_lengths,
                    (6, 7), base.proxy_radii)


# -- root position and facing -----------------------------------------------------


def test_root_position_rest_pose(skeleton):
    assert np.array_equal(mo.root_position(rest_seq(skeleton), 0), [0, 0, 0])


def test_root_position_translation_equivariance(skeleton):
    seq = make_seq(skeleton)
    moved = seq.translated([1.0, 0.0, 2.0])
    for n in (0, 3, 9):
        assert np.allclose(mo.root_position(moved, n),
                           mo.root_position(seq, n) + [1.0, 0.0, 2.0])


def test_root_position_out_of_range(skeleton):
    with pytest.raises(IndexError):
        mo.root_position(make_seq(skeleton), 10)


def test_facing_identity_rotation(skeleton):
    d = mo.facing_direction(rest_seq(skeleton), 0)
    assert np.allclose(d, [0.0, 1.0])


def test_facing_rotation_equivariance(skeleton):
    seq = rest_seq(skeleton)
    d0 = mo.facing_direction(seq, 0)
    frames = seq.frames.copy()
    theta = np.pi / 2 + np.pi / 2  # 90 degrees past the identity heading
    r6 = mo.rotation_to_6d(mo.yaw_rotation(theta))
    rb = mo.rot_slice(skeleton.J).start
    frames[:, rb:rb + 6] = r6
    d90 = mo.facing_direction(mo.MotionSequence(skeleton, frames), 0)
    assert abs(float(d0 @ d90)) < 1e-6


def test_facing_matches_scripted_heading(skeleton):
    rng = np.random.default_rng(4)
    seq = rest_seq(skeleton)
    rb = mo.rot_slice(skeleton.J).start
    for theta in rng.uniform(-np.pi, np.pi, 20):
        frames = seq.frames.copy()
        frames[:, rb:rb + 6] = mo.rotation_to_6d(mo.yaw_rotation(theta))
        d = mo.facing_direction(mo.MotionSequence(skeleton, frames), 2)
        assert np.allclose(d, [np.cos(theta), np.sin(theta)], atol=1e-4)


def test_facing_scale_invariance(skeleton):
    # facing depends only on the rotation channels, not limb geometry
    seq = make_seq(skeleton, seed=2)
    scaled = seq.frames.copy()
    scaled[:, mo.glo_slice(skeleton.J)] *= 3.0
    a = mo.facing_direction(seq, 5)
    b = mo.facing_direction(mo.MotionSequence(skeleton, scaled), 5)
    assert np.allclose(a, b)


def test_facing_degenerate_frame0_errors(skeleton):
    frames = rest_seq(skeleton).frames.copy()
    rb = mo.rot_slice(skeleton.J).start
    # forward axis straight up: zero ground projection at every frame
    R = np.array([[1.0, 0, 0], [0, 0, 1.0], [0, -1.0, 0]])
    frames[:, rb:rb + 6] = mo.rotation_to_6d(R)
    with pytest.raises(ValueError, match="frame 0"):
        mo.facing_direction(mo.MotionSequence(skeleton, frames), 0)


def _with_root_6d(skeleton, r6_per_frame):
    """Rest frames whose root rotation is the given 6D vector per frame."""
    frames = rest_seq(skeleton, len(r6_per_frame)).frames.copy()
    rb = mo.rot_slice(skeleton.J).start
    frames[:, rb:rb + 6] = r6_per_frame
    return mo.MotionSequence(skeleton, frames)


@pytest.mark.parametrize("fx,falls_back", [(1e-7, True), (1e-5, False)])
def test_facing_short_ground_projection_falls_back(skeleton, fx, falls_back):
    """A forward axis whose ground projection is shorter than 1e-6 (before
    normalising) takes the previous frame's facing."""
    fy = np.sqrt(1.0 - fx * fx)
    # c1 = +z, c2 = f x c1, so c1 x c2 = f = (fx, fy, 0)
    tilted = np.array([0.0, 0.0, 1.0, fy, -fx, 0.0])
    yawed = mo.rotation_to_6d(mo.yaw_rotation(0.3))
    seq = _with_root_6d(skeleton, [yawed, tilted])
    want = [np.cos(0.3), np.sin(0.3)] if falls_back else [1.0, 0.0]
    assert np.allclose(mo.facing_direction(seq, 1), want, atol=1e-6)


def test_facing_zero_first_axis_falls_back(skeleton):
    """A zero first 6D axis has a zero ground projection on the smoothed
    chain, so it falls back like any other degenerate frame."""
    yawed = mo.rotation_to_6d(mo.yaw_rotation(-1.1))
    seq = _with_root_6d(skeleton, [yawed, [0.0, 0.0, 0.0, 0.0, 1.0, 0.0]])
    assert np.array_equal(mo.facing_direction(seq, 1),
                          mo.facing_direction(seq, 0))


def _random_rotations(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, 3, 3)))
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    q[np.linalg.det(q) < 0, :, 2] *= -1.0       # proper rotations only
    return q


def test_facing_directions_match_gs_oracle(skeleton):
    """The numpy Gram-Schmidt equals its op-by-op tape form bit for bit,
    both match the per-frame oracle, and facing_direction reads it."""
    rng = np.random.default_rng(21)
    R = _random_rotations(rng, 40)
    seq = _with_root_6d(skeleton, [mo.rotation_to_6d(r) for r in R])
    rb = mo.rot_slice(skeleton.J).start
    _, got, _ = mo.facing_gram_schmidt(seq.frames[:, rb:rb + 6])
    tape_d = tape_penalties.facing_directions(seq.frames, skeleton,
                                              range(seq.N)).value
    assert np.array_equal(got, tape_d)
    want = [gs_facing(f, skeleton) for f in seq.frames]
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)
    for n in (0, 17, 39):
        assert np.array_equal(mo.facing_direction(seq, n), got[n])


# -- acceleration --------------------------------------------------------------


def test_acceleration_linear_motion_zero(skeleton):
    frames = np.zeros((8, skeleton.D))
    for n in range(8):
        frames[n, mo.glo_slice(skeleton.J)] = np.tile([0.1 * n, 0, 0.2 * n],
                                                      skeleton.J)
    acc = mo.joint_acceleration(mo.MotionSequence(skeleton, frames))
    assert acc.shape == (6, skeleton.J, 3)
    assert np.allclose(acc, 0.0)


def test_acceleration_quadratic(skeleton):
    frames = np.zeros((8, skeleton.D))
    for n in range(8):
        frames[n, 0] = float(n * n)  # root x
    acc = mo.joint_acceleration(mo.MotionSequence(skeleton, frames))
    assert np.allclose(acc[:, 0, 0], 2.0)
    assert np.allclose(acc[:, 0, 1:], 0.0)


def test_acceleration_matches_loop_oracle(skeleton):
    seq = make_seq(skeleton, N=12, seed=5)
    acc = mo.joint_acceleration(seq)
    p = seq.joint_positions()
    for n in range(1, 11):
        for j in range(skeleton.J):
            for k in range(3):
                want = p[n + 1, j, k] - 2 * p[n, j, k] + p[n - 1, j, k]
                assert acc[n - 1, j, k] == want


def test_acceleration_is_linear(skeleton):
    s1, s2 = make_seq(skeleton, seed=6), make_seq(skeleton, seed=7)
    combo = mo.MotionSequence(skeleton, 2.0 * s1.frames + 3.0 * s2.frames)
    assert np.allclose(mo.joint_acceleration(combo),
                       2.0 * mo.joint_acceleration(s1) +
                       3.0 * mo.joint_acceleration(s2))


def test_acceleration_needs_three_frames(skeleton):
    with pytest.raises(ValueError, match="3 frames"):
        mo.joint_acceleration(make_seq(skeleton, N=2))


def test_repair_velocities(skeleton):
    seq = mo.repair_velocities(make_seq(skeleton, seed=8))
    p, v = seq.joint_positions(), seq.joint_velocities()
    assert np.allclose(v[0], 0.0)
    assert np.allclose(v[1:], p[1:] - p[:-1])


# -- normalization ---------------------------------------------------------------


def test_normalize_identity_stats(skeleton):
    stats = mo.NormalizationStats(np.zeros(skeleton.D), np.ones(skeleton.D))
    x = make_seq(skeleton).frames
    assert np.array_equal(mo.normalize(x, stats), x)


def test_normalize_at_mean_is_zero(skeleton, stats):
    x = np.tile(stats.mean, (4, 1))
    assert np.allclose(mo.normalize(x, stats), 0.0)


def test_normalize_round_trip(skeleton, stats):
    x = make_seq(skeleton, seed=9).frames
    assert np.allclose(mo.denormalize(mo.normalize(x, stats), stats), x,
                       atol=1e-9)


def test_normalize_batch_moments(skeleton):
    x = make_seq(skeleton, N=500, seed=10).frames * 3.0 + 1.0
    stats = mo.NormalizationStats.from_frames(x)
    z = mo.normalize(x, stats)
    assert np.abs(z.mean(axis=0)).max() < 1e-6
    assert np.abs(z.std(axis=0) - 1.0).max() < 1e-3


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=2),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=2**16))
def test_hypothesis_normalize_on_var_gradient(P, N, D, seed):
    """denormalize on a (P, N, D) Var: one node, whose backward matches
    central differences and whose value and gradient equal the op-by-op
    tape form bit for bit. normalize, which takes arrays only, inverts
    it to rounding."""
    rng = np.random.default_rng(seed)
    stats = mo.NormalizationStats(rng.standard_normal(D),
                                  rng.uniform(0.1, 3.0, D))
    w = ad.constant(rng.standard_normal((P, N, D)))
    x = rng.standard_normal((P, N, D))
    check_gradient(lambda v: to.sum_(to.tanh(mo.denormalize(v, stats)) * w),
                   x, n_coords=P * N * D, rtol=1e-5, h=1e-6)
    results = []
    for f in (mo.denormalize, tape.denormalize):
        v = ad.Var(x)
        out = f(v, stats)
        (g,) = ad.grad(to.sum_(to.tanh(out) * w), [v])
        results.append((out.value, g))
    v = ad.Var(x)
    assert mo.denormalize(v, stats).parents == (v,)
    for got, want in zip(*results):
        assert np.array_equal(got, want)
    assert np.allclose(mo.normalize(results[0][0], stats), x, rtol=0.0,
                       atol=1e-12)


def test_normalize_checks_width_on_var(stats):
    """Both check the width: normalize of an array, denormalize of a Var."""
    bad = np.zeros((2, 3, stats.D + 1))
    for f, frames in ((mo.normalize, bad), (mo.denormalize, ad.Var(bad))):
        with pytest.raises(ValueError, match="dimension"):
            f(frames, stats)


def test_std_underflow_rejected(skeleton):
    with pytest.raises(ValueError, match="std"):
        mo.NormalizationStats(np.zeros(4), np.zeros(4))


def test_stats_json_round_trip(stats):
    again = mo.NormalizationStats.from_json(stats.to_json())
    assert np.array_equal(again.mean, stats.mean)
    assert np.array_equal(again.std, stats.std)


# -- motion file format ------------------------------------------------------------


def test_motion_file_round_trip_bit_exact(skeleton, tmp_path):
    seq = make_seq(skeleton, N=7, seed=11)
    seq.person_id = 3
    path = tmp_path / "a.motion"
    mo.write_motion(seq, path)
    back = mo.read_motion(path, skeleton)
    assert np.array_equal(back.frames, seq.frames)
    assert back.person_id == 3 and back.fps == seq.fps and back.N == seq.N


def test_motion_file_write_deterministic(skeleton, tmp_path):
    seq = make_seq(skeleton, seed=12)
    p1, p2 = tmp_path / "x.motion", tmp_path / "y.motion"
    mo.write_motion(seq, p1)
    mo.write_motion(seq, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_motion_file_version_check(skeleton, tmp_path):
    path = tmp_path / "bad.motion"
    mo.write_motion(make_seq(skeleton), path)
    lines = path.read_text().splitlines()
    lines[0] = lines[0].replace('"version": 1', '"version": 99')
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="version"):
        mo.read_motion(path, skeleton)


def test_motion_file_ragged_row(skeleton, tmp_path):
    path = tmp_path / "a.motion"
    mo.write_motion(make_seq(skeleton), path)
    lines = path.read_text().splitlines()
    lines[2] = lines[2].rsplit(" ", 1)[0]       # one value short
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        mo.read_motion(path, skeleton)


def test_motion_file_frame_count_check(skeleton, tmp_path):
    path = tmp_path / "a.motion"
    mo.write_motion(make_seq(skeleton), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError, match="frame count"):
        mo.read_motion(path, skeleton)


def test_motion_file_skeleton_mismatch(skeleton, tmp_path):
    path = tmp_path / "a.motion"
    mo.write_motion(make_seq(skeleton), path)
    other = mo.Skeleton(("root", "x"), (-1, 0), (0.1, 0.2), (1, 1, 1, 1),
                        (0.1, 0.1))
    with pytest.raises(ValueError, match="skeleton"):
        mo.read_motion(path, other)


# -- 6D rotations --------------------------------------------------------------


def test_gram_schmidt_orthonormal_right_handed(skeleton):
    """The facing of any 6D vector is the ground projection of the third
    column of the right-handed orthonormal frame whose first two columns
    span, in order, the vector's two axes (a sign-fixed complete QR)."""
    rng = np.random.default_rng(13)
    r6 = rng.standard_normal((25, 6))
    _, d, _ = mo.facing_gram_schmidt(r6)
    for k in range(25):
        q, r = np.linalg.qr(r6[k].reshape(2, 3).T, mode="complete")
        q[:, :2] *= np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 2] *= -1.0
        want = q[[0, 2], 2] / np.hypot(q[0, 2], q[2, 2])
        assert np.allclose(d[k], want, atol=1e-9)


def test_yaw_rotation_forward_axis():
    for theta in (0.0, 0.5, np.pi / 2, -2.2):
        R = mo.yaw_rotation(theta)
        assert np.allclose(R[:, 2], [np.cos(theta), 0.0, np.sin(theta)])
        assert np.allclose(R.T @ R, np.eye(3), atol=1e-12)
        assert np.isclose(np.linalg.det(R), 1.0)
