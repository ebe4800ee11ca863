"""Penalty terms: spec'd point values, loop oracles, equivariances,
finite-difference gradients away from hinge kinks."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from groupmotion import autodiff as ad
from groupmotion import penalties as pe
from groupmotion.motion import facing_gram_schmidt, glo_slice, rot_slice, \
    rotation_to_6d, yaw_rotation

import tape_penalties as tp
from conftest import check_gradient


def frames_with_root(roots, skeleton):
    """(N, D) frames whose root follows `roots`, other channels zero."""
    roots = np.asarray(roots, dtype=np.float64)
    f = np.zeros((roots.shape[0], skeleton.D))
    f[:, 0:3] = roots
    return f


def rand_frames(skeleton, N=10, seed=0, scale=1.0):
    return np.random.default_rng(seed).standard_normal((N, skeleton.D)) * scale


# -- overlap ------------------------------------------------------------------


def test_overlap_coincident_roots(skeleton):
    f = frames_with_root(np.zeros((10, 3)), skeleton)
    val = pe.overlap_penalty(f, [f.copy()], delta=0.3)
    assert np.isclose(float(val.value), 3.0)


def test_overlap_far_apart_zero(skeleton):
    a = frames_with_root(np.zeros((10, 3)), skeleton)
    b = frames_with_root(np.tile([5.0, 0, 0], (10, 1)), skeleton)
    assert float(pe.overlap_penalty(a, [b], delta=0.3).value) == 0.0


def test_overlap_empty_others_warns(skeleton):
    f = frames_with_root(np.zeros((4, 3)), skeleton)
    with pytest.warns(UserWarning, match="empty"):
        val = pe.overlap_penalty(f, [], delta=0.3)
    assert float(val.value) == 0.0


def test_overlap_matches_loop_oracle(skeleton):
    a, b = rand_frames(skeleton, seed=1, scale=0.2), \
        rand_frames(skeleton, seed=2, scale=0.2)
    got = float(pe.overlap_penalty(a, [b], delta=0.3).value)
    want = 0.0
    for n in range(a.shape[0]):
        d = np.linalg.norm(a[n, :3] - b[n, :3])
        want += max(0.0, 0.3 - d)
    assert abs(got - want) < 1e-12


def test_overlap_translation_invariance(skeleton):
    a, b = rand_frames(skeleton, seed=3, scale=0.2), \
        rand_frames(skeleton, seed=4, scale=0.2)
    shift = np.zeros(skeleton.D)
    shift[glo_slice(skeleton.J)] = np.tile([1.0, -2.0, 0.5], skeleton.J)
    v1 = float(pe.overlap_penalty(a, [b], delta=0.3).value)
    v2 = float(pe.overlap_penalty(a + shift, [b + shift], delta=0.3).value)
    assert abs(v1 - v2) < 1e-12


# -- root ----------------------------------------------------------------------


def test_root_on_target_zero(skeleton):
    roots = np.tile([1.0, 0.9, 2.0], (6, 1))
    f = frames_with_root(roots, skeleton)
    val = pe.root_penalty(f, roots[:3], np.arange(3))
    assert float(val.value) == 0.0


def test_root_one_meter_squared(skeleton):
    f = frames_with_root(np.zeros((6, 3)), skeleton)
    val = pe.root_penalty(f, [[1.0, 0, 0]], [2], delta=0.0)
    assert np.isclose(float(val.value), 1.0)


def test_root_inside_threshold(skeleton):
    f = frames_with_root(np.zeros((6, 3)), skeleton)
    val = pe.root_penalty(f, [[0.4, 0, 0]], [0], delta=0.25)
    assert float(val.value) == 0.0  # 0.16 - 0.25 < 0


def test_root_frame_out_of_range(skeleton):
    f = frames_with_root(np.zeros((6, 3)), skeleton)
    with pytest.raises(IndexError):
        pe.root_penalty(f, [[0, 0, 0]], [6])


# -- region ----------------------------------------------------------------------


def test_region_inside_zero(skeleton):
    f = frames_with_root(np.zeros((5, 3)), skeleton)
    val = pe.region_penalty(f, [-1, -1, -1], [1, 1, 1], skeleton)
    assert float(val.value) == 0.0


def test_region_single_excess_normalized(skeleton):
    N = 5
    f = np.zeros((N, skeleton.D))
    f[2, 3] = 1.5  # joint 1, x axis, one frame, 0.5 beyond u_x = 1
    val = pe.region_penalty(f, [-1, -1, -1], [1, 1, 1], skeleton)
    assert np.isclose(float(val.value), 0.5 / (N * skeleton.J))


def test_region_matches_loop_oracle(skeleton):
    f = rand_frames(skeleton, N=7, seed=5)
    lower, upper = np.array([-0.5, -0.2, -0.4]), np.array([0.3, 0.6, 0.2])
    got = float(pe.region_penalty(f, lower, upper, skeleton).value)
    want = 0.0
    for n in range(7):
        for j in range(skeleton.J):
            p = f[n, 3 * j:3 * j + 3]
            for k in range(3):
                want += max(0.0, lower[k] - p[k]) + max(0.0, p[k] - upper[k])
    want /= 7 * skeleton.J
    assert abs(got - want) < 1e-12


@pytest.mark.parametrize("joints", [None, [5, 1, 6], [1, 2, 3, 4, 5, 6, 7]],
                         ids=["all", "subset", "all-but-root"])
def test_region_value_and_gradient_match_joint_loop(skeleton, joints):
    """The one-pass penalty against a per-joint numpy loop: value to 1e-12
    relative, gradient exactly."""
    f = rand_frames(skeleton, N=7, seed=5)
    lower, upper = np.array([-0.5, -0.2, -0.4]), np.array([0.3, 0.6, 0.2])
    x = ad.Var(f)
    val = pe.region_penalty(x, lower, upper, skeleton, joints)
    (got_g,) = ad.grad(val, [x])
    chosen = range(skeleton.J) if joints is None else joints
    scale = 1.0 / (7 * len(chosen))
    want, want_g = 0.0, np.zeros_like(f)
    for j in chosen:
        p = f[:, 3 * j:3 * j + 3]
        want += np.sum(np.maximum(0.0, lower - p) + np.maximum(0.0, p - upper))
        want_g[:, 3 * j:3 * j + 3] = scale * (1.0 * (p > upper) -
                                              1.0 * (p < lower))
    want *= scale
    assert abs(float(val.value) - want) <= 1e-12 * abs(want)
    assert np.array_equal(got_g, want_g)


@pytest.mark.parametrize("joints", [[8], [-1], [], [0.5], "spine", [2, 2],
                                    [True]])
def test_region_joints_validation(skeleton, joints):
    with pytest.raises(ValueError, match="joints"):
        pe.region_penalty(rand_frames(skeleton, N=4), [0, 0, 0], [1, 1, 1],
                          skeleton, joints)


def test_region_validation(skeleton):
    f = rand_frames(skeleton, N=4, seed=6)
    with pytest.raises(ValueError, match="bound"):
        pe.region_penalty(f, [1, 0, 0], [0, 1, 1], skeleton)
    with pytest.raises(ValueError, match="joint"):
        pe.region_penalty(f, [0, 0, 0], [1, 1, 1], skeleton, joints=[])


@pytest.mark.parametrize("lower", [-1, [-1], [-1, -1, -1], [[-1]],
                                   [[-1, -1, -1]], [0, 0], [0] * 4,
                                   [[0, 0, 0]] * 2, [[0], [0], [0]]])
def test_region_config_bound_shapes(skeleton, lower):
    """A config's region bound is one that broadcasts against any (M, 3)
    block of joint positions, and then evaluates; any other is rejected
    when the config is built."""
    params = {"lower": lower, "upper": np.add(lower, 2.0).tolist()}
    if np.shape(lower) not in ((), (1,), (3,), (1, 1), (1, 3)):
        with pytest.raises(ValueError, match="region penalty lower"):
            pe.PenaltyConfig("region", subjects=(1,), params=params)
        return
    cfg = pe.PenaltyConfig("region", subjects=(1,), params=params)
    val = pe.evaluate_penalty(cfg, {1: rand_frames(skeleton, N=4, seed=7)},
                              skeleton)
    assert np.isfinite(val.value)


# -- orientation --------------------------------------------------------------------


def oriented_frames(theta, skeleton, N=4):
    f = np.zeros((N, skeleton.D))
    rb = rot_slice(skeleton.J).start
    f[:, rb:rb + 6] = rotation_to_6d(yaw_rotation(theta))
    return f


def test_orientation_aligned_zero(skeleton):
    f = oriented_frames(0.3, skeleton)
    d = np.tile([np.cos(0.3), np.sin(0.3)], (4, 1))
    val = pe.orientation_penalty(f, d, np.arange(4), skeleton, delta=0.2)
    assert float(val.value) < 1e-12


def test_orientation_perpendicular(skeleton):
    f = oriented_frames(0.0, skeleton)
    d = np.tile([0.0, 1.0], (4, 1))
    val = pe.orientation_penalty(f, d, np.arange(4), skeleton, delta=0.2)
    assert np.isclose(float(val.value), 4 * 0.8)


def test_orientation_opposite(skeleton):
    f = oriented_frames(0.0, skeleton)
    d = np.tile([-1.0, 0.0], (4, 1))
    val = pe.orientation_penalty(f, d, np.arange(4), skeleton, delta=0.2)
    assert np.isclose(float(val.value), 4 * 1.8)


def test_orientation_zero_norm_target_rejected(skeleton):
    f = oriented_frames(0.0, skeleton)
    with pytest.raises(ValueError, match="zero-norm"):
        pe.orientation_penalty(f, [[0.0, 0.0]], [0], skeleton)


def test_facing_directions_match_kinematics(skeleton):
    from groupmotion.motion import MotionSequence, facing_direction
    rng = np.random.default_rng(7)
    for theta in rng.uniform(-np.pi, np.pi, 8):
        f = oriented_frames(theta, skeleton)
        d = tp.facing_directions(f, skeleton, [1]).value[0]
        seq = MotionSequence(skeleton, f)
        assert np.allclose(d, facing_direction(seq, 1), atol=1e-9)


# -- relative ------------------------------------------------------------------------


def test_relative_inside_band_zero(skeleton):
    a = frames_with_root(np.zeros((8, 3)), skeleton)
    b = frames_with_root(np.tile([1.0, 0, 0], (8, 1)), skeleton)
    val = pe.relative_penalty(a, b, 0.5, 2.0)
    assert float(val.value) == 0.0


def test_relative_above_band(skeleton):
    a = frames_with_root(np.zeros((8, 3)), skeleton)
    b = frames_with_root(np.tile([2.1, 0, 0], (8, 1)), skeleton)
    val = pe.relative_penalty(a, b, 0.5, 2.0, frame_set=np.arange(5))
    assert np.isclose(float(val.value), 0.5)


def test_relative_matches_loop_oracle(skeleton):
    a, b = rand_frames(skeleton, seed=8), rand_frames(skeleton, seed=9)
    got = float(pe.relative_penalty(a, b, 0.5, 2.0).value)
    want = 0.0
    for n in range(a.shape[0]):
        d = np.linalg.norm(a[n, :3] - b[n, :3])
        want += max(0.0, 0.5 - d) + max(0.0, d - 2.0)
    assert abs(got - want) < 1e-12


def test_relative_band_validation(skeleton):
    a = rand_frames(skeleton, N=4, seed=10)
    with pytest.raises(ValueError, match="d_min"):
        pe.relative_penalty(a, a, 2.0, 0.5)


# -- boundary ------------------------------------------------------------------------


def test_boundary_constant_velocity_zero(skeleton):
    f = np.zeros((12, skeleton.D))
    for n in range(12):
        f[n, glo_slice(skeleton.J)] = np.tile([0.1 * n, 0, 0], skeleton.J)
    val = pe.boundary_penalty(f, 3, 6, skeleton)
    assert float(val.value) < 1e-24


def test_boundary_quadratic_axis(skeleton):
    f = np.zeros((12, skeleton.D))
    f[:, 0] = np.arange(12.0) ** 2  # root x only
    # every interior acceleration is 2 on one axis of one joint
    val = pe.boundary_penalty(f, 3, 6, skeleton)
    assert np.isclose(float(val.value), 4.0 / skeleton.J)


def test_boundary_matches_acceleration_oracle(skeleton):
    from groupmotion.motion import MotionSequence, joint_acceleration
    f = rand_frames(skeleton, N=14, seed=11)
    ws, wl = 4, 7
    got = float(pe.boundary_penalty(f, ws, wl, skeleton).value)
    acc = joint_acceleration(MotionSequence(skeleton, f))
    window = acc[ws - 1:ws + wl - 1]
    want = float((window ** 2).sum() / (window.shape[0] * skeleton.J))
    assert abs(got - want) < 1e-12


def test_boundary_window_validation(skeleton):
    f = rand_frames(skeleton, N=10, seed=12)
    with pytest.raises(ValueError, match=">= 3"):
        pe.boundary_penalty(f, 0, 2, skeleton)
    with pytest.raises(ValueError, match="outside"):
        pe.boundary_penalty(f, 8, 5, skeleton)


# -- gradients ---------------------------------------------------------------------


def penalty_losses(skeleton):
    other = ad.constant(rand_frames(skeleton, seed=20, scale=0.15))
    tgts = np.random.default_rng(21).standard_normal((3, 3))
    d_tgt = np.tile([0.6, 0.8], (2, 1))
    return [
        ("overlap", lambda x: pe.overlap_penalty(x, [other], delta=0.3)),
        ("root", lambda x: pe.root_penalty(x, tgts, [0, 2, 4], delta=0.1)),
        ("region", lambda x: pe.region_penalty(
            x, [-0.3, -0.3, -0.3], [0.3, 0.3, 0.3], skeleton)),
        ("orientation", lambda x: pe.orientation_penalty(
            x, d_tgt, [1, 3], skeleton, delta=0.2)),
        ("relative", lambda x: pe.relative_penalty(x, other, 0.5, 2.0)),
        ("boundary", lambda x: pe.boundary_penalty(x, 2, 5, skeleton)),
    ]


@pytest.mark.parametrize("idx", range(6))
def test_penalty_gradients_match_fd(idx, skeleton):
    name, fn = penalty_losses(skeleton)[idx]
    # random frames keep distances well away from the hinge kinks
    x = rand_frames(skeleton, N=10, seed=22 + idx, scale=0.5)
    check_gradient(fn, x, n_coords=10, rtol=1e-4, h=1e-6)


def test_hinge_inert_when_satisfied(skeleton):
    a = frames_with_root(np.zeros((6, 3)), skeleton)
    b = frames_with_root(np.tile([3.0, 0, 0], (6, 1)), skeleton)
    x = ad.Var(a)
    loss = pe.overlap_penalty(x, [ad.constant(b)], delta=0.3)
    (g,) = ad.grad(loss, [x])
    assert np.allclose(g, 0.0)


# -- config & aggregation ------------------------------------------------------------


def test_penalty_config_validation():
    with pytest.raises(ValueError, match="kind"):
        pe.PenaltyConfig(kind="gravity")
    with pytest.raises(ValueError, match="weight"):
        pe.PenaltyConfig(kind="overlap", weight=-1.0)
    with pytest.raises(ValueError, match="d_min"):
        pe.PenaltyConfig(kind="relative",
                         params={"d_min": 2.0, "d_max": 1.0})


def test_penalty_config_json():
    """A penalty's JSON object is its keyword arguments; lists become the
    subjects tuple and the int frames array."""
    cfg = pe.PenaltyConfig(**{
        "kind": "root", "weight": 2.0, "subjects": [1],
        "frames": [0, 3], "params": {"targets": [[0, 0, 0], [1, 1, 1]]}})
    assert cfg.kind == "root" and cfg.weight == 2.0
    assert np.array_equal(cfg.frames, [0, 3])
    assert cfg.subjects == (1,) and cfg.frames.dtype == int


def test_aggregate_single_term_weight_one(skeleton):
    a, b = rand_frames(skeleton, seed=23, scale=0.2), \
        rand_frames(skeleton, seed=24, scale=0.2)
    world = {1: a, 2: b}
    cfg = pe.PenaltyConfig("overlap", 1.0, (1, 2), params={"delta": 0.3})
    total, br = pe.aggregate([cfg], world, skeleton)
    direct = float(pe.overlap_penalty(a, [b], delta=0.3).value)
    assert np.isclose(float(total.value), direct)
    assert np.isclose(br.total, direct)


def test_aggregate_zero_weights(skeleton):
    a = rand_frames(skeleton, seed=25)
    world = {1: a, 2: a + 0.1}
    cfgs = [pe.PenaltyConfig("overlap", 0.0, (1, 2)),
            pe.PenaltyConfig("relative", 0.0, (1, 2),
                             params={"d_min": 0.5, "d_max": 1.0})]
    total, br = pe.aggregate(cfgs, world, skeleton)
    assert float(total.value) == 0.0


def test_aggregate_breakdown_consistency(skeleton):
    rng = np.random.default_rng(26)
    world = {i: rand_frames(skeleton, seed=30 + i, scale=0.3)
             for i in (1, 2, 3)}
    cfgs = [
        pe.PenaltyConfig("overlap", 1.5, (1, 2, 3), params={"delta": 0.4}),
        pe.PenaltyConfig("relative", 0.7, (2, 3),
                         params={"d_min": 0.2, "d_max": 1.0}),
        pe.PenaltyConfig("root", 2.0, (1,),
                         params={"targets": rng.standard_normal((2, 3)),
                                 "delta": 0.0},
                         frames=np.array([0, 5])),
    ]
    total, br = pe.aggregate(cfgs, world, skeleton)
    assert np.isclose(br.total, sum(br.weighted.values()), atol=1e-12)
    assert np.isclose(float(total.value), br.total)



# -- the frames a term reads ---------------------------------------------------------


N_READ = 20


def boundary_cfg(pid, start, length):
    return pe.PenaltyConfig("boundary", 1.0, (pid,), params={
        "window_start": start, "window_len": length})


def read_cases(N=N_READ):
    """name -> (config on persons 1 and 2 of N frames, the frames it
    declares with `frames_read`)."""
    rng = np.random.default_rng(41)
    band = {"d_min": 5.0, "d_max": 6.0}
    return {
        "overlap": (pe.PenaltyConfig("overlap", 1.0, (1, 2),
                                     params={"delta": 3.0}), range(N)),
        "root": (pe.PenaltyConfig("root", 1.0, (1,), frames=(N - 1, 4, 4),
                                  params={"targets": rng.standard_normal(
                                      (3, 3))}), range(4, N)),
        "root-every-frame": (pe.PenaltyConfig(
            "root", 1.0, (2,), params={"targets": rng.standard_normal(
                (N, 3))}), range(N)),
        "region": (pe.PenaltyConfig("region", 1.0, (1,), params={
            "lower": -0.2, "upper": 0.2}), range(N)),
        "orientation": (pe.PenaltyConfig(
            "orientation", 1.0, (2,), frames=(11, 6), params={
                "targets": [[0.6, 0.8], [-1.0, 0.0]], "delta": 0.0}),
            range(6, 12)),
        "relative": (pe.PenaltyConfig("relative", 1.0, (1, 2), params=band),
                     range(N)),
        "relative-frames": (pe.PenaltyConfig("relative", 1.0, (2, 1),
                                             frames=(3, 8, 8), params=band),
                            range(N)),
        "boundary-start": (boundary_cfg(1, 0, 5), range(0, 6)),
        "boundary-end": (boundary_cfg(2, N - 4, 4), range(N - 5, N)),
        "boundary-seam": (boundary_cfg(1, 7, 6), range(6, 14)),
    }


def test_frames_read_declares():
    """`frames_read` gives a boundary window's rows, the hull of a term's
    frames, or every frame; a term of no frames reads none."""
    for name, (cfg, want) in read_cases().items():
        assert cfg.frames_read(N_READ) == want, name
    none = pe.PenaltyConfig("root", 1.0, (1,), frames=(),
                            params={"targets": np.zeros((0, 3))})
    assert none.frames_read(N_READ) == range(0)


@pytest.mark.parametrize("case", list(read_cases()))
def test_term_reads_only_declared_frames(skeleton, case):
    """A term on rows of one (2, N, D) Var: NaN on every frame outside its
    `frames_read` changes neither its value nor its gradient, which is
    zero off those frames."""
    cfg, _ = read_cases()[case]
    read = cfg.frames_read(N_READ)
    outside = np.ones(N_READ, dtype=bool)
    outside[read.start:read.stop] = False
    x = np.random.default_rng(42).standard_normal((2, N_READ, skeleton.D))
    results = []
    for value in (x, np.where(outside[None, :, None], np.nan, x)):
        v = ad.Var(value)
        term = pe.evaluate_penalty(cfg, {1: pe.Row(v, 0), 2: pe.Row(v, 1)},
                                   skeleton)
        results.append((term.value.tobytes(), ad.grad(term, [v])[0]))
    (value, g), (perturbed, g_perturbed) = results
    assert value == perturbed and np.array_equal(g, g_perturbed)
    assert g.any() and not g[:, outside].any()


# -- one tape node per term, against the op-by-op oracle -------------------------


def term_cases(skeleton, N=10):
    """name -> (build(module, x, others), subjects it reads, of which the
    first n_vars are Vars and the rest numpy). Repeated frames, a numpy
    subject and several overlap others are included."""
    tgts = np.random.default_rng(40).standard_normal((4, 3)) * 0.5
    d_tgt = [[0.6, 0.8], [1.0, 0.0], [-1.0, 0.2], [0.0, -1.0]]
    box = ([-0.3, -0.3, -0.3], [0.3, 0.3, 0.3])
    return {
        "overlap": (lambda m, x, o: m.overlap_penalty(x, o, 1.0), 2, 2),
        "overlap-3": (lambda m, x, o: m.overlap_penalty(x, o, 1.0), 4, 4),
        "overlap-fixed": (lambda m, x, o: m.overlap_penalty(x, o, 1.0), 4, 1),
        "root": (lambda m, x, o: m.root_penalty(x, tgts, [1, 3, 3, 7], 0.1),
                 1, 1),
        "region": (lambda m, x, o: m.region_penalty(x, *box, skeleton), 1, 1),
        "region-joints": (lambda m, x, o: m.region_penalty(
            x, *box, skeleton, [5, 1, 6]), 1, 1),
        "orientation": (lambda m, x, o: m.orientation_penalty(
            x, d_tgt, [1, 3, 3, 8], skeleton, 0.2), 1, 1),
        "relative": (lambda m, x, o: m.relative_penalty(x, o[0], 0.8, 1.2),
                     2, 2),
        "relative-fixed": (lambda m, x, o: m.relative_penalty(
            x, o[0], 0.8, 1.2, [0, 2, 2, 5]), 2, 1),
        "boundary": (lambda m, x, o: m.boundary_penalty(x, 2, 5, skeleton),
                     1, 1),
        "boundary-whole": (lambda m, x, o: m.boundary_penalty(
            x, 0, N, skeleton), 1, 1),
    }


CASES = list(term_cases(None))


def case_subjects(skeleton, case, seed):
    build, n_subjects, n_vars = term_cases(skeleton)[case]
    frames = [rand_frames(skeleton, seed=seed + i, scale=0.5)
              for i in range(n_subjects)]
    return build, [ad.Var(f) if i < n_vars else f
                   for i, f in enumerate(frames)]


def run_term(build, module, subjects):
    """Value and gradients of one term, fresh Vars for the Var subjects."""
    subjects = [ad.Var(s.value) if isinstance(s, ad.Var) else s
                for s in subjects]
    out = build(module, subjects[0], subjects[1:])
    return out, ad.grad(out, [s for s in subjects if isinstance(s, ad.Var)])


@pytest.mark.parametrize("seed", [50, 60, 70])
@pytest.mark.parametrize("case", CASES)
def test_terms_match_tape_oracle(skeleton, case, seed):
    """Values and gradients are bit-identical to the op-by-op forms."""
    build, subjects = case_subjects(skeleton, case, seed)
    got, got_g = run_term(build, pe, subjects)
    want, want_g = run_term(build, tp, subjects)
    assert np.array_equal(got.value, want.value)
    for a, b in zip(got_g, want_g):
        assert np.abs(b).max() > 0.0
        assert np.array_equal(a, b)


def count_nodes(monkeypatch, fn):
    """fn()'s result and the Vars it created."""
    created = []
    init = ad.Var.__init__

    def counting_init(self, *args, **kwargs):
        created.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ad.Var, "__init__", counting_init)
    try:
        return fn(), created
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("case", CASES)
def test_each_term_records_one_node(skeleton, monkeypatch, case):
    """A term is one node whose parents are its Var subjects; the numpy
    ones are no parents and add no constant leaf."""
    build, subjects = case_subjects(skeleton, case, 80)
    out, created = count_nodes(
        monkeypatch, lambda: build(pe, subjects[0], subjects[1:]))
    assert created == [out]
    assert list(out.parents) == [s for s in subjects if isinstance(s, ad.Var)]


def test_term_on_numpy_subjects_is_constant(skeleton):
    f = rand_frames(skeleton, seed=70, scale=0.5)
    for term in (pe.overlap_penalty(f, [f + 0.1]),
                 pe.boundary_penalty(f, 2, 5, skeleton)):
        assert not term.requires_grad and term.parents == ()


def test_aggregate_adds_one_node(skeleton, monkeypatch):
    """The weighted sum is one node over the terms, bit-identical to the
    add-and-mul chain in value and gradient."""
    world = {i: ad.Var(rand_frames(skeleton, seed=80 + i, scale=0.5))
             for i in (1, 2, 3)}
    cfgs = [pe.PenaltyConfig("overlap", 1.5, (1, 2, 3), params={"delta": 1.0}),
            pe.PenaltyConfig("relative", 0.7, (2, 3),
                             params={"d_min": 0.8, "d_max": 1.2}),
            pe.PenaltyConfig("boundary", 3, (1,),
                             params={"window_start": 2, "window_len": 5})]
    (total, _), created = count_nodes(
        monkeypatch, lambda: pe.aggregate(cfgs, world, skeleton))
    assert len(created) == len(cfgs) + 1 and created[-1] is total
    assert total.parents == tuple(created[:-1])
    chain = tp.aggregate(created[:-1], [c.weight for c in cfgs])
    assert np.array_equal(total.value, chain.value)
    leaves = list(world.values())
    for a, b in zip(ad.grad(total, leaves), ad.grad(chain, leaves)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("kind", ["overlap", "relative"])
def test_coincident_roots_have_zero_gradient(skeleton, kind):
    """Where two roots coincide the direction is undefined: those rows get
    the subgradient 0, not 0.5 / 0 times 0, and the rest are unchanged."""
    def term(a, b):
        return pe.overlap_penalty(a, [b], 1.0) if kind == "overlap" else \
            pe.relative_penalty(a, b, 0.8, 1.2)

    a = rand_frames(skeleton, seed=90, scale=0.5)
    b = rand_frames(skeleton, seed=91, scale=0.5)
    b[[2, 5], 0:3] = a[[2, 5], 0:3]
    x, y = ad.Var(a), ad.Var(b)
    gx, gy = ad.grad(term(x, y), [x, y])
    assert np.isfinite(gx).all() and np.isfinite(gy).all()
    assert not gx[[2, 5]].any() and not gy[[2, 5]].any()
    x2, y2 = ad.Var(np.delete(a, [2, 5], 0)), ad.Var(np.delete(b, [2, 5], 0))
    (g2,) = ad.grad(term(x2, y2), [x2])
    assert np.array_equal(np.delete(gx, [2, 5], 0), g2)


def hinge_arguments(name, x, skeleton):
    """The values at which the terms of `penalty_losses` have kinks (root
    distances included): finite differences across one would not match
    the subgradient."""
    other = rand_frames(skeleton, seed=20, scale=0.15)
    dist = np.linalg.norm(x[:, 0:3] - other[:, 0:3], axis=1)
    if name == "overlap":
        return np.r_[0.3 - dist, dist]
    if name == "relative":
        return np.r_[0.5 - dist, dist - 2.0, dist]
    if name == "root":
        d = x[[0, 2, 4], 0:3] - np.random.default_rng(21).standard_normal(
            (3, 3))
        return np.sum(d * d, axis=1) - 0.1
    if name == "region":
        p = x[:, glo_slice(skeleton.J)]
        return np.r_[(p + 0.3).ravel(), (p - 0.3).ravel()]
    if name == "orientation":
        rb = rot_slice(skeleton.J).start
        _, d, _ = facing_gram_schmidt(x[[1, 3], rb:rb + 6])
        return 1.0 - d @ [0.6, 0.8] - 0.2
    return np.ones(1)                     # boundary is smooth


@pytest.mark.parametrize("idx", range(6))
@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.2, max_value=1.0),
       st.integers(min_value=0, max_value=2**16))
def test_hypothesis_terms_match_fd(skeleton, idx, scale, seed):
    """Every kind's backward against central differences, on random frames
    away from its kinks."""
    name, fn = penalty_losses(skeleton)[idx]
    x = rand_frames(skeleton, N=10, seed=seed, scale=scale)
    assume(np.abs(hinge_arguments(name, x, skeleton)).min() > 1e-3)
    check_gradient(fn, x, n_coords=10, seed=seed, rtol=1e-4, h=1e-6)
