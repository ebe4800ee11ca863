"""Scripted motion families: extraction, fixed points, label semantics."""

import numpy as np
import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from groupmotion import autodiff as ad
from groupmotion import scripts as sc
from groupmotion.motion import facing_direction, MotionSequence, repair_velocities

import tape_ops as to
import tape_scripts as tape
from conftest import check_gradient, finite_difference

LABELS = [s.name for s in sc.default_vocabulary()]


def scripted_pair(name, skeleton, N=24, seed=0):
    # draw values inside each family's representable parameter ranges
    spec = sc.label_by_name(name).spec
    rng = np.random.default_rng(seed)
    a1 = np.array([rng.uniform(-1, 1), sc.ROOT_HEIGHT, rng.uniform(-1, 1)])
    a2 = a1 + np.array([2.5, 0.0, 0.5])
    v1 = {"anchor": a1,
          "drift": rng.uniform(-0.7, 0.7, 2) * spec.drift_max,
          "speed": float(np.exp(rng.uniform(-0.7, 0.7) * spec.speed_log_max)),
          "psi": float(rng.uniform(-0.7, 0.7) * sc.HEADING_MAX),
          "phase": float(rng.uniform(-1, 1))}
    v2 = dict(v1, anchor=a2,
              psi=float(rng.uniform(-0.7, 0.7) * sc.HEADING_MAX))
    return sc.build_pair_from_values(v1, v2, spec, skeleton, N), (v1, v2), spec


def test_label_lookup():
    lab = sc.label_by_name("approach")
    assert lab.name == "approach" and lab.spec.kind == "approach"
    with pytest.raises(KeyError):
        sc.label_by_name("moonwalk")
    with pytest.raises(ValueError):
        sc.InteractionLabel(99)


def test_vocabulary_names_unique():
    names = [s.name for s in sc.default_vocabulary()]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("name", [s.name for s in sc.default_vocabulary()])
def test_script_shapes_and_finiteness(name, skeleton):
    (f1, f2), _, _ = scripted_pair(name, skeleton)
    assert f1.shape == (24, skeleton.D) and f2.shape == (24, skeleton.D)
    assert np.isfinite(f1).all() and np.isfinite(f2).all()


@pytest.mark.parametrize("name", LABELS)
def test_script_is_fixed_point_of_extraction(name, skeleton):
    """Rebuilding from extracted parameters reproduces the script."""
    (f1, f2), _, spec = scripted_pair(name, skeleton, seed=3)
    s1, s2 = sc.build_pair_scripts(ad.constant(np.stack([f1, f2])),
                                   spec, skeleton).value
    assert np.allclose(s1, f1, atol=1e-9)
    assert np.allclose(s2, f2, atol=1e-9)


@pytest.mark.parametrize("N", [2, 12, 240])
@pytest.mark.parametrize("name", LABELS)
def test_script_starts_at_its_functionals(name, N, skeleton):
    """Every script kind starts at its anchor and passes its carriers
    through: the assembly inputs' frame-0 root x and z and the carriers
    are the input functionals, bit for bit."""
    F = np.random.default_rng(N).standard_normal((2, 8))
    q, _ = sc.script_inputs(F, sc.label_by_name(name).spec, skeleton, N)
    assert np.array_equal(q["root"][:, 0, [0, 2]], F[:, :2])
    assert np.array_equal(q["u"], F[:, 2:5])
    assert np.array_equal(q["v"], F[:, 5:])


def test_extraction_recovers_generating_values(skeleton):
    (f1, _), (v1, _), spec = scripted_pair("approach", skeleton, seed=4)
    p, _ = sc._params(sc.functionals(
        f1[None], sc.functional_channels(skeleton)), spec)
    assert abs(p["drift"][0, 0] - v1["drift"][0]) < 1e-9
    assert abs(p["drift"][0, 2] - v1["drift"][1]) < 1e-9
    assert abs(p["speed"][0] - v1["speed"]) < 1e-9
    assert abs(p["psi"][0] - v1["psi"]) < 1e-9


def test_anchor_extraction_pins_height(skeleton):
    (f1, _), (v1, _), spec = scripted_pair("approach", skeleton, seed=5)
    w = f1.copy()
    w[0, 1] = 7.5  # corrupt frame-0 root height
    p, _ = sc._params(sc.functionals(
        w[None], sc.functional_channels(skeleton)), spec)
    anchor = p["anchor"][0]
    assert np.allclose(anchor[[0, 2]], v1["anchor"][[0, 2]])
    assert anchor[1] == sc.ROOT_HEIGHT


def test_approach_converges_to_gap(skeleton):
    spec = sc.label_by_name("approach").spec
    v1 = {"anchor": np.array([0.0, sc.ROOT_HEIGHT, 0.0])}
    v2 = {"anchor": np.array([2.5, sc.ROOT_HEIGHT, 0.5])}
    f1, f2 = sc.build_pair_from_values(v1, v2, spec, skeleton, 40)
    d = np.linalg.norm(f1[:, :3] - f2[:, :3], axis=1)
    assert d[0] > d[-1]
    assert abs(d[-1] - spec.gap) < 0.05
    # monotone nonincreasing under smoothstep easing
    assert np.all(np.diff(d) < 1e-9)


def test_close_approach_converges_below_overlap_threshold(skeleton):
    (f1, f2), _, spec = scripted_pair("close-approach", skeleton, N=40, seed=7)
    d = np.linalg.norm(f1[:, :3] - f2[:, :3], axis=1)
    assert d[-1] < 0.25


def test_talk_label_stationary_and_facing(skeleton):
    (f1, f2), (v1, v2), spec = scripted_pair("face-and-talk", skeleton, seed=8)
    # roots stay near their anchors
    assert np.linalg.norm(f1[:, :3] - v1["anchor"], axis=1).max() < 0.3
    # mutual facing: d1 . (-d2) close to 1
    s1 = repair_velocities(MotionSequence(skeleton, f1))
    s2 = repair_velocities(MotionSequence(skeleton, f2))
    d1 = facing_direction(s1, s1.N - 1)
    d2 = facing_direction(s2, s2.N - 1)
    assert float(d1 @ (-d2)) > 0.9


def test_stationary_feet_planted(skeleton):
    (f1, _), _, spec = scripted_pair("face-and-talk", skeleton, seed=9)
    seq = MotionSequence(skeleton, f1)
    p = seq.joint_positions()
    for j in set(skeleton.foot_joint_ids):
        assert np.abs(p[1:, j] - p[0, j]).max() < 1e-9
    assert np.all(seq.foot_contacts() == 1.0)


def test_follow_is_asymmetric(skeleton):
    (f1, f2), _, spec = scripted_pair("follow", skeleton, seed=10)
    assert not spec.symmetric
    # leader displaces along its heading, follower trails behind
    lead = np.linalg.norm(f1[-1, :3] - f1[0, :3])
    assert lead > 0.5
    final_gap = np.linalg.norm(f1[-1, :3] - f2[-1, :3])
    assert final_gap < np.linalg.norm(f1[0, :3] - f2[0, :3])


def test_symmetric_label_swap(skeleton):
    (f1, f2), _, spec = scripted_pair("approach", skeleton, seed=11)
    s1, s2 = sc.build_pair_scripts(ad.constant(np.stack([f1, f2])),
                                   spec, skeleton).value
    t2, t1 = sc.build_pair_scripts(ad.constant(np.stack([f2, f1])),
                                   spec, skeleton).value
    assert np.allclose(s1, t1, atol=1e-12)
    assert np.allclose(s2, t2, atol=1e-12)


def test_script_gradient_matches_finite_differences(skeleton):
    (f1, f2), _, spec = scripted_pair("approach", skeleton, N=12, seed=12)
    w2 = ad.constant(f2)

    def loss(v):
        s = sc.build_pair_scripts(ad.stack([v, w2]), spec, skeleton)
        return to.sum_(s[0] * s[0]) + to.sum_(to.tanh(s[1]))

    x = f1 + 0.01 * np.random.default_rng(13).standard_normal(f1.shape)
    check_gradient(loss, x, n_coords=10, rtol=1e-4, h=1e-6)


def test_carriers_reencoded_in_velocity_channels(skeleton):
    """Frame sums of the scripted root/spine velocity channels reproduce
    the raw carrier values, making extraction exact."""
    (f1, _), _, spec = scripted_pair("approach", skeleton, seed=14)
    w = f1.copy()
    vb = 3 * skeleton.J
    rng = np.random.default_rng(15)
    w[:, vb:vb + 6] += rng.standard_normal((w.shape[0], 6)) * 0.01
    u_in = w[:, vb:vb + 3].sum(axis=0)
    # a pair of two identical persons: each is its own partner
    s = sc.build_pair_scripts(ad.constant(np.stack([w, w])), spec, skeleton)
    u_out = s.value[0, :, vb:vb + 3].sum(axis=0)
    assert np.allclose(u_out, u_in, atol=1e-9)


def loop_oracle_script(params, row, spec, skeleton, N):
    """Row `row` of the scripted pair rebuilt joint by joint in plain numpy
    from the tape oracle's stacked root curve and the gesture offsets."""
    root, heading = tape._root_curve(params, spec, N)
    root = root.value[row]
    c, s = np.cos(heading.value)[row], np.sin(heading.value)[row]
    offsets = tape._gesture_offsets(spec, N)
    joints = [root]
    for name in skeleton.joint_names[1:]:
        o = offsets[name]
        rotated = np.stack([o[:, 0] * s + o[:, 2] * c, o[:, 1],
                            o[:, 0] * (-1.0 * c) + o[:, 2] * s], axis=1)
        planted = spec.stationary and name in ("l_foot", "r_foot")
        base = params["anchor"].value[row] if planted else root
        joints.append(base + rotated)
    u, v = (x.value[row] for x in params["carriers"])
    vel = [np.tile(u * (1.0 / N), (N, 1)), np.tile(v * (1.0 / N), (N, 1))]
    for p in joints[2:]:
        vel.append(np.concatenate([np.zeros((1, 3)), p[1:] - p[:-1]]))
    root_rot = np.stack([np.full(N, s), np.zeros(N), np.full(N, -1.0 * c),
                         np.zeros(N), np.ones(N), np.zeros(N)], axis=1)
    rot = [root_rot] + [np.tile(sc.IDENTITY_ROT6D, (N, 1))] * (skeleton.J - 1)
    return np.concatenate(joints + vel + rot +
                          [tape._foot_contacts(spec, N)], axis=1)


@pytest.mark.parametrize("name", LABELS)
def test_script_matches_per_joint_loop_oracle(name, skeleton):
    """The stacked whole-skeleton builder is bit-identical to the per-joint
    loop, for both rows (leader and follower of `follow`) and for the
    planted feet of stationary labels."""
    spec = sc.label_by_name(name).spec
    N = 20
    rng = np.random.default_rng(16)
    w = rng.standard_normal((2, N, skeleton.D))
    w[1, 0, :3] += [2.0, 0.0, 0.5]
    p = tape.extract_params(ad.constant(w), skeleton, spec)
    got = sc.build_pair_scripts(ad.constant(w), spec, skeleton).value
    for row in (0, 1):
        want = loop_oracle_script(p, row, spec, skeleton, N)
        assert np.array_equal(got[row], want), (name, row)


# -- the hand-written backward against the tape oracle -------------------------


def noisy_pair(skeleton, N, seed, sep=2.0, angle=0.3, carriers=None):
    """Random stacked world states whose frame-0 anchors lie `sep` apart on
    the ground plane; `carriers` (2, 6) sets the carrier channel sums."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((2, N, skeleton.D))
    w[1, 0, [0, 2]] = w[0, 0, [0, 2]] + sep * np.array([np.cos(angle),
                                                       np.sin(angle)])
    if carriers is not None:
        vb = 3 * skeleton.J
        w[:, :, vb:vb + 6] += (np.asarray(carriers) -
                               w[:, :, vb:vb + 6].sum(axis=1))[:, None, :] / N
    return w


def both_builders(w, spec, skeleton, seed=0):
    """Values and gradients of a random linear functional of the scripted
    pair, from the one-node builder and from the tape oracle."""
    weights = np.random.default_rng(seed).standard_normal(w.shape)
    out = []
    for build in (sc.build_pair_scripts, tape.build_pair_scripts):
        x = ad.Var(w)
        s = build(x, spec, skeleton)
        (g,) = ad.grad(to.sum_(s * ad.constant(weights)), [x])
        out.append((s.value, g))
    return out


def assert_gradients_agree(got, want, rtol=1e-12):
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


@pytest.mark.parametrize("N", [12, 32, 240])
@pytest.mark.parametrize("name", LABELS)
def test_builder_matches_tape_oracle(name, N, skeleton):
    """Forward bit-identical, both rows; gradient to 1e-12 of its largest
    magnitude."""
    spec = sc.label_by_name(name).spec
    w = noisy_pair(skeleton, N, seed=N)
    (got, g_got), (want, g_want) = both_builders(w, spec, skeleton, seed=N)
    assert np.array_equal(got, want)
    assert_gradients_agree(g_got, g_want)


@pytest.mark.parametrize("name", LABELS)
def test_values_builder_matches_tape_oracle(name, skeleton):
    (f1, f2), values, spec = scripted_pair(name, skeleton, N=32, seed=17)
    want = tape.build_pair_from_values(*values, spec, skeleton, 32)
    assert np.array_equal(f1, want[0]) and np.array_equal(f2, want[1])


def test_builder_records_one_tape_node(skeleton, monkeypatch):
    """The whole builder is one Var whose only parent is the state."""
    created = []
    init = ad.Var.__init__

    def counting_init(self, *args, **kwargs):
        created.append(self)
        init(self, *args, **kwargs)

    x = ad.Var(noisy_pair(skeleton, 12, seed=0))
    monkeypatch.setattr(ad.Var, "__init__", counting_init)
    out = sc.build_pair_scripts(x, sc.label_by_name("follow").spec, skeleton)
    monkeypatch.undo()
    assert created == [out] and out.parents == (x,)


separations = st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=4.0))
carrier_sums = st.lists(st.floats(min_value=-3.0, max_value=3.0),
                        min_size=12, max_size=12)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(LABELS), st.integers(min_value=2, max_value=16),
       separations, st.floats(min_value=-np.pi, max_value=np.pi),
       carrier_sums, st.integers(min_value=0, max_value=2**16))
def test_hypothesis_builder_matches_tape_oracle(skeleton, name, N, sep, angle,
                                                carriers, seed):
    """Coincident anchors (sep 0) included: the oracle and the hand-written
    backward take the same smoothed paths there."""
    spec = sc.label_by_name(name).spec
    w = noisy_pair(skeleton, N, seed, sep, angle,
                   np.reshape(carriers, (2, 6)))
    (got, g_got), (want, g_want) = both_builders(w, spec, skeleton, seed)
    assert np.array_equal(got, want)
    assert_gradients_agree(g_got, g_want)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(LABELS), st.integers(min_value=2, max_value=16),
       st.floats(min_value=0.2, max_value=4.0),
       st.floats(min_value=-np.pi, max_value=np.pi),
       carrier_sums, st.integers(min_value=0, max_value=2**16))
def test_hypothesis_builder_gradient_matches_finite_differences(
        skeleton, name, N, sep, angle, carriers, seed):
    """Central differences on the coordinates the script reads: the frame-0
    root x/z and the carrier channels of one frame."""
    spec = sc.label_by_name(name).spec
    assume(abs(sep - spec.gap) > 1e-3)     # the walk's hinge
    w = noisy_pair(skeleton, N, seed, sep, angle,
                   np.reshape(carriers, (2, 6)))
    weights = np.random.default_rng(seed).standard_normal(w.shape)

    def f(a):
        return float(np.sum(sc.build_pair_scripts(ad.Var(a), spec,
                                                  skeleton).value * weights))

    x = ad.Var(w)
    (g,) = ad.grad(to.sum_(sc.build_pair_scripts(x, spec, skeleton) *
                           ad.constant(weights)), [x])
    vb, frame = 3 * skeleton.J, seed % N
    coords = [np.ravel_multi_index((row, n, ch), w.shape) for row in (0, 1)
              for n, ch in [(0, 0), (0, 2)] + [(frame, vb + i) for i in range(6)]]
    fd = finite_difference(f, w, coords, h=1e-6)
    scale = np.abs(g).max()
    for c in coords:
        assert abs(g.flat[c] - fd[c]) <= 1e-5 * max(scale, 1.0), c
