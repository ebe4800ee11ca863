"""Schedule, DDIM samplers, masked conditioning, inpainting extension."""

import numpy as np
import pytest

from groupmotion import autodiff as ad
from groupmotion import diffusion
from groupmotion.diffusion import (DiffusionSchedule, FrameMask, ddim_sample,
                                   forward_noise, inpaint_extend,
                                   masked_sample)
from groupmotion.priors import AnalyticPrior
from groupmotion.scripts import label_by_name

import tape_samplers as tape
from conftest import ZeroPrior, check_gradient


def noise(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


# -- schedule --------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["cosine", "linear"])
def test_alpha_bars_monotone_and_bounded(kind):
    s = DiffusionSchedule(t_train=200, ddim_steps=20, kind=kind)
    ab = s.alpha_bars
    assert ab[0] == 1.0
    assert np.all(np.diff(ab) < 0)
    assert np.all((ab > 0) & (ab <= 1))
    assert len(ab) == 201


def test_taus_cover_endpoints():
    s = DiffusionSchedule(t_train=1000, ddim_steps=50)
    assert s.taus[0] == 0 and s.taus[-1] == 1000
    assert len(s.taus) == 51


def test_schedule_validation():
    with pytest.raises(ValueError, match="ddim_steps"):
        DiffusionSchedule(t_train=10, ddim_steps=11)
    with pytest.raises(TypeError, match="eta"):
        DiffusionSchedule(eta=0.5)
    with pytest.raises(ValueError, match="kind"):
        DiffusionSchedule(kind="quadratic")


# -- forward noising ----------------------------------------------------------------


def test_forward_noise_t0_identity(small_schedule):
    x0 = noise((4, 6), 1)
    out = forward_noise(x0, 0, np.zeros_like(x0), small_schedule)
    assert np.allclose(out, x0)


def test_forward_noise_zero_signal(small_schedule):
    z = noise((4, 6), 2)
    t = small_schedule.t_train
    out = forward_noise(np.zeros((4, 6)), t, z, small_schedule)
    assert np.allclose(out, np.sqrt(1 - small_schedule.alpha_bar(t)) * z)


def test_forward_noise_inversion_round_trip(small_schedule):
    """One exact DDIM inversion with the oracle noise recovers x_0."""
    x0 = noise((3, 5), 3)
    z = noise((3, 5), 4)
    t = 30
    ab = small_schedule.alpha_bar(t)
    xt = forward_noise(x0, t, z, small_schedule)
    back = (xt - np.sqrt(1 - ab) * z) / np.sqrt(ab)
    assert np.allclose(back, x0, atol=1e-9)


def test_forward_noise_range_and_shape_errors(small_schedule):
    with pytest.raises(ValueError, match="out of range"):
        forward_noise(np.zeros((2, 2)), -1, np.zeros((2, 2)), small_schedule)
    with pytest.raises(ad.ShapeMismatchError):
        forward_noise(np.zeros((2, 2)), 5, np.zeros((2, 3)), small_schedule)


# -- ddim_sample ----------------------------------------------------------------


def test_zero_prior_closed_form(small_schedule):
    """eps = 0 everywhere collapses the sampler to x_0 = x_T / sqrt(ab_T)."""
    xT1, xT2 = noise((6, 10), 5), noise((6, 10), 6)
    o1, o2 = ddim_sample(ZeroPrior(small_schedule), small_schedule,
                         (xT1, xT2), label_by_name("approach"))
    abT = small_schedule.alpha_bar(small_schedule.t_train)
    assert np.allclose(o1.value, xT1 / np.sqrt(abT), atol=1e-9)
    assert np.allclose(o2.value, xT2 / np.sqrt(abT), atol=1e-9)


def test_zero_prior_strided_equals_full_steps():
    """With eps = 0 the trajectory telescopes, so any stride agrees."""
    xT = noise((4, 8), 7)
    lab = label_by_name("approach")
    full = DiffusionSchedule(t_train=40, ddim_steps=40)
    strided = DiffusionSchedule(t_train=40, ddim_steps=8)
    a, _ = ddim_sample(ZeroPrior(full), full, (xT, xT), lab)
    b, _ = ddim_sample(ZeroPrior(strided), strided, (xT, xT), lab)
    assert np.allclose(a.value, b.value, atol=1e-9)


def test_ddim_deterministic(analytic_prior, small_schedule, skeleton):
    xT = noise((8, skeleton.D), 8)
    lab = label_by_name("approach")
    a, _ = ddim_sample(analytic_prior, small_schedule, (xT, xT + 1.0), lab)
    b, _ = ddim_sample(analytic_prior, small_schedule, (xT, xT + 1.0), lab)
    assert np.array_equal(a.value, b.value)


def test_ddim_approach_reduces_root_distance(analytic_prior, small_schedule,
                                             skeleton, stats):
    lab = label_by_name("approach")
    closer = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        o1, o2 = ddim_sample(analytic_prior, small_schedule,
                             (rng.standard_normal((12, skeleton.D)),
                              rng.standard_normal((12, skeleton.D))), lab)
        from groupmotion.motion import denormalize
        w1 = denormalize(o1.value, stats)
        w2 = denormalize(o2.value, stats)
        d = np.linalg.norm(w1[:, :3] - w2[:, :3], axis=1)
        closer += d[-1] < d[0]
    assert closer >= 18


# -- masked_sample ----------------------------------------------------------------


def test_masked_reference_immutable(analytic_prior, small_schedule, skeleton):
    ref = noise((8, skeleton.D), 10)
    before = ref.tobytes()
    masked_sample(analytic_prior, small_schedule, noise((8, skeleton.D), 11),
                  ref, label_by_name("approach"), noise_seed=0)
    assert ref.tobytes() == before


def test_masked_deterministic_given_seed(analytic_prior, small_schedule,
                                         skeleton):
    ref = noise((8, skeleton.D), 12)
    xT = noise((8, skeleton.D), 13)
    lab = label_by_name("approach")
    a = masked_sample(analytic_prior, small_schedule, xT, ref, lab, 7)
    b = masked_sample(analytic_prior, small_schedule, xT, ref, lab, 7)
    c = masked_sample(analytic_prior, small_schedule, xT, ref, lab, 8)
    assert np.array_equal(a.value, b.value)
    assert not np.array_equal(a.value, c.value)


def test_masked_shape_mismatch(analytic_prior, small_schedule, skeleton):
    with pytest.raises(ad.ShapeMismatchError):
        masked_sample(analytic_prior, small_schedule,
                      noise((8, skeleton.D), 0), noise((9, skeleton.D), 1),
                      label_by_name("approach"), 0)


def test_masked_gradient_matches_fd(stats, skeleton):
    schedule = DiffusionSchedule(t_train=5, ddim_steps=5)
    prior = AnalyticPrior(schedule, stats, skeleton)
    ref = noise((6, skeleton.D), 16) * 0.3
    lab = label_by_name("approach")

    def loss(v):
        out = masked_sample(prior, schedule, v, ref, lab, noise_seed=2)
        return ad.sum_(ad.tanh(out * 0.1))

    check_gradient(loss, noise((6, skeleton.D), 17), n_coords=10, rtol=1e-4)


# -- inpaint_extend ----------------------------------------------------------------


@pytest.mark.parametrize("mode", ["noised", "literal"])
def test_inpaint_kept_frames_preserved(mode, analytic_prior, small_schedule,
                                       skeleton):
    kept = [noise((5, skeleton.D), s) * 0.2 for s in (20, 21)]
    mask = FrameMask(12, 5)
    o1, o2 = inpaint_extend(
        analytic_prior, small_schedule,
        (noise((12, skeleton.D), 22), noise((12, skeleton.D), 23)),
        kept, mask, label_by_name("approach"), noise_seed=4, mode=mode)
    tol = 0.0 if mode == "literal" else 1e-9
    assert np.abs(o1.value[:5] - kept[0]).max() <= tol
    assert np.abs(o2.value[:5] - kept[1]).max() <= tol


def test_inpaint_rejects_full_mask(analytic_prior, small_schedule, skeleton):
    kept = [np.zeros((12, skeleton.D))] * 2
    with pytest.raises(ValueError, match="fewer"):
        inpaint_extend(analytic_prior, small_schedule,
                       (np.zeros((12, skeleton.D)),) * 2, kept,
                       FrameMask(12, 12), label_by_name("approach"), 0)


@pytest.mark.parametrize("kept", [
    [np.zeros((2, 8))],                       # one block for two persons
    [np.zeros((2, 8)), np.zeros((3, 8))],     # block longer than kept
], ids=["one-block", "wrong-length"])
def test_inpaint_rejects_bad_kept_blocks(analytic_prior, small_schedule,
                                         skeleton, kept):
    kept = [np.zeros(k.shape[:1] + (skeleton.D,)) for k in kept]
    with pytest.raises(ad.ShapeMismatchError, match="kept block"):
        inpaint_extend(analytic_prior, small_schedule,
                       (np.zeros((8, skeleton.D)),) * 2, kept,
                       FrameMask(8, 2), label_by_name("approach"), 0)


def test_inpaint_bad_mode(analytic_prior, small_schedule, skeleton):
    with pytest.raises(ValueError, match="mode"):
        inpaint_extend(analytic_prior, small_schedule,
                       (np.zeros((8, skeleton.D)),) * 2,
                       [np.zeros((2, skeleton.D))] * 2, FrameMask(8, 2),
                       label_by_name("approach"), 0, mode="blend")


def test_frame_mask_contract():
    m = FrameMask(6, 2)
    assert np.array_equal(m.m, [1, 1, 0, 0, 0, 0])
    with pytest.raises(ValueError):
        FrameMask(4, 5)


# -- the pair as one stacked state ------------------------------------------------


PAIR_SAMPLERS = {
    "ddim": lambda prior, sch, pair, kept, lab: ddim_sample(
        prior, sch, pair, lab),
    "inpaint-noised": lambda prior, sch, pair, kept, lab: inpaint_extend(
        prior, sch, pair, kept, FrameMask(12, 4), lab, 3, mode="noised"),
    "inpaint-literal": lambda prior, sch, pair, kept, lab: inpaint_extend(
        prior, sch, pair, kept, FrameMask(12, 4), lab, 3, mode="literal"),
}


@pytest.mark.parametrize("name", PAIR_SAMPLERS)
@pytest.mark.parametrize("label", ["circle-together", "follow"])
def test_pair_as_tuple_or_stacked_var(name, label, analytic_prior,
                                      small_schedule, skeleton):
    """A (x1, x2) tuple and one stacked (2, N, D) Var give bit-identical
    outputs and gradients."""
    xT = noise((2, 12, skeleton.D), 30)
    kept = [noise((4, skeleton.D), s) * 0.2 for s in (31, 32)]
    lab = label_by_name(label)
    results = []
    for as_tuple in (False, True):
        var = ad.Var(xT)
        pair = (var[0], var[1]) if as_tuple else var
        o1, o2 = PAIR_SAMPLERS[name](analytic_prior, small_schedule, pair,
                                     kept, lab)
        (g,) = ad.grad(ad.sum_(ad.tanh(o1 * o2)) + ad.sum_(o1), [var])
        results.append((o1.value, o2.value, g))
    for a, b in zip(*results):
        assert np.array_equal(a, b), name


def test_masked_target_as_var_or_stacked_row(analytic_prior, small_schedule,
                                             skeleton):
    """The target as its own Var or as row 0 of a stacked Var gives
    bit-identical outputs and gradients."""
    xT = noise((2, 12, skeleton.D), 33)
    ref = noise((12, skeleton.D), 34) * 0.3
    lab = label_by_name("face-and-talk")
    v = ad.Var(xT[0])
    out = masked_sample(analytic_prior, small_schedule, v, ref, lab, 5)
    (g,) = ad.grad(ad.sum_(ad.tanh(out)), [v])
    stacked = ad.Var(xT)
    out_s = masked_sample(analytic_prior, small_schedule, stacked[0], ref,
                          lab, 5)
    (g_s,) = ad.grad(ad.sum_(ad.tanh(out_s)), [stacked])
    assert np.array_equal(out.value, out_s.value)
    assert np.array_equal(g, g_s[0])
    assert not g_s[1].any()


def test_step_noise_drawn_once_in_step_order():
    """The samplers' per-step noise is one draw per step from the seed, in
    ascending timestep order, cached and read-only."""
    from groupmotion.diffusion import _step_noise
    rng = np.random.default_rng(11)
    want = [rng.standard_normal((2, 3, 4)) for _ in range(5)]
    z = _step_noise(11, 5, (2, 3, 4))
    assert np.array_equal(z, np.stack(want))
    assert _step_noise(11, 5, (2, 3, 4)) is z
    assert not z.flags.writeable


# -- one-node stages against the op-by-op tape oracle ------------------------------


ORACLE_SAMPLERS = {
    "ddim": lambda m, prior, sch, v, kept, ref, lab, **kw: m.ddim_sample(
        prior, sch, v, lab, **kw),
    "masked": lambda m, prior, sch, v, kept, ref, lab, **kw: (m.masked_sample(
        prior, sch, v[0], ref, lab, 5, **kw),),
    "inpaint-noised": lambda m, prior, sch, v, kept, ref, lab, **kw:
        m.inpaint_extend(prior, sch, v, kept, FrameMask(v.shape[1], 4), lab,
                         3, mode="noised", **kw),
    "inpaint-literal": lambda m, prior, sch, v, kept, ref, lab, **kw:
        m.inpaint_extend(prior, sch, v, kept, FrameMask(v.shape[1], 4), lab,
                         3, mode="literal", **kw),
}

ORACLE_LABELS = ["approach", "follow", "circle-together", "animated-talk"]


def sampler_results(name, label, N, schedule, stats, skeleton, step):
    """Outputs of sampler `name` and the gradient of one loss of them, as a
    list for the package and one for its tape form stepping by `step`."""
    rng = np.random.default_rng(N)
    xT = rng.standard_normal((2, N, skeleton.D))
    kept = [rng.standard_normal((4, skeleton.D)) * 0.2 for _ in range(2)]
    ref = rng.standard_normal((N, skeleton.D)) * 0.3
    weights = rng.standard_normal((N, skeleton.D))
    results = []
    for module, prior_cls, kw in ((diffusion, AnalyticPrior, {}),
                                  (tape, tape.TapeAnalyticPrior,
                                   {"step": step})):
        v = ad.Var(xT)
        outs = ORACLE_SAMPLERS[name](module, prior_cls(schedule, stats,
                                                       skeleton),
                                     schedule, v, kept, ref,
                                     label_by_name(label), **kw)
        loss = ad.sum_(ad.tanh(outs[0] * ad.constant(weights)))
        for o in outs[1:]:
            loss = loss + ad.sum_(outs[0] * o)
        (g,) = ad.grad(loss, [v])
        results.append([o.value for o in outs] + [g])
    return results


@pytest.mark.parametrize("N", [12, 32, 240])
@pytest.mark.parametrize("label", ORACLE_LABELS)
@pytest.mark.parametrize("name", ORACLE_SAMPLERS)
def test_sampler_matches_tape_oracle(name, label, N, small_schedule, stats,
                                     skeleton):
    """Outputs and gradients of the fused samplers are bit-identical to the
    op-by-op tape forms of the clean-estimate step."""
    got, want = sampler_results(name, label, N, small_schedule, stats,
                                skeleton, tape.x0_step)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("N", [12, 32, 240])
@pytest.mark.parametrize("label", ORACLE_LABELS)
@pytest.mark.parametrize("name", ORACLE_SAMPLERS)
def test_sampler_near_eps_form(name, label, N, small_schedule, stats,
                               skeleton):
    """Stepping from the clean estimate moves outputs and gradients of the
    eps round trip it replaced by rounding only: within 1e-11 of each
    array's largest magnitude."""
    got, want = sampler_results(name, label, N, small_schedule, stats,
                                skeleton, tape.eps_step)
    for a, b in zip(got, want):
        assert np.abs(a - b).max() <= 1e-11 * np.abs(b).max()


def test_ddim_step_records_two_nodes(stats, skeleton, monkeypatch):
    """One step with the analytic prior is two Vars: the clean estimate and
    the DDIM step."""
    schedule = DiffusionSchedule(t_train=50, ddim_steps=1)
    prior = AnalyticPrior(schedule, stats, skeleton)
    x = ad.Var(noise((2, 12, skeleton.D), 40))
    created = []
    init = ad.Var.__init__

    def counting_init(self, *args, **kwargs):
        created.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ad.Var, "__init__", counting_init)
    o1, o2 = ddim_sample(prior, schedule, x, label_by_name("follow"))
    monkeypatch.undo()
    # the step's two nodes, then the two rows of the result
    x0, step = created[:2]
    assert len(created) == 4 and created[2:] == [o1, o2]
    assert x0.parents == (x,) and step.parents == (x, x0)
    assert o1.parents == (step,)


def test_forward_noise_arrays_or_vars(small_schedule):
    """The package's form takes arrays and gives an array; the oracle's tape
    copy, with a Var in either slot, gives a Var with the same value,
    differentiable in that slot."""
    x0, z = noise((3, 4), 41), noise((3, 4), 42)
    want = forward_noise(x0, 20, z, small_schedule)
    assert type(want) is np.ndarray
    ab = small_schedule.alpha_bar(20)
    for slot, scale in ((0, np.sqrt(ab)), (1, np.sqrt(1.0 - ab))):
        args = [x0, z]
        args[slot] = v = ad.Var(args[slot])
        out = tape.forward_noise(args[0], 20, args[1], small_schedule)
        (g,) = ad.grad(ad.sum_(out), [v])
        assert np.array_equal(out.value, want)
        assert np.array_equal(g, np.full((3, 4), scale))
