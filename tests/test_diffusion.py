"""Schedule, DDIM samplers, masked conditioning, inpainting extension."""

import numpy as np
import pytest

from groupmotion import autodiff as ad
from groupmotion import diffusion, priors
from groupmotion.diffusion import (DiffusionSchedule, FrameMask, ddim_sample,
                                   forward_noise, inpaint_extend,
                                   masked_sample)
from groupmotion.motion import NormalizationStats
from groupmotion.priors import AnalyticPrior, EpsPrior, MLPPrior
from groupmotion.scripts import (VOCABULARY, functional_channels,
                                 label_by_name)

import tape_ops as to
import tape_samplers as tape
from conftest import ZeroPrior, check_gradient


def noise(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


# -- schedule --------------------------------------------------------------------


def test_alpha_bars_monotone_and_bounded():
    s = DiffusionSchedule(t_train=200, ddim_steps=20)
    ab = s.alpha_bars
    assert ab[0] == 1.0
    assert np.all(np.diff(ab) < 0)
    assert np.all((ab > 0) & (ab <= 1))
    assert len(ab) == 201


def test_taus_cover_endpoints():
    s = DiffusionSchedule(t_train=1000, ddim_steps=50)
    assert s.taus[0] == 0 and s.taus[-1] == 1000
    assert len(s.taus) == 51


@pytest.mark.parametrize("t_train, ddim_steps",
                         [(50, 1), (50, 5), (50, 50), (1000, 50),
                          (1000, 1000)])
def test_last_step_alpha_is_zero(t_train, ddim_steps):
    """The last DDIM step lands on t = 0, where alpha_bar is exactly 1, so
    its alpha is exactly 0, and with it x_T's weight in the sample, the
    product of the steps' alphas; its beta is exactly 1, so the sample is
    that step's clean estimate."""
    steps = list(DiffusionSchedule(t_train, ddim_steps).steps())
    assert len(steps) == ddim_steps
    assert steps[-1][2] == 0.0 and steps[-1][3] == 1.0
    assert np.prod([alpha for _, _, alpha, _ in steps]) == 0.0


def test_schedule_validation():
    with pytest.raises(ValueError, match="ddim_steps"):
        DiffusionSchedule(t_train=10, ddim_steps=11)
    with pytest.raises(ValueError, match="ddim_steps"):
        DiffusionSchedule(t_train=10, ddim_steps=0)
    with pytest.raises(TypeError, match="eta"):
        DiffusionSchedule(eta=0.5)
    with pytest.raises(TypeError, match="kind"):
        DiffusionSchedule(kind="linear")


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
    o1, o2 = ddim_sample(ZeroPrior(small_schedule, 10), small_schedule,
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
    a, _ = ddim_sample(ZeroPrior(full, 8), full, (xT, xT), lab)
    b, _ = ddim_sample(ZeroPrior(strided, 8), strided, (xT, xT), lab)
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
        return to.sum_(to.tanh(out * 0.1))

    check_gradient(loss, noise((6, skeleton.D), 17), n_coords=10, rtol=1e-4)


# -- inpaint_extend ----------------------------------------------------------------


@pytest.mark.parametrize("mode", ["noised", "literal"])
def test_inpaint_kept_frames_preserved(mode, analytic_prior, small_schedule,
                                       stats, skeleton):
    """The kept frames equal the reference exactly, in the parameter-space
    chain and stepped."""
    kept = [noise((5, skeleton.D), s) * 0.2 for s in (20, 21)]
    mask = FrameMask(12, 5)
    for prior in (analytic_prior,
                  tape.StepAnalyticPrior(small_schedule, stats, skeleton)):
        o1, o2 = inpaint_extend(
            prior, small_schedule,
            (noise((12, skeleton.D), 22), noise((12, skeleton.D), 23)),
            kept, mask, label_by_name("approach"), noise_seed=4, mode=mode)
        assert np.array_equal(o1.value[:5], kept[0])
        assert np.array_equal(o2.value[:5], kept[1])


@pytest.mark.parametrize("mode", ["noised", "literal"])
def test_inpaint_keeping_nothing_is_ddim_sample(mode, analytic_prior,
                                                small_schedule, stats,
                                                skeleton):
    """An extension that keeps no frame has the empty kept block, as
    `ddim_sample` has: the same values and gradients, bit for bit, with
    either prior."""
    N, D = 10, skeleton.D
    x, w = noise((2, N, D), 24), noise((2, N, D), 25)
    lab, empty = label_by_name("approach"), [np.zeros((0, D))] * 2
    mlp = MLPPrior(small_schedule, stats, len(VOCABULARY), hidden=8)
    for prior in (analytic_prior, mlp):
        got = []
        for sample in (
                lambda v: ddim_sample(prior, small_schedule, v, lab),
                lambda v: inpaint_extend(prior, small_schedule, v, empty,
                                         FrameMask(N, 0), lab, 5, mode)):
            v = ad.Var(x)
            o1, o2 = sample(v)
            loss = to.sum_(o1 * w[0]) + to.sum_(o2 * w[1])
            got.append((o1.value, o2.value, ad.grad(loss, [v])[0]))
        assert got[0][2].any()
        for a, b in zip(*got):
            assert np.array_equal(a, b)


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
    assert (m.n_frames, m.kept) == (6, 2)
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
        (g,) = ad.grad(to.sum_(to.tanh(o1 * o2)) + to.sum_(o1), [var])
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
    (g,) = ad.grad(to.sum_(to.tanh(out)), [v])
    stacked = ad.Var(xT)
    out_s = masked_sample(analytic_prior, small_schedule, stacked[0], ref,
                          lab, 5)
    (g_s,) = ad.grad(to.sum_(to.tanh(out_s)), [stacked])
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


def sampler_results(name, label, N, schedule, stats, skeleton, step,
                    make_prior=tape.StepAnalyticPrior, make_want=None,
                    samplers=ORACLE_SAMPLERS):
    """Outputs of sampler `name` and the gradient of one loss of them, as a
    list for the package with the prior `make_prior(schedule, stats,
    skeleton)` and one for its tape form stepping by `step`, or for the
    package with the prior `make_want(...)` if given."""
    rng = np.random.default_rng(N)
    xT = rng.standard_normal((2, N, skeleton.D))
    kept = [rng.standard_normal((4, skeleton.D)) * 0.2 for _ in range(2)]
    ref = rng.standard_normal((N, skeleton.D)) * 0.3
    weights = rng.standard_normal((N, skeleton.D))
    want = (tape, tape.TapeAnalyticPrior, {"step": step}) \
        if make_want is None else (diffusion, make_want, {})
    results = []
    for module, make, kw in ((diffusion, make_prior, {}), want):
        v = ad.Var(xT)
        outs = samplers[name](module, make(schedule, stats, skeleton),
                              schedule, v, kept, ref, label_by_name(label),
                              **kw)
        loss = to.sum_(to.tanh(outs[0] * ad.constant(weights)))
        for o in outs[1:]:
            loss = loss + to.sum_(outs[0] * o)
        (g,) = ad.grad(loss, [v])
        results.append([o.value for o in outs] + [g])
    return results


@pytest.mark.parametrize("N", [12, 32, 240])
@pytest.mark.parametrize("label", ORACLE_LABELS)
@pytest.mark.parametrize("name", ORACLE_SAMPLERS)
def test_sampler_matches_tape_oracle(name, label, N, small_schedule, stats,
                                     skeleton):
    """Outputs and gradients of the samplers stepping through the one-node
    analytic clean estimate are bit-identical to the op-by-op tape forms of
    the clean-estimate step."""
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


# one label per script kind
KIND_LABELS = ["approach", "circle-together", "animated-talk", "pose-pair",
               "follow"]


@pytest.mark.parametrize("N", [12, 32, 240])
@pytest.mark.parametrize("label", KIND_LABELS)
@pytest.mark.parametrize("name", ORACLE_SAMPLERS)
def test_param_chain_near_step_chain(name, label, N, small_schedule, stats,
                                     skeleton):
    """The analytic prior's parameter-space chain moves the outputs and
    gradients of the step-by-step chain by rounding only: within 1e-11 of
    each array's largest magnitude."""
    got, want = sampler_results(name, label, N, small_schedule, stats,
                                skeleton, None, make_prior=AnalyticPrior,
                                make_want=tape.StepAnalyticPrior)
    for a, b in zip(got, want):
        assert np.abs(a - b).max() <= 1e-11 * np.abs(b).max()


@pytest.mark.parametrize("label", KIND_LABELS)
@pytest.mark.parametrize("name", ORACLE_SAMPLERS)
def test_param_chain_near_step_chain_data_stats(name, label, small_schedule,
                                                skeleton):
    """As above under statistics with nonzero means, the corpus kind,
    which the chain's functionals carry as constants."""
    rng = np.random.default_rng(48)
    data = NormalizationStats(rng.standard_normal(skeleton.D) * 0.5,
                              0.5 + rng.random(skeleton.D))
    got, want = sampler_results(name, label, 32, small_schedule, data,
                                skeleton, None, make_prior=AnalyticPrior,
                                make_want=tape.StepAnalyticPrior)
    for a, b in zip(got, want):
        assert np.abs(a - b).max() <= 1e-11 * np.abs(b).max()


def perturbed_mlp(cls=MLPPrior, seed=3):
    """A factory (schedule, stats, skeleton) -> MLP prior of class `cls`
    whose weights are moved off their init, the same for every `cls`."""
    def make(schedule, stats, skeleton):
        prior = cls(schedule, stats, len(VOCABULARY), hidden=16, seed=seed)
        rng = np.random.default_rng(seed)
        prior.weights = {k: v + 0.1 * rng.standard_normal(v.shape)
                         for k, v in prior.weights.items()}
        return prior
    return make


MLP_SAMPLERS = dict(ORACLE_SAMPLERS, **{
    "ddim-tuple": lambda m, prior, sch, v, kept, ref, lab: m.ddim_sample(
        prior, sch, (v[0], v[1]), lab)})


@pytest.mark.parametrize("steps", [1, 5, 12])
@pytest.mark.parametrize("N", [12, 32, 240])
@pytest.mark.parametrize("label", ["approach", "follow", "animated-talk"])
@pytest.mark.parametrize("name", MLP_SAMPLERS)
def test_mlp_chain_matches_step_chain(name, label, N, steps, stats,
                                      skeleton):
    """`EpsPrior.chain` of the MLP prior gives the outputs and gradients of
    the stepped chain bit for bit: one-node eps and clean estimate and a
    DDIM step node per step."""
    schedule = DiffusionSchedule(t_train=50, ddim_steps=steps)
    got, want = sampler_results(name, label, N, schedule, stats, skeleton,
                                None, make_prior=perturbed_mlp(),
                                make_want=perturbed_mlp(tape.StepMLPPrior),
                                samplers=MLP_SAMPLERS)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_eps_chain_reads_one_schedule(stats, skeleton):
    """`EpsPrior.chain` steps the schedule it is given: with the prior's
    t_train and other steps it samples as a prior built on that schedule,
    bit for bit; with another t_train, which the eps model's timestep
    embedding does not know, it raises."""
    coarse = DiffusionSchedule(t_train=50, ddim_steps=5)
    fine = DiffusionSchedule(t_train=50, ddim_steps=12)
    xT = noise((2, 12, skeleton.D), 51)
    lab = label_by_name("follow")
    outs = [ddim_sample(perturbed_mlp()(built, stats, skeleton), fine, xT,
                        lab)[0].value for built in (coarse, fine)]
    assert np.array_equal(outs[0], outs[1])
    prior = perturbed_mlp()(coarse, stats, skeleton)
    with pytest.raises(ValueError, match="t_train"):
        ddim_sample(prior, DiffusionSchedule(t_train=40, ddim_steps=5), xT,
                    lab)


def test_chain_dispatch(small_schedule, stats, skeleton):
    """The analytic prior runs in parameter space, reading the functionals'
    noise channels; an eps prior runs `EpsPrior.chain`, reading every
    channel; the stepped oracles run `tape.step_chain`, reading every
    channel."""
    prior = AnalyticPrior(small_schedule, stats, skeleton)
    assert prior.chain.__func__ is AnalyticPrior.chain
    assert np.array_equal(prior.noise_channels, functional_channels(skeleton))
    for eps_prior in (MLPPrior(small_schedule, stats, 6, hidden=8),
                      ZeroPrior(small_schedule, skeleton.D)):
        assert eps_prior.chain.__func__ is EpsPrior.chain
        assert eps_prior.noise_channels == slice(None)
    for step_prior in [cls(small_schedule, stats, skeleton) for cls in
                       (tape.StepAnalyticPrior, tape.TapeAnalyticPrior)] + \
            [tape.StepMLPPrior(small_schedule, stats, 6, hidden=8)]:
        assert step_prior.chain.__func__ is tape.step_chain
        assert step_prior.noise_channels == slice(None)


@pytest.mark.parametrize("name", ORACLE_SAMPLERS)
def test_param_chain_reads_only_noise_channels(name, analytic_prior,
                                               small_schedule, skeleton):
    """The chain's gradient is exactly zero off the prior's
    `noise_channels`, and its outputs keep their bits when x_T changes
    there."""
    rng = np.random.default_rng(49)
    xT = rng.standard_normal((2, 12, skeleton.D))
    kept = [rng.standard_normal((4, skeleton.D)) * 0.2 for _ in range(2)]
    ref = rng.standard_normal((12, skeleton.D)) * 0.3
    w = ad.constant(rng.standard_normal((12, skeleton.D)))
    lab = label_by_name("approach")
    off = np.ones(skeleton.D, dtype=bool)
    off[analytic_prior.noise_channels] = False
    other = xT.copy()
    other[..., off] = rng.standard_normal((2, 12, int(off.sum())))
    results = []
    for x in (xT, other):
        v = ad.Var(x)
        outs = ORACLE_SAMPLERS[name](diffusion, analytic_prior,
                                     small_schedule, v, kept, ref, lab)
        loss = to.sum_(to.tanh(outs[0] * 0.1) * w)
        for o in outs[1:]:
            loss = loss + to.sum_(to.tanh(o * 0.1) * w)
        (g,) = ad.grad(loss, [v])
        assert np.all(g[..., off] == 0.0) and np.any(g[..., ~off] != 0.0)
        results.append([o.value for o in outs] + [g])
    for a, b in zip(*results):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("name", ORACLE_SAMPLERS)
def test_param_chain_forward_ignores_grad(name, analytic_prior,
                                          small_schedule, stats, skeleton):
    """The chain's outputs are the same bits whether x_T is a leaf that
    needs a gradient or a constant."""
    rng = np.random.default_rng(44)
    xT = rng.standard_normal((2, 12, skeleton.D))
    kept = [rng.standard_normal((4, skeleton.D)) * 0.2 for _ in range(2)]
    ref = rng.standard_normal((12, skeleton.D)) * 0.3
    lab = label_by_name("follow")
    outs = [ORACLE_SAMPLERS[name](diffusion, analytic_prior, small_schedule,
                                  v, kept, ref, lab)
            for v in (ad.Var(xT), ad.constant(xT))]
    for a, b in zip(*outs):
        assert np.array_equal(a.value, b.value)
    assert outs[0][0].requires_grad and not outs[1][0].requires_grad


# away from the hinge kinks of the approach walk and of the region term
FD_LABELS = {"approach": 2.0, "circle-together": 2.0, "animated-talk": 1.0,
             "pose-pair": 1.0, "follow": 2.0}


@pytest.mark.parametrize("name", ORACLE_SAMPLERS)
@pytest.mark.parametrize("label", KIND_LABELS)
def test_param_chain_gradient_matches_fd(name, label, stats, skeleton):
    """The parameter-space chain's gradient against central differences,
    for each script kind, with anchors a smooth distance apart."""
    schedule = DiffusionSchedule(t_train=50, ddim_steps=5)
    prior = AnalyticPrior(schedule, stats, skeleton)
    rng = np.random.default_rng(45)
    N = 10
    xT = rng.standard_normal((2, N, skeleton.D)) * 0.5
    # frame-0 roots FD_LABELS[label] meters apart in world space
    xT[1, 0, [0, 2]] = xT[0, 0, [0, 2]] + FD_LABELS[label] / stats.std[[0, 2]]
    kept = [rng.standard_normal((4, skeleton.D)) * 0.2 for _ in range(2)]
    ref = rng.standard_normal((N, skeleton.D)) * 0.3
    w = ad.constant(rng.standard_normal((N, skeleton.D)))
    lab = label_by_name(label)

    def loss(v):
        outs = ORACLE_SAMPLERS[name](diffusion, prior, schedule, v, kept,
                                     ref, lab)
        total = to.sum_(to.tanh(outs[0] * 0.1) * w)
        for o in outs[1:]:
            total = total + to.sum_(to.tanh(o * 0.1) * w)
        return total

    check_gradient(loss, xT, n_coords=12, rtol=1e-5)


@pytest.mark.parametrize("name", ["masked", "inpaint-noised"])
def test_mlp_chain_gradient_matches_fd(name, stats, skeleton):
    """`EpsPrior.chain`'s gradient against central differences, with the
    kept block overwritten at every step."""
    schedule = DiffusionSchedule(t_train=50, ddim_steps=5)
    prior = perturbed_mlp()(schedule, stats, skeleton)
    rng = np.random.default_rng(52)
    N = 10
    xT = rng.standard_normal((2, N, skeleton.D))
    kept = [rng.standard_normal((4, skeleton.D)) * 0.2 for _ in range(2)]
    ref = rng.standard_normal((N, skeleton.D)) * 0.3
    w = ad.constant(rng.standard_normal((N, skeleton.D)))
    lab = label_by_name("follow")

    def loss(v):
        outs = ORACLE_SAMPLERS[name](diffusion, prior, schedule, v, kept,
                                     ref, lab)
        total = to.sum_(to.tanh(outs[0] * 0.1) * w)
        for o in outs[1:]:
            total = total + to.sum_(to.tanh(o * 0.1) * w)
        return total

    check_gradient(loss, xT, n_coords=12, rtol=1e-5)


def created_vars(monkeypatch, fn):
    """fn()'s result and the Vars it created, in order."""
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


def sample_node_counts(name, make_prior, stats, skeleton, monkeypatch):
    """The tape nodes one sample of sampler `name` records, with the prior
    `make_prior(schedule, stats, skeleton)`, at 1, 5 and 20 DDIM steps."""
    rng = np.random.default_rng(46)
    xT = rng.standard_normal((2, 12, skeleton.D))
    kept = [rng.standard_normal((4, skeleton.D)) * 0.2 for _ in range(2)]
    ref = rng.standard_normal((12, skeleton.D)) * 0.3
    counts = []
    for steps in (1, 5, 20):
        schedule = DiffusionSchedule(t_train=50, ddim_steps=steps)
        prior = make_prior(schedule, stats, skeleton)
        v = ad.Var(xT)
        _, created = created_vars(monkeypatch, lambda: ORACLE_SAMPLERS[
            name](diffusion, prior, schedule, v, kept, ref,
                  label_by_name("circle-together")))
        counts.append(len(created))
    return counts


@pytest.mark.parametrize("name", ORACLE_SAMPLERS)
def test_analytic_sample_nodes_independent_of_steps(name, stats, skeleton,
                                                    monkeypatch):
    """One analytic sample records the same tape nodes whatever the number
    of DDIM steps: the chain is one node over x_T."""
    counts = sample_node_counts(name, AnalyticPrior, stats, skeleton,
                                monkeypatch)
    # x_T on the noise channels, the chain node, its normalized view and
    # the rows taken from it; masked adds the target's row of v and its
    # embedding as row 0 of the pair
    assert counts == [5 if name != "masked" else 6] * 3


@pytest.mark.parametrize("name", ORACLE_SAMPLERS)
def test_mlp_sample_nodes_independent_of_steps(name, stats, skeleton,
                                               monkeypatch):
    """One MLP sample records the same tape nodes whatever the number of
    DDIM steps, as many as an analytic one less the restriction of x_T to
    the noise channels, since it reads them all: `EpsPrior.chain` is one
    node over x_T."""
    counts = sample_node_counts(name, perturbed_mlp(), stats, skeleton,
                                monkeypatch)
    assert counts == [4 if name != "masked" else 5] * 3


def test_analytic_frame0_root_independent_of_label(small_schedule, stats,
                                                  skeleton):
    """Every script starts at its anchor and passes its carriers through,
    so the functionals' recursion does not depend on the label: from one
    x_T, the sampled frame-0 root x and z are the same bits for every
    label."""
    prior = AnalyticPrior(small_schedule, stats, skeleton)
    xT = noise((2, 12, skeleton.D), 50)
    roots = [np.stack([o.value for o in ddim_sample(
        prior, small_schedule, xT, label_by_name(spec.name))])[:, 0, [0, 2]]
        for spec in VOCABULARY]
    for r in roots[1:]:
        assert np.array_equal(r, roots[0])


@pytest.mark.parametrize("name", ORACLE_SAMPLERS)
def test_analytic_chain_builds_one_script(name, stats, skeleton,
                                          monkeypatch):
    """Each step before the last steps the functionals alone: one sample,
    forward and backward, calls `script_inputs` and `assemble` once,
    whatever the number of DDIM steps."""
    calls = {"script_inputs": 0, "assemble": 0}

    def counted(fn_name):
        fn = getattr(priors, fn_name)

        def call(*args, **kwargs):
            calls[fn_name] += 1
            return fn(*args, **kwargs)
        return call

    for fn_name in calls:
        monkeypatch.setattr(priors, fn_name, counted(fn_name))
    rng = np.random.default_rng(51)
    xT = rng.standard_normal((2, 12, skeleton.D))
    kept = [rng.standard_normal((4, skeleton.D)) * 0.2 for _ in range(2)]
    ref = rng.standard_normal((12, skeleton.D)) * 0.3
    for steps in (1, 5, 20):
        schedule = DiffusionSchedule(t_train=50, ddim_steps=steps)
        prior = AnalyticPrior(schedule, stats, skeleton)
        v = ad.Var(xT)
        outs = ORACLE_SAMPLERS[name](diffusion, prior, schedule, v, kept, ref,
                                     label_by_name("circle-together"))
        ad.grad(to.sum_(outs[0]), [v])
        assert calls == {"script_inputs": 1, "assemble": 1}, steps
        calls.update(script_inputs=0, assemble=0)


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
        (g,) = ad.grad(to.sum_(out), [v])
        assert np.array_equal(out.value, want)
        assert np.array_equal(g, np.full((3, 4), scale))
