"""Schedule, DDIM samplers, masked conditioning, inpainting extension."""

import numpy as np
import pytest

from groupmotion import autodiff as ad
from groupmotion.diffusion import (DiffusionSchedule, FrameMask, ddim_sample,
                                   forward_noise, inpaint_extend,
                                   masked_sample)
from groupmotion.priors import AnalyticPrior, ZeroPrior
from groupmotion.scripts import label_by_name

from conftest import check_gradient


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
    assert np.allclose(out.value, x0)


def test_forward_noise_zero_signal(small_schedule):
    z = noise((4, 6), 2)
    t = small_schedule.t_train
    out = forward_noise(np.zeros((4, 6)), t, z, small_schedule)
    assert np.allclose(out.value, np.sqrt(1 - small_schedule.alpha_bar(t)) * z)


def test_forward_noise_inversion_round_trip(small_schedule):
    """One exact DDIM inversion with the oracle noise recovers x_0."""
    x0 = noise((3, 5), 3)
    z = noise((3, 5), 4)
    t = 30
    ab = small_schedule.alpha_bar(t)
    xt = forward_noise(x0, t, z, small_schedule).value
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
    o1, o2 = ddim_sample(ZeroPrior(), small_schedule, (xT1, xT2),
                         label_by_name("approach"))
    abT = small_schedule.alpha_bar(small_schedule.t_train)
    assert np.allclose(o1.value, xT1 / np.sqrt(abT), atol=1e-9)
    assert np.allclose(o2.value, xT2 / np.sqrt(abT), atol=1e-9)


def test_zero_prior_strided_equals_full_steps():
    """With eps = 0 the trajectory telescopes, so any stride agrees."""
    xT = noise((4, 8), 7)
    lab = label_by_name("approach")
    full = DiffusionSchedule(t_train=40, ddim_steps=40)
    strided = DiffusionSchedule(t_train=40, ddim_steps=8)
    a, _ = ddim_sample(ZeroPrior(), full, (xT, xT), lab)
    b, _ = ddim_sample(ZeroPrior(), strided, (xT, xT), lab)
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


def test_masked_target_slot_selects(analytic_prior, small_schedule, skeleton):
    ref = noise((8, skeleton.D), 14)
    xT = noise((8, skeleton.D), 15)
    lab = label_by_name("follow")  # asymmetric: slots are distinguishable
    a = masked_sample(analytic_prior, small_schedule, xT, ref, lab, 3,
                      target_slot=0)
    b = masked_sample(analytic_prior, small_schedule, xT, ref, lab, 3,
                      target_slot=1)
    assert not np.allclose(a.value, b.value)


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
