"""Denoiser contract conformance, the analytic prior's algebraic identity,
and MLP prior training."""

import numpy as np
import pytest

from groupmotion import autodiff as ad
from groupmotion.diffusion import DiffusionSchedule
from groupmotion.motion import normalize
from groupmotion.priors import MLPPrior, TrainingDiverged, train
from groupmotion.scripts import label_by_name

from conftest import check_gradient


def noise(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


@pytest.fixture(scope="module")
def mlp_prior(small_schedule, skeleton):
    return MLPPrior(small_schedule, skeleton.D, n_labels=6, hidden=16, seed=0)


def priors_under_test(analytic_prior, mlp_prior):
    return [("analytic", analytic_prior), ("mlp", mlp_prior)]


# -- shared conformance suite -------------------------------------------------


def test_conformance_shapes_and_determinism(analytic_prior, mlp_prior,
                                            skeleton):
    lab = label_by_name("approach")
    for name, prior in priors_under_test(analytic_prior, mlp_prior):
        x1 = ad.constant(noise((10, skeleton.D), 1))
        x2 = ad.constant(noise((10, skeleton.D), 2))
        e1, e2 = prior.predict(x1, x2, 25, lab)
        assert e1.shape == x1.shape and e2.shape == x2.shape, name
        f1, f2 = prior.predict(x1, x2, 25, lab)
        assert np.array_equal(e1.value, f1.value), name
        assert np.array_equal(e2.value, f2.value), name
        assert np.isfinite(e1.value).all() and np.isfinite(e2.value).all()


def test_conformance_differentiable(analytic_prior, mlp_prior, skeleton):
    lab = label_by_name("approach")
    for name, prior in priors_under_test(analytic_prior, mlp_prior):
        x1 = ad.Var(noise((6, skeleton.D), 3))
        x2 = ad.constant(noise((6, skeleton.D), 4))
        e1, e2 = prior.predict(x1, x2, 10, lab)
        (g,) = ad.grad(ad.sum_(e1) + ad.sum_(e2), [x1])
        assert np.isfinite(g).all() and np.abs(g).max() > 0, name


def test_conformance_symmetry_swap(analytic_prior, mlp_prior, skeleton):
    """Swapping person slots swaps outputs for symmetric labels."""
    lab = label_by_name("approach")
    assert lab.spec.symmetric
    for name, prior in priors_under_test(analytic_prior, mlp_prior):
        a = ad.constant(noise((8, skeleton.D), 5))
        b = ad.constant(noise((8, skeleton.D), 6))
        e1, e2 = prior.predict(a, b, 15, lab)
        f2, f1 = prior.predict(b, a, 15, lab)
        assert np.allclose(e1.value, f1.value, atol=1e-12), name
        assert np.allclose(e2.value, f2.value, atol=1e-12), name


# -- analytic prior ------------------------------------------------------------


def test_analytic_implied_x0_equals_clean_estimate(analytic_prior, skeleton,
                                                   small_schedule):
    lab = label_by_name("approach")
    x1 = ad.constant(noise((10, skeleton.D), 7))
    x2 = ad.constant(noise((10, skeleton.D), 8))
    for t in (5, 25, 50):
        e1, e2 = analytic_prior.predict(x1, x2, t, lab)
        mu1, mu2 = analytic_prior.clean_estimate(x1, x2, lab)
        ab = small_schedule.alpha_bar(t)
        x0_1 = (x1.value - np.sqrt(1 - ab) * e1.value) / np.sqrt(ab)
        x0_2 = (x2.value - np.sqrt(1 - ab) * e2.value) / np.sqrt(ab)
        assert np.allclose(x0_1, mu1.value, atol=1e-9)
        assert np.allclose(x0_2, mu2.value, atol=1e-9)


def test_analytic_manifold_fixed_point(analytic_prior, skeleton, stats,
                                       small_schedule):
    """A state already on the scripted manifold maps to itself."""
    from groupmotion.scripts import build_pair_from_values, ROOT_HEIGHT
    lab = label_by_name("approach")
    f1, f2 = build_pair_from_values(
        {"anchor": np.array([0.0, ROOT_HEIGHT, 0.0]), "drift": (0.1, -0.05)},
        {"anchor": np.array([2.0, ROOT_HEIGHT, 1.0]), "speed": 1.1},
        lab.spec, skeleton, 12)
    x1 = ad.constant(normalize(f1, stats))
    x2 = ad.constant(normalize(f2, stats))
    mu1, mu2 = analytic_prior.clean_estimate(x1, x2, lab)
    assert np.abs(mu1.value - x1.value).max() < 1e-9
    assert np.abs(mu2.value - x2.value).max() < 1e-9


def test_analytic_unknown_label_rejected(analytic_prior, skeleton):
    from groupmotion.scripts import InteractionLabel, LabelSpec
    bad = InteractionLabel(0, (LabelSpec("weird", "spiral"),))
    x = ad.constant(noise((6, skeleton.D), 9))
    with pytest.raises(ValueError, match="spiral"):
        analytic_prior.predict(x, x, 10, bad)


def test_analytic_gradient_matches_fd(analytic_prior, skeleton):
    lab = label_by_name("approach")
    other = ad.constant(noise((6, skeleton.D), 10))

    def loss(v):
        e1, e2 = analytic_prior.predict(v, other, 20, lab)
        return ad.sum_(ad.tanh(e1 * 0.1)) + ad.sum_(ad.tanh(e2 * 0.1))

    check_gradient(loss, noise((6, skeleton.D), 11), n_coords=10, rtol=1e-4)


# -- MLP prior ----------------------------------------------------------------


def test_mlp_weight_round_trip(mlp_prior, tmp_path, small_schedule, skeleton):
    path = tmp_path / "w.npz"
    mlp_prior.save_weights(path)
    other = MLPPrior(small_schedule, skeleton.D, n_labels=6, hidden=16, seed=9)
    other.load_weights(path)
    for k in mlp_prior.weights:
        assert np.array_equal(other.weights[k], mlp_prior.weights[k])


def test_mlp_weight_dim_mismatch(mlp_prior, tmp_path, small_schedule,
                                 skeleton):
    path = tmp_path / "w.npz"
    mlp_prior.save_weights(path)
    wrong = MLPPrior(small_schedule, skeleton.D, n_labels=6, hidden=32)
    with pytest.raises(ValueError, match="dims"):
        wrong.load_weights(path)


def _training_pairs(skeleton, stats, n=4, N=8):
    from groupmotion.scripts import build_pair_from_values, ROOT_HEIGHT
    rng = np.random.default_rng(0)
    lab = label_by_name("approach")
    pairs = []
    for _ in range(n):
        a = np.array([rng.uniform(-1, 1), ROOT_HEIGHT, rng.uniform(-1, 1)])
        f1, f2 = build_pair_from_values(
            {"anchor": a}, {"anchor": a + [2.0, 0.0, 0.5]},
            lab.spec, skeleton, N)
        pairs.append(((normalize(f1, stats), normalize(f2, stats)), lab))
    return pairs


def test_train_zero_epochs_noop(small_schedule, skeleton, stats):
    prior = MLPPrior(small_schedule, skeleton.D, 6, hidden=8, seed=1)
    before = {k: v.copy() for k, v in prior.weights.items()}
    curve = train(prior, _training_pairs(skeleton, stats), small_schedule,
                  epochs=0)
    assert curve == []
    for k in before:
        assert np.array_equal(prior.weights[k], before[k])


def test_train_loss_decreases(small_schedule, skeleton, stats):
    prior = MLPPrior(small_schedule, skeleton.D, 6, hidden=16, seed=2)
    pairs = _training_pairs(skeleton, stats, n=3)
    curve = train(prior, pairs, small_schedule, epochs=150, lr=3e-3, seed=3)
    tail = float(np.mean(curve[-10:]))
    assert tail < 0.5 * curve[0]


def test_train_overfits_single_sample(small_schedule, skeleton, stats):
    prior = MLPPrior(small_schedule, skeleton.D, 6, hidden=32, seed=4)
    pairs = _training_pairs(skeleton, stats, n=1)
    # single fixed timestep family keeps the objective overfittable
    curve = train(prior, pairs, small_schedule, epochs=500, lr=3e-3, seed=5)
    assert min(curve) < 0.25 * curve[0]


def test_train_divergence_detected(small_schedule, skeleton, stats):
    prior = MLPPrior(small_schedule, skeleton.D, 6, hidden=8, seed=6)
    prior.weights["W1"][:] = np.nan
    with pytest.raises(TrainingDiverged):
        train(prior, _training_pairs(skeleton, stats, n=1), small_schedule,
              epochs=1)
