"""Denoiser contract conformance, the analytic prior's algebraic identity,
and MLP prior training."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupmotion import autodiff as ad
from groupmotion.diffusion import DiffusionSchedule, Kept
from groupmotion.motion import NormalizationStats, normalize
from groupmotion.priors import AnalyticPrior, MLPPrior, TrainingDiverged, train
from groupmotion.scripts import default_vocabulary, label_by_name

import tape_mlp
import tape_ops as to
import tape_samplers as tape

from conftest import check_gradient, finite_difference


def noise(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


@pytest.fixture(scope="module")
def mlp_prior(small_schedule, stats):
    return MLPPrior(small_schedule, stats, n_labels=6, hidden=16, seed=0)


def priors_under_test(analytic_prior, mlp_prior):
    return [("analytic", analytic_prior), ("mlp", mlp_prior)]


def stepped(prior: MLPPrior) -> tape.StepMLPPrior:
    """The stepped oracle with `prior`'s sizes and weights: one-node eps and
    clean estimate."""
    step = tape.StepMLPPrior(prior.schedule, prior.stats, prior.n_labels,
                             prior.hidden)
    step.weights = prior.weights
    return step


# -- shared conformance suite -------------------------------------------------


def test_conformance_shapes_and_determinism(analytic_prior, mlp_prior,
                                            small_schedule, skeleton):
    """Each prior's chain, eps and one-node clean estimate (the stepped
    oracle's, for the MLP) keep the pair's shape, are deterministic and
    finite."""
    lab = label_by_name("approach")
    for name, prior in priors_under_test(analytic_prior, mlp_prior):
        x = ad.constant(np.stack([noise((10, skeleton.D), 1),
                                  noise((10, skeleton.D), 2)]))
        step = prior if name == "analytic" else stepped(prior)
        for estimate in (prior.predict, step.clean_estimate,
                         lambda x, t, lab: prior.chain(
                             small_schedule,
                             ad.constant(x.value[..., prior.noise_channels]),
                             lab, Kept.none(x.shape))):
            e = estimate(x, 25, lab)
            assert e.shape == x.shape, name
            f = estimate(x, 25, lab)
            assert np.array_equal(e.value, f.value), name
            assert np.isfinite(e.value).all()


def test_conformance_differentiable(analytic_prior, mlp_prior, skeleton):
    lab = label_by_name("approach")
    for name, prior in priors_under_test(analytic_prior, mlp_prior):
        x1 = ad.Var(noise((6, skeleton.D), 3))
        x2 = ad.constant(noise((6, skeleton.D), 4))
        e = prior.predict(ad.stack([x1, x2]), 10, lab)
        (g,) = ad.grad(to.sum_(e[0]) + to.sum_(e[1]), [x1])
        assert np.isfinite(g).all() and np.abs(g).max() > 0, name


def test_conformance_symmetry_swap(analytic_prior, mlp_prior, skeleton):
    """Swapping person slots swaps outputs for symmetric labels."""
    lab = label_by_name("approach")
    assert lab.spec.symmetric
    for name, prior in priors_under_test(analytic_prior, mlp_prior):
        a = noise((8, skeleton.D), 5)
        b = noise((8, skeleton.D), 6)
        e1, e2 = prior.predict(ad.constant(np.stack([a, b])), 15, lab).value
        f2, f1 = prior.predict(ad.constant(np.stack([b, a])), 15, lab).value
        assert np.allclose(e1, f1, atol=1e-12), name
        assert np.allclose(e2, f2, atol=1e-12), name


# -- analytic prior ------------------------------------------------------------


def test_analytic_implied_x0_equals_clean_estimate(analytic_prior, skeleton,
                                                   small_schedule):
    lab = label_by_name("approach")
    x = ad.constant(np.stack([noise((10, skeleton.D), 7),
                              noise((10, skeleton.D), 8)]))
    x1, x2 = x.value
    for t in (5, 25, 50):
        e1, e2 = analytic_prior.predict(x, t, lab).value
        mu1, mu2 = analytic_prior.clean_estimate(x, t, lab).value
        ab = small_schedule.alpha_bar(t)
        x0_1 = (x1 - np.sqrt(1 - ab) * e1) / np.sqrt(ab)
        x0_2 = (x2 - np.sqrt(1 - ab) * e2) / np.sqrt(ab)
        assert np.allclose(x0_1, mu1, atol=1e-9)
        assert np.allclose(x0_2, mu2, atol=1e-9)


def test_analytic_manifold_fixed_point(analytic_prior, skeleton, stats,
                                       small_schedule):
    """A state already on the scripted manifold maps to itself."""
    from groupmotion.scripts import build_pair_from_values, ROOT_HEIGHT
    lab = label_by_name("approach")
    f1, f2 = build_pair_from_values(
        {"anchor": np.array([0.0, ROOT_HEIGHT, 0.0]), "drift": (0.1, -0.05)},
        {"anchor": np.array([2.0, ROOT_HEIGHT, 1.0]), "speed": 1.1},
        lab.spec, skeleton, 12)
    x1, x2 = normalize(f1, stats), normalize(f2, stats)
    mu1, mu2 = analytic_prior.clean_estimate(
        ad.constant(np.stack([x1, x2])), 10, lab).value
    assert np.abs(mu1 - x1).max() < 1e-9
    assert np.abs(mu2 - x2).max() < 1e-9


def test_analytic_unknown_label_rejected(analytic_prior, skeleton,
                                        monkeypatch):
    from groupmotion import scripts
    from groupmotion.scripts import InteractionLabel, LabelSpec
    monkeypatch.setattr(scripts, "VOCABULARY", scripts.VOCABULARY +
                        (LabelSpec("weird", "spiral"),))
    bad = InteractionLabel(len(scripts.VOCABULARY) - 1)
    x = noise((6, skeleton.D), 9)
    with pytest.raises(ValueError, match="spiral"):
        analytic_prior.predict(ad.constant(np.stack([x, x])), 10, bad)


def test_analytic_gradient_matches_fd(analytic_prior, skeleton):
    lab = label_by_name("approach")
    other = ad.constant(noise((6, skeleton.D), 10))

    def loss(v):
        e = analytic_prior.predict(ad.stack([v, other]), 20, lab)
        return to.sum_(to.tanh(e[0] * 0.1)) + to.sum_(to.tanh(e[1] * 0.1))

    check_gradient(loss, noise((6, skeleton.D), 11), n_coords=10, rtol=1e-4)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([s.name for s in default_vocabulary()]),
       st.integers(min_value=2, max_value=8),
       st.integers(min_value=1, max_value=50),
       st.integers(min_value=0, max_value=2**16))
def test_hypothesis_analytic_predict_gradient(small_schedule, stats, skeleton,
                                              name, N, t, seed):
    """eps on a stacked Var, through the one-node clean estimate: its
    backward matches central differences, and value and gradient equal the
    op-by-op tape form."""
    rng = np.random.default_rng(seed)
    lab = label_by_name(name)
    x = rng.standard_normal((2, N, skeleton.D))
    w = ad.constant(rng.standard_normal(x.shape))
    results = []
    for prior in (AnalyticPrior(small_schedule, stats, skeleton),
                  tape.TapeAnalyticPrior(small_schedule, stats, skeleton)):
        v = ad.Var(x)
        e = prior.predict(v, t, lab)
        (g,) = ad.grad(to.sum_(to.tanh(e * 0.1) * w), [v])
        results.append((e.value, g))
    for got, want in zip(*results):
        assert np.array_equal(got, want)
    # the frame-0 root x/z and a carrier channel reach eps through the
    # script builder, the other three only directly
    J, g = skeleton.J, results[0][1]
    coords = [np.ravel_multi_index((p, n, c), x.shape) for p in (0, 1)
              for n, c in [(0, 0), (0, 2), (N - 1, 3 * J + 1),
                           (N - 1, 3 * J + 7), (N - 1, 6 * J + 11),
                           (N - 1, 12 * J + 1)]]
    prior = AnalyticPrior(small_schedule, stats, skeleton)
    fd = finite_difference(
        lambda a: float(to.sum_(to.tanh(prior.predict(ad.Var(a), t, lab)
                                        * 0.1) * w).value), x, coords, h=1e-6)
    scale = max(np.abs(g).max(), 1.0)
    for c in coords:
        assert abs(g.flat[c] - fd[c]) <= 1e-5 * scale, c


# -- MLP prior ----------------------------------------------------------------


def _perturbed_mlp(schedule, stats, hidden, seed):
    """An MLP prior whose biases, skip and weights are all off their
    initial values, so that every weight's gradient is exercised."""
    prior = MLPPrior(schedule, stats, len(default_vocabulary()), hidden=hidden,
                     seed=seed)
    rng = np.random.default_rng(seed)
    prior.weights = {k: v + 0.1 * rng.standard_normal(v.shape)
                     for k, v in prior.weights.items()}
    return prior


@pytest.mark.parametrize("hidden", [8, 64])
@pytest.mark.parametrize("N", [12, 32])
def test_mlp_forward_and_vjp_match_tape_oracle(small_schedule, skeleton,
                                               stats, N, hidden):
    """eps and its adjoints to x and to every weight array are bit-identical
    to the op-by-op tape form, for every label and across t; so are the
    one-node `predict`, the stepped oracle's one-node `clean_estimate` and
    their gradients to x."""
    prior = _perturbed_mlp(small_schedule, stats, hidden, N + hidden)
    oracle = tape_mlp.TapeMLPPrior(small_schedule, stats,
                                   prior.n_labels, hidden=hidden)
    oracle.weights = prior.weights
    keys = sorted(prior.weights)
    rng = np.random.default_rng(N)
    for spec in default_vocabulary():
        lab = label_by_name(spec.name)
        for t in (1, 25, 50):
            x = rng.standard_normal((2, N, skeleton.D))
            g = ad.constant(rng.standard_normal(x.shape))
            eps, vjp = prior.forward(x, t, lab)
            gx, gw = vjp(g.value)
            xv = ad.Var(x)
            w = {k: ad.Var(v) for k, v in prior.weights.items()}
            want = ad.stack(oracle.predict_with_weights(xv[0], xv[1], t, lab,
                                                        w))
            grads = ad.grad(to.sum_(want * g), [xv] + [w[k] for k in keys])
            assert np.array_equal(eps, want.value)
            assert np.array_equal(gx, grads[0])
            for k, want_g in zip(keys, grads[1:]):
                assert np.array_equal(gw[k], want_g), k
            for got_p, want_p in ((prior.predict, oracle.predict),
                                  (stepped(prior).clean_estimate,
                                   oracle.clean_estimate)):
                out = []
                for estimate in (got_p, want_p):
                    v = ad.Var(x)
                    e = estimate(v, t, lab)
                    out.append((e.value, ad.grad(to.sum_(e * g), [v])[0]))
                assert np.array_equal(out[0][0], out[1][0])
                assert np.array_equal(out[0][1], out[1][1])


def test_mlp_state_only_vjp_matches_full(small_schedule, skeleton, stats):
    """`vjp(g, weights=False)` gives the full vjp's state adjoint bit for
    bit and no weight adjoints."""
    prior = _perturbed_mlp(small_schedule, stats, 16, 9)
    rng = np.random.default_rng(9)
    x, g = rng.standard_normal((2, 2, 11, skeleton.D))
    _, vjp = prior.forward(x, 30, label_by_name("pose-pair"))
    gx, grads = vjp(g, weights=False)
    assert grads is None and np.array_equal(gx, vjp(g)[0])


@pytest.mark.parametrize("row", [0, 1])
def test_mlp_state_vjp_with_zero_row_matches_tape_oracle(small_schedule,
                                                         skeleton, stats,
                                                         row):
    """With one person's eps adjoint all zero, as the kept row of
    `masked_sample` has, the state-only vjp skips that person's matmuls
    and still gives the op-by-op tape form's adjoint bit for bit, alone
    and through the one-node `predict`; so it does when one entry of that
    row is not zero."""
    prior = _perturbed_mlp(small_schedule, stats, 16, 10)
    oracle = tape_mlp.TapeMLPPrior(small_schedule, stats,
                                   prior.n_labels, hidden=16)
    oracle.weights = prior.weights
    lab = label_by_name("approach")
    rng = np.random.default_rng(10)
    x, g = rng.standard_normal((2, 2, 9, skeleton.D))
    g[row] = 0.0
    _, vjp = prior.forward(x, 30, lab)
    for last in (0.0, 0.5):
        g[row, -1, -1] = last
        xv = ad.Var(x)
        want = oracle.predict(xv, 30, lab)
        (want_g,) = ad.grad(to.sum_(want * ad.constant(g)), [xv])
        gx, grads = vjp(g, weights=False)
        assert grads is None and np.array_equal(gx, want_g)
        v = ad.Var(x)
        (got_g,) = ad.grad(to.sum_(prior.predict(v, 30, lab) *
                                   ad.constant(g)), [v])
        assert np.array_equal(got_g, want_g)
        assert np.array_equal(gx, vjp(g)[0])


def test_mlp_node_gradient_matches_fd(small_schedule, skeleton, stats):
    """The hand-written vjp against central differences: to x through the
    one-node eps and the stepped oracle's one-node clean estimate, and to
    W1, b2 and skip."""
    prior = _perturbed_mlp(small_schedule, stats, 16, 7)
    lab = label_by_name("follow")
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2, 6, skeleton.D))
    w = ad.constant(rng.standard_normal(x.shape))
    for estimate in (prior.predict, stepped(prior).clean_estimate):
        check_gradient(lambda v: to.sum_(to.tanh(estimate(v, 20, lab) * 0.1)
                                         * w), x, n_coords=12, rtol=1e-5)
    _, vjp = prior.forward(x, 20, lab)
    _, grads = vjp(w.value)
    for k in ("W1", "b2", "skip"):
        base = prior.weights[k]

        def loss(a):
            prior.weights[k] = a
            return float(np.sum(prior.forward(x, 20, lab)[0] * w.value))

        coords = list(range(min(base.size, 5)))
        fd = finite_difference(loss, base, coords, h=1e-6)
        prior.weights[k] = base
        for c in coords:
            assert abs(grads[k].flat[c] - fd[c]) <= \
                1e-6 * max(1.0, abs(fd[c])), (k, c)


def test_mlp_evaluation_records_analytic_node_count(small_schedule, skeleton,
                                                   stats, monkeypatch):
    """A composer evaluation with two penalty terms records at most 6 tape
    nodes with either prior, the same number with both: the chain as one
    node of world frames, a row of it per person, each term and their
    sum."""
    from groupmotion import composer
    from groupmotion.composer import Composer, OptimizerConfig, SceneSpec
    from groupmotion.penalties import PenaltyConfig
    pens = (PenaltyConfig("overlap", 1.0, (1, 2), params={"delta": 0.3}),
            PenaltyConfig("root", 1.0, (1,), frames=(15,),
                          params={"targets": [[1.0, 0.9, 1.0]]}))
    spec = SceneSpec(participants=(1, 2),
                     first_label=label_by_name("close-approach"),
                     first_penalties=pens, n_frames=16, seed=2)
    init, count = ad.Var.__init__, [0]

    def counting(var, *args, **kwargs):
        count[0] += 1
        init(var, *args, **kwargs)

    def counted(objective, x, config):
        def evaluate(var):
            before = count[0]
            out = objective(var)
            nodes.append(count[0] - before)
            return out
        return optimize(evaluate, x, config)

    optimize = composer.optimize_noise
    monkeypatch.setattr(ad.Var, "__init__", counting)
    monkeypatch.setattr(composer, "optimize_noise", counted)
    per_prior = []
    for prior in (AnalyticPrior(small_schedule, stats, skeleton),
                  MLPPrior(small_schedule, stats, 6, hidden=8)):
        nodes = []
        Composer(prior, small_schedule, stats, skeleton,
                 OptimizerConfig(max_steps=3)).compose(spec)
        assert len(nodes) == 4 and len(set(nodes)) == 1
        per_prior.append(nodes[0])
    assert per_prior[0] == per_prior[1] <= 6


def test_mlp_weight_round_trip(mlp_prior, tmp_path, small_schedule):
    """`load` restores the weights and the dimensions the file records."""
    path = tmp_path / "w.npz"
    mlp_prior.save_weights(path)
    other = MLPPrior.load(path, small_schedule, mlp_prior.stats)
    assert (other.D, other.n_labels, other.hidden) == \
        (mlp_prior.D, mlp_prior.n_labels, mlp_prior.hidden)
    assert other.schedule is small_schedule
    assert other.weights.keys() == mlp_prior.weights.keys()
    for k in mlp_prior.weights:
        assert np.array_equal(other.weights[k], mlp_prior.weights[k])


def test_mlp_weight_dim_mismatch(tmp_path, capsys, small_schedule, skeleton):
    """A weights file whose D is not the skeleton's, or whose label count is
    not the vocabulary's, is a config error (exit 2) before --out exists."""
    import json
    from groupmotion.cli import EXIT_CONFIG, main
    n = len(default_vocabulary())
    for dD, n_labels in ((4, n), (0, n - 1)):
        path = tmp_path / f"w{dD}-{n_labels}.npz"
        D = skeleton.D + dD
        MLPPrior(small_schedule, NormalizationStats(np.zeros(D), np.ones(D)),
                 n_labels, hidden=8).save_weights(path)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "schedule": {"t_train": 50, "ddim_steps": 5},
            "prior": {"kind": "mlp", "weights": str(path)},
            "scene": {"participants": [1, 2], "first_label": "approach",
                      "n_frames": 12}}))
        out = tmp_path / "out"
        for extra in (["--dry-run"], []):
            assert main(["compose", "--config", str(cfg), "--out", str(out)]
                        + extra) == EXIT_CONFIG
            assert "weights file" in capsys.readouterr().err
            assert not out.exists()


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
    prior = MLPPrior(small_schedule, stats, 6, hidden=8, seed=1)
    before = {k: v.copy() for k, v in prior.weights.items()}
    curve = train(prior, _training_pairs(skeleton, stats), small_schedule,
                  epochs=0)
    assert curve == []
    for k in before:
        assert np.array_equal(prior.weights[k], before[k])


def test_train_loss_decreases(small_schedule, skeleton, stats):
    prior = MLPPrior(small_schedule, stats, 6, hidden=16, seed=2)
    pairs = _training_pairs(skeleton, stats, n=3)
    curve = train(prior, pairs, small_schedule, epochs=150, lr=3e-3, seed=3)
    tail = float(np.mean(curve[-10:]))
    assert tail < 0.5 * curve[0]


def test_train_overfits_single_sample(small_schedule, skeleton, stats):
    prior = MLPPrior(small_schedule, stats, 6, hidden=32, seed=4)
    pairs = _training_pairs(skeleton, stats, n=1)
    # single fixed timestep family keeps the objective overfittable
    curve = train(prior, pairs, small_schedule, epochs=500, lr=3e-3, seed=5)
    assert min(curve) < 0.25 * curve[0]


def test_train_matches_tape_oracle_loop(small_schedule, skeleton, stats):
    """`train` (numpy forward, vjp, Adam) gives the loss curve and weights
    of the op-by-op tape loop bit for bit."""
    pairs = _training_pairs(skeleton, stats, n=3)
    pairs[1] = (pairs[1][0], label_by_name("follow"))
    priors = [cls(small_schedule, stats, 6, hidden=16, seed=9)
              for cls in (MLPPrior, tape_mlp.TapeMLPPrior)]
    curves = [fit(p, pairs, small_schedule, epochs=20, lr=3e-3, seed=10)
              for fit, p in zip((train, tape_mlp.train), priors)]
    assert curves[0] == curves[1] and len(curves[0]) == 60
    for k in priors[0].weights:
        assert priors[0].weights[k].tobytes() == \
            priors[1].weights[k].tobytes(), k


def test_train_divergence_detected(small_schedule, skeleton, stats):
    prior = MLPPrior(small_schedule, stats, 6, hidden=8, seed=6)
    prior.weights["W1"][:] = np.nan
    with pytest.raises(TrainingDiverged):
        train(prior, _training_pairs(skeleton, stats, n=1), small_schedule,
              epochs=1)
