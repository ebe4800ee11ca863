"""Reverse-mode engine: op-level gradient checks, linearity, determinism,
Adam behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupmotion import autodiff as ad

import tape_ops as to
from conftest import check_gradient


def rand(shape, seed=0, scale=1.0):
    return np.random.default_rng(seed).standard_normal(shape) * scale


# -- forward values -----------------------------------------------------------


def test_elementwise_add():
    out = ad.Var(np.array([1.0, 2.0])) + ad.Var(np.array([3.0, 4.0]))
    assert np.array_equal(out.value, [4.0, 6.0])


def test_reduce_sum():
    assert float(ad.sum_(ad.Var(np.array([1.0, 2.0, 3.0]))).value) == 6.0


def test_matmul_ones():
    out = ad.matmul(ad.Var(np.ones((2, 3))), ad.Var(np.ones((3, 2))))
    assert np.array_equal(out.value, np.full((2, 2), 3.0))


def test_shape_mismatch_error_names_op():
    with pytest.raises(ad.ShapeMismatchError, match="add"):
        ad.Var(np.ones(3)) + ad.Var(np.ones(4))
    with pytest.raises(ad.ShapeMismatchError, match="matmul"):
        ad.matmul(ad.Var(np.ones((2, 3))), ad.Var(np.ones((2, 3))))


def test_scalar_broadcast_allowed():
    out = 2.0 * ad.Var(np.ones((2, 2))) + 1.0
    assert np.array_equal(out.value, np.full((2, 2), 3.0))


# -- basic gradients -----------------------------------------------------------


def test_grad_sum_is_ones():
    x = ad.Var(np.array([1.0, 2.0, 3.0]))
    (g,) = ad.grad(ad.sum_(x), [x])
    assert np.array_equal(g, [1.0, 1.0, 1.0])


def test_grad_quadratic():
    x = ad.Var(np.array([1.0, 2.0]))
    (g,) = ad.grad(ad.sum_(x * x), [x])
    assert np.array_equal(g, [2.0, 4.0])


def test_grad_requires_scalar_loss():
    x = ad.Var(np.ones(3))
    with pytest.raises(ValueError, match="scalar"):
        ad.grad(x * 2.0, [x])


def test_unused_leaf_gets_zero_gradient():
    x, y = ad.Var(np.ones(2)), ad.Var(np.ones(2))
    gx, gy = ad.grad(ad.sum_(x * x), [x, y])
    assert np.array_equal(gy, np.zeros(2))
    assert np.array_equal(gx, 2.0 * np.ones(2))


OPS = [
    ("add", lambda x: ad.sum_(x + ad.constant(rand(x.shape, 5)))),
    ("sub", lambda x: ad.sum_(ad.constant(rand(x.shape, 5)) - x)),
    ("mul", lambda x: ad.sum_(x * ad.constant(rand(x.shape, 6)))),
    ("div", lambda x: ad.sum_(to.div(x, ad.constant(2.0 + rand(x.shape, 7) ** 2)))),
    ("div_denominator", lambda x: ad.sum_(to.div(1.0, x * x + 1.0))),
    ("powi", lambda x: ad.sum_(to.powi(x * x + 1.0, 1.5))),
    ("relu", lambda x: ad.sum_(to.relu(x))),
    ("sqrt", lambda x: ad.sum_(to.sqrt(x * x + 1.0))),
    ("exp", lambda x: ad.sum_(to.exp(0.3 * x))),
    ("tanh", lambda x: ad.sum_(ad.tanh(x))),
    ("sin", lambda x: ad.sum_(to.sin(x))),
    ("cos", lambda x: ad.sum_(to.cos(x))),
    ("sum_axis", lambda x: ad.sum_(to.sin(ad.sum_(x, axis=0)))),
    ("mean", lambda x: ad.mean(x * x)),
    ("matmul", lambda x: ad.sum_(ad.tanh(
        ad.matmul(x, ad.constant(rand((x.shape[1], 3), 8)))))),
    ("getitem", lambda x: ad.sum_(x[1:, 0] * x[0, 1:4])),
    ("fancy_index", lambda x: ad.sum_(to.powi(x[np.array([0, 2, 2]), :], 2))),
    ("concat", lambda x: ad.sum_(to.powi(ad.concat([x * 2.0, x], axis=1), 2))),
    ("stack", lambda x: ad.sum_(to.powi(ad.stack([x[0, :], x[1, :]], axis=1), 2))),
    ("reshape", lambda x: ad.sum_(to.powi(ad.reshape(x, (x.value.size,)), 3))),
    ("broadcast", lambda x: ad.sum_(
        ad.broadcast_to(ad.reshape(x[0, :], (1, x.shape[1])), x.shape) * x)),
    ("norm", lambda x: ad.sum_(to.norm(x, axis=1))),
    ("norm_eps", lambda x: ad.sum_(to.norm(x * 0.0 + x, axis=1, eps=1e-6))),
    ("atan2", lambda x: ad.sum_(to.atan2(x[:, 0], x[:, 1] + 3.0))),
]


@pytest.mark.parametrize("name,fn", OPS, ids=[n for n, _ in OPS])
def test_op_gradients_match_finite_differences(name, fn):
    # offset keeps relu/norm inputs away from their kinks
    x = rand((4, 5), seed=hash(name) % 1000) + 0.2
    check_gradient(fn, x, n_coords=10, rtol=1e-5, h=1e-6)


def test_linearity_of_backward():
    x0 = rand((3, 3), 1)
    a, b = 2.5, -1.25

    def gf(fn):
        x = ad.Var(x0)
        (g,) = ad.grad(fn(x), [x])
        return g

    f = lambda x: ad.sum_(ad.tanh(x))
    g = lambda x: ad.sum_(x * x * x)
    combined = gf(lambda x: a * f(x) + b * g(x))
    assert np.allclose(combined, a * gf(f) + b * gf(g), atol=1e-12)


def test_determinism_bit_identical():
    x0 = rand((6, 7), 3)

    def run():
        x = ad.Var(x0.copy())
        loss = ad.sum_(to.powi(ad.tanh(ad.matmul(x, ad.constant(rand((7, 2), 4)))), 2))
        (g,) = ad.grad(loss, [x])
        return float(loss.value), g

    (v1, g1), (v2, g2) = run(), run()
    assert v1 == v2
    assert np.array_equal(g1, g2)


def test_graph_reusable_after_grad():
    x = ad.Var(np.array([1.0, 2.0]))
    loss = ad.sum_(x * x)
    g1 = ad.grad(loss, [x])[0]
    g2 = ad.grad(loss, [x])[0]
    assert np.array_equal(g1, g2)
    assert float(loss.value) == 5.0


def test_relu_subgradient_zero_at_kink():
    x = ad.Var(np.array([0.0, -1.0, 1.0]))
    (g,) = ad.grad(ad.sum_(to.relu(x)), [x])
    assert np.array_equal(g, [0.0, 0.0, 1.0])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=2,
                max_size=8))
def test_hypothesis_tanh_chain_gradient(vals):
    x = np.asarray(vals) + 0.05  # nudge off exact kink-prone values
    check_gradient(lambda v: ad.sum_(ad.tanh(v * v + 0.5 * v)), x,
                   n_coords=len(vals), rtol=1e-4, h=1e-6)


# ops that carry a leading person axis through the stacked pair state

dims = st.integers(min_value=1, max_value=4)
seeds = st.integers(min_value=0, max_value=2**16)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda P: st.permutations(range(P))), dims, dims, seeds)
def test_hypothesis_take_leading_permutation_gradient(perm, n, k, seed):
    P = len(perm)
    w = ad.constant(rand((P, n, k), seed + 1))
    check_gradient(lambda v: ad.sum_(ad.tanh(v[np.array(perm)]) * w),
                   rand((P, n, k), seed), n_coords=P * n * k, rtol=1e-4,
                   h=1e-6)


@settings(max_examples=30, deadline=None)
@given(dims, dims, dims, seeds)
def test_hypothesis_broadcast_person_rows_gradient(P, n, k, seed):
    w = ad.constant(rand((P, n, k), seed + 1))
    check_gradient(
        lambda v: ad.sum_(ad.tanh(ad.broadcast_to(v, (P, n, k)) * w)),
        rand((P, 1, k), seed), n_coords=P * k, rtol=1e-4, h=1e-6)


@settings(max_examples=30, deadline=None)
@given(dims, dims, dims, st.integers(min_value=1, max_value=2), seeds)
def test_hypothesis_sum_inner_axis_gradient(P, n, k, axis, seed):
    w = ad.constant(rand((P, k) if axis == 1 else (P, n), seed + 1))
    check_gradient(lambda v: ad.sum_(to.sin(ad.sum_(v, axis=axis)) * w),
                   rand((P, n, k), seed), n_coords=P * n * k, rtol=1e-4,
                   h=1e-6)


# the remaining ops the penalties and samplers use, against finite differences

nonzero = st.floats(min_value=-3.0, max_value=3.0).filter(lambda c: abs(c) > 0.1)


@settings(max_examples=30, deadline=None)
@given(dims, dims, nonzero, seeds)
def test_hypothesis_mul_div_scalar_gradient(n, k, c, seed):
    """Var by Python scalar, both ways round, and scalar by Var."""
    w = ad.constant(rand((n, k), seed + 1))
    check_gradient(
        lambda v: ad.sum_(ad.tanh(v * c + c * v - to.div(v, c)) * w) +
        ad.sum_(to.div(c, v * v + 1.0)), rand((n, k), seed), n_coords=n * k,
        rtol=1e-4, h=1e-6)


@settings(max_examples=30, deadline=None)
@given(dims, dims, seeds)
def test_hypothesis_scalar_var_broadcast_gradient(n, k, seed):
    """A 0-d Var times and divided into an array: its gradient is the sum
    over the broadcast."""
    m = ad.constant(rand((n, k), seed))
    check_gradient(lambda v: ad.sum_(ad.tanh(m * v) + to.div(m, v * v + 1.0)),
                   np.array(rand((), seed + 1)), n_coords=1, rtol=1e-4,
                   h=1e-6)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0.3, max_value=3.0),
                          st.floats(min_value=-3.0, max_value=3.0)),
                min_size=1, max_size=6))
def test_hypothesis_atan2_gradient(polar):
    """Points away from the origin and from the branch cut at +-pi."""
    r, t = np.array(polar).T
    check_gradient(lambda v: ad.sum_(to.atan2(v[0], v[1])),
                   np.stack([r * np.sin(t), r * np.cos(t)]),
                   n_coords=2 * len(polar), rtol=1e-4, h=1e-6)


@settings(max_examples=30, deadline=None)
@given(dims, dims, st.integers(min_value=0, max_value=1), seeds)
def test_hypothesis_concat_stack_gradient(n, k, axis, seed):
    """Each part's slice of the adjoint goes back to it, constants too."""
    const = rand((n, k), seed + 2)

    def loss(v):
        cat = ad.concat([v * 2.0, ad.tanh(v), const], axis=axis)
        stk = ad.stack([to.sin(v), const, v * v], axis=axis)
        return ad.sum_(cat * ad.constant(rand(cat.shape, seed + 3))) + \
            ad.sum_(stk * ad.constant(rand(stk.shape, seed + 4)))

    check_gradient(loss, rand((n, k), seed), n_coords=n * k, rtol=1e-4,
                   h=1e-6)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-3.0, max_value=3.0).filter(
    lambda x: abs(x) > 1e-2), min_size=1, max_size=8), seeds)
def test_hypothesis_relu_away_from_kink_gradient(vals, seed):
    w = ad.constant(rand(len(vals), seed))
    check_gradient(lambda v: ad.sum_(to.relu(v) * w), np.array(vals),
                   n_coords=len(vals), rtol=1e-4, h=1e-6)


@settings(max_examples=30, deadline=None)
@given(dims, st.floats(min_value=-2.5, max_value=3.0), seeds)
def test_hypothesis_powi_gradient(n, p, seed):
    """Real powers of a positive base."""
    check_gradient(lambda v: ad.sum_(to.powi(v * v + 0.5, p)),
                   rand(n, seed), n_coords=n, rtol=1e-4, h=1e-6)


@settings(max_examples=30, deadline=None)
@given(dims, dims, st.integers(min_value=0, max_value=1),
       st.floats(min_value=1e-3, max_value=1.0), st.booleans(), seeds)
def test_hypothesis_norm_eps_gradient(n, k, axis, eps, zero_row, seed):
    """Smoothed norms, a zero row (gradient 0 there) included."""
    x = rand((n, k), seed)
    if zero_row:
        x[0] = 0.0
    w = ad.constant(rand(n if axis == 1 else k, seed + 1))
    check_gradient(lambda v: ad.sum_(to.norm(v, axis=axis, eps=eps) * w), x,
                   n_coords=n * k, rtol=1e-4, h=1e-6)


# -- Adam ------------------------------------------------------------------------


def test_adam_first_step_is_signed_lr():
    p = np.zeros(4)
    g = np.ones(4)
    (new_p,) = ad.Adam([p.shape], lr=0.003).step([p], [g])
    assert np.all(np.abs((p - new_p) - 0.003 * g / (np.abs(g) + 1e-8)) < 1e-9)


def test_adam_zero_gradient_keeps_params():
    p = rand(5, 9)
    opt = ad.Adam([p.shape], lr=0.01)
    opt.m[0][:] = 0.3
    opt.v[0][:] = 0.2
    opt.t = 2
    (new_p,) = opt.step([p], [np.zeros(5)])
    # with m nonzero from history the params still move; with fresh state
    # and zero grad they must not
    (same_p,) = ad.Adam([p.shape], lr=0.01).step([p], [np.zeros(5)])
    assert np.array_equal(same_p, p)
    assert not np.array_equal(new_p, p)
    assert np.all(opt.m[0] == 0.3 * 0.9)


def test_adam_rejects_bad_inputs():
    p = np.zeros(3)
    with pytest.raises(ValueError, match="lr"):
        ad.Adam([p.shape], lr=0.0)
    with pytest.raises(ad.ShapeMismatchError):
        ad.Adam([p.shape], lr=0.01).step([p], [np.zeros(4)])
    with pytest.raises(ad.ShapeMismatchError):
        ad.Adam([(4,)], lr=0.01).step([p], [p])


def test_adam_100_steps_quadratic():
    x = np.array([1.0, 1.0])
    opt = ad.Adam([x.shape], lr=0.003)
    losses = []
    for _ in range(100):
        losses.append(float(x @ x))
        (x,) = opt.step([x], [2.0 * x])
    assert np.linalg.norm(x) < np.sqrt(2.0)
    assert all(b <= a + 1e-12 for a, b in zip(losses[5:], losses[6:]))
