"""Shared fixtures and numerical oracles."""

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import settings

from groupmotion import autodiff as ad
from groupmotion.diffusion import DiffusionSchedule
from groupmotion.motion import NormalizationStats, default_skeleton
from groupmotion.priors import AnalyticPrior, EpsPrior

# `pytest --hypothesis-profile=ci`: the same examples on every run, so a
# failure replays as it was seen, and no per-example time limit
settings.register_profile("ci", derandomize=True, deadline=None)


def finite_difference(f, x, coords, h=1e-5):
    """Central differences of scalar f at the given flat coordinates."""
    x = np.array(x, dtype=np.float64)
    out = {}
    for c in coords:
        xp, xm = x.copy(), x.copy()
        xp.flat[c] += h
        xm.flat[c] -= h
        out[c] = (f(xp) - f(xm)) / (2.0 * h)
    return out


def check_gradient(build_loss, x, n_coords=10, seed=0, rtol=1e-4, atol=1e-7,
                   h=1e-5):
    """build_loss(Var) -> scalar Var; compares reverse-mode against central
    finite differences on random coordinates."""
    rng = np.random.default_rng(seed)
    var = ad.Var(np.array(x, dtype=np.float64))
    loss = build_loss(var)
    (g,) = ad.grad(loss, [var])
    coords = rng.choice(x.size, size=min(n_coords, x.size), replace=False)
    fd = finite_difference(lambda a: float(build_loss(ad.Var(a)).value),
                           x, coords, h=h)
    for c in coords:
        got, want = g.flat[c], fd[c]
        err = abs(got - want) / max(abs(want), atol / rtol)
        assert err < rtol, f"coord {c}: reverse {got} vs FD {want} (err {err})"


def gs_facing(frame, skeleton):
    """Numpy oracle of the facing direction of one frame: Gram-Schmidt of
    the root's 6D rotation, forward axis c1 x c2 projected onto (x, z)."""
    from groupmotion.motion import rot_slice
    r6 = frame[rot_slice(skeleton.J).start:rot_slice(skeleton.J).start + 6]
    a, b = r6[:3], r6[3:]
    c1 = a / np.linalg.norm(a)
    b2 = b - (b @ c1) * c1
    c2 = b2 / np.linalg.norm(b2)
    f = np.cross(c1, c2)
    d = np.array([f[0], f[2]])
    return d / np.linalg.norm(d)


class ZeroPrior(EpsPrior):
    """Predicts eps = 0, so its clean estimate is x_t / sqrt(ab_t); for
    closed-form sampler checks."""

    def __init__(self, schedule: DiffusionSchedule):
        self.schedule = schedule

    def forward(self, x, t, label):
        return np.zeros(x.shape), \
            lambda g, weights=True: (np.zeros(g.shape), None)


def parallel_map(fn, *iterables):
    """list(map(fn, *iterables)) over at most two worker processes.

    For the minutes-long acceptance scenarios: every run is deterministic
    in its own seed, so the results equal a serial map's. Workers are
    spawned, so `fn` must be a module-level function."""
    workers = min(2, len(os.sched_getaffinity(0)))
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as ex:
        return list(ex.map(fn, *iterables))


@pytest.fixture(scope="session")
def skeleton():
    return default_skeleton()


@pytest.fixture(scope="session")
def stats(skeleton):
    return NormalizationStats.reference(skeleton)


@pytest.fixture(scope="session")
def small_schedule():
    return DiffusionSchedule(t_train=50, ddim_steps=5)


@pytest.fixture(scope="session")
def analytic_prior(small_schedule, stats, skeleton):
    return AnalyticPrior(small_schedule, stats, skeleton)
