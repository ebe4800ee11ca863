"""Noise schedule and deterministic (eta = 0) DDIM sampling.

Three samplers share one step rule:

* ``ddim_sample``     - both slots of the two-person prior denoised jointly
* ``masked_sample``   - one slot pinned to a forward-noised copy of an
                        already-generated clean motion, only the other
                        slot denoised
* ``inpaint_extend``  - both slots denoised but an initial block of kept
                        frames is overwritten at every step, extending
                        existing sequences

All samplers run on autodiff Vars, so any scalar of their output can be
differentiated with respect to the initial noise. Each step asks the prior
for the clean estimate x0_hat of the pair, stacked as one (2, N, D) state
along a leading person axis, and steps in clean-estimate form,
x_prev = alpha_t x + beta_t x0_hat, with no round trip through eps. The
DDIM step and the inpainting clamp are one tape node each, so a step with
the analytic prior is two nodes; constant references are forward-noised in
numpy and put nothing on the tape.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad


@dataclass
class DiffusionSchedule:
    t_train: int = 1000
    ddim_steps: int = 50
    kind: str = "cosine"        # cosine | linear

    def __post_init__(self):
        if self.ddim_steps > self.t_train:
            raise ValueError("ddim_steps cannot exceed t_train")
        if self.kind == "cosine":
            s = 0.008
            t = np.arange(self.t_train + 1, dtype=np.float64)
            f = np.cos((t / self.t_train + s) / (1 + s) * np.pi / 2.0) ** 2
            ab = f / f[0]
        elif self.kind == "linear":
            betas = np.linspace(1e-4, 0.02, self.t_train)
            ab = np.concatenate([[1.0], np.cumprod(1.0 - betas)])
        else:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        self.alpha_bars = np.clip(ab, 1e-8, 1.0)
        self.alpha_bars[0] = 1.0
        # strided timesteps, descending, always covering t=0 exactly
        taus = np.linspace(0, self.t_train, self.ddim_steps + 1)
        self.taus = np.unique(np.round(taus).astype(int))

    def alpha_bar(self, t: int) -> float:
        return float(self.alpha_bars[t])


@dataclass(frozen=True)
class FrameMask:
    """Binary keep-mask over frames; kept frames are the initial block."""
    n_frames: int
    kept: int

    def __post_init__(self):
        if not (0 <= self.kept <= self.n_frames):
            raise ValueError("FrameMask: kept count out of range")

    @property
    def m(self) -> np.ndarray:
        m = np.zeros(self.n_frames)
        m[: self.kept] = 1.0
        return m


def forward_noise(x0, t: int, noise, schedule: DiffusionSchedule):
    """q-sample of arrays: sqrt(ab_t) x0 + sqrt(1 - ab_t) noise."""
    if not (0 <= t <= schedule.t_train):
        raise ValueError(f"forward_noise: t={t} out of range")
    if np.shape(x0) != np.shape(noise):
        raise ad.ShapeMismatchError("forward_noise: x0/noise shapes differ")
    ab = schedule.alpha_bar(t)
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * noise


def _ddim_step(x: ad.Var, x0: ad.Var, ab_t: float, ab_prev: float) -> ad.Var:
    """alpha * x + beta * x0 as one tape node: the eta = 0 DDIM update
    written from the clean estimate x0 (Song et al. 2021, eq. 12)."""
    alpha = np.sqrt(1.0 - ab_prev) / np.sqrt(max(1.0 - ab_t, 1e-12))
    beta = np.sqrt(ab_prev) - alpha * np.sqrt(ab_t)
    return ad.Var(alpha * x.value + beta * x0.value, (x, x0),
                  lambda g: (alpha * g, beta * g))


def _stacked(pair) -> ad.Var:
    """A (x1, x2) tuple or a stacked array or Var as one (2, N, D) Var."""
    return ad.stack(pair) if isinstance(pair, (tuple, list)) else ad.as_var(pair)


@functools.lru_cache(maxsize=2)
def _step_noise(noise_seed: int, n_steps: int, shape: tuple) -> np.ndarray:
    """(n_steps, *shape) standard-normal noise from `noise_seed`, row k - 1
    for the k-th smallest DDIM timestep. Drawn once per seed and shared,
    read-only, by every evaluation of an optimisation."""
    z = np.random.default_rng(noise_seed).standard_normal((n_steps,) + shape)
    z.flags.writeable = False
    return z


def ddim_sample(prior, schedule: DiffusionSchedule, x_T_pair, label):
    """Deterministic DDIM over both slots, given as a (x1, x2) tuple or one
    stacked (2, N, D) Var. Returns a Var pair (x_0^1, x_0^2)."""
    x = _stacked(x_T_pair)
    taus = schedule.taus
    for k in range(len(taus) - 1, 0, -1):
        t, t_prev = int(taus[k]), int(taus[k - 1])
        x0 = prior.clean_estimate(x, t, label)
        x = _ddim_step(x, x0, schedule.alpha_bar(t), schedule.alpha_bar(t_prev))
    return x[0], x[1]


def masked_sample(prior, schedule: DiffusionSchedule, x_T_target, x0_ref,
                  label, noise_seed: int):
    """Denoise only the first (target) slot; the second (reference) slot is
    replaced at every step by a forward-noised copy of the clean reference
    motion.

    The per-step reference noise is drawn once from `noise_seed`, so the
    map x_T_target -> x_0_target is deterministic during optimization.
    """
    x = ad.as_var(x_T_target)
    ref = np.asarray(x0_ref.value if isinstance(x0_ref, ad.Var) else x0_ref,
                     dtype=np.float64)
    if x.shape != ref.shape:
        raise ad.ShapeMismatchError(
            f"masked_sample: target {x.shape} vs reference {ref.shape}")
    taus = schedule.taus
    zetas = _step_noise(noise_seed, len(taus) - 1, ref.shape)
    for k in range(len(taus) - 1, 0, -1):
        t, t_prev = int(taus[k]), int(taus[k - 1])
        pair = ad.stack([x, forward_noise(ref, t, zetas[k - 1], schedule)])
        x0 = prior.clean_estimate(pair, t, label)
        x = _ddim_step(x, x0[0], schedule.alpha_bar(t),
                       schedule.alpha_bar(t_prev))
    return x


def inpaint_extend(prior, schedule: DiffusionSchedule, x_T_pair, kept_pair,
                   mask: FrameMask, label, noise_seed: int,
                   mode: str = "noised"):
    """Extend a pair, given as a (x1, x2) tuple or one stacked (2, N, D)
    Var: denoise both slots while clamping the kept initial frames to the
    reference content at every step. Returns a Var pair (x_0^1, x_0^2).

    mode 'noised' (default) clamps to a forward-noised copy at each t;
    mode 'literal' clamps to the clean reference. In both modes the final
    output's kept frames equal the reference (exact overwrite at t=0).
    """
    if mode not in ("noised", "literal"):
        raise ValueError(f"inpaint_extend: unknown mode {mode!r}")
    x = _stacked(x_T_pair)
    N = x.shape[1]
    if mask.n_frames != N:
        raise ValueError("inpaint_extend: mask length != window length")
    if mask.kept >= N:
        raise ValueError("inpaint_extend: kept frames must be fewer than the window")
    kept = [np.asarray(k, dtype=np.float64) for k in kept_pair]
    if len(kept) != x.shape[0] or \
            any(k.shape != (mask.kept, x.shape[2]) for k in kept):
        raise ad.ShapeMismatchError("inpaint_extend: kept block shape mismatch")
    ref = np.zeros(x.shape)
    ref[:, : mask.kept] = kept
    keep = np.broadcast_to(mask.m[None, :, None], x.shape)
    free = 1.0 - keep

    def clamp(x, ref_t):     # keep * ref_t + free * x as one tape node
        return ad.Var(keep * ref_t + free * x.value, (x,),
                      lambda g: (g * free,))

    taus = schedule.taus
    # literal mode clamps to the clean reference and needs no noise
    zetas = _step_noise(noise_seed, len(taus) - 1, x.shape) \
        if mode == "noised" else None
    for k in range(len(taus) - 1, 0, -1):
        t, t_prev = int(taus[k]), int(taus[k - 1])
        x = clamp(x, ref if zetas is None else
                  forward_noise(ref, t, zetas[k - 1], schedule))
        x0 = prior.clean_estimate(x, t, label)
        x = _ddim_step(x, x0, schedule.alpha_bar(t), schedule.alpha_bar(t_prev))
    # final overwrite at t=0: kept frames equal the reference exactly
    x = clamp(x, ref)
    return x[0], x[1]
