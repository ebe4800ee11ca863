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
differentiated with respect to the initial noise.
"""

from __future__ import annotations

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
    """q-sample: sqrt(ab_t) x0 + sqrt(1 - ab_t) noise."""
    if not (0 <= t <= schedule.t_train):
        raise ValueError(f"forward_noise: t={t} out of range")
    x0, noise = ad.as_var(x0), ad.as_var(noise)
    if x0.shape != noise.shape:
        raise ad.ShapeMismatchError("forward_noise: x0/noise shapes differ")
    ab = schedule.alpha_bar(t)
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * noise


def _ddim_step(x, eps, ab_t: float, ab_prev: float) -> ad.Var:
    x0_hat = (x - np.sqrt(1.0 - ab_t) * eps) * (1.0 / np.sqrt(ab_t))
    return np.sqrt(ab_prev) * x0_hat + np.sqrt(1.0 - ab_prev) * eps


def ddim_sample(prior, schedule: DiffusionSchedule, x_T_pair, label):
    """Deterministic DDIM over both slots. Returns a Var pair (x_0^1, x_0^2)."""
    x1, x2 = ad.as_var(x_T_pair[0]), ad.as_var(x_T_pair[1])
    taus = schedule.taus
    for k in range(len(taus) - 1, 0, -1):
        t, t_prev = int(taus[k]), int(taus[k - 1])
        e1, e2 = prior.predict(x1, x2, t, label)
        ab_t, ab_prev = schedule.alpha_bar(t), schedule.alpha_bar(t_prev)
        x1 = _ddim_step(x1, e1, ab_t, ab_prev)
        x2 = _ddim_step(x2, e2, ab_t, ab_prev)
    return x1, x2


def masked_sample(prior, schedule: DiffusionSchedule, x_T_target, x0_ref,
                  label, noise_seed: int, target_slot: int = 0):
    """Denoise only the target slot; the reference slot is replaced at every
    step by a forward-noised copy of the clean reference motion.

    The per-step reference noise is drawn once from `noise_seed`, so the
    map x_T_target -> x_0_target is deterministic during optimization.
    """
    x = ad.as_var(x_T_target)
    ref = np.asarray(x0_ref.value if isinstance(x0_ref, ad.Var) else x0_ref,
                     dtype=np.float64)
    if x.shape != ref.shape:
        raise ad.ShapeMismatchError(
            f"masked_sample: target {x.shape} vs reference {ref.shape}")
    rng = np.random.default_rng(noise_seed)
    taus = schedule.taus
    zetas = {int(t): rng.standard_normal(ref.shape) for t in taus[1:]}
    ref_c = ad.constant(ref)
    for k in range(len(taus) - 1, 0, -1):
        t, t_prev = int(taus[k]), int(taus[k - 1])
        ref_t = forward_noise(ref_c, t, ad.constant(zetas[t]), schedule)
        if target_slot == 0:
            e_tgt, _ = prior.predict(x, ref_t, t, label)
        else:
            _, e_tgt = prior.predict(ref_t, x, t, label)
        x = _ddim_step(x, e_tgt, schedule.alpha_bar(t), schedule.alpha_bar(t_prev))
    return x


def inpaint_extend(prior, schedule: DiffusionSchedule, x_T_pair, kept_pair,
                   mask: FrameMask, label, noise_seed: int,
                   mode: str = "noised"):
    """Extend a pair: denoise both slots while clamping the kept initial
    frames to the reference content at every step.

    mode 'noised' (default) clamps to a forward-noised copy at each t;
    mode 'literal' clamps to the clean reference. In both modes the final
    output's kept frames equal the reference (exact overwrite at t=0).
    """
    if mode not in ("noised", "literal"):
        raise ValueError(f"inpaint_extend: unknown mode {mode!r}")
    x1, x2 = ad.as_var(x_T_pair[0]), ad.as_var(x_T_pair[1])
    N = x1.shape[0]
    if mask.n_frames != N:
        raise ValueError("inpaint_extend: mask length != window length")
    if mask.kept >= N:
        raise ValueError("inpaint_extend: kept frames must be fewer than the window")
    refs = []
    for kept, x in zip(kept_pair, (x1, x2)):
        kept = np.asarray(kept, dtype=np.float64)
        if kept.shape != (mask.kept, x.shape[1]):
            raise ad.ShapeMismatchError("inpaint_extend: kept block shape mismatch")
        full = np.zeros(x.shape)
        full[: mask.kept] = kept
        refs.append(full)
    m_col = mask.m[:, None]
    keep_v = ad.constant(np.broadcast_to(m_col, x1.shape).copy())
    free_v = ad.constant(np.broadcast_to(1.0 - m_col, x1.shape).copy())
    rng = np.random.default_rng(noise_seed)
    taus = schedule.taus
    # literal mode clamps to the clean reference and needs no noise
    zetas = {int(t): (rng.standard_normal(x1.shape), rng.standard_normal(x1.shape))
             for t in taus[1:]} if mode == "noised" else {}

    def clamp(x, ref, t, z):
        if z is None:
            ref_t = ad.constant(ref)
        else:
            ref_t = forward_noise(ad.constant(ref), t, ad.constant(z), schedule)
        return keep_v * ref_t + free_v * x

    for k in range(len(taus) - 1, 0, -1):
        t, t_prev = int(taus[k]), int(taus[k - 1])
        z1, z2 = zetas.get(t, (None, None))
        x1c = clamp(x1, refs[0], t, z1)
        x2c = clamp(x2, refs[1], t, z2)
        e1, e2 = prior.predict(x1c, x2c, t, label)
        ab_t, ab_prev = schedule.alpha_bar(t), schedule.alpha_bar(t_prev)
        x1 = _ddim_step(x1c, e1, ab_t, ab_prev)
        x2 = _ddim_step(x2c, e2, ab_t, ab_prev)
    # final overwrite at t=0: kept frames equal the reference exactly
    x1 = clamp(x1, refs[0], 0, None)
    x2 = clamp(x2, refs[1], 0, None)
    return x1, x2
