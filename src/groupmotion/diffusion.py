"""Noise schedule and deterministic (eta = 0) DDIM sampling.

Three samplers are thin wrappers over the prior's one chain, `prior.chain`:

* ``ddim_sample``     - both slots of the two-person prior denoised jointly
* ``masked_sample``   - one slot pinned to a forward-noised copy of an
                        already-generated clean motion, only the other
                        slot denoised
* ``inpaint_extend``  - both slots denoised but an initial block of kept
                        frames is overwritten at every step, extending
                        existing sequences

All samplers run on autodiff Vars, so any scalar of their output can be
differentiated with respect to the initial noise. At each step the chain
overwrites the sampler's kept block (`Kept`: the reference slot of
`masked_sample`, the kept frames of `inpaint_extend`) with its reference,
takes the prior's clean estimate x0_hat of the pair, stacked as one (2, N,
D) state along a leading person axis, and steps in clean-estimate form,
x_prev = alpha_t x + beta_t x0_hat; a last overwrite puts the clean
reference in the kept block. Every prior runs that whole chain as one tape
node, whatever the number of DDIM steps. Constant references are
forward-noised in numpy and put nothing on the tape.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad


T_TRAIN_MAX = 100_000    # the schedule's arrays hold t_train + 1 floats


@dataclass
class DiffusionSchedule:
    t_train: int = 1000
    ddim_steps: int = 50

    def __post_init__(self):
        # before any array is built: t_train sizes them
        for key, most in (("t_train", T_TRAIN_MAX),
                          ("ddim_steps", self.t_train)):
            value = getattr(self, key)
            if not 1 <= value <= most:
                raise ValueError(f"{key} must be in [1, {most}], got {value!r}")
        # the cosine schedule (Nichol & Dhariwal 2021)
        s = 0.008
        t = np.arange(self.t_train + 1, dtype=np.float64)
        f = np.cos((t / self.t_train + s) / (1 + s) * np.pi / 2.0) ** 2
        ab = f / f[0]
        self.alpha_bars = np.clip(ab, 1e-8, 1.0)
        self.alpha_bars[0] = 1.0
        # strided timesteps, descending, always covering t=0 exactly
        taus = np.linspace(0, self.t_train, self.ddim_steps + 1)
        self.taus = np.unique(np.round(taus).astype(int))

    def alpha_bar(self, t: int) -> float:
        return float(self.alpha_bars[t])

    def steps(self):
        """(k, t, alpha, beta) of each DDIM step k, in sampling order (t
        descending): the step is x_prev = alpha x + beta x0_hat, the eta = 0
        update written from the clean estimate (Song et al. 2021, eq. 12).
        The last step lands on t = 0, where alpha_bar is exactly 1, so its
        alpha is exactly 0: a sample keeps no share of x_T itself."""
        taus = self.taus
        for k in range(len(taus) - 1, 0, -1):
            t = int(taus[k])
            ab_t, ab_prev = self.alpha_bar(t), self.alpha_bar(int(taus[k - 1]))
            alpha = np.sqrt(1.0 - ab_prev) / np.sqrt(max(1.0 - ab_t, 1e-12))
            yield k, t, alpha, np.sqrt(ab_prev) - alpha * np.sqrt(ab_t)


@dataclass(frozen=True)
class FrameMask:
    """Binary keep-mask over frames; kept frames are the initial block."""
    n_frames: int
    kept: int

    def __post_init__(self):
        if not (0 <= self.kept <= self.n_frames):
            raise ValueError("FrameMask: kept count out of range")


def forward_noise(x0, t: int, noise, schedule: DiffusionSchedule):
    """q-sample of arrays: sqrt(ab_t) x0 + sqrt(1 - ab_t) noise."""
    if not (0 <= t <= schedule.t_train):
        raise ValueError(f"forward_noise: t={t} out of range")
    if np.shape(x0) != np.shape(noise):
        raise ad.ShapeMismatchError("forward_noise: x0/noise shapes differ")
    ab = schedule.alpha_bar(t)
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * noise


@dataclass(frozen=True)
class Kept:
    """The block of a (2, N, D) state a sampler overwrites: the first `n`
    frames of the persons `rows`, set to `ref` (the block's shape), noised
    by `zetas[k - 1]` at DDIM step k or clean if `zetas` is None, before
    each clean estimate, and clean after the last step."""
    rows: slice
    n: int
    ref: np.ndarray
    zetas: np.ndarray | None = None

    @property
    def index(self) -> tuple:
        return self.rows, slice(0, self.n)

    def channels(self, ch) -> "Kept":
        """The block restricted to the channels `ch`."""
        return replace(self, ref=self.ref[..., ch], zetas=None
                       if self.zetas is None else self.zetas[..., ch])

    def at(self, k: int, t: int, schedule: DiffusionSchedule) -> np.ndarray:
        """The block's reference at DDIM step k, timestep t."""
        if self.zetas is None:
            return self.ref
        return forward_noise(self.ref, t, self.zetas[k - 1], schedule)


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
    x = prior.chain(schedule, _stacked(x_T_pair), label)
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
    ref = np.asarray(x0_ref, dtype=np.float64)
    if x.shape != ref.shape:
        raise ad.ShapeMismatchError(
            f"masked_sample: target {x.shape} vs reference {ref.shape}")
    zetas = _step_noise(noise_seed, len(schedule.taus) - 1, ref.shape)
    kept = Kept(slice(1, 2), ref.shape[0], ref[None], zetas[:, None])
    # the target as row 0 of the pair; row 1 is overwritten before use
    pair = ad.Var(np.stack([x.value, ref]), (x,), lambda g: (g[0],))
    return prior.chain(schedule, pair, label, kept)[0]


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
    ref = [np.asarray(k, dtype=np.float64) for k in kept_pair]
    if len(ref) != x.shape[0] or \
            any(k.shape != (mask.kept, x.shape[2]) for k in ref):
        raise ad.ShapeMismatchError("inpaint_extend: kept block shape mismatch")
    kept = None
    if mask.kept:
        # literal mode clamps to the clean reference and needs no noise
        zetas = _step_noise(noise_seed, len(schedule.taus) - 1, x.shape)[
            :, :, :mask.kept] if mode == "noised" else None
        kept = Kept(slice(None), mask.kept, np.stack(ref), zetas)
    x = prior.chain(schedule, x, label, kept)
    return x[0], x[1]
