"""Noise schedule and deterministic (eta = 0) DDIM sampling.

A prior runs the whole DDIM chain as one tape node, `prior.chain`, from
the noise on its `noise_channels` to world frames (see `priors`). At each
step it overwrites the kept block (`Kept`: the reference slot of masked
sampling, the kept frames of an extension) with its reference, takes the
prior's clean estimate x0_hat of the pair, stacked as one (2, N, ·) state,
and steps, x_prev = alpha_t x + beta_t x0_hat; a sample that keeps nothing
has an empty block with no rows (`Kept.none`). `masked_kept` and
`inpaint_kept` build a kept block and check the shapes; the composer builds
its block once per optimisation, then calls the chain in each evaluation.

Three samplers view that chain's output normalized, from full-width
normalized noise:

* ``ddim_sample``     - both slots of the two-person prior denoised jointly
* ``masked_sample``   - one slot pinned to a forward-noised copy of an
                        already-generated clean motion, only the other
                        slot denoised
* ``inpaint_extend``  - both slots denoised but an initial block of kept
                        frames is overwritten at every step, extending
                        existing sequences

They run on autodiff Vars, so any scalar of their output can be
differentiated with respect to the initial noise. Constant references are
forward-noised in numpy and put nothing on the tape.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

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
        self.taus = taus = np.unique(np.round(taus).astype(int))
        steps = []
        for k in range(len(taus) - 1, 0, -1):
            t = int(taus[k])
            ab_t, ab_prev = self.alpha_bar(t), self.alpha_bar(int(taus[k - 1]))
            alpha = np.sqrt(1.0 - ab_prev) / np.sqrt(max(1.0 - ab_t, 1e-12))
            steps.append((k, t, alpha, np.sqrt(ab_prev) - alpha * np.sqrt(ab_t)))
        self._steps = tuple(steps)

    def alpha_bar(self, t: int) -> float:
        return float(self.alpha_bars[t])

    def steps(self) -> tuple:
        """(k, t, alpha, beta) of each DDIM step k, in sampling order (t
        descending): the step is x_prev = alpha x + beta x0_hat, the eta = 0
        update written from the clean estimate (Song et al. 2021, eq. 12).
        The last step lands on t = 0, where alpha_bar is exactly 1, so its
        alpha is exactly 0: a sample keeps no share of x_T itself."""
        return self._steps


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
    memo: dict = field(default_factory=dict, init=False, repr=False,
                       compare=False)

    @property
    def index(self) -> tuple:
        return self.rows, slice(0, self.n)

    @classmethod
    def none(cls, shape: tuple) -> "Kept":
        """The empty block of a (P, N, D) state of `shape`: no rows."""
        return cls(slice(0, 0), shape[1], np.zeros((0,) + tuple(shape[1:])))

    def at(self, k: int, t: int, schedule: DiffusionSchedule) -> np.ndarray:
        """The block's reference at DDIM step k, timestep t."""
        if self.zetas is None:
            return self.ref
        return forward_noise(self.ref, t, self.zetas[k - 1], schedule)

    def cached(self, key, make):
        """make(), computed once per `key` for this block."""
        if key not in self.memo:
            self.memo[key] = make()
        return self.memo[key]


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


def masked_kept(schedule: DiffusionSchedule, shape: tuple, x0_ref,
                noise_seed: int) -> Kept:
    """The kept block of masked sampling of an (N, D) target of `shape`:
    the pair's second slot, the clean reference `x0_ref` forward-noised at
    each step by noise drawn once from `noise_seed`."""
    ref = np.asarray(x0_ref, dtype=np.float64)
    if tuple(shape) != ref.shape:
        raise ad.ShapeMismatchError(
            f"masked_sample: target {tuple(shape)} vs reference {ref.shape}")
    zetas = _step_noise(noise_seed, len(schedule.taus) - 1, ref.shape)
    return Kept(slice(1, 2), ref.shape[0], ref[None], zetas[:, None])


def inpaint_kept(schedule: DiffusionSchedule, shape: tuple, kept_pair,
                 mask: FrameMask, noise_seed: int, mode: str = "noised"):
    """The kept block of an extension of a (2, N, D) pair of `shape`: the
    first `mask.kept` frames of both slots, set to `kept_pair`, forward-
    noised at each step by noise drawn once from `noise_seed` (mode
    'noised') or clean (mode 'literal'); the empty block if none is kept."""
    if mode not in ("noised", "literal"):
        raise ValueError(f"inpaint_extend: unknown mode {mode!r}")
    P, N, D = shape
    if mask.n_frames != N:
        raise ValueError("inpaint_extend: mask length != window length")
    if mask.kept >= N:
        raise ValueError("inpaint_extend: kept frames must be fewer than the window")
    ref = [np.asarray(k, dtype=np.float64) for k in kept_pair]
    if len(ref) != P or any(k.shape != (mask.kept, D) for k in ref):
        raise ad.ShapeMismatchError("inpaint_extend: kept block shape mismatch")
    if not mask.kept:
        return Kept.none(shape)
    # literal mode clamps to the clean reference and needs no noise
    zetas = _step_noise(noise_seed, len(schedule.taus) - 1, tuple(shape))[
        :, :, :mask.kept] if mode == "noised" else None
    return Kept(slice(None), mask.kept, np.stack(ref), zetas)


def _normalized(prior, schedule: DiffusionSchedule, x: ad.Var, label,
                kept: Kept) -> ad.Var:
    """The world frames of `prior.chain` from the full-width noise `x`,
    normalized, (world - mean) * (1 / std), the kept block `kept.ref`."""
    ch, stats = prior.noise_channels, prior.stats
    if not (isinstance(ch, slice) and ch == slice(None)):
        x = ad.take(x, (Ellipsis, ch))
    world = prior.chain(schedule, x, label, kept)
    inv = 1.0 / stats.std
    out = (world.value - stats.mean) * inv
    out[kept.index] = kept.ref

    def backward(g):
        g = g * inv
        g[kept.index] = 0.0
        return (g,)

    return ad.Var(out, (world,), backward)


def ddim_sample(prior, schedule: DiffusionSchedule, x_T_pair, label):
    """Deterministic DDIM over both slots, given as a (x1, x2) tuple or one
    stacked (2, N, D) Var. Returns a Var pair (x_0^1, x_0^2)."""
    x = _stacked(x_T_pair)
    x = _normalized(prior, schedule, x, label, Kept.none(x.shape))
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
    kept = masked_kept(schedule, x.shape, x0_ref, noise_seed)
    # the target as row 0 of the pair; row 1 is overwritten before use
    pair = ad.Var(np.concatenate([x.value[None], kept.ref]), (x,),
                  lambda g: (g[0],))
    return _normalized(prior, schedule, pair, label, kept)[0]


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
    x = _stacked(x_T_pair)
    kept = inpaint_kept(schedule, x.shape, kept_pair, mask, noise_seed, mode)
    x = _normalized(prior, schedule, x, label, kept)
    return x[0], x[1]
