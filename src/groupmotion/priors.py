"""Pluggable two-person denoisers.

A denoiser runs the samplers' whole DDIM chain as one tape node whatever
the number of steps: ``chain(schedule, x, label, kept) -> frames`` reads
the initial noise `x` on its ``noise_channels`` alone, a normalized (P, N,
C) autodiff Var with the pair stacked along a leading person axis, and
returns the sample as world-space (P, N, D) frames, the `kept` block (see
`diffusion.Kept`) its clean reference in world space (``ref * std +
mean``), and the adjoint of `x` exactly 0.0 on the block. `kept` is
required: a sample that keeps nothing passes the empty block. The
penalties read rows of that one node, and the samplers of `diffusion` view
it normalized. A prior holds the `stats` it normalizes with, and
``predict(x, t, label)`` gives one step's eps. It must be deterministic.
Two concrete priors ship:

* ``AnalyticPrior`` - closed-form attractor toward the label's scripted
  motion family; every downstream acceptance run uses it because it is
  exact, fast, and fully differentiable. Its clean estimate reads the
  state through 8 linear functionals per person and every script starts
  at its anchor, so its chain runs in that parameter space: the steps
  before the last step the functionals alone, and the last builds the one
  script in world space. That chain reads x_T only on the functionals'
  channels (`noise_channels`, 8 of D), so the composer optimises only
  those.
* ``MLPPrior``      - a tiny learned denoiser (shared weights per person,
  cross-person feature exchange) trained on the synthetic corpus with the
  standard noise-prediction objective, under the `stats` it is given.
  Its forward is numpy with a hand-written vjp; `EpsPrior.chain` steps it
  in numpy, in normalized space, under the one node, training uses no
  tape, and it reads every channel.
"""

from __future__ import annotations

import json

import numpy as np

from . import autodiff as ad
from .diffusion import DiffusionSchedule, Kept, forward_noise
from .motion import NormalizationStats, Skeleton, denormalize
from .scripts import (InteractionLabel, assemble, functional_channels,
                      functionals, functionals_vjp, pair_scripts,
                      script_inputs)


class EpsPrior:
    """A prior that predicts eps in numpy, `forward(x, t, label) -> (eps,
    vjp)`, on states normalized by its `stats`; it reads every channel of
    x_T."""

    noise_channels = slice(None)

    def chain(self, schedule: DiffusionSchedule, x, label, kept: Kept):
        """The samplers' DDIM chain on this prior's eps as one tape node:
        each step overwrites the `kept` block with its reference and steps
        from x0_hat = (x - sqrt(1 - ab_t) eps) / sqrt(ab_t); the sample, in
        normalized space, ends as world frames, y * std + mean.
        The backward sums each step's adjoints as a stepped tape would, the
        step's, x0_hat's, then eps's, so the gradients agree bit for bit.

        The eps model embeds t against its own schedule's `t_train`, so
        `schedule` must share it; its alpha_bar(t) are then this prior's."""
        if schedule.t_train != self.schedule.t_train:
            raise ValueError(f"chain: schedule t_train {schedule.t_train} is "
                             f"not the prior's {self.schedule.t_train}")
        x, std = ad.as_var(x), self.stats.std
        y, steps = x.value.copy(), []      # each step makes a new y
        for k, t, alpha, beta in schedule.steps():
            y[kept.index] = kept.at(k, t, schedule)
            ab = schedule.alpha_bar(t)
            c, inv = np.sqrt(1.0 - ab), 1.0 / np.sqrt(ab)
            eps, vjp = self.forward(y, t, label)
            steps.append((alpha, beta, c, inv, vjp))
            y = alpha * y + beta * ((y - eps * c) * inv)
        y[kept.index] = kept.ref

        def backward(g):
            g = g * std
            g[kept.index] = 0.0
            for alpha, beta, c, inv, vjp in reversed(steps):
                gi = beta * g * inv
                g = alpha * g + gi + vjp(-gi * c, weights=False)[0]
                g[kept.index] = 0.0
            return (g,)

        return ad.Var(y * std + self.stats.mean, (x,), backward)


class AnalyticPrior:
    """The clean estimate mu_c(x_t) maps the current state onto the label's
    scripted motion manifold, whatever t; eps_hat = (x_t - sqrt(ab_t) mu_c)
    / sqrt(1 - ab_t) is its noise form.

    On the tape one clean estimate is one node: denormalize, the script
    builder and normalize in numpy, with a hand-written backward. A whole
    sampler chain is one node too (`chain`).
    """

    def __init__(self, schedule: DiffusionSchedule, stats: NormalizationStats,
                 skeleton: Skeleton):
        self.schedule = schedule
        self.stats = stats
        self.skeleton = skeleton

    def clean_estimate(self, x, t: int, label: InteractionLabel):
        x, std, inv = ad.as_var(x), self.stats.std, 1.0 / self.stats.std
        s, vjp = pair_scripts(denormalize(x.value, self.stats), label.spec,
                              self.skeleton)
        return ad.Var((s - self.stats.mean) * inv, (x,),
                      lambda g: (vjp(g * inv) * std,))

    def predict(self, x, t: int, label: InteractionLabel):
        ab = self.schedule.alpha_bar(t)
        mu = self.clean_estimate(x, t, label)
        return (x - np.sqrt(ab) * mu) * (1.0 / np.sqrt(max(1.0 - ab, 1e-12)))

    @property
    def noise_channels(self):
        """The channels of x_T that `chain` reads, the functionals'."""
        return functional_channels(self.skeleton)

    def chain(self, schedule: DiffusionSchedule, x, label, kept: Kept):
        """The samplers' DDIM chain of this prior (`EpsPrior.chain` on its
        eps), run in parameter space and recorded as one tape node, from
        the noise `x` on `noise_channels` to world frames.

        The clean estimate reads the state through its 8 functionals per
        person (`scripts.functionals`), which are linear. Every script
        starts at its anchor and passes its carriers through, so a clean
        estimate's functionals are its input's, and each step before the
        last steps the free functionals, those outside the kept block,
        alone by the DDIM rule, the block adding its reference's as
        constants: one (P, 8) addend per step, zero off the block's rows,
        computed once per block. The last step lands on t = 0, where alpha
        is exactly 0 and beta exactly 1, so the output is its clean
        estimate, the one script assembled in world space, off the
        kept block and the clean reference on it. The backward is that
        assembly's vjp, then the recursion's, step by step in reverse.
        """
        x, spec, stats = ad.as_var(x), label.spec, self.stats
        P, N = x.shape[:2]
        ch = functional_channels(self.skeleton)
        sd, mu = stats.std[ch], stats.mean[ch]
        # the functionals' frame sums depend on y's memory order: y takes
        # that of channels gathered from full-width noise, channels
        # outermost, whatever the order of x
        y = np.empty((8, P, N)).transpose(1, 2, 0)
        np.multiply(x.value, sd, out=y)
        y += mu
        y[kept.index] = 0.0

        def fixed():
            # each functional's share off the block (the anchor is frame 0)
            # and its mean's, the block's world functionals at each step k,
            # by k, as a (P, 8) addend zero off its rows, and its world
            # reference
            free = np.ones((P, 8))
            free[kept.rows, :2] = 0.0
            free[kept.rows, 2:] = (N - kept.n) / N
            add = {k: np.zeros((P, 8)) for k, *_ in schedule.steps()}
            for k, t, _, _ in schedule.steps():
                add[k][kept.rows] = functionals(
                    kept.at(k, t, schedule)[..., ch] * sd + mu)
            return (free, free * np.concatenate([mu[:2], N * mu[2:]]), add,
                    kept.ref * stats.std + stats.mean)

        free, f_mean, add, ref = kept.cached(
            (self, schedule.t_train, schedule.ddim_steps, P, N), fixed)
        F = functionals(y)
        steps = []                   # (alpha, beta) before the last step
        for k, t, alpha, beta in schedule.steps():
            Fk = F + add[k]
            if k == 1:               # the last step, onto t = 0
                break
            steps.append((alpha, beta))
            F = alpha * F + beta * (free * Fk) + (1.0 - alpha - beta) * f_mean
        q, inputs_vjp = script_inputs(Fk, spec, self.skeleton, N)
        out, assemble_vjp = assemble(q, spec, self.skeleton)
        out[kept.index] = ref

        def backward(g):
            g = g.copy()
            g[kept.index] = 0.0
            gF = inputs_vjp(assemble_vjp(g))
            for alpha, beta in reversed(steps):
                gF = alpha * gF + beta * free * gF
            gy = functionals_vjp(gF, N) * sd
            gy[kept.index] = 0.0
            return (gy,)

        return ad.Var(out, (x,), backward)


# -- tiny learned denoiser ----------------------------------------------------


def timestep_embedding(t: int, t_train: int, dim: int = 8) -> np.ndarray:
    freqs = np.exp(np.linspace(0.0, np.log(200.0), dim // 2))
    phase = (t / t_train) * freqs
    return np.concatenate([np.sin(phase), np.cos(phase)])


class MLPPrior(EpsPrior):
    """Per-frame MLP with shared weights across persons and a pooled
    partner-feature exchange; sinusoidal timestep and learned label
    embeddings are appended to each frame's input."""

    EMB_T = 8
    EMB_C = 8

    def __init__(self, schedule: DiffusionSchedule, stats: NormalizationStats,
                 n_labels: int, hidden: int = 64, seed: int = 0):
        self.schedule = schedule
        self.stats = stats
        self.D = D = stats.D
        self.n_labels = n_labels
        self.hidden = hidden
        rng = np.random.default_rng(seed)
        d_in = 2 * D + self.EMB_T + self.EMB_C

        def init(shape, scale):
            return rng.standard_normal(shape) * scale

        self.weights = {
            "W1": init((d_in, hidden), 1.0 / np.sqrt(d_in)),
            "b1": np.zeros(hidden),
            "W2": init((hidden, hidden), 1.0 / np.sqrt(hidden)),
            "b2": np.zeros(hidden),
            "W3": init((hidden, D), 0.1 / np.sqrt(hidden)),
            "b3": np.zeros(D),
            "label_emb": init((n_labels, self.EMB_C), 0.5),
            # residual skip x_t -> eps_hat; eps ~ x_t at high noise levels,
            # so s = 1 is the natural starting point
            "skip": np.array(1.0),
        }

    # weight (de)serialization: npz with a json meta entry
    def save_weights(self, path) -> None:
        meta = json.dumps({"D": self.D, "n_labels": self.n_labels,
                           "hidden": self.hidden})
        np.savez(path, meta=np.frombuffer(meta.encode(), dtype=np.uint8),
                 **self.weights)

    @classmethod
    def load(cls, path, schedule: DiffusionSchedule,
             stats: NormalizationStats, sizes=dict) -> "MLPPrior":
        """The prior of a `save_weights` file under `stats`, sized by
        `sizes(meta)`, which may check its meta entry; a D other than the
        stats' or a wrong weight shape is a ValueError."""
        data = np.load(path)
        meta = json.loads(bytes(data["meta"]).decode())
        kw = sizes(meta)
        if kw.pop("D", stats.D) != stats.D:
            raise ValueError(f"weights of D {meta['D']}, stats of D {stats.D}")
        prior = cls(schedule, stats, **kw)
        weights = {k: np.array(data[k]) for k in prior.weights}
        for k, w in weights.items():
            if w.shape != prior.weights[k].shape:
                raise ValueError(f"{k} has shape {w.shape}, not "
                                 f"{prior.weights[k].shape}")
        prior.weights = weights
        return prior

    def forward(self, x, t: int, label):
        """eps of the stacked (2, N, D) pair `x` in numpy, and its vjp:
        eps's adjoint to those of `x` and of each weight array (a dict, or
        None if `vjp(g, weights=False)` asks for the state's alone).

        Each person's frames go through the MLP alone, with the other's
        frame mean as its partner feature, so a person's eps does not depend
        on how many rows BLAS sees at once."""
        w, N, D = self.weights, x.shape[1], self.D
        t_emb = np.tile(timestep_embedding(t, self.schedule.t_train, self.EMB_T),
                        (N, 1))
        lab = np.broadcast_to(w["label_emb"][label.label_id], (N, self.EMB_C))
        pooled = [np.sum(xp, axis=0) * (1.0 / N) for xp in x]
        eps, acts = [], []
        for p in (0, 1):
            h0 = np.concatenate([x[p], np.broadcast_to(pooled[1 - p], (N, D)),
                                 t_emb, lab], axis=1)
            h1 = np.tanh(h0 @ w["W1"] + w["b1"])
            h2 = np.tanh(h1 @ w["W2"] + w["b2"])
            eps.append(w["skip"] * x[p] + (h2 @ w["W3"] + w["b3"]))
            acts.append((h0, h1, h2))

        def vjp(g, weights=True):
            grads = {k: np.zeros_like(v) for k, v in w.items()} \
                if weights else None
            own, partner = [], []
            for p, (h0, h1, h2) in enumerate(acts):
                ge = g[p]
                if not weights and not ge.any():
                    # no adjoint, as the kept row of masked_sample: its
                    # terms to x are zero, with no matmul
                    zero = np.zeros_like(ge)
                    own.append((zero, zero))
                    partner.append(zero[0])
                    continue
                g2 = (ge @ w["W3"].T) * (1.0 - h2 * h2)
                g1 = (g2 @ w["W2"].T) * (1.0 - h1 * h1)
                gh = g1 @ w["W1"].T
                if weights:
                    for k, v in (("W3", h2.T @ ge), ("b3", ge.sum(axis=0)),
                                 ("W2", h1.T @ g2), ("b2", g2.sum(axis=0)),
                                 ("W1", h0.T @ g1), ("b1", g1.sum(axis=0)),
                                 ("skip", np.sum(ge * x[p]))):
                        grads[k] += v
                    grads["label_emb"][label.label_id] += \
                        gh[:, 2 * D + self.EMB_T:].sum(axis=0)
                own.append((gh[:, :D], ge * w["skip"]))
                partner.append(gh[:, D:2 * D].sum(axis=0) * (1.0 / N))
            # in the order the op-by-op tape summed them: person 0's own
            # and skip terms first, person 1's skip and partner terms first
            (a0, b0), (a1, b1) = own
            gx = np.stack([a0 + b0 + partner[1], a1 + (b1 + partner[0])])
            return gx, grads

        return np.stack(eps), vjp

    def predict(self, x, t: int, label):
        x = ad.as_var(x)
        eps, vjp = self.forward(x.value, t, label)
        return ad.Var(eps, (x,), lambda g: (vjp(g, weights=False)[0],))


class TrainingDiverged(RuntimeError):
    pass


def train(prior: MLPPrior, pairs, schedule: DiffusionSchedule, epochs: int,
          lr: float = 1e-3, seed: int = 0):
    """Denoising-objective training of the MLP prior.

    `pairs` is a list of ((x0_1, x0_2), InteractionLabel) with normalized
    (N x D) arrays. Returns the per-evaluation loss curve; prior weights
    are updated in place. epochs=0 leaves the weights untouched.
    """
    rng = np.random.default_rng(seed)
    keys = sorted(prior.weights.keys())
    opt = ad.Adam([prior.weights[k].shape for k in keys], lr=lr)
    curve = []
    for _ in range(epochs):
        order = rng.permutation(len(pairs))
        for idx in order:
            x0, label = np.stack(pairs[idx][0]), pairs[idx][1]
            t = int(rng.integers(1, schedule.t_train + 1))
            noise = rng.standard_normal(x0.shape)
            eps, vjp = prior.forward(forward_noise(x0, t, noise, schedule), t,
                                     label)
            r = eps - noise
            inv = 1.0 / r[0].size
            val = float((np.sum(r[0] * r[0]) * inv + np.sum(r[1] * r[1]) * inv)
                        * 0.5)
            if not np.isfinite(val):
                raise TrainingDiverged(
                    f"loss became non-finite at evaluation {len(curve)}")
            curve.append(val)
            # d loss / d r, as the tape summed it: 2 x (0.5 / size) r
            g = (0.5 * inv) * r
            _, grads = vjp(g + g)
            grads = [grads[k] for k in keys]
            new = opt.step([prior.weights[k] for k in keys], grads)
            for k, arr in zip(keys, new):
                prior.weights[k] = arr
    return curve
