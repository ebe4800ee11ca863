"""Pluggable two-person denoisers.

A denoiser exposes ``clean_estimate(x, t, label) -> x0_hat`` on the pair
stacked along a leading person axis: a normalized (2, N, D) autodiff Var
in, a (2, N, D) Var out. The samplers step from it directly. It also
exposes ``predict(x, t, label) -> eps``, the same estimate as noise. It
must be deterministic. Two concrete priors ship:

* ``AnalyticPrior`` - closed-form attractor toward the label's scripted
  motion family; every downstream acceptance run uses it because it is
  exact, fast, and fully differentiable.
* ``MLPPrior``      - a tiny learned denoiser (shared weights per person,
  cross-person feature exchange) trained on the synthetic corpus with the
  standard noise-prediction objective.
"""

from __future__ import annotations

import json

import numpy as np

from . import autodiff as ad
from .diffusion import DiffusionSchedule, forward_noise
from .motion import NormalizationStats, Skeleton, denormalize
from .scripts import InteractionLabel, pair_scripts


class EpsPrior:
    """A prior that predicts eps; its clean estimate is derived from it as
    x0_hat = (x_t - sqrt(1 - ab_t) eps) / sqrt(ab_t)."""

    def clean_estimate(self, x, t: int, label):
        ab = self.schedule.alpha_bar(t)
        eps = self.predict(x, t, label)
        return (x - np.sqrt(1.0 - ab) * eps) * (1.0 / np.sqrt(ab))


class AnalyticPrior:
    """The clean estimate mu_c(x_t) maps the current state onto the label's
    scripted motion manifold, whatever t; eps_hat = (x_t - sqrt(ab_t) mu_c)
    / sqrt(1 - ab_t) is its noise form.

    On the tape one clean estimate is one node: denormalize, the script
    builder and normalize in numpy, with a hand-written backward.
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

    def __init__(self, schedule: DiffusionSchedule, D: int, n_labels: int,
                 hidden: int = 64, seed: int = 0):
        self.schedule = schedule
        self.D = D
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
    def load(cls, path, schedule: DiffusionSchedule) -> "MLPPrior":
        """The prior of a `save_weights` file, sized by its meta entry."""
        data = np.load(path)
        meta = json.loads(bytes(data["meta"]).decode())
        prior = cls(schedule, meta["D"], meta["n_labels"], meta["hidden"])
        prior.weights = {k: np.array(data[k]) for k in prior.weights}
        return prior

    def _forward_one(self, x, pooled_partner, t: int, label, w: dict):
        N = x.shape[0]
        t_emb = np.tile(timestep_embedding(t, self.schedule.t_train, self.EMB_T),
                        (N, 1))
        lab = ad.broadcast_to(
            ad.reshape(w["label_emb"][label.label_id, :], (1, self.EMB_C)),
            (N, self.EMB_C))
        part = ad.broadcast_to(ad.reshape(pooled_partner, (1, self.D)),
                               (N, self.D))
        h = ad.concat([x, part, ad.constant(t_emb), lab], axis=1)
        h = ad.tanh(ad.matmul(h, w["W1"]) +
                    ad.broadcast_to(ad.reshape(w["b1"], (1, self.hidden)),
                                    (N, self.hidden)))
        h = ad.tanh(ad.matmul(h, w["W2"]) +
                    ad.broadcast_to(ad.reshape(w["b2"], (1, self.hidden)),
                                    (N, self.hidden)))
        out = ad.matmul(h, w["W3"]) + \
            ad.broadcast_to(ad.reshape(w["b3"], (1, self.D)), (N, self.D))
        return w["skip"] * x + out

    def predict_with_weights(self, x1, x2, t: int, label, w: dict):
        pooled1 = ad.mean(x1, axis=0)
        pooled2 = ad.mean(x2, axis=0)
        e1 = self._forward_one(x1, pooled2, t, label, w)
        e2 = self._forward_one(x2, pooled1, t, label, w)
        return e1, e2

    def predict(self, x, t: int, label):
        w = {k: ad.constant(v) for k, v in self.weights.items()}
        return ad.stack(self.predict_with_weights(x[0], x[1], t, label, w))


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
            (x0_1, x0_2), label = pairs[idx]
            t = int(rng.integers(1, schedule.t_train + 1))
            n1 = rng.standard_normal(x0_1.shape)
            n2 = rng.standard_normal(x0_2.shape)
            xt1 = forward_noise(x0_1, t, n1, schedule)
            xt2 = forward_noise(x0_2, t, n2, schedule)
            w = {k: ad.Var(prior.weights[k]) for k in keys}
            e1, e2 = prior.predict_with_weights(
                ad.constant(xt1), ad.constant(xt2), t, label, w)
            r1 = e1 - ad.constant(n1)
            r2 = e2 - ad.constant(n2)
            loss = (ad.mean(r1 * r1) + ad.mean(r2 * r2)) * 0.5
            val = float(loss.value)
            if not np.isfinite(val):
                raise TrainingDiverged(
                    f"loss became non-finite at evaluation {len(curve)}")
            curve.append(val)
            grads = ad.grad(loss, [w[k] for k in keys])
            new = opt.step([prior.weights[k] for k in keys], grads)
            for k, arr in zip(keys, new):
                prior.weights[k] = arr
    return curve
