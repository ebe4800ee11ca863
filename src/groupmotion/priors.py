"""Pluggable two-person denoisers.

A denoiser exposes ``predict(x1, x2, t, label) -> (eps1, eps2)`` on
normalized (N x D) autodiff Vars and must be deterministic and
shape-preserving. Two concrete priors ship:

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
from .motion import NormalizationStats, Skeleton, denormalize, normalize
from .scripts import InteractionLabel, build_pair_scripts


class ZeroPrior:
    """Predicts eps = 0; useful for closed-form sampler checks."""

    def predict(self, x1, x2, t, label):
        z1 = ad.constant(np.zeros(x1.shape))
        z2 = ad.constant(np.zeros(x2.shape))
        return z1, z2


class AnalyticPrior:
    """eps_hat = (x_t - sqrt(ab_t) * mu_c(x_t)) / sqrt(1 - ab_t), where
    mu_c maps the current state onto the label's scripted motion manifold.

    The implied clean estimate (x_t - sqrt(1-ab) eps) / sqrt(ab) therefore
    equals mu_c(x_t) identically.
    """

    def __init__(self, schedule: DiffusionSchedule, stats: NormalizationStats,
                 skeleton: Skeleton):
        self.schedule = schedule
        self.stats = stats
        self.skeleton = skeleton

    def clean_estimate(self, x1, x2, label: InteractionLabel):
        w1 = denormalize(x1, self.stats)
        w2 = denormalize(x2, self.stats)
        s1, s2 = build_pair_scripts(w1, w2, label.spec, self.skeleton)
        return normalize(s1, self.stats), normalize(s2, self.stats)

    def predict(self, x1, x2, t: int, label: InteractionLabel):
        mu1, mu2 = self.clean_estimate(x1, x2, label)
        ab = self.schedule.alpha_bar(t)
        denom = 1.0 / np.sqrt(max(1.0 - ab, 1e-12))
        e1 = (x1 - np.sqrt(ab) * mu1) * denom
        e2 = (x2 - np.sqrt(ab) * mu2) * denom
        return e1, e2


# -- tiny learned denoiser ----------------------------------------------------


def timestep_embedding(t: int, t_train: int, dim: int = 8) -> np.ndarray:
    freqs = np.exp(np.linspace(0.0, np.log(200.0), dim // 2))
    phase = (t / t_train) * freqs
    return np.concatenate([np.sin(phase), np.cos(phase)])


class MLPPrior:
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

    def load_weights(self, path) -> None:
        data = np.load(path)
        meta = json.loads(bytes(data["meta"]).decode())
        if meta["D"] != self.D or meta["hidden"] != self.hidden or \
                meta["n_labels"] != self.n_labels:
            raise ValueError(
                f"weight file dims {meta} do not match prior "
                f"(D={self.D}, hidden={self.hidden}, n_labels={self.n_labels})")
        self.weights = {k: np.array(data[k]) for k in self.weights}

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

    def predict(self, x1, x2, t: int, label):
        w = {k: ad.constant(v) for k, v in self.weights.items()}
        return self.predict_with_weights(x1, x2, t, label, w)


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
                ad.constant(xt1.value), ad.constant(xt2.value), t, label, w)
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
