"""Op-by-op tape form of the MLP prior and of one training step: the
gradient oracle of `MLPPrior.forward`, of the one-node `MLPPrior.predict`
and `tape_samplers.StepMLPPrior.clean_estimate`, and of `priors.train`.

Every layer here is written in `tape_ops`, one tape node per op, with the
weights as leaves (constants in `predict`), so the package's numpy forward
and its hand-written vjp can be checked against it for bit-identical
values and gradients.
"""

from __future__ import annotations

import numpy as np

from groupmotion import autodiff as ad
from groupmotion.diffusion import forward_noise
from groupmotion.priors import MLPPrior, TrainingDiverged, timestep_embedding

import tape_ops as to


class TapeMLPPrior(MLPPrior):
    """`MLPPrior` with its forward, eps and clean estimate on the tape."""

    def _forward_one(self, x, pooled_partner, t: int, label, w: dict):
        N = x.shape[0]
        t_emb = np.tile(timestep_embedding(t, self.schedule.t_train, self.EMB_T),
                        (N, 1))
        lab = to.broadcast_to(
            to.reshape(w["label_emb"][label.label_id, :], (1, self.EMB_C)),
            (N, self.EMB_C))
        part = to.broadcast_to(to.reshape(pooled_partner, (1, self.D)),
                               (N, self.D))
        h = to.concat([x, part, ad.constant(t_emb), lab], axis=1)
        h = to.tanh(to.matmul(h, w["W1"]) +
                    to.broadcast_to(to.reshape(w["b1"], (1, self.hidden)),
                                    (N, self.hidden)))
        h = to.tanh(to.matmul(h, w["W2"]) +
                    to.broadcast_to(to.reshape(w["b2"], (1, self.hidden)),
                                    (N, self.hidden)))
        out = to.matmul(h, w["W3"]) + \
            to.broadcast_to(to.reshape(w["b3"], (1, self.D)), (N, self.D))
        return w["skip"] * x + out

    def predict_with_weights(self, x1, x2, t: int, label, w: dict):
        pooled1 = to.mean(x1, axis=0)
        pooled2 = to.mean(x2, axis=0)
        e1 = self._forward_one(x1, pooled2, t, label, w)
        e2 = self._forward_one(x2, pooled1, t, label, w)
        return e1, e2

    def predict(self, x, t: int, label):
        w = {k: ad.constant(v) for k, v in self.weights.items()}
        return ad.stack(self.predict_with_weights(x[0], x[1], t, label, w))

    def clean_estimate(self, x, t: int, label):
        ab = self.schedule.alpha_bar(t)
        eps = self.predict(x, t, label)
        return (x - np.sqrt(1.0 - ab) * eps) * (1.0 / np.sqrt(ab))


def train(prior: TapeMLPPrior, pairs, schedule, epochs: int,
          lr: float = 1e-3, seed: int = 0):
    """`priors.train` with the loss and its gradient on the tape."""
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
            loss = (to.mean(r1 * r1) + to.mean(r2 * r2)) * 0.5
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
