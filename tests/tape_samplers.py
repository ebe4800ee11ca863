"""Op-by-op tape forms of the samplers' affine stages: the gradient oracle
of `motion.denormalize` on a Var, `AnalyticPrior.clean_estimate` (whose
last stage is `normalize`), `diffusion._ddim_step`, the inpainting clamp
and the forward noising of the references, and the eps-form chain the
samplers stepped through before.

Every stage here is written in `autodiff` ops, one tape node per op, with
constant operands as constant leaves, so the one-node stages of the
package can be checked against it for bit-identical values and gradients.
The script builder is the package's own (its oracle is `tape_scripts`).

The samplers take the step rule as `step`: `x0_step`, the package's
clean-estimate form alpha * x + beta * x0_hat, or `eps_step`, the eps
round trip x0_hat = (x - sqrt(1 - ab_t) eps) / sqrt(ab_t) followed by
sqrt(ab_prev) x0_hat + sqrt(1 - ab_prev) eps, the reference that bounds
how far the clean-estimate form moved outputs and gradients.
"""

from __future__ import annotations

import numpy as np

from groupmotion import autodiff as ad
from groupmotion.diffusion import _stacked, _step_noise
from groupmotion.priors import AnalyticPrior
from groupmotion.scripts import build_pair_scripts

import tape_ops as to


def normalize(frames, stats):
    mu = ad.broadcast_to(ad.constant(stats.mean), frames.shape)
    sd = ad.broadcast_to(ad.constant(stats.std), frames.shape)
    return to.div(frames - mu, sd)


def denormalize(frames, stats):
    mu = ad.broadcast_to(ad.constant(stats.mean), frames.shape)
    sd = ad.broadcast_to(ad.constant(stats.std), frames.shape)
    return frames * sd + mu


def forward_noise(x0, t, noise, schedule):
    ab = schedule.alpha_bar(t)
    return np.sqrt(ab) * ad.as_var(x0) + np.sqrt(1.0 - ab) * ad.as_var(noise)


class TapeAnalyticPrior(AnalyticPrior):
    def clean_estimate(self, x, t, label):
        w = denormalize(x, self.stats)
        return normalize(build_pair_scripts(w, label.spec, self.skeleton),
                         self.stats)

    def predict(self, x, t, label):
        mu = self.clean_estimate(x, t, label)
        ab = self.schedule.alpha_bar(t)
        denom = 1.0 / np.sqrt(max(1.0 - ab, 1e-12))
        return (x - np.sqrt(ab) * mu) * denom


def x0_step(prior, x, t, label, ab_t, ab_prev):
    alpha = np.sqrt(1.0 - ab_prev) / np.sqrt(max(1.0 - ab_t, 1e-12))
    beta = np.sqrt(ab_prev) - alpha * np.sqrt(ab_t)
    return alpha * x + beta * prior.clean_estimate(x, t, label)


def eps_step(prior, x, t, label, ab_t, ab_prev):
    eps = prior.predict(x, t, label)
    x0_hat = (x - np.sqrt(1.0 - ab_t) * eps) * (1.0 / np.sqrt(ab_t))
    return np.sqrt(ab_prev) * x0_hat + np.sqrt(1.0 - ab_prev) * eps


def _steps(schedule):
    taus = schedule.taus
    for k in range(len(taus) - 1, 0, -1):
        t, t_prev = int(taus[k]), int(taus[k - 1])
        yield k, t, schedule.alpha_bar(t), schedule.alpha_bar(t_prev)


def ddim_sample(prior, schedule, x_T_pair, label, step=x0_step):
    x = _stacked(x_T_pair)
    for _, t, ab_t, ab_prev in _steps(schedule):
        x = step(prior, x, t, label, ab_t, ab_prev)
    return x[0], x[1]


def masked_sample(prior, schedule, x_T_target, x0_ref, label, noise_seed,
                  step=x0_step):
    x = ad.as_var(x_T_target)
    ref = np.asarray(x0_ref, dtype=np.float64)
    zetas = _step_noise(noise_seed, len(schedule.taus) - 1, ref.shape)
    ref_c = ad.constant(ref)
    for k, t, ab_t, ab_prev in _steps(schedule):
        ref_t = forward_noise(ref_c, t, ad.constant(zetas[k - 1]), schedule)
        pair = ad.stack([x, ref_t])
        x = step(prior, pair, t, label, ab_t, ab_prev)[0]
    return x


def inpaint_extend(prior, schedule, x_T_pair, kept_pair, mask, label,
                   noise_seed, mode="noised", step=x0_step):
    x = _stacked(x_T_pair)
    ref = np.zeros(x.shape)
    ref[:, : mask.kept] = kept_pair
    m = np.broadcast_to(mask.m[None, :, None], x.shape)
    keep_v, free_v, ref_c = (ad.constant(a) for a in (m.copy(), 1.0 - m, ref))
    zetas = _step_noise(noise_seed, len(schedule.taus) - 1, x.shape) \
        if mode == "noised" else None
    for k, t, ab_t, ab_prev in _steps(schedule):
        ref_t = ref_c if zetas is None else \
            forward_noise(ref_c, t, ad.constant(zetas[k - 1]), schedule)
        x = keep_v * ref_t + free_v * x
        x = step(prior, x, t, label, ab_t, ab_prev)
    x = keep_v * ref_c + free_v * x
    return x[0], x[1]
