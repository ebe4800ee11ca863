"""Training the small learned denoiser and composing with it.

Builds a synthetic corpus of scripted interactions, trains the per-frame
MLP denoiser on the standard noise-prediction objective, and runs the same
penalty-guided composition pipeline with the learned prior plugged in.
"""

import numpy as np

from groupmotion.composer import Composer, OptimizerConfig, SceneSpec
from groupmotion.corpus import CorpusConfig, generate_corpus
from groupmotion.diffusion import DiffusionSchedule
from groupmotion.motion import default_skeleton, normalize
from groupmotion.penalties import PenaltyConfig
from groupmotion.priors import MLPPrior, train
from groupmotion.scripts import default_vocabulary, label_by_name
from groupmotion import metrics

skeleton = default_skeleton()
# the weak learned prior needs a finer sampling path than the analytic one
schedule = DiffusionSchedule(t_train=50, ddim_steps=50)

config = CorpusConfig(labels=("approach", "face-and-talk"),
                      samples_per_label=12, n_frames=24, seed=0)
corpus = generate_corpus(config, skeleton)
stats = corpus.stats()
pairs = [((normalize(s.seqs[0].frames, stats),
           normalize(s.seqs[1].frames, stats)), s.label)
         for s in corpus.samples]
print(f"corpus: {len(pairs)} two-person samples, {config.n_frames} frames")

prior = MLPPrior(schedule, stats, n_labels=len(default_vocabulary()),
                 hidden=64, seed=0)
curve = train(prior, pairs, schedule, epochs=200, lr=3e-3, seed=0)
print(f"training: {len(curve)} evaluations, "
      f"loss {curve[0]:.4f} -> {np.mean(curve[-20:]):.4f}")

composer = Composer(prior, schedule, stats, skeleton, OptimizerConfig())
spec = SceneSpec(participants=(1, 2), first_label=label_by_name("approach"),
                 first_penalties=(PenaltyConfig("overlap", 1.0,
                                                params={"delta": 0.30}),),
                 seed=1, n_frames=24)
result = composer.compose(spec)
r1 = result.sequences[1].root_trajectory()
r2 = result.sequences[2].root_trajectory()
# motion from a prior this small is coarse; the point is that the guided
# composition pipeline accepts any denoiser with the same `chain` and
# `noise_channels` interface, or any eps predictor with an
# `EpsPrior.forward`
print(f"composed with learned prior: closest approach "
      f"{np.linalg.norm(r1 - r2, axis=1).min():.3f} m, "
      f"overlap(0.25 m) {'yes' if metrics.run_has_overlap(result.sequences) else 'no'}")
