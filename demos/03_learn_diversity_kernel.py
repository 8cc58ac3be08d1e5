"""Learn a low-rank diversity kernel from paired diverse sets.

Items 0-9 and 10-19 form two planted clusters.  Positive sets mix the
clusters, negative sets stay inside one, so the contrastive log-det
objective should learn factors that make cross-cluster sets high volume.
"""

import numpy as np

from dppseq.diverse_sets import PairedDiverseSets
from dppseq.kernel_learning import (
    JITTER,
    KernelTrainConfig,
    normalize_kernel,
    paired_set_objective,
    train_kernel,
)

rng = np.random.default_rng(0)


def make_pairs(n_pairs):
    pairs = []
    for _ in range(n_pairs):
        pos = set(rng.choice(10, 2, replace=False)) | set(10 + rng.choice(10, 2, replace=False))
        cluster = int(rng.integers(2)) * 10
        neg = set(cluster + rng.choice(10, 4, replace=False))
        pairs.append(PairedDiverseSets(user=0, positive=[frozenset(pos)], negative=[frozenset(neg)]))
    return pairs


train_pairs = make_pairs(200)
held_out = make_pairs(80)

config = KernelTrainConfig(latent_dim=3, learning_rate=0.01, epochs=150, seed=1)
kernel, history = train_kernel(train_pairs, 20, config)

print(f"objective: {history[0]:.1f} -> {history[-1]:.1f} over {len(history)} epochs")

margins = [paired_set_objective(kernel, [p], jitter=JITTER) for p in held_out]
print(f"held-out pair margin (mean): {np.mean(margins):.3f}  (positive = learned)")

# after unit-row normalization, within-cluster items should be more similar
# than cross-cluster items
K = normalize_kernel(kernel).full()
within = np.mean([abs(K[i, j]) for i in range(10) for j in range(10) if i != j])
across = np.mean([abs(K[i, j]) for i in range(10) for j in range(10, 20)])
print(f"mean |similarity| within cluster: {within:.3f}")
print(f"mean |similarity| across cluster: {across:.3f}")
