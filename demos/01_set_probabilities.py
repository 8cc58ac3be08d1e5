"""Walk through the set-probability machinery on a tiny 4-item ground set.

A determinantal point process scores a subset by the determinant of the
corresponding kernel submatrix, so similar items suppress each other.  This
script builds one small sequence kernel and checks the classic identities
numerically.
"""

import numpy as np

from dppseq.kernels import (
    GroundSet,
    QualityVector,
    build_sequence_kernel,
    dsl_log_likelihood,
)
from dppseq.kernel_learning import normalize_kernel
from dppseq.kernels import DiversityKernelLowRank
from dppseq.oracle import enumerate_normalizer, oracle_dpp_distribution, oracle_marginal

rng = np.random.default_rng(0)

# two targets and two sampled negatives; no conditioning yet
gs = GroundSet(previous=(), targets=(0, 1), negatives=(2, 3))

# random unit-row diversity factors and moderate raw relevance scores
diversity = normalize_kernel(DiversityKernelLowRank(rng.standard_normal((6, 4))))
quality = QualityVector.from_raw_scores(rng.uniform(-1.0, 1.0, size=4))
kernel = build_sequence_kernel(quality, diversity, gs)

print("sequence kernel L:")
print(np.round(kernel.matrix, 3))

# normalization: summing det(L_Y) over all 16 subsets equals det(L + I)
brute = enumerate_normalizer(kernel)
closed = np.linalg.det(kernel.matrix + np.eye(4))
print(f"\nsum of subset determinants = {brute:.6f}")
print(f"det(L + I)                 = {closed:.6f}")

# the induced distribution over subsets, via brute-force enumeration
dist = oracle_dpp_distribution(kernel)
print("\nfive most probable subsets:")
for subset, p in sorted(dist.items(), key=lambda kv: -kv[1])[:5]:
    print(f"  {sorted(subset)!s:12s} {p:.4f}")

# the library's log-likelihood agrees with the enumerated probability
target_set = [0, 1]
ll = dsl_log_likelihood(kernel, target_set)
print(f"\nlog P(targets)  analytic   = {ll:.6f}")
print(f"log P(targets)  enumerated = {np.log(dist[frozenset(target_set)]):.6f}")

# marginal inclusion probabilities from the kernel: diag of L (L + I)^-1
M = kernel.matrix @ np.linalg.inv(kernel.matrix + np.eye(4))
print("\nper-item marginals (closed form vs enumeration):")
for i in range(4):
    print(f"  item {i}: {M[i, i]:.4f} vs {oracle_marginal(kernel, i):.4f}")
