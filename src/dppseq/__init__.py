"""DPP set-likelihood losses for sequential recommendation.

Library layout:
  kernels         sequence-kernel construction, DPP set log-likelihoods
  losses          cross-entropy, BPR, and the two set-likelihood losses
  diverse_sets    category-decay diverse-set generation
  kernel_learning low-rank diversity-kernel fitting
  scorer          minimal embedding scorer with manual backprop
  data            CSV ingestion, k-core filtering, temporal splits
  metrics         recall / NDCG / category coverage / F trade-off
  synthetic       seeded synthetic datasets with planted structure
  oracle          brute-force test oracles (never used in production paths)
  cli             experiment pipeline (`dppseq` command)
"""

from .kernels import (
    DiversityKernelLowRank,
    GroundSet,
    QualityVector,
    SequenceKernel,
    SingularMatrixError,
    build_sequence_kernel,
    cdsl_log_likelihood,
    dsl_log_likelihood,
    grad_quality,
    log_det_psd,
)
from .losses import LossResult, bpr_loss, cdsl_loss, ce_loss, dsl_loss

__all__ = [
    "DiversityKernelLowRank",
    "GroundSet",
    "QualityVector",
    "SequenceKernel",
    "SingularMatrixError",
    "build_sequence_kernel",
    "cdsl_log_likelihood",
    "dsl_log_likelihood",
    "grad_quality",
    "log_det_psd",
    "LossResult",
    "bpr_loss",
    "cdsl_loss",
    "ce_loss",
    "dsl_loss",
]
