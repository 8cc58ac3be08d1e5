"""Fitting the low-rank diversity kernel K = V V^T.

The objective contrasts observed diverse sets against matched negative sets:
sum over pairs of log det(K_pos) - log det(K_neg), L2-regularized and
jittered so both directions stay bounded.  Optimization is full-batch
gradient ascent with a halving-on-regression step control, which keeps
desk-scale runs deterministic.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg as la

from .data import read_checkpoint, write_checkpoint
from .diverse_sets import PairedDiverseSets
from .kernels import DiversityKernelLowRank

log = logging.getLogger(__name__)


@dataclass
class KernelTrainConfig:
    latent_dim: int = 32
    learning_rate: float = 0.05
    epochs: int = 100
    l2_reg: float = 0.01
    jitter: float = 1e-6
    seed: int = 0
    init_scale: float | None = None  # defaults to 1/sqrt(latent_dim)

    def __post_init__(self):
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")

    @property
    def resolved_init_scale(self) -> float:
        return self.init_scale if self.init_scale is not None else 1.0 / np.sqrt(self.latent_dim)


def _set_logdet(factors: np.ndarray, items: Sequence[int], jitter: float) -> float:
    rows = factors[np.asarray(sorted(items), dtype=int)]
    gram = rows @ rows.T + jitter * np.eye(len(items))
    sign, logdet = np.linalg.slogdet(gram)
    if sign <= 0:
        raise FloatingPointError("jittered Gram matrix not positive definite")
    return float(logdet)


def paired_set_objective(
    kernel: DiversityKernelLowRank,
    pairs: Sequence[PairedDiverseSets],
    l2_reg: float = 0.0,
    jitter: float = 0.0,
) -> float:
    """Contrastive log-det objective over all positive/negative set pairs."""
    V = kernel.factors
    total = 0.0
    for p in pairs:
        for pos, neg in zip(p.positive, p.negative):
            total += _set_logdet(V, pos, jitter) - _set_logdet(V, neg, jitter)
    return total - l2_reg * float(np.sum(V * V))


def _objective_gradient(
    V: np.ndarray,
    pairs: Sequence[PairedDiverseSets],
    l2_reg: float,
    jitter: float,
) -> np.ndarray:
    # d log det(K_S + jI)/dV_S = 2 (K_S + jI)^{-1} V_S, other rows untouched
    grad = np.zeros_like(V)
    for p in pairs:
        for pos, neg in zip(p.positive, p.negative):
            for items, sign in ((pos, 1.0), (neg, -1.0)):
                idx = np.asarray(sorted(items), dtype=int)
                rows = V[idx]
                gram = rows @ rows.T + jitter * np.eye(idx.size)
                grad[idx] += sign * 2.0 * la.solve(gram, rows, assume_a="pos")
    return grad - 2.0 * l2_reg * V


def train_kernel(
    pairs: Sequence[PairedDiverseSets],
    n_items: int,
    config: KernelTrainConfig,
) -> tuple[DiversityKernelLowRank, list[float]]:
    """Gradient ascent on the paired-set objective.

    Returns the learned (unnormalized) kernel and the per-epoch objective
    trace.  The learning rate is halved whenever the objective drops two
    epochs in a row.
    """
    if not pairs:
        raise ValueError("no training pairs supplied")
    rng = np.random.default_rng(config.seed)
    scale = config.resolved_init_scale
    V = rng.uniform(-scale, scale, size=(n_items, config.latent_dim))

    lr = config.learning_rate
    history: list[float] = []
    regressions = 0
    for epoch in range(config.epochs):
        grad = _objective_gradient(V, pairs, config.l2_reg, config.jitter)
        V = V + lr * grad
        obj = paired_set_objective(
            DiversityKernelLowRank(V), pairs, config.l2_reg, config.jitter
        )
        if not np.isfinite(obj):
            raise FloatingPointError(f"objective became non-finite at epoch {epoch}")
        if history and obj < history[-1]:
            regressions += 1
            if regressions >= 2:
                lr *= 0.5
                regressions = 0
                log.info("objective regressed twice; halving learning rate to %g", lr)
        else:
            regressions = 0
        history.append(obj)
        log.debug("kernel epoch %d objective %.6f", epoch, obj)
    return DiversityKernelLowRank(V), history


def normalize_kernel(
    kernel: DiversityKernelLowRank, seed: int = 0
) -> DiversityKernelLowRank:
    """Rescale every factor row to unit norm so diag(K) = 1.

    All-zero rows (items never touched by training) are replaced by a random
    unit row first.
    """
    V = kernel.factors.copy()
    norms = np.linalg.norm(V, axis=1)
    zero_rows = np.flatnonzero(norms == 0.0)
    if zero_rows.size:
        log.warning("replacing %d all-zero factor rows with random unit rows", zero_rows.size)
        rng = np.random.default_rng(seed)
        for i in zero_rows:
            row = rng.standard_normal(V.shape[1])
            V[i] = row / np.linalg.norm(row)
        norms = np.linalg.norm(V, axis=1)
    return DiversityKernelLowRank(V / norms[:, None], normalized=True)


def save_kernel(path, kernel: DiversityKernelLowRank) -> None:
    """Checkpoint: header (rows, latent dim, normalized flag), then one row of
    factor values per line."""
    header = (kernel.n_items, kernel.latent_dim, int(kernel.normalized))
    write_checkpoint(path, header, [kernel.factors])


def load_kernel(path) -> DiversityKernelLowRank:
    (_, _, normalized), (factors,) = read_checkpoint(path, 3, lambda h: [(h[0], h[1])])
    return DiversityKernelLowRank(factors, normalized=bool(normalized))
