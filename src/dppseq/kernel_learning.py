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
from itertools import chain
from typing import Sequence

import numpy as np

from .data import read_checkpoint, write_checkpoint
from .diverse_sets import PairedDiverseSets
from .kernels import DiversityKernelLowRank, _log_det_of_factor

log = logging.getLogger(__name__)


@dataclass
class KernelTrainConfig:
    latent_dim: int = 32
    learning_rate: float = 0.05
    epochs: int = 100
    l2_reg: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


JITTER = 1e-6  # added to each set's Gram diagonal while fitting
BLOCK_SETS = 128  # sets factored at once; bounds an evaluation's memory, whatever the set count


def _group_sets(pairs: Sequence[PairedDiverseSets]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every positive and negative set, grouped by size: one (N, k) array of
    sorted item indices and one (N,) array of signs (+1 positive, -1
    negative) per size k, the sets in pair order within a group."""
    by_size: dict[int, tuple[list, list]] = {}
    for p in pairs:
        for pos, neg in zip(p.positive, p.negative):
            for items, sign in ((pos, 1.0), (neg, -1.0)):
                sets, signs = by_size.setdefault(len(items), ([], []))
                sets.append(items)
                signs.append(sign)
    groups = []
    for k, (sets, signs) in sorted(by_size.items()):
        items = np.fromiter(chain.from_iterable(sets), np.intp, len(sets) * k)
        groups.append((np.sort(items.reshape(len(sets), k)), np.asarray(signs)))
    return groups


def _objective_and_gradient(
    V: np.ndarray,
    groups: Sequence[tuple[np.ndarray, np.ndarray]],
    l2_reg: float,
    jitter: float,
) -> tuple[float, np.ndarray]:
    """The contrastive objective sum_S sign_S log det(V_S V_S^T + jI) - l2 |V|^2
    and its gradient w.r.t. V, over the sets of `_group_sets`.

    Each group goes through in blocks of BLOCK_SETS sets (`_add_block`), so
    memory stays bounded by the block, whatever the number of sets.
    """
    total = 0.0
    grad = np.zeros_like(V)
    for items, signs in groups:
        k = items.shape[1]
        if jitter <= 0 and k > V.shape[1]:
            raise FloatingPointError(
                f"a {k}-item set has a singular Gram matrix at rank {V.shape[1]} without jitter"
            )
        for start in range(0, len(items), BLOCK_SETS):
            block = slice(start, start + BLOCK_SETS)
            total += _add_block(V, items[block], signs[block], jitter, grad)
    objective = total - l2_reg * float(np.sum(V * V))
    return objective, grad - 2.0 * l2_reg * V


def _add_block(
    V: np.ndarray, items: np.ndarray, signs: np.ndarray, jitter: float, grad: np.ndarray
) -> float:
    """One block of same-size sets: adds sign * d log det/dV_S = sign * 2
    (K_S + jI)^-1 V_S into `grad` and returns sum_S sign_S log det(K_S + jI).

    One gather of the rows, one batched Gram and one Cholesky factorization,
    whose diagonal gives the log-dets and whose inverse gives the solve.
    """
    rows = V[items]
    gram = rows @ rows.transpose(0, 2, 1) + jitter * np.eye(items.shape[1])
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise FloatingPointError("jittered Gram matrix not positive definite") from None
    inv_chol = np.linalg.inv(chol)
    solved = inv_chol.transpose(0, 2, 1) @ (inv_chol @ rows)
    np.add.at(grad, items, (2.0 * signs)[:, None, None] * solved)
    return float(signs @ _log_det_of_factor(chol))


def paired_set_objective(
    kernel: DiversityKernelLowRank,
    pairs: Sequence[PairedDiverseSets],
    l2_reg: float = 0.0,
    jitter: float = 0.0,
) -> float:
    """Contrastive log-det objective over all positive/negative set pairs."""
    return _objective_and_gradient(kernel.factors, _group_sets(pairs), l2_reg, jitter)[0]


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
    scale = 1.0 / np.sqrt(config.latent_dim)
    V = rng.uniform(-scale, scale, size=(n_items, config.latent_dim))

    groups = _group_sets(pairs)
    lr = config.learning_rate
    history: list[float] = []
    regressions = 0
    # one evaluation per epoch: the objective at the updated factors is
    # logged, and its gradient takes the next step
    _, grad = _objective_and_gradient(V, groups, config.l2_reg, JITTER)
    for epoch in range(config.epochs):
        V = V + lr * grad
        obj, grad = _objective_and_gradient(V, groups, config.l2_reg, JITTER)
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
