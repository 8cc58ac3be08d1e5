"""Fitting the low-rank diversity kernel K = V V^T.

The objective contrasts observed diverse sets against matched negative sets:
sum over pairs of log det(K_pos) - log det(K_neg), L2-regularized and
jittered so both directions stay bounded.  Optimization is full-batch
gradient ascent with a halving-on-regression step control, which keeps
desk-scale runs deterministic.

The sets come grouped by size, one `diverse_sets.PairedSets` table per
size, and each table's blocks of BLOCK_SETS sets get a scatter plan once
per fit (`_scatter_plans`).  An evaluation factors block after block in
work buffers made once per set size, and adds each block's gradient rows
layer by layer, as `np.add.at` would add them, bit for bit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .data import check_lowest, read_checkpoint, write_checkpoint
from .diverse_sets import PairedSets
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
        check_lowest(self, dict(latent_dim=1, epochs=1, l2_reg=0, seed=0))
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")


JITTER = 1e-6  # added to each set's Gram diagonal while fitting
BLOCK_SETS = 128  # sets factored at once; bounds an evaluation's memory, whatever the set count

# A block's scatter plan: the order that lists its slots layer by layer, and
# where each layer ends in that order
_BlockPlan = tuple[np.ndarray, list[int]]


class _SetGroup(NamedTuple):
    """Every set of one size k: an (N, k) array of sorted item indices, an (N,)
    array of signs (+1 positive, -1 negative) and the scatter plan of each
    BLOCK_SETS block of rows (`_scatter_plans`)."""

    items: np.ndarray
    signs: np.ndarray
    blocks: list[_BlockPlan]


def _group_sets(tables: Sequence[PairedSets]) -> list[_SetGroup]:
    """Each table's sets with their signs, +1 on a positive row and -1 on a
    negative one, and its blocks' scatter plans: built once per fit, read by
    every evaluation."""
    return [
        _SetGroup(t.sets, np.tile([1.0, -1.0], len(t.users)), _scatter_plans(t.sets))
        for t in tables
    ]


def _scatter_plans(items: np.ndarray) -> list[_BlockPlan]:
    """The plans by which `_add_block` adds each block's (n, k) per-slot
    gradient rows onto the item rows as `np.add.at(grad, block_items, rows)`
    does, one layer at a time.

    Layer r holds the r-th slot of each item in the block, in slot order, so
    the items within a layer are distinct, and each item row gets its
    additions in slot order, exactly the additions of `np.add.at`.
    """
    plans = []
    for start in range(0, len(items), BLOCK_SETS):
        flat = items[start : start + BLOCK_SETS].ravel()
        # rank of each slot among the block's slots of the same item: sort
        # stably by item, and count from the start of each item's run
        by_item = np.argsort(flat, kind="stable")
        run = np.ones(flat.size, dtype=bool)
        run[1:] = np.diff(flat[by_item]) != 0
        rank = np.empty_like(by_item)
        rank[by_item] = np.arange(flat.size) - np.flatnonzero(run)[np.cumsum(run) - 1]
        # by layer, then slot
        plans.append((np.argsort(rank, kind="stable"), np.cumsum(np.bincount(rank)).tolist()))
    return plans


def _objective_and_gradient(
    V: np.ndarray,
    groups: Sequence[_SetGroup],
    l2_reg: float,
    jitter: float,
) -> tuple[float, np.ndarray]:
    """The contrastive objective sum_S sign_S log det(V_S V_S^T + jI) - l2 |V|^2
    and its gradient w.r.t. V, over the sets of `_group_sets`.

    Each group goes through in blocks of BLOCK_SETS sets (`_add_block`) in
    one set of work buffers, made here once per set size, so memory stays
    bounded by the block, whatever the number of sets.
    """
    total = 0.0
    grad = np.zeros_like(V)
    for items, signs, blocks in groups:
        if items.max() >= len(V):
            raise ValueError(f"a diverse set holds an item id outside the {len(V)}-item catalog")
        n, k = min(BLOCK_SETS, len(items)), items.shape[1]
        if jitter <= 0 and k > V.shape[1]:
            raise FloatingPointError(
                f"a {k}-item set has a singular Gram matrix at rank {V.shape[1]} without jitter"
            )
        rows, half, solved = (np.empty((n, k, V.shape[1])) for _ in range(3))
        work = (rows, np.empty((n, k, k)), half, solved, jitter * np.eye(k))
        for start, plan in zip(range(0, len(items), BLOCK_SETS), blocks):
            block = slice(start, start + BLOCK_SETS)
            total += _add_block(V, items[block], signs[block], plan, work, grad)
    objective = total - l2_reg * float(np.sum(V * V))
    return objective, grad - 2.0 * l2_reg * V


def _add_block(
    V: np.ndarray,
    items: np.ndarray,
    signs: np.ndarray,
    plan: _BlockPlan,
    work: tuple[np.ndarray, ...],
    grad: np.ndarray,
) -> float:
    """One block of same-size sets: adds sign * d log det/dV_S = sign * 2
    (K_S + jI)^-1 V_S into `grad` and returns sum_S sign_S log det(K_S + jI).

    One gather of the rows, one batched Gram and one Cholesky factorization,
    whose diagonal gives the log-dets and whose inverse gives the solve.
    The rows, the Gram matrices and the two solve products go into the first
    len(items) entries of the buffers of `work`, which ends with jI.  Then
    the block's scatter plan adds the per-slot rows into `grad` one layer at
    a time.
    """
    *buffers, jitter_eye = work
    rows, gram, half, solved = (buf[: len(items)] for buf in buffers)
    # every index is in range (`_objective_and_gradient` checks), so "clip"
    # only spares the copy that the default mode makes
    np.take(V, items, axis=0, mode="clip", out=rows)
    np.matmul(rows, rows.transpose(0, 2, 1), out=gram)
    gram += jitter_eye
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise FloatingPointError("jittered Gram matrix not positive definite") from None
    inv_chol = np.linalg.inv(chol)
    np.matmul(inv_chol, rows, out=half)
    np.matmul(inv_chol.transpose(0, 2, 1), half, out=solved)
    solved *= (2.0 * signs)[:, None, None]
    # `rows` and `half` are free again: the plan's order puts the slots
    # layer by layer into one, and each layer's gradient rows are read into
    # the other, so the scatter allocates only the (n * k,) slot items
    order, ends = plan
    slot_items = items.ravel()[order]
    contrib, taken = (buf.reshape(-1, V.shape[1]) for buf in (half, rows))
    np.take(solved.reshape(contrib.shape), order, axis=0, mode="clip", out=contrib)
    for layer in map(slice, [0, *ends[:-1]], ends):
        layer_items = slot_items[layer]
        cells = np.take(grad, layer_items, axis=0, mode="clip", out=taken[layer])
        cells += contrib[layer]
        grad[layer_items] = cells
    return float(signs @ _log_det_of_factor(chol))


def paired_set_objective(
    kernel: DiversityKernelLowRank,
    pairs: Sequence[PairedSets],
    l2_reg: float = 0.0,
    jitter: float = 0.0,
) -> float:
    """Contrastive log-det objective over all positive/negative set pairs of
    the tables `pairs`."""
    return _objective_and_gradient(kernel.factors, _group_sets(pairs), l2_reg, jitter)[0]


def train_kernel(
    pairs: Sequence[PairedSets],
    n_items: int,
    config: KernelTrainConfig,
) -> tuple[DiversityKernelLowRank, list[float]]:
    """Gradient ascent on the paired-set objective over the tables `pairs`,
    one per set size, as `diverse_sets` makes them.

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
