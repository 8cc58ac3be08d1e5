"""A minimal embedding scorer trained by manual backpropagation.

The context for a sequence is the user embedding plus the mean of the input
embeddings of the previous items; each candidate is scored by dot product
with its output embedding plus a bias.  The architecture is deliberately
simple so that comparisons between training losses are not confounded by
model capacity.
"""

from __future__ import annotations

import copy
import logging
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import losses as losses_mod
from .data import Instances, SequenceInstance, SplitResult, read_checkpoint, write_checkpoint
from .kernels import DiversityKernelLowRank
from .metrics import (
    RANK_BLOCK_USERS,
    MetricTable,
    evaluate_ranking_fn,
    flat_index,
    rank_candidates,
    user_metrics,
)

log = logging.getLogger(__name__)

LOSS_KINDS = ("ce", "bpr", "dsl", "cdsl")


@dataclass
class ScorerParams:
    user_emb: np.ndarray  # |U| x d
    item_in_emb: np.ndarray  # M x d, for previous items
    item_out_emb: np.ndarray  # M x d, for candidates
    item_bias: np.ndarray  # M

    @property
    def d(self) -> int:
        return self.user_emb.shape[1]

    def copy(self) -> "ScorerParams":
        return copy.deepcopy(self)


def init_params(n_users: int, n_items: int, d: int = 32, seed: int = 0) -> ScorerParams:
    rng = np.random.default_rng(seed)
    scale = 0.1 / np.sqrt(d)
    return ScorerParams(
        user_emb=rng.uniform(-scale, scale, size=(n_users, d)),
        item_in_emb=rng.uniform(-scale, scale, size=(n_items, d)),
        item_out_emb=rng.uniform(-scale, scale, size=(n_items, d)),
        item_bias=np.zeros(n_items),
    )


_TABLES = ("user_emb", "item_in_emb", "item_out_emb", "item_bias")


def _contexts(params: ScorerParams, users: np.ndarray, previous: np.ndarray) -> np.ndarray:
    """(B, d) contexts: user embedding plus mean input embedding of the
    previous items, from (B,) users and (B, P) previous items."""
    if previous.shape[1] == 0:
        raise ValueError("previous item list must be nonempty")
    return params.user_emb[users] + params.item_in_emb[previous].mean(axis=1)


def _check_indices(params: ScorerParams, users: np.ndarray, items: np.ndarray) -> None:
    if users.size and (users.min() < 0 or users.max() >= params.user_emb.shape[0]):
        raise ValueError("user index out of range")
    if items.size and (items.min() < 0 or items.max() >= params.item_out_emb.shape[0]):
        raise ValueError("item index out of range")


def score(
    params: ScorerParams, user: int, previous: Sequence[int], candidates: Sequence[int]
) -> np.ndarray:
    """Relevance scores of `candidates` given the user's recent items."""
    users = np.array([user])
    cand = np.asarray(candidates, dtype=int)
    prev = np.asarray(previous, dtype=int)
    _check_indices(params, users, np.concatenate([prev, cand]))
    c = _contexts(params, users, prev.reshape(1, -1))[0]
    return params.item_out_emb[cand] @ c + params.item_bias[cand]


def _batch_loss(
    params: ScorerParams,
    users: np.ndarray,
    items: np.ndarray,
    P: int,
    T: int,
    loss_kind: str,
    kernel: DiversityKernelLowRank | None,
) -> tuple[losses_mod.LossBatch, np.ndarray, np.ndarray]:
    """Losses and score gradients of (B, P+T+Z) ground sets, P previous
    items, T targets and Z negatives per row, with the (B, n) scored items
    the gradients align with and the (B, d) contexts."""
    if loss_kind == "bpr":
        # pair the k-th target with the k-th negative
        if items.shape[1] < P + 2 * T:
            raise ValueError("bpr pairing needs at least as many negatives as targets")
        scored = items[:, P : P + 2 * T]
    elif loss_kind == "cdsl":
        scored = items
    else:
        scored = items[:, P:]
    contexts = _contexts(params, users, items[:, :P])
    s = np.einsum("bnd,bd->bn", params.item_out_emb[scored], contexts)
    s += params.item_bias[scored]
    if loss_kind == "ce":
        loss = losses_mod.ce_loss_batch(s[:, :T], s[:, T:])
    elif loss_kind == "bpr":
        loss = losses_mod.bpr_loss_batch(s[:, :T], s[:, T:])
    elif loss_kind == "dsl":
        loss = losses_mod.dsl_loss_batch(kernel, scored, s, T)
    elif loss_kind == "cdsl":
        loss = losses_mod.cdsl_loss_batch(kernel, scored, s, P, T)
    else:
        raise ValueError(f"unknown loss kind {loss_kind!r}")
    return loss, scored, contexts


RowBlocks = dict[str, tuple[np.ndarray, np.ndarray]]


def _row_sums(idx: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of `idx`, ascending, and `values` (broadcast to
    `idx` plus the row shape) summed onto each, in input order from 0.0."""
    rows, inverse = np.unique(idx, return_inverse=True)
    sums = np.zeros((rows.size, *values.shape[idx.ndim :]))
    np.add.at(sums, inverse.reshape(idx.shape), values)
    return rows, sums


def _backprop(
    params: ScorerParams,
    users: np.ndarray,
    previous: np.ndarray,
    scored: np.ndarray,
    contexts: np.ndarray,
    grad_scores: np.ndarray,
) -> RowBlocks:
    """d(loss)/d(params) of a stack, given d(loss)/d(scores): for each table,
    the rows the stack touches and the gradient summed onto each of them."""
    grad_context = np.einsum("bn,bnd->bd", grad_scores, params.item_out_emb[scored])
    return {
        "user_emb": _row_sums(users, grad_context),
        "item_in_emb": _row_sums(previous, (grad_context / previous.shape[1])[:, None, :]),
        "item_out_emb": _row_sums(scored, grad_scores[:, :, None] * contexts[:, None, :]),
        "item_bias": _row_sums(scored, grad_scores),
    }


def backprop_scores(
    params: ScorerParams,
    user: int,
    previous: Sequence[int],
    candidates: Sequence[int],
    grad_scores: np.ndarray,
) -> RowBlocks:
    """d(loss)/d(params) given d(loss)/d(scores), as `_backprop`'s row blocks."""
    users = np.array([user], dtype=np.intp)
    prev = np.asarray(previous, dtype=np.intp).reshape(1, -1)
    return _backprop(
        params,
        users,
        prev,
        np.asarray(candidates, dtype=np.intp).reshape(1, -1),
        _contexts(params, users, prev),
        np.asarray(grad_scores, dtype=float).reshape(1, -1),
    )


@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    batch_size: int = 32
    max_epochs: int = 50
    patience: int = 10
    seed: int = 0


@dataclass
class TrainLog:
    epoch_loss: list[float] = field(default_factory=list)
    epoch_val_ndcg: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    best_epoch: int = -1
    skipped_instances: int = 0


def instance_loss(
    params: ScorerParams,
    instance: SequenceInstance,
    loss_kind: str,
    kernel: DiversityKernelLowRank | None,
) -> tuple[losses_mod.LossResult, Sequence[int]]:
    """Loss value + score gradient for one instance; also returns the list of
    scored items the gradient aligns with."""
    users = np.array([instance.user], dtype=np.intp)
    items = np.array(
        [[*instance.previous, *instance.targets, *instance.negatives]], dtype=np.intp
    )
    _check_indices(params, users, items)
    P, T = len(instance.previous), len(instance.targets)
    loss, scored, _ = _batch_loss(params, users, items, P, T, loss_kind, kernel)
    return loss.row(0), scored[0].tolist()


def train(
    params: ScorerParams,
    instances: Instances,
    loss_kind: str,
    kernel: DiversityKernelLowRank | None,
    config: TrainConfig,
    validate: Callable[[ScorerParams], float] | None = None,
) -> tuple[ScorerParams, TrainLog]:
    """Mini-batch SGD with early stopping on validation NDCG@5.

    Each minibatch is scored, differentiated and backpropagated as one
    array of ground sets, and the parameters change once, at its end.
    Returns the parameters from the best validation epoch.  Instances whose
    loss is non-finite (zero-probability sets) are skipped and counted; an
    epoch with more than 1% skips aborts training.
    """
    if loss_kind not in LOSS_KINDS:
        raise ValueError(f"loss_kind must be one of {LOSS_KINDS}")
    if loss_kind == "dsl" and instances.T < 2:
        raise ValueError("dsl requires every instance to have more than one target")
    if loss_kind in ("dsl", "cdsl") and kernel is None:
        raise ValueError(f"{loss_kind} requires a diversity kernel")

    params = params.copy()
    rng = np.random.default_rng(config.seed)
    tlog = TrainLog()
    best_val = -np.inf
    best_params = params.copy()
    since_improve = 0
    _check_indices(params, instances.users, instances.items)
    L, T = instances.L, instances.T

    for epoch in range(config.max_epochs):
        t0 = time.perf_counter()
        order = rng.permutation(len(instances))
        total_loss = 0.0
        counted = 0
        skipped = 0
        for batch_start in range(0, len(order), config.batch_size):
            batch = order[batch_start : batch_start + config.batch_size]
            users, items = instances.users[batch], instances.items[batch]
            loss, scored, contexts = _batch_loss(params, users, items, L, T, loss_kind, kernel)
            keep = ~loss.skipped & np.isfinite(loss.values)
            for value in loss.values[keep]:
                total_loss += float(value)
            used = int(np.count_nonzero(keep))
            skipped += keep.size - used
            counted += used
            if not used:
                continue
            blocks = _backprop(
                params,
                users[keep],
                items[keep, :L],
                scored[keep],
                contexts[keep],
                loss.grad_scores[keep],
            )
            # lr * (1 / used), not lr / used: the rounding every output was fixed with
            step = config.learning_rate * (1.0 / used)
            for name, (rows, grad) in blocks.items():
                getattr(params, name)[rows] -= step * grad
        if skipped > 0.01 * len(instances):
            raise FloatingPointError(
                f"{skipped} of {len(instances)} instances skipped in epoch {epoch}"
            )
        tlog.skipped_instances += skipped
        tlog.epoch_loss.append(total_loss / max(counted, 1))
        tlog.epoch_seconds.append(time.perf_counter() - t0)

        if validate is None:
            tlog.epoch_val_ndcg.append(np.nan)
            tlog.best_epoch = epoch
            best_params = params.copy()
            continue
        val = validate(params)
        tlog.epoch_val_ndcg.append(val)
        if val > best_val:
            best_val = val
            best_params = params.copy()
            tlog.best_epoch = epoch
            since_improve = 0
        else:
            since_improve += 1
            if since_improve >= config.patience:
                log.info("early stop at epoch %d (best %d)", epoch, tlog.best_epoch)
                break
    return best_params, tlog


def _rank_users(
    params: ScorerParams,
    users: Sequence[int],
    history: Sequence[Sequence[int]],
    L: int,
    n_items: int,
    top: int,
) -> np.ndarray:
    """Each user's top `top` items among the first `n_items` outside their
    `history`, best first, as a (len(users), top) array padded with -1 (see
    `rank_candidates`).

    A user's scores are `contexts @ item_out_emb.T + item_bias`, with the
    context taken from the last L history items as in training.  Users go
    through in blocks of RANK_BLOCK_USERS, so memory stays bounded.
    """
    if (len(users) and max(users) >= params.user_emb.shape[0]) or (
        n_items > params.item_out_emb.shape[0]
    ):
        raise ValueError("user or item index out of range")
    users = np.asarray(users, dtype=np.intp)
    # contexts of one length at a time, so that each is _contexts' own mean
    context_items = [h[-L:] for h in history]
    lengths = np.array([len(c) for c in context_items], dtype=np.intp)
    contexts = np.empty((users.size, params.d))
    for n in np.unique(lengths):
        rows = np.flatnonzero(lengths == n)
        previous = np.array([context_items[r] for r in rows], dtype=np.intp).reshape(rows.size, n)
        contexts[rows] = _contexts(params, users[rows], previous)
    out_emb, bias = params.item_out_emb[:n_items], params.item_bias[:n_items]
    ranked = np.empty((users.size, top), dtype=np.intp)
    for start in range(0, users.size, RANK_BLOCK_USERS):
        block = slice(start, start + RANK_BLOCK_USERS)
        scores = contexts[block] @ out_emb.T + bias
        ranked[block] = rank_candidates(scores, flat_index(history[block]), top)
    return ranked


def validation_ndcg(
    params: ScorerParams,
    split: SplitResult,
    n_items: int,
    L: int,
    N: int = 5,
) -> float:
    """Mean NDCG@N over validation items, ranking every item outside the
    user's training history, with the last L training items as context."""
    users = [u for u, valid in enumerate(split.valid) if valid and len(split.train[u])]
    ranked = _rank_users(params, users, [split.train[u] for u in users], L, n_items, N)
    _, values = user_metrics(ranked, [split.valid[u] for u in users], (N,))
    return float(np.mean(values[1, 0])) if values.shape[2] else 0.0


def evaluate_model(
    params: ScorerParams,
    split: SplitResult,
    n_items: int,
    L: int,
    item_categories: np.ndarray,
    N_list: Sequence[int] = (3, 5, 10),
    loss_name: str = "",
) -> MetricTable:
    """Test-set evaluation: rank all items outside train+valid history."""
    users = [u for u, test in enumerate(split.test) if test]
    history = [split.train[u] + split.valid[u] for u in users]
    ranked = _rank_users(params, users, history, L, n_items, max(N_list))
    relevant = [split.test[u] for u in users]
    T = max((len(t) for t in split.test if t), default=0)
    return evaluate_ranking_fn(ranked, relevant, item_categories, N_list, loss_name, T)


def save_params(path, params: ScorerParams) -> None:
    """Checkpoint: header (|U|, M, d), then the rows of each table in
    `_TABLES` order, the item biases on one line."""
    n_users, d = params.user_emb.shape
    header = (n_users, params.item_out_emb.shape[0], d)
    write_checkpoint(path, header, [getattr(params, t) for t in _TABLES])


def load_params(path) -> ScorerParams:
    _, tables = read_checkpoint(
        path, 3, lambda h: [(h[0], h[2]), (h[1], h[2]), (h[1], h[2]), (h[1],)]
    )
    return ScorerParams(*tables)
