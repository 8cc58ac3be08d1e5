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
from .data import SequenceInstance, SplitResult
from .kernels import DiversityKernelLowRank
from .metrics import MetricTable, evaluate_ranking_fn, ndcg_at, rank_candidates

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


def score(
    params: ScorerParams, user: int, previous: Sequence[int], candidates: Sequence[int]
) -> np.ndarray:
    """Relevance scores of `candidates` given the user's recent items."""
    cand = np.asarray(candidates, dtype=int)
    prev = np.asarray(previous, dtype=int)
    if user < 0 or user >= params.user_emb.shape[0]:
        raise ValueError("user index out of range")
    for idx in (prev, cand):
        if idx.size and (idx.min() < 0 or idx.max() >= params.item_out_emb.shape[0]):
            raise ValueError("item index out of range")
    c = _contexts(params, np.array([user]), prev.reshape(1, -1))[0]
    return params.item_out_emb[cand] @ c + params.item_bias[cand]


@dataclass
class _Grads:
    """Dense gradient accumulators, one per parameter table, allocated on
    first use.  `apply` updates and zeroes only the rows that `add` touched,
    so a batch costs its own rows, not the size of the tables."""

    user_emb: np.ndarray | None = None
    item_in_emb: np.ndarray | None = None
    item_out_emb: np.ndarray | None = None
    item_bias: np.ndarray | None = None
    touched: dict = field(default_factory=dict)  # table name -> index arrays

    def add(self, params: ScorerParams, name: str, idx: np.ndarray, value) -> None:
        if self.user_emb is None:
            for table in _TABLES:
                setattr(self, table, np.zeros_like(getattr(params, table)))
        np.add.at(getattr(self, name), idx, value)
        self.touched.setdefault(name, []).append(idx.ravel())

    def apply(self, params: ScorerParams, lr: float, scale: float) -> None:
        step = lr * scale
        for name, idx in self.touched.items():
            rows = np.unique(np.concatenate(idx))
            grad = getattr(self, name)
            getattr(params, name)[rows] -= step * grad[rows]
            grad[rows] = 0.0
        self.touched.clear()


@dataclass
class _Stack:
    """Instances of one layout (P previous, T targets, Z negatives), one per row."""

    users: np.ndarray  # (B,)
    previous: np.ndarray  # (B, P)
    targets: np.ndarray  # (B, T)
    negatives: np.ndarray  # (B, Z)

    def take(self, rows) -> "_Stack":
        return _Stack(self.users[rows], self.previous[rows], self.targets[rows], self.negatives[rows])


def _stack(params: ScorerParams, instances: Sequence[SequenceInstance]) -> _Stack:
    """Stack same-layout instances, checking their indices against the tables."""
    B = len(instances)
    stack = _Stack(
        users=np.array([i.user for i in instances], dtype=np.intp),
        previous=np.array([i.previous for i in instances], dtype=np.intp).reshape(B, -1),
        targets=np.array([i.targets for i in instances], dtype=np.intp).reshape(B, -1),
        negatives=np.array([i.negatives for i in instances], dtype=np.intp).reshape(B, -1),
    )
    if stack.users.min() < 0 or stack.users.max() >= params.user_emb.shape[0]:
        raise ValueError("user index out of range")
    for idx in (stack.previous, stack.targets, stack.negatives):
        if idx.size and (idx.min() < 0 or idx.max() >= params.item_out_emb.shape[0]):
            raise ValueError("item index out of range")
    return stack


def _stack_by_layout(
    params: ScorerParams, instances: Sequence[SequenceInstance]
) -> tuple[list[_Stack], np.ndarray, np.ndarray]:
    """One stack per layout, plus each instance's stack and row within it."""
    layouts: dict[tuple[int, int, int], int] = {}
    group = np.array(
        [
            layouts.setdefault((len(i.previous), len(i.targets), len(i.negatives)), len(layouts))
            for i in instances
        ],
        dtype=np.intp,
    )
    stacks = []
    row = np.empty(len(instances), dtype=np.intp)
    for g in range(len(layouts)):
        members = np.flatnonzero(group == g)
        stacks.append(_stack(params, [instances[i] for i in members]))
        row[members] = np.arange(members.size)
    return stacks, group, row


def _stack_loss(
    params: ScorerParams,
    stack: _Stack,
    loss_kind: str,
    kernel: DiversityKernelLowRank | None,
) -> tuple[losses_mod.LossBatch, np.ndarray, np.ndarray]:
    """Losses and score gradients of every row of a stack, with the (B, n)
    scored items the gradients align with and the (B, d) contexts."""
    P, T = stack.previous.shape[1], stack.targets.shape[1]
    if loss_kind == "bpr":
        # pair the k-th target with the k-th shared negative
        if stack.negatives.shape[1] < T:
            raise ValueError("bpr pairing needs at least as many negatives as targets")
        scored = np.concatenate([stack.targets, stack.negatives[:, :T]], axis=1)
    elif loss_kind == "cdsl":
        scored = np.concatenate([stack.previous, stack.targets, stack.negatives], axis=1)
    else:
        scored = np.concatenate([stack.targets, stack.negatives], axis=1)
    contexts = _contexts(params, stack.users, stack.previous)
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


def _backprop(
    params: ScorerParams,
    users: np.ndarray,
    previous: np.ndarray,
    scored: np.ndarray,
    contexts: np.ndarray,
    grad_scores: np.ndarray,
    grads: _Grads,
) -> None:
    """Accumulate d(loss)/d(params) for a stack, given d(loss)/d(scores)."""
    grad_context = np.einsum("bn,bnd->bd", grad_scores, params.item_out_emb[scored])
    grads.add(params, "user_emb", users, grad_context)
    grads.add(params, "item_in_emb", previous, (grad_context / previous.shape[1])[:, None, :])
    grads.add(params, "item_out_emb", scored, grad_scores[:, :, None] * contexts[:, None, :])
    grads.add(params, "item_bias", scored, grad_scores)


def backprop_scores(
    params: ScorerParams,
    user: int,
    previous: Sequence[int],
    candidates: Sequence[int],
    grad_scores: np.ndarray,
    grads: _Grads,
) -> None:
    """Accumulate d(loss)/d(params) given d(loss)/d(scores)."""
    users = np.array([user], dtype=np.intp)
    prev = np.asarray(previous, dtype=np.intp).reshape(1, -1)
    contexts = _contexts(params, users, prev)
    _backprop(
        params,
        users,
        prev,
        np.asarray(candidates, dtype=np.intp).reshape(1, -1),
        contexts,
        np.asarray(grad_scores, dtype=float).reshape(1, -1),
        grads,
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
    loss, scored, _ = _stack_loss(params, _stack(params, [instance]), loss_kind, kernel)
    return loss.row(0), scored[0].tolist()


def train(
    params: ScorerParams,
    instances: Sequence[SequenceInstance],
    loss_kind: str,
    kernel: DiversityKernelLowRank | None,
    config: TrainConfig,
    validate: Callable[[ScorerParams], float] | None = None,
) -> tuple[ScorerParams, TrainLog]:
    """Mini-batch SGD with early stopping on validation NDCG@5.

    Each minibatch is scored, differentiated and backpropagated as one stack
    per instance layout, and the parameters change once, at its end.
    Returns the parameters from the best validation epoch.  Instances whose
    loss is non-finite (zero-probability sets) are skipped and counted; an
    epoch with more than 1% skips aborts training.
    """
    if loss_kind not in LOSS_KINDS:
        raise ValueError(f"loss_kind must be one of {LOSS_KINDS}")
    if loss_kind == "dsl" and any(len(i.targets) < 2 for i in instances):
        raise ValueError("dsl requires every instance to have more than one target")
    if loss_kind in ("dsl", "cdsl") and kernel is None:
        raise ValueError(f"{loss_kind} requires a diversity kernel")

    params = params.copy()
    rng = np.random.default_rng(config.seed)
    tlog = TrainLog()
    best_val = -np.inf
    best_params = params.copy()
    since_improve = 0
    stacks, group, row = _stack_by_layout(params, instances)
    grads = _Grads()

    for epoch in range(config.max_epochs):
        t0 = time.perf_counter()
        order = rng.permutation(len(instances))
        total_loss = 0.0
        counted = 0
        skipped = 0
        for batch_start in range(0, len(order), config.batch_size):
            batch = order[batch_start : batch_start + config.batch_size]
            used = 0
            for g in np.unique(group[batch]):
                members = batch[group[batch] == g]
                stack = stacks[g].take(row[members])
                loss, scored, contexts = _stack_loss(params, stack, loss_kind, kernel)
                keep = ~loss.skipped & np.isfinite(loss.values)
                for value in loss.values[keep]:
                    total_loss += float(value)
                n_kept = int(np.count_nonzero(keep))
                skipped += keep.size - n_kept
                used += n_kept
                _backprop(
                    params,
                    stack.users[keep],
                    stack.previous[keep],
                    scored[keep],
                    contexts[keep],
                    loss.grad_scores[keep],
                    grads,
                )
            counted += used
            if used:
                grads.apply(params, config.learning_rate, 1.0 / used)
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


def validation_ndcg(
    params: ScorerParams,
    split: SplitResult,
    n_items: int,
    L: int,
    N: int = 5,
) -> float:
    """Mean NDCG@N over validation items, ranking every item outside the
    user's training history, with the last L training items as context."""
    values = []
    for u, valid_items in enumerate(split.valid):
        if not valid_items or len(split.train[u]) == 0:
            continue
        exclude = set(split.train[u])
        candidates = np.asarray([i for i in range(n_items) if i not in exclude], dtype=int)
        if candidates.size == 0:
            continue
        previous = split.train[u][-L:]
        s = score(params, u, previous, candidates)
        ranked = rank_candidates(s, candidates)
        values.append(ndcg_at(ranked, set(valid_items), N))
    return float(np.mean(values)) if values else 0.0


def evaluate_model(
    params: ScorerParams,
    split: SplitResult,
    n_items: int,
    L: int,
    item_categories: Sequence[frozenset],
    n_categories: int,
    N_list: Sequence[int] = (3, 5, 10),
    loss_name: str = "",
    threads: int = 1,
) -> MetricTable:
    """Test-set evaluation: rank all items outside train+valid history."""
    exclude = [set(tr) | set(va) for tr, va in zip(split.train, split.valid)]
    T = max((len(t) for t in split.test if t), default=0)

    def score_user(u: int, candidates: np.ndarray) -> np.ndarray:
        context_items = (split.train[u] + split.valid[u])[-L:]
        return score(params, u, context_items, candidates)

    return evaluate_ranking_fn(
        score_user,
        relevant_per_user=split.test,
        exclude_per_user=exclude,
        n_items=n_items,
        item_categories=item_categories,
        n_categories=n_categories,
        N_list=N_list,
        loss_name=loss_name,
        T=T,
        threads=threads,
    )


def save_params(path, params: ScorerParams) -> None:
    """Checkpoint: header (|U|, M, d) then row-major blocks for each table."""
    with open(path, "w", encoding="utf-8") as fh:
        n_users, d = params.user_emb.shape
        n_items = params.item_out_emb.shape[0]
        fh.write(f"{n_users}\n{n_items}\n{d}\n")
        for block in (params.user_emb, params.item_in_emb, params.item_out_emb):
            for row in block:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")
        fh.write(" ".join(repr(float(v)) for v in params.item_bias) + "\n")


def load_params(path) -> ScorerParams:
    with open(path, encoding="utf-8") as fh:
        n_users = int(fh.readline())
        n_items = int(fh.readline())
        d = int(fh.readline())

        def block(rows: int) -> np.ndarray:
            return np.asarray(
                [[float(v) for v in fh.readline().split()] for _ in range(rows)]
            )

        user_emb = block(n_users)
        item_in = block(n_items)
        item_out = block(n_items)
        bias = np.asarray([float(v) for v in fh.readline().split()])
    for arr, shape in (
        (user_emb, (n_users, d)),
        (item_in, (n_items, d)),
        (item_out, (n_items, d)),
        (bias, (n_items,)),
    ):
        if arr.shape != shape:
            raise ValueError("parameter checkpoint shape does not match its header")
        if not np.all(np.isfinite(arr)):
            raise ValueError("parameter checkpoint holds non-finite values")
    return ScorerParams(user_emb=user_emb, item_in_emb=item_in, item_out_emb=item_out, item_bias=bias)
