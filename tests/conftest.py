import numpy as np
import pytest

from dppseq.data import Instances, _build_log
from dppseq.kernels import (
    DiversityKernelLowRank,
    GroundSet,
    QualityVector,
    build_sequence_kernel,
)
from dppseq.metrics import category_incidence, user_metrics
from dppseq.scorer import _TABLES, ScorerParams, _batch_loss


def random_unit_row_kernel(n_items, latent_dim, rng):
    V = rng.standard_normal((n_items, latent_dim))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    return DiversityKernelLowRank(V, normalized=True)


def random_sequence_kernel(n, rng, n_targets=None, latent_dim=None):
    """Random instance kernel: unit-row diversity factors, raw scores in a
    moderate range, targets followed by negatives."""
    if n_targets is None:
        n_targets = max(1, n // 2)
    if latent_dim is None:
        latent_dim = max(2, n)
    kernel = random_unit_row_kernel(n + 3, latent_dim, rng)
    gs = GroundSet(
        previous=(),
        targets=tuple(range(n_targets)),
        negatives=tuple(range(n_targets, n)),
    )
    raw = rng.uniform(-1.5, 1.5, size=n)
    quality = QualityVector.from_raw_scores(raw)
    return build_sequence_kernel(quality, kernel, gs)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def log_from_rows(rows):
    """An interaction log from (user, item, timestamp, category list) rows."""
    users, items, timestamps, categories = zip(*rows)
    return _build_log(users, items, timestamps, [";".join(c) for c in categories])


def instance_array(rows):
    """`SequenceInstance`s of one layout as the `Instances` that `train` takes."""
    first = rows[0]
    return Instances(
        users=np.array([r.user for r in rows], dtype=np.intp),
        items=np.array([r.previous + r.targets + r.negatives for r in rows], dtype=np.intp),
        time_steps=np.array([r.time_step for r in rows], dtype=np.intp),
        L=len(first.previous),
        T=len(first.targets),
    )


def one_user_metrics(ranked, relevant, N, item_categories=None, n_categories=1):
    """(recall, ndcg, cc) at N of one user's top items through
    `user_metrics`, or None when the user is left out."""
    row = np.full((1, max(N, len(ranked))), -1, dtype=np.intp)
    row[0, : len(ranked)] = ranked
    incidence = None if item_categories is None else category_incidence(item_categories)
    kept, values = user_metrics(row, [relevant], (N,), incidence, n_categories)
    return tuple(values[:, 0, 0].tolist()) if kept[0] else None


def pack(params):
    """The scorer's four tables as one flat vector, in `_TABLES` order."""
    return np.concatenate([getattr(params, t).ravel() for t in _TABLES])


def unpack(flat, like):
    """`pack`'s inverse: a copy of `like` holding the values of `flat`."""
    p = like.copy()
    sizes = np.cumsum([getattr(like, t).size for t in _TABLES])[:-1]
    for t, part in zip(_TABLES, np.split(flat, sizes)):
        setattr(p, t, part.reshape(getattr(like, t).shape))
    return p


def dense_grads(params, blocks):
    """The row blocks of `scorer.backprop_scores` as a gradient of the shape
    of `params`, zero in the rows no block touched."""
    dense = {t: np.zeros_like(getattr(params, t)) for t in _TABLES}
    for t, (rows, grad) in blocks.items():
        dense[t][rows] = grad
    return ScorerParams(**dense)


def reference_sgd_step(params, instances, loss_kind, kernel, config):
    """The first minibatch step of `scorer.train`, with the gradient
    accumulated as the scorer did before row blocks: `np.add.at` into a
    zeroed table the size of each parameter table, then the touched rows
    updated.  Row blocks must reproduce it bit for bit."""
    params = params.copy()
    batch = np.random.default_rng(config.seed).permutation(len(instances))[: config.batch_size]
    users, items, L = instances.users[batch], instances.items[batch], instances.L
    loss, scored, contexts = _batch_loss(params, users, items, L, instances.T, loss_kind, kernel)
    keep = ~loss.skipped & np.isfinite(loss.values)
    users, previous, scored = users[keep], items[keep, :L], scored[keep]
    contexts, grad_scores = contexts[keep], loss.grad_scores[keep]
    grad_context = np.einsum("bn,bnd->bd", grad_scores, params.item_out_emb[scored])
    updates = {
        "user_emb": (users, grad_context),
        "item_in_emb": (previous, (grad_context / L)[:, None, :]),
        "item_out_emb": (scored, grad_scores[:, :, None] * contexts[:, None, :]),
        "item_bias": (scored, grad_scores),
    }
    step = config.learning_rate * (1.0 / np.count_nonzero(keep))
    for t, (idx, value) in updates.items():
        grad = np.zeros_like(getattr(params, t))
        np.add.at(grad, idx, value)
        rows = np.unique(idx)
        getattr(params, t)[rows] -= step * grad[rows]
    return params


# The per-user scalar metrics that `user_metrics` replaced, kept as its reference.


def recall_at(ranked, relevant: set, N: int) -> float:
    if not relevant:
        raise ValueError("relevant set must be nonempty")
    hits = sum(1 for item in ranked[:N] if item in relevant)
    return hits / len(relevant)


def ndcg_at(ranked, relevant: set, N: int) -> float:
    """Binary-relevance NDCG with 1/log2(rank+1) discount."""
    if not relevant:
        raise ValueError("relevant set must be nonempty")
    dcg = sum(
        1.0 / np.log2(rank + 2)
        for rank, item in enumerate(ranked[:N])
        if item in relevant
    )
    idcg = sum(1.0 / np.log2(rank + 2) for rank in range(min(N, len(relevant))))
    return dcg / idcg


def category_coverage(top_n, item_categories, total_categories: int) -> float:
    if total_categories < 1:
        raise ValueError("total_categories must be >= 1")
    covered: set = set()
    for item in top_n:
        covered |= set(item_categories[item])
    return len(covered) / total_categories
