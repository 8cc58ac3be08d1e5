"""The four training losses: binary cross-entropy, BPR, and the two DPP
set-likelihood losses (plain and conditional).

Each loss returns its value together with the gradient w.r.t. the instance's
score vector, so any scorer can backpropagate through it.  Score vectors are
ordered to match the instance's ground set: previous items (conditional loss
only), then targets, then negatives.

The `*_loss_batch` functions take a stack of same-layout instances, one per
row, and are what training calls once per minibatch.  `ce_loss` and
`bpr_loss` are their B=1 case.  `cdsl_loss` is one ground set's conditional
loss through the per-instance chain (`build_sequence_kernel`, then
`cdsl_log_likelihood`, then `grad_quality`), whose gradient runs the code
the batched losses run; `dsl_loss` is `cdsl_loss` with no previous items.
The brute-force oracle and finite-difference checks call them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import (
    DiversityKernelLowRank,
    GroundSet,
    QualityVector,
    build_sequence_kernel,
    cdsl_log_likelihood,
    grad_quality,
    set_log_likelihood_batch,
)


@dataclass
class LossResult:
    value: float
    grad_scores: np.ndarray
    skipped: bool = False


@dataclass
class LossBatch:
    """Per-row losses of a stack of instances.  A skipped row (a set of
    probability zero) has value inf and a zero gradient."""

    values: np.ndarray  # (B,)
    grad_scores: np.ndarray  # (B, n)
    skipped: np.ndarray  # (B,) bool

    def row(self, b: int) -> LossResult:
        return LossResult(
            value=float(self.values[b]),
            grad_scores=self.grad_scores[b],
            skipped=bool(self.skipped[b]),
        )


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    # -softplus(-x), stable for large |x|
    return -np.logaddexp(0.0, -x)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _pointwise(values: np.ndarray, grad: np.ndarray) -> LossBatch:
    return LossBatch(values=values, grad_scores=grad, skipped=np.zeros(values.shape, dtype=bool))


def ce_loss_batch(target_scores, negative_scores) -> LossBatch:
    """Binary cross-entropy per row over targets (label 1) and negatives
    (label 0), from (B, T) and (B, Z) score arrays.

    Gradients are ordered targets-then-negatives.
    """
    t = np.asarray(target_scores, dtype=float)
    n = np.asarray(negative_scores, dtype=float)
    if t.shape[1] == 0:
        raise ValueError("at least one target score required")
    values = -np.sum(_log_sigmoid(t), axis=1) - np.sum(_log_sigmoid(-n), axis=1)
    return _pointwise(values, np.concatenate([_sigmoid(t) - 1.0, _sigmoid(n)], axis=1))


def bpr_loss_batch(target_scores, negative_scores) -> LossBatch:
    """Pairwise ranking loss per row; the k-th target is paired with the
    k-th negative."""
    t = np.asarray(target_scores, dtype=float)
    n = np.asarray(negative_scores, dtype=float)
    if t.shape != n.shape:
        raise ValueError("paired scheme requires equally many targets and negatives")
    if t.shape[1] == 0:
        raise ValueError("at least one pair required")
    delta = t - n
    g = _sigmoid(delta) - 1.0
    return _pointwise(-np.sum(_log_sigmoid(delta), axis=1), np.concatenate([g, -g], axis=1))


def _set_loss(kernel, items, scores, n_selected: int, n_observed: int) -> LossBatch:
    ll, grad = set_log_likelihood_batch(kernel, items, scores, n_selected, n_observed)
    skipped = ll == -np.inf
    return LossBatch(values=-ll, grad_scores=grad, skipped=skipped)


def dsl_loss_batch(kernel: DiversityKernelLowRank, items, scores, n_targets: int) -> LossBatch:
    """Negative log probability of drawing each row's target set from the
    DPP over its targets + negatives.  `items` and `scores` are (B, T + Z),
    targets first.  Requires more than one target; with a single target
    there is no in-set dependency to capture.
    """
    if n_targets < 2:
        raise ValueError("set likelihood loss requires at least two targets")
    return _set_loss(kernel, items, scores, n_targets, 0)


def cdsl_loss_batch(
    kernel: DiversityKernelLowRank, items, scores, n_previous: int, n_targets: int
) -> LossBatch:
    """Negative log conditional probability of each row's whole sequence
    (previous + targets) given its previous items, over its full ground set.
    `items` and `scores` are (B, P + T + Z), in that order.  Works for a
    single target.
    """
    return _set_loss(kernel, items, scores, n_previous + n_targets, n_previous)


def ce_loss(target_scores, negative_scores) -> LossResult:
    """Binary cross-entropy over targets (label 1) and negatives (label 0).

    Gradient is ordered targets-then-negatives.
    """
    t = np.asarray(target_scores, dtype=float).reshape(1, -1)
    n = np.asarray(negative_scores, dtype=float).reshape(1, -1)
    return ce_loss_batch(t, n).row(0)


def bpr_loss(target_scores, negative_scores) -> LossResult:
    """Pairwise ranking loss; the k-th target is paired with the k-th negative."""
    t = np.asarray(target_scores, dtype=float).reshape(1, -1)
    n = np.asarray(negative_scores, dtype=float).reshape(1, -1)
    return bpr_loss_batch(t, n).row(0)


def dsl_loss(
    ground_set: GroundSet,
    scores,
    kernel: DiversityKernelLowRank,
) -> LossResult:
    """Negative log probability of drawing the target set from the DPP over
    targets + negatives: `cdsl_loss` with no previous items.  Requires more
    than one target; with a single target there is no in-set dependency to
    capture.
    """
    if len(ground_set.targets) < 2:
        raise ValueError("set likelihood loss requires at least two targets")
    if ground_set.previous:
        ground_set = GroundSet((), ground_set.targets, ground_set.negatives)
    return cdsl_loss(ground_set, scores, kernel)


def cdsl_loss(
    ground_set: GroundSet,
    scores,
    kernel: DiversityKernelLowRank,
) -> LossResult:
    """Negative log conditional probability of the whole sequence
    (previous + targets) given the previous items, over the full ground set.
    Works for a single target.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.size != ground_set.size:
        raise ValueError("score vector must cover the whole ground set")
    quality = QualityVector.from_raw_scores(scores)
    seq_kernel = build_sequence_kernel(quality, kernel, ground_set)
    observed = ground_set.previous_positions
    full = observed + ground_set.target_positions
    ll = cdsl_log_likelihood(seq_kernel, observed, full)
    if ll == -np.inf:
        return LossResult(value=np.inf, grad_scores=np.zeros(scores.size), skipped=True)
    grad = grad_quality(seq_kernel, selected=full, conditioned=observed)
    return LossResult(value=-ll, grad_scores=grad)
