"""Property tests for the batched set-likelihood layer and batched training.

Every batched result is checked against the per-instance reference path
(`build_sequence_kernel` -> `cdsl_log_likelihood` -> `grad_quality`), the
brute-force oracle, and its own B=1 calls, over random P/T/Z layouts, raw
scores up to and past the +-30 clamp, and near-duplicate kernel rows.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dppseq.data import SequenceInstance
from dppseq.kernels import (
    RAW_SCORE_CLAMP,
    DiversityKernelLowRank,
    GroundSet,
    QualityVector,
    build_sequence_kernel,
    cdsl_log_likelihood,
    grad_quality,
    qualities_from_raw,
    set_log_likelihood_batch,
)
from dppseq.losses import cdsl_loss_batch, dsl_loss_batch
from dppseq.oracle import oracle_conditional_distribution, oracle_fd_gradient
from dppseq.scorer import TrainConfig, init_params, score, train
from tests.conftest import instance_array

N_ITEMS = 16
CASES = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def stacks(draw, max_n=8, max_batch=4, score_bound=35.0, near_duplicates=True):
    """A kernel and a (B, n) stack of ground sets of one random layout, as
    (kernel, items, scores, n_previous, n_targets)."""
    P = draw(st.integers(0, 3))
    T = draw(st.integers(1, 3))
    Z = draw(st.integers(0, max_n - P - T))
    n = P + T + Z
    B = draw(st.integers(1, max_batch))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    V = rng.standard_normal((N_ITEMS, n + 2))
    if near_duplicates and draw(st.booleans()):
        # item 1 nearly repeats item 0
        V[1] = V[0] + draw(st.sampled_from([1e-2, 1e-4, 1e-6])) * rng.standard_normal(n + 2)
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    items = np.stack([rng.permutation(N_ITEMS)[:n] for _ in range(B)])
    if near_duplicates and n >= 2 and draw(st.booleans()):
        items[0] = np.concatenate([[0, 1], 2 + rng.permutation(N_ITEMS - 2)[: n - 2]])
    scores = rng.uniform(-score_bound, score_bound, size=(B, n))
    return DiversityKernelLowRank(V), items, scores, P, T


def reference(kernel, items, scores, P, T):
    """Per-instance log-likelihood and loss gradient of one ground set."""
    gs = GroundSet(previous=tuple(items[:P]), targets=tuple(items[P : P + T]),
                   negatives=tuple(items[P + T :]))
    sk = build_sequence_kernel(QualityVector.from_raw_scores(scores), kernel, gs)
    observed = tuple(range(P))
    selected = tuple(range(P + T))
    ll = cdsl_log_likelihood(sk, observed, selected)
    return ll, grad_quality(sk, selected=selected, conditioned=observed)


def scaled_cond(matrix):
    scale = 1.0 / np.sqrt(np.diag(matrix))
    return np.linalg.cond(matrix * np.outer(scale, scale))


def tolerances(kernel, items, scores, P, T):
    """Bounds on the gaps between two backward-stable evaluations of one
    row that factor through different LAPACK calls, from the condition
    numbers kappa of its numerator block and normalizer L + I_mask after
    diagonal scaling: a log-det moves by about n eps kappa, and a gradient
    entry, a sum of L_ij B_ji with B the normalizer's inverse, by about
    eps kappa times the largest sum of |L_ij B_ji|.  Scores near the clamp
    and near-duplicate items make these large."""
    n, eps = len(items), np.finfo(float).eps
    q = qualities_from_raw(scores)
    rows = kernel.factors[items]
    L = (rows @ rows.T) * np.outer(q, q)
    A = L + np.diag([0.0] * P + [1.0] * (n - P))
    kappa = scaled_cond(A)
    value_tol = 100 * n * eps * (scaled_cond(L[: P + T, : P + T]) + kappa)
    terms = np.max(np.sum(np.abs(L * np.linalg.inv(A).T), axis=1))
    return 1e-12 + value_tol, 1e-12 + 100 * eps * kappa * terms


@CASES
@given(stacks())
def test_rows_match_per_instance_reference(case):
    kernel, items, scores, P, T = case
    ll, grad = set_log_likelihood_batch(kernel, items, scores, P + T, P)
    for b in range(items.shape[0]):
        ref_ll, ref_grad = reference(kernel, items[b], scores[b], P, T)
        value_tol, grad_tol = tolerances(kernel, items[b], scores[b], P, T)
        assert abs(ll[b] - ref_ll) <= 1e-12 * abs(ref_ll) + value_tol
        assert np.max(np.abs(grad[b] - ref_grad)) <= grad_tol
        assert np.all(grad[b][np.abs(scores[b]) >= RAW_SCORE_CLAMP] == 0.0)
        assert np.all(grad[b][:P] == 0.0) and np.all(ref_grad[:P] == 0.0)


def test_observed_gradient_is_exactly_zero():
    # near-duplicate observed items and scores near the clamp: the normalizer
    # is ill-conditioned, and (L B)_ii - 1 at an observed position is off its
    # exact value 0 by about 1e-8
    rng = np.random.default_rng(0)
    V = rng.standard_normal((6, 8))
    V[1] = V[0] + 1e-4 * rng.standard_normal(8)
    kernel = DiversityKernelLowRank(V / np.linalg.norm(V, axis=1, keepdims=True))
    items = np.arange(6)
    scores = np.random.default_rng(0).uniform(-29.0, 29.0, size=6)
    _, grad = set_log_likelihood_batch(kernel, items[None], scores[None], 4, 2)
    _, ref_grad = reference(kernel, items, scores, 2, 2)
    assert np.all(grad[0, :2] == 0.0)
    assert np.all(ref_grad[:2] == 0.0)


@CASES
@given(stacks())
def test_stacking_invariance(case):
    kernel, items, scores, P, T = case
    batch = cdsl_loss_batch(kernel, items, scores, P, T)
    for b in range(items.shape[0]):
        single = cdsl_loss_batch(kernel, items[b : b + 1], scores[b : b + 1], P, T)
        assert abs(batch.values[b] - single.values[0]) <= 1e-12 * max(1.0, abs(single.values[0]))
        assert np.max(np.abs(batch.grad_scores[b] - single.grad_scores[0])) <= 1e-12
        if T >= 2:
            dsl_b = dsl_loss_batch(kernel, items[:, P:], scores[:, P:], T)
            dsl_1 = dsl_loss_batch(kernel, items[b : b + 1, P:], scores[b : b + 1, P:], T)
            assert abs(dsl_b.values[b] - dsl_1.values[0]) <= 1e-12 * max(1.0, abs(dsl_1.values[0]))
            assert np.max(np.abs(dsl_b.grad_scores[b] - dsl_1.grad_scores[0])) <= 1e-12


@CASES
@given(stacks(max_batch=1, score_bound=2.0, near_duplicates=False))
def test_agrees_with_oracle(case):
    kernel, items, scores, P, T = case
    items, scores = items[0], scores[0]
    gs = GroundSet(previous=tuple(items[:P]), targets=tuple(items[P : P + T]),
                   negatives=tuple(items[P + T :]))
    def cdsl(x):
        return cdsl_loss_batch(kernel, items[None], x[None], P, T).row(0)

    def dsl(x):
        return dsl_loss_batch(kernel, items[None, P:], x[None], T).row(0)

    result = cdsl(scores)
    sk = build_sequence_kernel(QualityVector.from_raw_scores(scores), kernel, gs)
    cond = oracle_conditional_distribution(sk, range(P))
    assert math.exp(-result.value) == pytest.approx(cond[frozenset(range(P + T))], abs=1e-9)
    fd = oracle_fd_gradient(lambda x: cdsl(x).value, scores)
    assert np.max(np.abs(result.grad_scores - fd) / np.maximum(np.abs(fd), 1e-3)) < 1e-4
    if T >= 2:
        result = dsl(scores[P:])
        fd = oracle_fd_gradient(lambda x: dsl(x).value, scores[P:])
        assert np.max(np.abs(result.grad_scores - fd) / np.maximum(np.abs(fd), 1e-3)) < 1e-4


@CASES
@given(stacks(max_n=6, score_bound=3.0, near_duplicates=False), st.data())
def test_singular_row_skipped_others_unchanged(case, data):
    kernel, items, scores, P, T = case
    # a zero factor row makes any numerator holding that item singular
    V = np.vstack([kernel.factors, np.zeros(kernel.latent_dim)])
    kernel = DiversityKernelLowRank(V)
    bad = data.draw(st.integers(0, items.shape[0] - 1))
    items = items.copy()
    items[bad, data.draw(st.integers(0, P + T - 1))] = N_ITEMS
    batch = cdsl_loss_batch(kernel, items, scores, P, T)
    assert batch.skipped.tolist() == [b == bad for b in range(items.shape[0])]
    assert batch.values[bad] == np.inf
    assert np.all(batch.grad_scores[bad] == 0.0)
    for b in range(items.shape[0]):
        if b != bad:
            single = cdsl_loss_batch(kernel, items[b : b + 1], scores[b : b + 1], P, T)
            assert batch.values[b] == single.values[0]
            assert np.array_equal(batch.grad_scores[b], single.grad_scores[0])


def test_nonfinite_scores_rejected():
    kernel = DiversityKernelLowRank(np.eye(4))
    with pytest.raises(ValueError):
        set_log_likelihood_batch(kernel, [[0, 1, 2]], [[0.0, np.nan, 0.0]], 2, 1)


def test_duplicate_items_rejected():
    kernel = DiversityKernelLowRank(np.eye(4))
    with pytest.raises(ValueError):
        set_log_likelihood_batch(kernel, [[0, 1, 1]], [[0.0, 0.0, 0.0]], 2, 1)


def reference_epoch(params, instances, loss_kind, kernel, config):
    """One epoch of per-instance SGD: reference losses and gradients, and
    dict-of-rows accumulation applied at the end of each batch."""
    params = params.copy()
    order = np.random.default_rng(config.seed).permutation(len(instances))
    total = 0.0
    for start in range(0, len(order), config.batch_size):
        grads = {}
        used = 0
        for idx in order[start : start + config.batch_size]:
            inst = instances[int(idx)]
            prev = inst.previous if loss_kind == "cdsl" else ()
            items = np.asarray(prev + inst.targets + inst.negatives)
            s = score(params, inst.user, inst.previous, items)
            ll, g = reference(kernel, items, s, len(prev), len(inst.targets))
            total += -ll
            used += 1
            context = params.user_emb[inst.user] + params.item_in_emb[list(inst.previous)].mean(axis=0)
            grad_context = g @ params.item_out_emb[items]
            updates = [("user_emb", inst.user, grad_context)]
            updates += [("item_in_emb", p, grad_context / len(inst.previous)) for p in inst.previous]
            updates += [("item_out_emb", i, gi * context) for i, gi in zip(items, g)]
            updates += [("item_bias", i, gi) for i, gi in zip(items, g)]
            for table, row, value in updates:
                key = (table, int(row))
                grads[key] = grads.get(key, 0.0) + value
        for (table, row), value in grads.items():
            getattr(params, table)[row] -= config.learning_rate / used * value
    return params, total / len(instances)


@pytest.mark.parametrize("loss_kind", ["dsl", "cdsl"])
def test_train_epoch_matches_reference(loss_kind):
    rng = np.random.default_rng(5)
    V = rng.standard_normal((30, 12))
    kernel = DiversityKernelLowRank(V / np.linalg.norm(V, axis=1, keepdims=True))
    params = init_params(5, 30, d=4, seed=1)
    config = TrainConfig(learning_rate=0.3, batch_size=8, max_epochs=1, seed=2)
    for P, T, Z in [(2, 2, 2), (3, 2, 1), (1, 3, 3)]:  # one layout per epoch
        instances = []
        for k in range(40):
            items = [int(i) for i in rng.permutation(30)[: P + T + Z]]
            instances.append(SequenceInstance(
                user=k % 5, previous=tuple(items[:P]), targets=tuple(items[P : P + T]),
                negatives=tuple(items[P + T :]), time_step=P,
            ))
        trained, tlog = train(params, instance_array(instances), loss_kind, kernel, config)
        expected, loss = reference_epoch(params, instances, loss_kind, kernel, config)
        assert tlog.epoch_loss[0] == pytest.approx(loss, rel=1e-12)
        for table in ("user_emb", "item_in_emb", "item_out_emb", "item_bias"):
            assert np.max(np.abs(getattr(trained, table) - getattr(expected, table))) < 1e-12
