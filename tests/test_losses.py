"""The four training losses: values, gradients, and DPP cross-checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dppseq.kernels import (
    RAW_SCORE_CLAMP,
    GroundSet,
    QualityVector,
    build_sequence_kernel,
)
from dppseq.losses import (
    bpr_loss,
    cdsl_loss,
    cdsl_loss_batch,
    ce_loss,
    ce_loss_batch,
    dsl_loss,
    dsl_loss_batch,
)
from dppseq.oracle import identity_kernel, oracle_conditional_distribution, oracle_fd_gradient

from conftest import random_unit_row_kernel


def max_rel_err(analytic, numeric, floor=1e-3):
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    return np.max(np.abs(analytic - numeric) / np.maximum(np.abs(numeric), floor))


class TestCeLoss:
    def test_zero_scores(self):
        result = ce_loss([0.0], [0.0])
        assert result.value == pytest.approx(2.0 * math.log(2.0))

    def test_asymptote(self):
        assert ce_loss([40.0], [-40.0]).value == pytest.approx(0.0, abs=1e-12)

    def test_gradient_formula_and_fd(self, rng):
        t = rng.normal(size=3)
        n = rng.normal(size=4)
        result = ce_loss(t, n)
        sig = lambda x: 1.0 / (1.0 + np.exp(-x))
        assert np.allclose(result.grad_scores[:3], sig(t) - 1.0)
        assert np.allclose(result.grad_scores[3:], sig(n))
        fd = oracle_fd_gradient(lambda x: ce_loss(x[:3], x[3:]).value, np.concatenate([t, n]))
        assert max_rel_err(result.grad_scores, fd, floor=1e-6) < 1e-6

    def test_negative_permutation_invariant(self, rng):
        t = rng.normal(size=2)
        n = rng.normal(size=4)
        assert ce_loss(t, n).value == pytest.approx(ce_loss(t, n[::-1]).value)

    def test_empty_targets_rejected(self):
        with pytest.raises(ValueError):
            ce_loss([], [0.0])


class TestBprLoss:
    def test_equal_scores(self):
        assert bpr_loss([1.0, 2.0], [1.0, 2.0]).value == pytest.approx(2.0 * math.log(2.0))

    def test_asymptote(self):
        assert bpr_loss([50.0], [-50.0]).value == pytest.approx(0.0, abs=1e-12)

    def test_against_direct_scalar_oracle(self, rng):
        t = rng.normal(size=3)
        n = rng.normal(size=3)
        result = bpr_loss(t, n)
        direct = -sum(math.log(1.0 / (1.0 + math.exp(-(ti - ni)))) for ti, ni in zip(t, n))
        assert result.value == pytest.approx(direct, rel=1e-9)
        fd = oracle_fd_gradient(lambda x: bpr_loss(x[:3], x[3:]).value, np.concatenate([t, n]))
        assert max_rel_err(result.grad_scores, fd, floor=1e-6) < 1e-6

    def test_pairing_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bpr_loss([0.0, 1.0], [0.0])


class TestDslLoss:
    def test_diagonal_closed_form(self):
        # T=2, Z=2, K=I, zero scores: loss = -log(q^4 / prod(1+q^2)) = 4 log 2
        gs = GroundSet(previous=(), targets=(0, 1), negatives=(2, 3))
        result = dsl_loss(gs, np.zeros(4), identity_kernel(4))
        assert result.value == pytest.approx(4.0 * math.log(2.0))

    def test_single_target_rejected(self):
        gs = GroundSet(previous=(), targets=(0,), negatives=(1, 2))
        with pytest.raises(ValueError):
            dsl_loss(gs, np.zeros(3), identity_kernel(3))

    def test_monotone_in_target_score_diagonal(self):
        gs = GroundSet(previous=(), targets=(0, 1), negatives=(2, 3))
        kernel = identity_kernel(4)
        values = [
            dsl_loss(gs, [s, 0.0, 0.0, 0.0], kernel).value
            for s in np.linspace(-2.0, 2.0, 9)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_value_nonnegative(self, rng):
        kernel = random_unit_row_kernel(10, 5, rng)
        gs = GroundSet(previous=(), targets=(1, 4), negatives=(6, 8))
        for _ in range(20):
            value = dsl_loss(gs, rng.uniform(-2, 2, size=4), kernel).value
            assert value >= 0.0

    def test_gradient_matches_fd(self, rng):
        kernel = random_unit_row_kernel(10, 5, rng)
        gs = GroundSet(previous=(), targets=(0, 2, 5), negatives=(7, 8, 9))
        raw = rng.uniform(-1, 1, size=6)
        result = dsl_loss(gs, raw, kernel)
        fd = oracle_fd_gradient(lambda r: dsl_loss(gs, r, kernel).value, raw)
        assert max_rel_err(result.grad_scores, fd) < 1e-4

    def test_ground_set_order_invariance(self, rng):
        kernel = random_unit_row_kernel(10, 6, rng)
        raw = rng.uniform(-1, 1, size=4)
        a = dsl_loss(GroundSet((), (0, 1), (2, 3)), raw, kernel).value
        # swap negative order with matching score swap
        b = dsl_loss(GroundSet((), (0, 1), (3, 2)), raw[[0, 1, 3, 2]], kernel).value
        assert a == pytest.approx(b, abs=1e-10)


class TestCdslLoss:
    def test_empty_previous_equals_dsl(self, rng):
        kernel = random_unit_row_kernel(10, 5, rng)
        raw = rng.uniform(-1, 1, size=4)
        gs = GroundSet(previous=(), targets=(0, 1), negatives=(2, 3))
        a = cdsl_loss(gs, raw, kernel)
        b = dsl_loss(gs, raw, kernel)
        assert a.value == pytest.approx(b.value, abs=1e-12)
        assert np.allclose(a.grad_scores, b.grad_scores)

    def test_single_target_supported(self, rng):
        kernel = random_unit_row_kernel(10, 5, rng)
        gs = GroundSet(previous=(3, 4), targets=(0,), negatives=(6, 7))
        raw = rng.uniform(-1, 1, size=5)
        result = cdsl_loss(gs, raw, kernel)
        assert np.isfinite(result.value)
        fd = oracle_fd_gradient(lambda r: cdsl_loss(gs, r, kernel).value, raw)
        assert max_rel_err(result.grad_scores, fd) < 1e-4

    def test_matches_superset_enumeration(self, rng):
        kernel = random_unit_row_kernel(12, 6, rng)
        gs = GroundSet(previous=(1, 2), targets=(5, 6), negatives=(8, 9))
        raw = rng.uniform(-1, 1, size=6)
        result = cdsl_loss(gs, raw, kernel)
        sk = build_sequence_kernel(QualityVector.from_raw_scores(raw), kernel, gs)
        dist = oracle_conditional_distribution(sk, [0, 1])
        assert math.exp(-result.value) == pytest.approx(
            dist[frozenset([0, 1, 2, 3])], abs=1e-9
        )

    def test_gradient_matches_fd(self, rng):
        kernel = random_unit_row_kernel(12, 6, rng)
        gs = GroundSet(previous=(0, 3), targets=(4, 5), negatives=(7, 10))
        raw = rng.uniform(-1, 1, size=6)
        result = cdsl_loss(gs, raw, kernel)
        fd = oracle_fd_gradient(lambda r: cdsl_loss(gs, r, kernel).value, raw)
        assert max_rel_err(result.grad_scores, fd) < 1e-4


@st.composite
def identity_kernel_stacks(draw, n_items=12):
    """A (B, P + T + Z) stack of ground sets of one random layout and scores
    in [-30, 30], some exactly at the clamp, as (items, scores, P, T)."""
    P = draw(st.integers(0, 3))
    T = draw(st.integers(1, 3))
    Z = draw(st.integers(0, 3))
    B = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    items = np.stack([rng.permutation(n_items)[: P + T + Z] for _ in range(B)])
    scores = rng.uniform(-RAW_SCORE_CLAMP, RAW_SCORE_CLAMP, size=items.shape)
    at_clamp = rng.random(items.shape) < draw(st.sampled_from([0.0, 0.25, 0.75]))
    scores[at_clamp] = rng.choice([-RAW_SCORE_CLAMP, RAW_SCORE_CLAMP], size=at_clamp.sum())
    return items, scores, P, T


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(identity_kernel_stacks())
def test_set_losses_with_identity_kernel_are_ce(case):
    # with K = I, q^2 / (1 + q^2) = sigmoid(r) makes the set likelihood the
    # binary cross-entropy, and the conditioned rows cancel; past the clamp
    # the losses differ by design, so no score goes beyond it
    items, scores, P, T = case
    kernel = identity_kernel(12)
    ce = ce_loss_batch(scores[:, P : P + T], scores[:, P + T :])
    live = np.abs(scores[:, P:]) < RAW_SCORE_CLAMP
    cdsl = cdsl_loss_batch(kernel, items, scores, P, T)
    assert np.all(cdsl.grad_scores[:, :P] == 0.0)
    set_losses = [(cdsl.values, cdsl.grad_scores[:, P:])]
    if T >= 2:
        dsl = dsl_loss_batch(kernel, items[:, P:], scores[:, P:], T)
        set_losses.append((dsl.values, dsl.grad_scores))
    for values, grad in set_losses:
        # relative to max(1, |value|): with every score at the clamp on its
        # own side the value is ~1e-13, a difference of log-dets of about
        # 30 n, so rounding bounds only its absolute error at that scale
        assert np.all(np.abs(values - ce.values) <= 1e-12 * np.maximum(1.0, np.abs(ce.values)))
        assert np.all(np.abs(grad - ce.grad_scores)[live] <= 1e-12)
        assert np.all(grad[~live] == 0.0)
