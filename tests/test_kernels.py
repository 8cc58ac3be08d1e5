"""Kernel construction, log-determinants, set likelihoods, and gradients."""

import dataclasses
import math
from itertools import combinations, permutations

import numpy as np
import pytest
import scipy.linalg as la

from dppseq.kernels import (
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
    set_log_likelihood_batch,
)
from dppseq.oracle import cofactor_det, enumerate_normalizer, identity_kernel, oracle_fd_gradient

from conftest import random_sequence_kernel, random_unit_row_kernel


def make_kernel(matrix):
    """A sequence kernel over `matrix` itself: base `matrix`, zero raw scores."""
    matrix = np.asarray(matrix, dtype=float)
    zeros = QualityVector.from_raw_scores(np.zeros(matrix.shape[0]))
    return SequenceKernel(matrix=matrix, base=matrix, qualities=zeros)


class TestGroundSet:
    def test_roles_partition_in_order(self):
        gs = GroundSet(previous=(4, 5), targets=(1,), negatives=(2, 3))
        assert gs.items == (4, 5, 1, 2, 3)
        assert gs.previous_positions == (0, 1)
        assert gs.target_positions == (2,)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            GroundSet(previous=(1,), targets=(1,), negatives=())

    def test_empty_targets_rejected(self):
        with pytest.raises(ValueError):
            GroundSet(previous=(1,), targets=(), negatives=(2,))


class TestQualityVector:
    def test_exp_half_transform(self):
        q = QualityVector.from_raw_scores([0.0, 2.0, -2.0])
        assert np.allclose(q.qualities, [1.0, np.e, 1.0 / np.e])

    def test_clamp(self):
        q = QualityVector.from_raw_scores([100.0, -100.0])
        assert np.allclose(q.qualities, [np.exp(15.0), np.exp(-15.0)])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            QualityVector.from_raw_scores([np.nan, 0.0])


class TestBuildSequenceKernel:
    def test_identity_quality_leaves_kernel(self):
        V = np.array([[1.0, 0.0], [0.5, np.sqrt(0.75)]])
        kernel = DiversityKernelLowRank(V)
        gs = GroundSet(previous=(), targets=(0, 1), negatives=())
        sk = build_sequence_kernel(QualityVector.from_raw_scores([0.0, 0.0]), kernel, gs)
        assert np.allclose(sk.matrix, [[1.0, 0.5], [0.5, 1.0]])

    def test_diagonal_case(self):
        gs = GroundSet(previous=(), targets=(0, 1), negatives=())
        q = QualityVector.from_raw_scores(np.log([4.0, 9.0]))
        sk = build_sequence_kernel(q, identity_kernel(2), gs)
        assert np.allclose(sk.matrix, np.diag([4.0, 9.0]))

    def test_dimension_mismatch_rejected(self):
        gs = GroundSet(previous=(), targets=(0, 1), negatives=())
        with pytest.raises(ValueError):
            build_sequence_kernel(
                QualityVector.from_raw_scores([0.0]), identity_kernel(2), gs
            )

    def test_subset_determinant_factorizes(self, rng):
        # det(L_Y) = (prod q_i^2) det(K_Y) for every subset of a 4-item set
        kernel = random_unit_row_kernel(6, 4, rng)
        gs = GroundSet(previous=(), targets=(0, 1), negatives=(2, 3))
        raw = rng.uniform(-1.0, np.log(4.0), size=4)  # q in (0, 2]
        quality = QualityVector.from_raw_scores(raw)
        sk = build_sequence_kernel(quality, kernel, gs)
        K_sub = kernel.submatrix(gs.items)
        q = quality.qualities
        for r in range(1, 5):
            for subset in combinations(range(4), r):
                idx = np.asarray(subset)
                det_l = la.det(sk.matrix[np.ix_(idx, idx)])
                det_k = la.det(K_sub[np.ix_(idx, idx)])
                expected = np.prod(q[idx] ** 2) * det_k
                assert det_l == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_symmetric_psd(self, rng):
        sk = random_sequence_kernel(6, rng)
        assert np.max(np.abs(sk.matrix - sk.matrix.T)) < 1e-12
        assert np.min(la.eigvalsh(sk.matrix)) > -1e-9


class TestLogDetPsd:
    def test_identity(self):
        assert log_det_psd(np.eye(3)) == pytest.approx(0.0)

    def test_diagonal(self):
        assert log_det_psd(np.diag([2.0, 3.0])) == pytest.approx(math.log(6.0))

    def test_against_cofactor_oracle(self, rng):
        for _ in range(5):
            A = rng.standard_normal((5, 5))
            psd = A @ A.T + 0.5 * np.eye(5)
            assert log_det_psd(psd) == pytest.approx(
                math.log(cofactor_det(psd)), rel=1e-9
            )

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            log_det_psd(np.ones((2, 3)))

    def test_jitter_retry_on_singular(self):
        # rank-deficient: plain Cholesky fails, jitter path succeeds
        m = np.ones((2, 2))
        value = log_det_psd(m)
        assert np.isfinite(value)

    def test_indefinite_rejected(self):
        with pytest.raises(SingularMatrixError):
            log_det_psd(np.diag([1.0, -5.0]))


class TestDslLogLikelihood:
    def test_single_item(self):
        sk = make_kernel([[1.0]])
        assert dsl_log_likelihood(sk, [0]) == pytest.approx(math.log(0.5))

    def test_diag_two_targets(self):
        sk = make_kernel(np.eye(2))
        assert dsl_log_likelihood(sk, [0, 1]) == pytest.approx(math.log(0.25))

    def test_matches_enumeration(self, rng):
        sk = random_sequence_kernel(4, rng)
        total = enumerate_normalizer(sk)
        for r in range(1, 5):
            for subset in combinations(range(4), r):
                idx = np.asarray(subset)
                expected = math.log(la.det(sk.matrix[np.ix_(idx, idx)]) / total)
                assert dsl_log_likelihood(sk, subset) == pytest.approx(expected, abs=1e-9)

    def test_nonpositive(self, rng):
        sk = random_sequence_kernel(5, rng)
        assert dsl_log_likelihood(sk, [0, 2]) <= 0.0

    def test_singular_target_minor_gives_neg_inf(self):
        # duplicated rows: the {0,1} minor is exactly singular
        sk = make_kernel(np.ones((2, 2)))
        assert dsl_log_likelihood(sk, [0, 1]) == -np.inf

    def test_empty_targets_rejected(self, rng):
        sk = random_sequence_kernel(3, rng)
        with pytest.raises(ValueError):
            dsl_log_likelihood(sk, [])


class TestCdslLogLikelihood:
    def test_empty_observed_reduces_to_dsl(self, rng):
        sk = random_sequence_kernel(5, rng)
        full = [0, 2, 3]
        assert cdsl_log_likelihood(sk, [], full) == pytest.approx(
            dsl_log_likelihood(sk, full), abs=1e-12
        )

    def test_two_item_diag_example(self):
        sk = make_kernel(np.eye(2))
        assert cdsl_log_likelihood(sk, [0], [0, 1]) == pytest.approx(math.log(0.5))

    def test_full_ground_set_probability_one(self, rng):
        sk = random_sequence_kernel(4, rng)
        everything = list(range(4))
        assert cdsl_log_likelihood(sk, everything, everything) == pytest.approx(0.0, abs=1e-10)

    def test_observed_not_subset_rejected(self, rng):
        sk = random_sequence_kernel(4, rng)
        with pytest.raises(ValueError):
            cdsl_log_likelihood(sk, [0, 1], [1, 2])

    def test_matches_superset_enumeration(self, rng):
        for trial in range(5):
            sk = random_sequence_kernel(5, np.random.default_rng(trial))
            observed = [0, 3]
            full = [0, 1, 3]
            idx = np.asarray(full)
            num = la.det(sk.matrix[np.ix_(idx, idx)])
            den = enumerate_normalizer(sk, required=observed)
            assert cdsl_log_likelihood(sk, observed, full) == pytest.approx(
                math.log(num / den), abs=1e-9
            )


class TestEnumerateNormalizer:
    def test_one_by_one(self):
        assert enumerate_normalizer(make_kernel([[1.0]])) == pytest.approx(2.0)

    def test_required_subset(self):
        sk = make_kernel(np.eye(2))
        assert enumerate_normalizer(sk, required=[0]) == pytest.approx(2.0)

    def test_identity_with_det_l_plus_i(self, rng):
        sk = random_sequence_kernel(10, rng)
        required = [1, 4]
        mask = np.ones(10)
        mask[required] = 0.0
        expected = math.exp(log_det_psd(sk.matrix + np.diag(mask)))
        assert enumerate_normalizer(sk, required) == pytest.approx(expected, rel=1e-8)

    def test_too_large_rejected(self):
        sk = make_kernel(np.eye(16))
        with pytest.raises(ValueError):
            enumerate_normalizer(sk)


class TestGradQuality:
    def test_matches_finite_differences(self):
        kernel_rng = np.random.default_rng(7)
        for trial in range(10):
            rng = np.random.default_rng(100 + trial)
            kernel = random_unit_row_kernel(9, 5, kernel_rng)
            gs = GroundSet(previous=(), targets=(0, 1, 2), negatives=(3, 4, 5))
            raw = rng.uniform(-1.5, 1.5, size=6)
            sk = build_sequence_kernel(QualityVector.from_raw_scores(raw), kernel, gs)
            analytic = grad_quality(sk, selected=[0, 1, 2])

            def neg_ll(r):
                k2 = build_sequence_kernel(QualityVector.from_raw_scores(r), kernel, gs)
                return -dsl_log_likelihood(k2, [0, 1, 2])

            fd = oracle_fd_gradient(neg_ll, raw)
            denom = np.maximum(np.abs(fd), 1e-3)
            assert np.max(np.abs(analytic - fd) / denom) < 1e-4

    def test_diagonal_closed_form(self):
        # single target, K = I: |d/dr| of the set log-likelihood is
        # 1 - q^2/(1+q^2); the loss gradient carries the opposite sign
        for raw in (-1.0, 0.0, 0.7):
            gs = GroundSet(previous=(), targets=(0,), negatives=())
            sk = build_sequence_kernel(
                QualityVector.from_raw_scores([raw]), identity_kernel(1), gs
            )
            q2 = math.exp(raw)
            expected = -(1.0 - q2 / (1.0 + q2))
            assert grad_quality(sk, selected=[0])[0] == pytest.approx(expected, rel=1e-10)

    def test_zero_scores_half(self):
        gs = GroundSet(previous=(), targets=(0,), negatives=())
        sk = build_sequence_kernel(
            QualityVector.from_raw_scores([0.0]), identity_kernel(1), gs
        )
        assert abs(grad_quality(sk, selected=[0])[0]) == pytest.approx(0.5)

    def test_equals_batch_row(self):
        # the same code on a one-row stack: equal bit for bit, past the clamp too
        for trial in range(50):
            rng = np.random.default_rng(200 + trial)
            P, T, Z = int(rng.integers(0, 4)), int(rng.integers(1, 4)), int(rng.integers(0, 4))
            n = P + T + Z
            kernel = random_unit_row_kernel(12, n + 2, rng)
            items = rng.permutation(12)[:n]
            raw = rng.uniform(-35.0, 35.0, size=n)
            gs = GroundSet(items[:P], items[P : P + T], items[P + T :])
            sk = build_sequence_kernel(QualityVector.from_raw_scores(raw), kernel, gs)
            _, grad = set_log_likelihood_batch(kernel, items[None], raw[None], P + T, P)
            assert np.array_equal(grad_quality(sk, range(P + T), range(P)), grad[0])

    @pytest.mark.parametrize(
        "selected, conditioned",
        [([1, 2], []), ([0, 2], [0]), ([0, 1, 2], [1]), ([0, 1], [0, 1, 2])],
        ids=["selected_not_prefix", "selected_gap", "conditioned_not_prefix", "conditioned_past_selected"],
    )
    def test_non_prefix_layout_rejected(self, selected, conditioned, rng):
        sk = random_sequence_kernel(4, rng)
        with pytest.raises(ValueError, match="first k positions"):
            grad_quality(sk, selected, conditioned)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("entry", [(1, 1), (2, 3)], ids=["in_numerator", "outside_numerator"])
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda sk: log_det_psd(sk.matrix), id="log_det_psd"),
        pytest.param(lambda sk: dsl_log_likelihood(sk, [0, 1]), id="dsl"),
        pytest.param(lambda sk: cdsl_log_likelihood(sk, [0], [0, 1]), id="cdsl"),
        pytest.param(lambda sk: grad_quality(sk, [0, 1], conditioned=[0]), id="grad_quality"),
    ],
)
def test_nonfinite_matrix_rejected(call, entry, bad, rng):
    sk = random_sequence_kernel(4, rng)
    matrix = sk.matrix.copy()
    matrix[entry] = matrix[entry[::-1]] = bad
    with pytest.raises(ValueError):
        call(dataclasses.replace(sk, matrix=matrix))


class TestInvariants:
    def test_dpp_normalization(self, rng):
        for n in (2, 4, 6):
            sk = random_sequence_kernel(n, rng)
            total = 0.0
            for r in range(n + 1):
                for subset in combinations(range(n), r):
                    if subset:
                        total += math.exp(dsl_log_likelihood(sk, subset))
                    else:
                        total += math.exp(-log_det_psd(sk.matrix + np.eye(n)))
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_conditional_normalization(self, rng):
        n = 5
        sk = random_sequence_kernel(n, rng)
        observed = [1, 3]
        free = [p for p in range(n) if p not in observed]
        total = 0.0
        for r in range(len(free) + 1):
            for extra in combinations(free, r):
                full = sorted(set(observed) | set(extra))
                total += math.exp(cdsl_log_likelihood(sk, observed, full))
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_marginal_identity(self, rng):
        from dppseq.oracle import oracle_marginal

        sk = random_sequence_kernel(5, rng)
        L = sk.matrix
        M = L @ la.inv(L + np.eye(5))
        for i in range(5):
            assert oracle_marginal(sk, i) == pytest.approx(M[i, i], abs=1e-8)

    def test_pair_repulsion(self, rng):
        from dppseq.oracle import oracle_pair_probability

        sk = random_sequence_kernel(5, rng)
        L = sk.matrix
        M = L @ la.inv(L + np.eye(5))
        for i, j in ((0, 1), (2, 4), (1, 3)):
            expected = M[i, i] * M[j, j] - M[i, j] ** 2
            assert oracle_pair_probability(sk, i, j) == pytest.approx(expected, abs=1e-8)

    def test_permutation_invariance(self, rng):
        sk = random_sequence_kernel(4, rng)
        targets = [0, 2]
        observed = [0]
        full = [0, 2, 3]
        base_dsl = dsl_log_likelihood(sk, targets)
        base_cdsl = cdsl_log_likelihood(sk, observed, full)
        for perm in permutations(range(4)):
            p = np.asarray(perm)
            matrix = sk.matrix[np.ix_(p, p)]
            remap = {old: new for new, old in enumerate(perm)}
            sk2 = make_kernel(matrix)
            assert dsl_log_likelihood(sk2, [remap[t] for t in targets]) == pytest.approx(
                base_dsl, abs=1e-10
            )
            assert cdsl_log_likelihood(
                sk2, [remap[o] for o in observed], [remap[f] for f in full]
            ) == pytest.approx(base_cdsl, abs=1e-10)

    def test_monotone_normalizer(self, rng):
        sk = random_sequence_kernel(6, rng)
        full = enumerate_normalizer(sk)
        for drop in range(6):
            keep = [p for p in range(6) if p != drop]
            reduced = make_kernel(sk.matrix[np.ix_(keep, keep)])
            assert enumerate_normalizer(reduced) <= full + 1e-9
