"""Low-rank diversity-kernel fitting on paired diverse sets."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as la

from dppseq.diverse_sets import PairedDiverseSets
from dppseq.kernel_learning import (
    BLOCK_SETS,
    JITTER,
    KernelTrainConfig,
    _SetGroup,
    _group_sets,
    _objective_and_gradient,
    _scatter_plans,
    load_kernel,
    normalize_kernel,
    paired_set_objective,
    save_kernel,
    train_kernel,
)
from dppseq.kernels import DiversityKernelLowRank
from dppseq.oracle import cofactor_det, oracle_fd_gradient


def objective_gradient(V, pairs, l2_reg, jitter):
    return _objective_and_gradient(V, _group_sets(pairs), l2_reg, jitter)[1]


def pair(user, positives, negatives):
    return PairedDiverseSets(
        user=user,
        positive=[sorted(s) for s in positives],
        negative=[sorted(s) for s in negatives],
    )


def two_cluster_pairs(rng, n_pairs=200, n_items=20):
    """Planted synthetic: items 0-9 near one latent direction, 10-19 near an
    orthogonal one; positives mix clusters, negatives stay within one."""
    pairs = []
    for _ in range(n_pairs):
        pos = set(rng.choice(10, size=2, replace=False)) | set(
            10 + rng.choice(10, size=2, replace=False)
        )
        cluster = int(rng.integers(2)) * 10
        neg = set(cluster + rng.choice(10, size=4, replace=False))
        pairs.append(pair(0, [pos], [neg]))
    return pairs


class TestPairedSetObjective:
    def test_singleton_sets(self, rng):
        V = rng.standard_normal((5, 3))
        kernel = DiversityKernelLowRank(V)
        pairs = [pair(0, [{1}], [{3}])]
        expected = math.log(V[1] @ V[1]) - math.log(V[3] @ V[3])
        assert paired_set_objective(kernel, pairs) == pytest.approx(expected)

    def test_identical_sets_cancel(self, rng):
        V = rng.standard_normal((5, 3))
        kernel = DiversityKernelLowRank(V)
        pairs = [pair(0, [{0, 2}], [{0, 2}])]
        assert paired_set_objective(kernel, pairs, l2_reg=0.1) == pytest.approx(
            -0.1 * np.sum(V * V)
        )

    def test_against_cofactor_oracle(self, rng):
        V = rng.standard_normal((10, 4))
        kernel = DiversityKernelLowRank(V)
        pairs = [
            pair(0, [{0, 1, 2}], [{3, 4, 5}]),
            pair(1, [{1, 5, 9}], [{0, 2, 8}]),
            pair(2, [{2, 4, 6}], [{1, 3, 7}]),
        ]
        expected = 0.0
        for p in pairs:
            for pos, neg in zip(p.positive, p.negative):
                for items, sign in ((pos, 1.0), (neg, -1.0)):
                    rows = V[sorted(items)]
                    expected += sign * math.log(cofactor_det(rows @ rows.T))
        assert paired_set_objective(kernel, pairs) == pytest.approx(expected, rel=1e-9)


def per_set_reference(V, pairs, l2_reg, jitter):
    """The objective and gradient one set at a time: slogdet for the value,
    scipy.linalg.solve for d log det/dV_S = 2 (K_S + jI)^-1 V_S.  Also
    returns the sum of the objective's terms' magnitudes, the scale of its
    rounding error (the signed terms cancel)."""
    total, scale = 0.0, 0.0
    grad = np.zeros_like(V)
    for p in pairs:
        for pos, neg in zip(p.positive, p.negative):
            for items, sign in ((pos, 1.0), (neg, -1.0)):
                idx = np.asarray(sorted(items), dtype=int)
                rows = V[idx]
                gram = rows @ rows.T + jitter * np.eye(idx.size)
                sign_det, logdet = np.linalg.slogdet(gram)
                assert sign_det > 0
                total += sign * logdet
                scale += abs(logdet)
                grad[idx] += sign * 2.0 * la.solve(gram, rows, assume_a="pos")
    penalty = l2_reg * float(np.sum(V * V))
    return total - penalty, grad - 2.0 * l2_reg * V, scale + penalty


def random_pairs(rng, sizes, n_items):
    """One pair of random sets of each size in `sizes`."""
    pairs = []
    for u, k in enumerate(sizes):
        pos, neg = (rng.choice(n_items, k, replace=False) for _ in "pn")
        pairs.append(pair(u, [pos], [neg]))
    return pairs


def add_at_reference(V, groups, l2_reg, jitter):
    """The blocked evaluation with fresh temporaries and one `np.add.at`
    scatter per block: the arithmetic that `_objective_and_gradient` must
    reproduce bit for bit."""
    total = 0.0
    grad = np.zeros_like(V)
    for items, signs, _ in groups:
        for start in range(0, len(items), BLOCK_SETS):
            block = items[start : start + BLOCK_SETS]
            block_signs = signs[start : start + BLOCK_SETS]
            rows = V[block]
            gram = rows @ rows.transpose(0, 2, 1) + jitter * np.eye(block.shape[1])
            chol = np.linalg.cholesky(gram)
            inv_chol = np.linalg.inv(chol)
            solved = inv_chol.transpose(0, 2, 1) @ (inv_chol @ rows)
            np.add.at(grad, block, (2.0 * block_signs)[:, None, None] * solved)
            log_dets = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
            total += float(block_signs @ log_dets)
    return total - l2_reg * float(np.sum(V * V)), grad - 2.0 * l2_reg * V


class TestBlockedObjective:
    def test_matches_per_set_reference(self, rng):
        # ragged sizes with singletons; the 5-item group spans several
        # blocks and ends in a partial one.  The rank is well above the set
        # sizes, as in training (sets of 5-8 items, rank 32), so the Grams
        # are well conditioned and both sides are accurate to a few ulps.
        V = rng.standard_normal((60, 16))
        sizes = [5] * (BLOCK_SETS + 37) + [1] * 10 + [2] * 40 + [6] * 30
        pairs = random_pairs(rng, rng.permutation(sizes), 60)
        groups = _group_sets(pairs)
        assert {g[0].shape[1] for g in groups} == {1, 2, 5, 6}
        five = next(g for g in groups if g[0].shape[1] == 5)
        assert len(five[0]) > BLOCK_SETS and len(five[0]) % BLOCK_SETS
        assert set(np.concatenate([g[1] for g in groups])) == {-1.0, 1.0}
        for l2, jitter in ((0.0, 0.0), (0.05, 1e-4)):
            want_obj, want_grad, scale = per_set_reference(V, pairs, l2, jitter)
            obj, grad = _objective_and_gradient(V, groups, l2, jitter)
            assert abs(obj - want_obj) <= 1e-12 * scale
            assert np.max(np.abs(grad - want_grad)) <= 1e-12 * np.max(np.abs(want_grad))
            kernel = DiversityKernelLowRank(V)
            assert paired_set_objective(kernel, pairs, l2, jitter) == obj
            assert np.array_equal(objective_gradient(V, pairs, l2, jitter), grad)

    @pytest.mark.parametrize(
        "n_items, skew, min_layers", [(200, 0.6, 12), (60, 0.0, 12), (1200, 0.0, 2)]
    )
    def test_equals_the_add_at_scatter_exactly(self, rng, n_items, skew, min_layers):
        # ragged sizes, groups of several blocks that end in a partial one,
        # and draws weighted by rank^-skew: a 200-item catalog then repeats
        # items over a dozen times or more in a block of 5-item sets
        weights = np.arange(1, n_items + 1) ** -skew
        probs = weights / weights.sum()
        V = 0.3 * rng.standard_normal((n_items, 32))
        sizes = [5] * (2 * BLOCK_SETS + 41) + [1] * 9 + [3] * 70 + [8] * (BLOCK_SETS + 3)
        pairs = [
            pair(u, *([rng.choice(n_items, k, replace=False, p=probs)] for _ in "pn"))
            for u, k in enumerate(rng.permutation(sizes))
        ]
        groups = _group_sets(pairs)
        assert sum(len(g.items) > BLOCK_SETS and len(g.items) % BLOCK_SETS > 0 for g in groups) == 3
        for items, _, blocks in groups:
            assert len(blocks) == -(-len(items) // BLOCK_SETS)
            for start, (order, ends) in zip(range(0, len(items), BLOCK_SETS), blocks):
                flat = items[start : start + BLOCK_SETS].ravel()
                assert np.array_equal(np.sort(order), np.arange(flat.size))
                # nonempty layers, none larger than the one before
                layer_sizes = np.diff([0, *ends])
                assert ends[-1] == flat.size and layer_sizes[-1] > 0
                assert np.all(np.diff(layer_sizes) <= 0)
                previous = None
                for layer in map(slice, [0, *ends[:-1]], ends):
                    assert np.all(np.diff(order[layer]) > 0)  # slot order
                    layer_items = flat[order[layer]]
                    assert np.unique(layer_items).size == layer_items.size
                    # an item's (r+1)-th slot comes after its r-th
                    assert previous is None or set(layer_items) <= previous
                    previous = set(layer_items)
        assert max(len(ends) for g in groups for _, ends in g.blocks) >= min_layers
        for l2, jitter in ((0.0, 0.0), (0.03, 1e-4)):
            obj, grad = _objective_and_gradient(V, groups, l2, jitter)
            want_obj, want_grad = add_at_reference(V, groups, l2, jitter)
            assert obj == want_obj
            assert np.array_equal(grad, want_grad)

    def test_item_outside_the_factor_rows_rejected(self, rng):
        pairs = [pair(0, [{0, 9}], [{1, 2}])]
        paired_set_objective(DiversityKernelLowRank(rng.standard_normal((10, 3))), pairs)
        with pytest.raises(ValueError, match="9-item catalog"):
            paired_set_objective(DiversityKernelLowRank(rng.standard_normal((9, 3))), pairs)

    def test_oversized_set_without_jitter_is_a_numerical_failure(self, rng):
        # a 4-item set has a singular Gram at rank 3: FloatingPointError
        # (exit 4 from the CLI), not LinAlgError, which is a ValueError.
        # In rounding, about 4 in 10 such Grams still factor, with a finite
        # log-det near -36; 20 draws make it near certain that some do.
        # (Positive and negative are the same set, so that one factoring
        # Gram is enough for the whole block to factor.)
        pairs = [pair(0, [{0, 1, 2, 3}], [{0, 1, 2, 3}])]
        for _ in range(20):
            V = rng.standard_normal((10, 3))
            with pytest.raises(FloatingPointError):
                paired_set_objective(DiversityKernelLowRank(V), pairs)
            with pytest.raises(FloatingPointError):
                objective_gradient(V, pairs, 0.0, 0.0)

    def test_memory_does_not_grow_with_the_set_count(self, rng):
        V = rng.standard_normal((300, 32))

        def peak(n_sets):
            items = np.sort([rng.choice(300, 8, replace=False) for _ in range(n_sets)], axis=1)
            signs = np.where(np.arange(n_sets) % 2, -1.0, 1.0)
            groups = [_SetGroup(items, signs, _scatter_plans(items))]
            _objective_and_gradient(V, groups, 0.01, 1e-6)  # warm caches
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                _objective_and_gradient(V, groups, 0.01, 1e-6)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        one, twenty = peak(BLOCK_SETS), peak(20 * BLOCK_SETS)
        assert twenty <= one + 1024, (one, twenty)


class TestTrainKernel:
    def test_gradient_matches_finite_differences(self, rng):
        V = rng.standard_normal((10, 3))
        pairs = [
            pair(0, [{0, 1, 4}], [{5, 6, 7}]),
            pair(1, [{2, 3, 8}], [{1, 6, 9}]),
        ]
        l2, jitter = 0.02, 1e-4
        analytic = objective_gradient(V, pairs, l2, jitter)

        def objective(flat):
            kernel = DiversityKernelLowRank(flat.reshape(10, 3))
            return paired_set_objective(kernel, pairs, l2, jitter)

        fd = oracle_fd_gradient(objective, V.ravel()).reshape(10, 3)
        denom = np.maximum(np.abs(fd), 1e-3)
        assert np.max(np.abs(analytic - fd) / denom) < 1e-4

    def test_two_cluster_margin_positive(self):
        rng = np.random.default_rng(0)
        train_pairs = two_cluster_pairs(rng, n_pairs=150)
        held_out = two_cluster_pairs(rng, n_pairs=60)
        config = KernelTrainConfig(latent_dim=3, learning_rate=0.01, epochs=150, seed=1)
        kernel, history = train_kernel(train_pairs, 20, config)
        margins = [
            paired_set_objective(kernel, [p], jitter=JITTER) for p in held_out
        ]
        assert float(np.mean(margins)) > 0.0

    def test_strong_l2_shrinks_factors(self):
        rng = np.random.default_rng(1)
        pairs = two_cluster_pairs(rng, n_pairs=20)
        norms = []
        for l2 in (0.01, 10.0, 100.0):
            config = KernelTrainConfig(
                latent_dim=3, learning_rate=0.002, epochs=30, l2_reg=l2, seed=2
            )
            kernel, _ = train_kernel(pairs, 20, config)
            norms.append(np.linalg.norm(kernel.factors))
        assert norms[0] > norms[1] > norms[2]

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        pairs = two_cluster_pairs(rng, n_pairs=10)
        config = KernelTrainConfig(latent_dim=3, learning_rate=0.01, epochs=5, seed=7)
        a, hist_a = train_kernel(pairs, 20, config)
        b, hist_b = train_kernel(pairs, 20, config)
        assert np.array_equal(a.factors, b.factors)
        assert hist_a == hist_b

    def test_objective_improves_with_small_lr(self):
        rng = np.random.default_rng(4)
        pairs = two_cluster_pairs(rng, n_pairs=30)
        config = KernelTrainConfig(latent_dim=3, learning_rate=0.002, epochs=40, seed=0)
        _, history = train_kernel(pairs, 20, config)
        assert history[-1] > history[0]

    def test_item_outside_catalog_rejected(self):
        config = KernelTrainConfig(latent_dim=2, epochs=1)
        train_kernel([pair(0, [{0, 9}], [{1, 2}])], 10, config)
        with pytest.raises(ValueError, match="catalog"):
            train_kernel([pair(0, [{0, 10}], [{1, 2}])], 10, config)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("learning_rate", float("nan")),
            ("learning_rate", 0.0),
            ("learning_rate", -1.0),
            ("l2_reg", -1.0),
            ("l2_reg", float("nan")),
            ("epochs", 0),
            ("epochs", -3),
            ("latent_dim", 0),
            ("seed", -1),
        ],
    )
    def test_bad_config_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            KernelTrainConfig(**{field: value})

    def test_config_bounds_accepted(self):
        KernelTrainConfig(latent_dim=1, learning_rate=1e-12, epochs=1, l2_reg=0.0, seed=0)

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            train_kernel([], 5, KernelTrainConfig(latent_dim=2))


class TestNormalizeKernel:
    def test_simple_row(self):
        kernel = DiversityKernelLowRank(np.array([[3.0, 4.0]]))
        assert np.allclose(normalize_kernel(kernel).factors, [[0.6, 0.8]])

    def test_unit_rows_unchanged(self, rng):
        V = rng.standard_normal((6, 3))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        assert np.allclose(normalize_kernel(DiversityKernelLowRank(V)).factors, V)

    def test_zero_row_replaced(self):
        V = np.array([[1.0, 0.0], [0.0, 0.0]])
        normalized = normalize_kernel(DiversityKernelLowRank(V), seed=1)
        assert np.linalg.norm(normalized.factors[1]) == pytest.approx(1.0)

    def test_subset_determinants_bounded_by_one(self, rng):
        V = rng.standard_normal((15, 4))
        kernel = normalize_kernel(DiversityKernelLowRank(V))
        for _ in range(50):
            size = int(rng.integers(1, 5))
            items = rng.choice(15, size=size, replace=False)
            det = la.det(kernel.submatrix(items))
            assert -1e-12 <= det <= 1.0 + 1e-12

    def test_diag_is_one(self, rng):
        V = rng.standard_normal((8, 3))
        kernel = normalize_kernel(DiversityKernelLowRank(V))
        assert np.allclose(np.diag(kernel.full()), 1.0)

    def test_psd_by_construction(self, rng):
        V = rng.standard_normal((8, 3))
        kernel = normalize_kernel(DiversityKernelLowRank(V))
        assert np.min(la.eigvalsh(kernel.full())) > -1e-9


class TestCheckpoint:
    def test_round_trip_preserves_objective(self, tmp_path, rng):
        V = rng.standard_normal((10, 4))
        kernel = DiversityKernelLowRank(V, normalized=False)
        pairs = [pair(0, [{0, 1, 2}], [{3, 4, 5}])]
        path = tmp_path / "kernel.txt"
        save_kernel(path, kernel)
        loaded = load_kernel(path)
        assert np.array_equal(loaded.factors, kernel.factors)
        assert loaded.normalized == kernel.normalized
        assert paired_set_objective(loaded, pairs) == paired_set_objective(kernel, pairs)
