"""Embedding scorer: forward pass, backprop, training, and checkpoints."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dppseq.data import Instances, SequenceInstance, SplitResult
from dppseq.kernel_learning import normalize_kernel
from dppseq.kernels import DiversityKernelLowRank
from dppseq.metrics import evaluate_ranking_fn
from dppseq.oracle import oracle_fd_gradient
from dppseq.scorer import (
    RANK_BLOCK_USERS,
    ScorerParams,
    _row_sums,
    TrainConfig,
    backprop_scores,
    evaluate_model,
    init_params,
    instance_loss,
    load_params,
    save_params,
    score,
    train,
    validation_ndcg,
)
from tests.conftest import (
    category_table,
    dense_grads,
    instance_array,
    ndcg_at,
    pack,
    reference_sgd_step,
    unpack,
)


def zero_params(n_users=3, n_items=10, d=4):
    return ScorerParams(
        user_emb=np.zeros((n_users, d)),
        item_in_emb=np.zeros((n_items, d)),
        item_out_emb=np.zeros((n_items, d)),
        item_bias=np.zeros(n_items),
    )


class TestScore:
    def test_all_zero_params(self):
        params = zero_params()
        assert np.all(score(params, 0, [1, 2], [3, 4]) == 0.0)

    def test_bias_only(self):
        params = zero_params()
        params.item_bias[:] = np.arange(10, dtype=float)
        assert np.allclose(score(params, 0, [0], [3, 7]), [3.0, 7.0])

    def test_hand_computed(self):
        params = zero_params(d=2)
        params.user_emb[1] = [1.0, 0.0]
        params.item_in_emb[2] = [0.0, 2.0]
        params.item_in_emb[3] = [0.0, 4.0]
        params.item_out_emb[5] = [2.0, 1.0]
        params.item_bias[5] = 0.5
        # context = (1, 0) + mean((0,2),(0,4)) = (1, 3); score = 2 + 3 + 0.5
        assert score(params, 1, [2, 3], [5])[0] == pytest.approx(5.5)

    def test_out_of_range_rejected(self):
        params = zero_params()
        with pytest.raises(ValueError):
            score(params, 9, [0], [1])
        with pytest.raises(ValueError):
            score(params, 0, [0], [99])

    def test_empty_previous_rejected(self):
        with pytest.raises(ValueError):
            score(zero_params(), 0, [], [1])


def reference_row_sums(idx, values):
    """`_row_sums` as `np.unique` plus an unbuffered `np.add.at` into zeros."""
    rows, inverse = np.unique(idx, return_inverse=True)
    sums = np.zeros((rows.size, *values.shape[idx.ndim :]))
    np.add.at(sums, inverse.reshape(idx.shape), values)
    return rows, sums


@st.composite
def row_sum_cases(draw):
    """An index of repeated, unsorted rows, 1-d or 2-d and possibly empty,
    with values of its own shape, with a row of width w, or broadcast over
    the index's second axis."""
    shape = tuple(draw(st.lists(st.integers(0, 5), min_size=1, max_size=2)))
    idx = np.array(draw(st.lists(st.integers(0, 7), min_size=int(np.prod(shape)),
                                 max_size=int(np.prod(shape)))), dtype=np.intp).reshape(shape)
    kind = draw(st.sampled_from(["same", "rows", "broadcast"] if idx.ndim == 2 else ["same", "rows"]))
    width = draw(st.integers(1, 3))
    value_shape = {
        "same": shape,
        "rows": shape + (width,),
        "broadcast": (shape[0], 1, width),
    }[kind]
    floats = st.one_of(
        st.sampled_from([1e16, 1.0, -1e16, 0.0, -0.0]),
        st.floats(-1e300, 1e300),
    )
    n_values = int(np.prod(value_shape))
    values = draw(st.lists(floats, min_size=n_values, max_size=n_values))
    return idx, np.array(values, dtype=float).reshape(value_shape)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(row_sum_cases())
@example((np.array([[3, 3, 3]]), np.array([[1e16, 1.0, -1e16]])))
@example((np.array([3, 3, 3, 3]), np.array([1e16, 1.0, -1e16, 1.0])))
@example((np.array([5, 2, 5]), np.array([-0.0, -0.0, -0.0])))
@example((np.array([4]), np.array([[2.5, -1.0]])))
@example((np.zeros((1, 0), dtype=np.intp), np.zeros((1, 0, 3))))
def test_row_sums_equal_unique_and_add_at(case):
    idx, values = case
    rows, sums = _row_sums(idx, values)
    want_rows, want_sums = reference_row_sums(idx, values)
    assert rows.tobytes() == want_rows.tobytes()
    assert sums.dtype == want_sums.dtype and sums.shape == want_sums.shape
    assert sums.tobytes() == want_sums.tobytes()


def test_row_sums_add_in_input_order():
    # in order 0.0; with 1.0 added last, as a pairwise sum may, 1.0
    _, sums = _row_sums(np.array([[3, 3, 3]]), np.array([[1e16, 1.0, -1e16]]))
    assert sums.tolist() == [0.0]
    # in order 1.0; reversed or pairwise 0.0
    _, sums = _row_sums(np.array([3, 3, 3, 3]), np.array([1e16, 1.0, -1e16, 1.0]))
    assert sums.tolist() == [1.0]


class TestBackprop:
    def test_matches_finite_differences(self, rng):
        params = init_params(3, 10, d=4, seed=5)
        user, previous, candidates = 1, [0, 3, 7], [2, 5, 8]
        weights = rng.standard_normal(3)

        def objective(flat):
            p = unpack(flat, params)
            return float(weights @ score(p, user, previous, candidates))

        blocks = backprop_scores(params, user, previous, candidates, weights)
        analytic = pack(dense_grads(params, blocks))
        fd = oracle_fd_gradient(objective, pack(params))
        assert np.max(np.abs(analytic - fd)) < 1e-7

    @pytest.mark.parametrize("loss_kind", ["ce", "bpr", "dsl", "cdsl"])
    def test_full_loss_gradient(self, loss_kind, rng):
        params = init_params(3, 12, d=4, seed=2)
        kernel = normalize_kernel(
            DiversityKernelLowRank(rng.standard_normal((12, 8)))
        )
        instance = SequenceInstance(
            user=0, previous=(0, 1, 2), targets=(3, 4), negatives=(5, 6), time_step=3
        )

        def objective(flat):
            p = unpack(flat, params)
            result, _ = instance_loss(p, instance, loss_kind, kernel)
            return result.value

        result, scored = instance_loss(params, instance, loss_kind, kernel)
        blocks = backprop_scores(
            params, instance.user, instance.previous, scored, result.grad_scores
        )
        analytic = pack(dense_grads(params, blocks))
        fd = oracle_fd_gradient(objective, pack(params))
        denom = np.maximum(np.abs(fd), 1e-3)
        assert np.max(np.abs(analytic - fd) / denom) < 1e-4

    def test_no_candidates_give_empty_blocks(self):
        blocks = backprop_scores(init_params(2, 5, d=3, seed=0), 0, [1], [], np.zeros(0))
        out_rows, out_grad = blocks["item_out_emb"]
        bias_rows, bias_grad = blocks["item_bias"]
        assert out_rows.size == bias_rows.size == 0
        assert out_grad.shape == (0, 3) and bias_grad.shape == (0,)
        assert out_grad.dtype == bias_grad.dtype == np.float64

    def test_repeated_candidate_accumulates(self):
        params = init_params(2, 5, d=3, seed=0)
        repeated = backprop_scores(params, 0, [1], [2, 2], np.array([1.0, 1.0]))
        single = backprop_scores(params, 0, [1], [2], np.array([2.0]))
        assert np.allclose(
            dense_grads(params, repeated).item_bias[2], dense_grads(params, single).item_bias[2]
        )

    @pytest.mark.parametrize("loss_kind", ["ce", "bpr", "dsl", "cdsl"])
    def test_step_equals_dense_accumulation(self, loss_kind):
        # one step of `train` over 120 rows of 3 users and 6 items, so every
        # item recurs across rows.  ce and bpr rows repeat items within a row
        # too.  dsl and cdsl rows are sets; item 6 has a zero factor row, so
        # the one row with it among its targets is singular and skipped
        rng = np.random.default_rng(11)
        P, T, Z = 2, 2, 2
        if loss_kind in ("ce", "bpr"):
            items = rng.integers(0, 6, size=(120, P + T + Z))
            assert any(len(set(row)) < len(row) for row in items.tolist())
        else:
            items = np.array([rng.permutation(6) for _ in range(120)])
            items[0, P] = 6
        instances = Instances(
            users=rng.integers(0, 3, size=120),
            items=items,
            time_steps=np.full(120, P),
            L=P,
            T=T,
        )
        V = rng.standard_normal((7, 6))
        V[6] = 0.0
        kernel = DiversityKernelLowRank(V)
        params = init_params(3, 7, d=4, seed=3)
        config = TrainConfig(learning_rate=0.3, batch_size=120, max_epochs=1, seed=4)
        trained, tlog = train(params, instances, loss_kind, kernel, config)
        assert tlog.skipped_instances == (loss_kind in ("dsl", "cdsl"))
        expected = reference_sgd_step(params, instances, loss_kind, kernel, config)
        for table in ("user_emb", "item_in_emb", "item_out_emb", "item_bias"):
            assert np.array_equal(getattr(trained, table), getattr(expected, table))
            assert not np.array_equal(getattr(trained, table), getattr(params, table))


def toy_instances(n_users=6, n_items=20, per_user=3):
    """Planted preference: user u repeatedly interacts within a block of 5
    items; negatives come from other blocks."""
    rng = np.random.default_rng(0)
    instances = []
    for u in range(n_users):
        block = [(u % 4) * 5 + j for j in range(5)]
        outside = [i for i in range(n_items) if i not in block]
        for _ in range(per_user):
            perm = list(rng.permutation(block))
            instances.append(
                SequenceInstance(
                    user=u,
                    previous=tuple(perm[:3]),
                    targets=tuple(perm[3:5]),
                    negatives=tuple(int(x) for x in rng.choice(outside, 2, replace=False)),
                    time_step=3,
                )
            )
    return instance_array(instances)


class TestTrain:
    def test_loss_decreases(self):
        instances = toy_instances()
        params = init_params(6, 20, d=8, seed=1)
        config = TrainConfig(learning_rate=0.05, batch_size=4, max_epochs=10, seed=0)
        _, tlog = train(params, instances, "ce", None, config)
        assert tlog.epoch_loss[-1] < tlog.epoch_loss[0]

    def test_planted_preference_learned(self):
        instances = toy_instances(per_user=6)
        params = init_params(6, 20, d=8, seed=1)
        config = TrainConfig(learning_rate=0.5, batch_size=8, max_epochs=40, seed=0)
        trained, _ = train(params, instances, "ce", None, config)
        good = 0
        for u in range(6):
            block = {(u % 4) * 5 + j for j in range(5)}
            s = score(trained, u, sorted(block)[:3], list(range(20)))
            top5 = set(np.argsort(-s)[:5].tolist())
            good += len(top5 & block) >= 4
        assert good >= 5  # at least ~90% of users rank their block on top

    def test_deterministic(self):
        instances = toy_instances()
        config = TrainConfig(learning_rate=0.05, batch_size=4, max_epochs=5, seed=3)
        a, log_a = train(init_params(6, 20, d=4, seed=2), instances, "ce", None, config)
        b, log_b = train(init_params(6, 20, d=4, seed=2), instances, "ce", None, config)
        assert np.array_equal(a.user_emb, b.user_emb)
        assert np.array_equal(a.item_out_emb, b.item_out_emb)
        assert log_a.epoch_loss == log_b.epoch_loss

    def test_early_stopping_returns_best(self):
        instances = toy_instances()
        params = init_params(6, 20, d=4, seed=0)
        # scripted validation: peak at epoch 2, then flat; patience 3 stops at
        # epoch 5 and returns the epoch-2 snapshot
        values = iter([0.1, 0.3, 0.9, 0.2, 0.2, 0.2, 0.2, 0.2])
        snapshots = []

        def validate(p):
            snapshots.append(p.copy())
            return next(values)

        config = TrainConfig(learning_rate=0.01, batch_size=4, max_epochs=20, patience=3, seed=0)
        best, tlog = train(params, instances, "ce", None, config, validate=validate)
        assert tlog.best_epoch == 2
        assert len(tlog.epoch_val_ndcg) == 6
        assert np.array_equal(best.user_emb, snapshots[2].user_emb)

    def test_dsl_single_target_rejected(self):
        instance = SequenceInstance(
            user=0, previous=(0, 1), targets=(2,), negatives=(3, 4), time_step=2
        )
        kernel = DiversityKernelLowRank(np.eye(5))
        with pytest.raises(ValueError):
            train(
                init_params(1, 5, d=2),
                instance_array([instance]),
                "dsl",
                kernel,
                TrainConfig(max_epochs=1),
            )

    def test_set_losses_require_kernel(self):
        instance = SequenceInstance(
            user=0, previous=(0, 1), targets=(2, 3), negatives=(4,), time_step=2
        )
        with pytest.raises(ValueError):
            train(
                init_params(1, 5, d=2),
                instance_array([instance]),
                "cdsl",
                None,
                TrainConfig(max_epochs=1),
            )

    def test_unknown_loss_rejected(self):
        with pytest.raises(ValueError):
            train(init_params(1, 5, d=2), toy_instances(), "hinge", None, TrainConfig(max_epochs=1))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("learning_rate", float("nan")),
            ("learning_rate", -1.0),
            ("batch_size", 0),
            ("max_epochs", 0),
            ("patience", 0),
            ("seed", -1),
        ],
    )
    def test_bad_config_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be >= "):
            TrainConfig(**{field: value})

    def test_config_bounds_accepted(self):
        # a rate of 0 holds the parameters fixed, as the early-stopping
        # checks of the acceptance suite train
        TrainConfig(learning_rate=0.0, batch_size=1, max_epochs=1, patience=1, seed=0)

    @pytest.mark.parametrize("loss_kind", ["bpr", "dsl", "cdsl"])
    def test_other_losses_train(self, loss_kind, rng):
        instances = toy_instances()
        kernel = normalize_kernel(DiversityKernelLowRank(rng.standard_normal((20, 8))))
        config = TrainConfig(learning_rate=0.05, batch_size=4, max_epochs=5, seed=0)
        _, tlog = train(init_params(6, 20, d=4, seed=0), instances, loss_kind, kernel, config)
        assert len(tlog.epoch_loss) == 5
        assert all(np.isfinite(v) for v in tlog.epoch_loss)


class TestValidationNdcg:
    def test_perfect_model(self):
        params = zero_params(n_users=1, n_items=10)
        split = SplitResult(train=[[0, 1, 2]], valid=[[5]], test=[[6]], dropped_users=[])
        params.item_bias[5] = 10.0
        assert validation_ndcg(params, split, 10, L=3) == 1.0

    def test_excludes_training_items(self):
        params = zero_params(n_users=1, n_items=10)
        # item 0 scores highest but sits in the training history, so the
        # validation item still lands at rank 1
        params.item_bias[0] = 100.0
        params.item_bias[5] = 1.0
        split = SplitResult(train=[[0, 1, 2]], valid=[[5]], test=[[6]], dropped_users=[])
        assert validation_ndcg(params, split, 10, L=3) == 1.0

    def test_empty_validation_returns_zero(self):
        params = zero_params(n_users=1, n_items=10)
        split = SplitResult(train=[[0, 1]], valid=[[]], test=[[2]], dropped_users=[])
        assert validation_ndcg(params, split, 10, L=2) == 0.0


class TestBlockRanking:
    """Validation and test ranking against the per-user loop that block
    ranking replaced, over more users than two blocks, context lists of
    every length up to L and dropped users with no history."""

    def split(self, n_users, n_items, rng):
        train, valid, test = [], [], []
        for _ in range(n_users):
            items = rng.permutation(n_items).tolist()
            n_train = int(rng.integers(0, 9))
            train.append(items[:n_train])
            valid.append(items[n_train : n_train + int(rng.integers(0, 3))] if n_train else [])
            test.append(items[20 : 20 + int(rng.integers(0, 3))] if n_train else [])
        return SplitResult(train=train, valid=valid, test=test, dropped_users=[])

    def per_user_top(self, params, user, context, exclude, n_items, top):
        candidates = np.array([i for i in range(n_items) if i not in set(exclude)])
        s = score(params, user, context, candidates)
        return candidates[np.lexsort((candidates, -s))][:top].tolist()

    def test_matches_per_user_loop(self):
        rng = np.random.default_rng(5)
        n_users, n_items, L = 2 * RANK_BLOCK_USERS + 17, 40, 4
        params = init_params(n_users, n_items, d=4, seed=5)
        params.item_bias[:] = 0.1 * rng.standard_normal(n_items)
        split = self.split(n_users, n_items, rng)

        ndcgs = [
            ndcg_at(self.per_user_top(params, u, tr[-L:], tr, n_items, 5), set(va), 5)
            for u, (tr, va) in enumerate(zip(split.train, split.valid))
            if tr and va
        ]
        assert validation_ndcg(params, split, n_items, L) == float(np.mean(ndcgs))

        cats = category_table([{i % 3} for i in range(n_items)], 3)
        users = [u for u, t in enumerate(split.test) if t]
        history = [split.train[u] + split.valid[u] for u in users]
        tops = [
            self.per_user_top(params, u, h[-L:], h, n_items, 10) for u, h in zip(users, history)
        ]
        tops = np.array([t + [-1] * (10 - len(t)) for t in tops])
        want = evaluate_ranking_fn(tops, [split.test[u] for u in users], cats, T=2)
        got = evaluate_model(params, split, n_items, L, cats)
        assert got.rows == want.rows


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        params = init_params(4, 7, d=3, seed=11)
        params.item_bias[:] = np.linspace(-1, 1, 7)
        path = tmp_path / "scorer.txt"
        save_params(path, params)
        loaded = load_params(path)
        assert np.array_equal(loaded.user_emb, params.user_emb)
        assert np.array_equal(loaded.item_in_emb, params.item_in_emb)
        assert np.array_equal(loaded.item_out_emb, params.item_out_emb)
        assert np.array_equal(loaded.item_bias, params.item_bias)

    def test_non_finite_rejected(self, tmp_path):
        params = init_params(4, 7, d=3, seed=11)
        params.item_bias[1] = np.nan
        path = tmp_path / "scorer.txt"
        save_params(path, params)
        with pytest.raises(ValueError):
            load_params(path)
