"""Ranking metric fixtures, block top-N ranking and the block metrics.

The hand-computed cases run through one-row calls of `user_metrics`.  Two
property tests hold the block path to the code it replaced: `rank_candidates`
against a full stable argsort, and `user_metrics`/`evaluate_ranking_fn`
against the per-user scalar metrics, bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dppseq.metrics import (
    RANK_BLOCK_USERS,
    MetricRow,
    MetricTable,
    evaluate_ranking_fn,
    f_score,
    flat_index,
    rank_candidates,
    user_metrics,
)
from tests.conftest import (
    category_coverage,
    category_table,
    ndcg_at,
    one_user_metrics,
    recall_at,
)

CASES = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def recall(ranked, relevant, N):
    return one_user_metrics(ranked, relevant, N)[0]


def ndcg(ranked, relevant, N):
    return one_user_metrics(ranked, relevant, N)[1]


def coverage(ranked, item_categories, n_categories, N):
    table = category_table(item_categories, n_categories)
    return one_user_metrics(ranked, [ranked[0]], N, table)[2]


class TestRecall:
    def test_half(self):
        assert recall([1, 2, 3, 4, 5], [2, 9], 3) == 0.5

    def test_all_hits(self):
        assert recall([7, 8], [7, 8], 5) == 1.0

    def test_no_hits(self):
        assert recall([1, 2, 3], [9], 3) == 0.0

    def test_truncation(self):
        # relevant item at rank 4 does not count for N=3
        assert recall([1, 2, 3, 9], [9], 3) == 0.0

    def test_empty_relevant_rejected(self):
        # a user with nothing relevant is left out, and a table of none is an error
        assert one_user_metrics([1], [], 3) is None
        with pytest.raises(ValueError):
            evaluate_ranking_fn(np.array([[1, -1, -1]]), [[]], np.zeros((2, 1), bool), (3,))


class TestNdcg:
    def test_hit_at_top(self):
        assert ndcg([5, 1, 2], [5], 3) == 1.0

    def test_hit_at_rank_three(self):
        # dcg = 1/log2(4) = 0.5, idcg = 1
        assert ndcg([0, 1, 2], [2], 3) == pytest.approx(0.5)

    def test_two_relevant_partial(self):
        expected = (1 / math.log2(3) + 1 / math.log2(4)) / (1 + 1 / math.log2(3))
        assert ndcg([0, 1, 2], [1, 2], 3) == pytest.approx(expected)
        assert expected == pytest.approx(0.6934264, abs=1e-6)

    def test_miss(self):
        assert ndcg([0, 1], [9], 2) == 0.0

    def test_ideal_normalizer_capped_at_n(self):
        # 5 relevant items but N=2: perfect prefix still scores 1
        assert ndcg([0, 1], list(range(5)), 2) == pytest.approx(1.0)


class TestCategoryCoverage:
    def test_three_of_ten(self):
        cats = [frozenset({0}), frozenset({1, 2}), frozenset({2})]
        assert coverage([0, 1, 2], cats, 10, 3) == pytest.approx(0.3)

    def test_empty_list(self):
        # no ranked item leaves the user out; the -1 padding covers nothing
        cats = [frozenset({0}), frozenset({1})]
        assert one_user_metrics([], [0], 3, category_table(cats, 4)) is None
        assert coverage([1], cats, 4, 3) == 0.25

    def test_full_coverage(self):
        cats = [frozenset({0}), frozenset({1})]
        assert coverage([0, 1], cats, 2, 2) == 1.0

    def test_padding_covers_nothing(self):
        # the last item has category 2 to itself, so a -1 read as an item
        # index would cover it
        table = category_table([{0}, {1}, {2}], 3)
        ranked = rank_candidates(np.array([[0.9, 0.5, 0.1]]), flat_index([{1, 2}]), 3)
        assert ranked.tolist() == [[0, -1, -1]]
        _, values = user_metrics(ranked, [[0]], (1, 3), table)
        assert values[2].tolist() == [[1 / 3], [1 / 3]]
        assert evaluate_ranking_fn(ranked, [[0]], table, (3,)).rows[0].cc == 1 / 3


class TestFScore:
    def test_harmonic_mean(self):
        assert f_score(0.12, 0.05) == pytest.approx(0.0705882, abs=1e-6)

    def test_symmetric(self):
        assert f_score(0.3, 0.7) == f_score(0.7, 0.3)

    def test_zero_zero(self):
        assert f_score(0.0, 0.0) == 0.0

    def test_equal_inputs_fixed_point(self):
        assert f_score(0.4, 0.4) == pytest.approx(0.4)


def stable_sort_top(scores, exclude, top):
    """The full-row ranking that `rank_candidates` replaced: a stable argsort
    of every row on -score, excluded items set to +inf and dropped."""
    neg = -np.asarray(scores, dtype=float)
    for row, items in zip(neg, exclude):
        row[list(items)] = np.inf
    order = np.argsort(neg, axis=1, kind="stable")[:, :top]
    kept = np.take_along_axis(neg, order, axis=1) < np.inf
    return [row[keep].tolist() for row, keep in zip(order, kept)]


def padded(rows, width):
    return [row + [-1] * (width - len(row)) for row in rows]


class TestRankCandidates:
    def test_descending(self):
        ranked = rank_candidates(np.array([[0.1, 0.9, 0.5]]), flat_index([()]), 3)
        assert ranked.tolist() == [[1, 2, 0]]

    def test_tie_breaks_by_item_index(self):
        ranked = rank_candidates(np.array([[0.5, 0.5, 0.5, 0.7]]), flat_index([()]), 4)
        assert ranked.tolist() == [[3, 0, 1, 2]]
        # the cut falls inside the tie: the lower indices survive
        ranked = rank_candidates(np.array([[0.5, 0.5, 0.5, 0.7]]), flat_index([()]), 2)
        assert ranked.tolist() == [[3, 0]]

    def test_excluded_left_out_and_short_rows_kept_whole(self):
        scores = np.array([[0.1, 0.9, 0.5, 0.3], [0.4, 0.3, 0.2, 0.1]])
        ranked = rank_candidates(scores, flat_index([{1, 3}, {0, 1, 2}]), 3)
        assert ranked.tolist() == [[2, 0, -1], [3, -1, -1]]

    def test_nan_and_infinite_scores(self):
        # +inf ranks first, ties by index; -inf and NaN are dropped like exclusions
        scores = np.array([[np.nan, np.inf, -np.inf, 1.0, np.inf]])
        assert rank_candidates(scores, flat_index([()]), 4).tolist() == [[1, 4, 3, -1]]

    @CASES
    @given(data=st.data())
    def test_matches_full_stable_sort(self, data):
        B = data.draw(st.integers(1, 6))
        M = data.draw(st.integers(1, 12))
        top = data.draw(st.integers(1, M + 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # integer-valued scores tie heavily; some are +-inf or NaN
        scores = rng.integers(-2, 3, size=(B, M)).astype(float)
        special = rng.random((B, M))
        scores[special < 0.08] = np.nan
        scores[(special >= 0.08) & (special < 0.14)] = np.inf
        scores[(special >= 0.14) & (special < 0.2)] = -np.inf
        share = data.draw(st.sampled_from([0.0, 0.3, 0.8]))
        exclude = [
            range(M) if rng.random() < 0.15 else np.flatnonzero(rng.random(M) < share).tolist()
            for _ in range(B)
        ]
        ranked = rank_candidates(scores, flat_index(exclude), top)
        assert ranked.shape == (B, top)
        assert ranked.tolist() == padded(stable_sort_top(scores, exclude, top), top)


def scalar_table(ranked_rows, relevant, item_categories, n_categories, N_list):
    """Per-user scalar values of the users with a relevant and a ranked item,
    as a (3, len(N_list), users) array."""
    values = [
        [
            (
                recall_at(r, set(rel), N),
                ndcg_at(r, set(rel), N),
                category_coverage(r[:N], item_categories, n_categories),
            )
            for N in N_list
        ]
        for r, rel in zip(ranked_rows, relevant)
        if r and rel
    ]
    return np.array(values, dtype=float).reshape(-1, len(N_list), 3).transpose(2, 1, 0)


class TestUserMetrics:
    def test_short_rows_and_long_relevant_lists(self):
        # user 0 has 2 ranked items and N = 3; user 1 has 5 relevant items
        # (one repeated) for N = 3; user 2 has no ranked item
        ranked = np.array([[4, 1, -1], [0, 2, 3], [-1, -1, -1]])
        relevant = [[1], [9, 0, 3, 3, 7, 8], [2]]
        cats = [frozenset({i % 3}) for i in range(10)]
        kept, values = user_metrics(ranked, relevant, (3, 1), category_table(cats, 3))
        assert kept.tolist() == [True, True, False]
        want = scalar_table([[4, 1], [0, 2, 3], []], relevant, cats, 3, (3, 1))
        assert np.array_equal(values, want)
        assert values[:, 0, 1].tolist() == [2 / 5, ndcg_at([0, 2, 3], {0, 3, 7, 8, 9}, 3), 2 / 3]

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_bit_identical_to_scalar_metrics(self, data):
        U = data.draw(st.sampled_from([1, 7, 2 * RANK_BLOCK_USERS + 9]))
        M = data.draw(st.integers(1, 25))
        K = data.draw(st.integers(1, 12))
        N_list = data.draw(st.lists(st.integers(1, K), min_size=1, max_size=3))
        C = data.draw(st.integers(1, 6))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        scores = rng.standard_normal((U, M)).round(1)
        exclude = [np.flatnonzero(rng.random(M) < rng.random()).tolist() for _ in range(U)]
        ranked = rank_candidates(scores, flat_index(exclude), K)
        # up to 2K relevant items per user, with repeats, some never ranked
        relevant = [rng.integers(0, M + 3, size=rng.integers(0, 2 * K + 1)).tolist() for _ in range(U)]
        cats = [frozenset(rng.integers(0, C, size=rng.integers(0, 3)).tolist()) for _ in range(M)]
        n_categories = C + int(rng.integers(0, 2))

        rows = [r[r >= 0].tolist() for r in ranked]
        table = category_table(cats, n_categories)
        kept, values = user_metrics(ranked, relevant, N_list, table)
        assert kept.tolist() == [bool(r and rel) for r, rel in zip(rows, relevant)]
        want = scalar_table(rows, relevant, cats, n_categories, N_list)
        assert np.array_equal(values, want)

        if kept.any():
            metric_table = evaluate_ranking_fn(ranked, relevant, table, N_list, "x", 2)
            for k, (N, row) in enumerate(zip(N_list, metric_table.rows)):
                re, nd, cc = (float(np.mean(v)) for v in want[:, k])
                assert row == MetricRow("x", 2, N, re, nd, cc, f_score(0.5 * (re + nd), cc))


class TestEvaluateRankingFn:
    def setup_method(self):
        # 6 items, 3 categories, 2 users; user 0 likes low indices
        self.cats = category_table([{i // 2} for i in range(6)], 3)
        self.scores = np.array([[5.0, 4, 3, 2, 1, 0], [0.0, 1, 2, 3, 4, 5]])

    def run(self, relevant=None, exclude=None):
        return evaluate_ranking_fn(
            rank_candidates(self.scores, flat_index(exclude or [(), ()]), 2),
            relevant if relevant is not None else [[0, 1], [5]],
            item_categories=self.cats,
            N_list=(2,),
            loss_name="x",
            T=1,
        )

    def test_hand_computed_averages(self):
        table = self.run()
        row = table.rows[0]
        # user 0 ranks [0,1,...]: recall 1, ndcg 1, cc = 1/3
        # user 1 ranks [5,4,...]: recall 1, ndcg 1, cc = 1/3
        assert row.recall == pytest.approx(1.0)
        assert row.ndcg == pytest.approx(1.0)
        assert row.cc == pytest.approx(1 / 3)
        assert row.f == pytest.approx(f_score(1.0, 1 / 3))

    def test_exclusion_removes_candidates(self):
        table = self.run(exclude=[{0, 1}, set()], relevant=[[2], [5]])
        # user 0's best remaining items are 2,3 -> hit at rank 1
        assert table.rows[0].recall == 1.0

    def test_users_without_relevant_skipped(self):
        table = self.run(relevant=[[], [5]])
        assert table.rows[0].recall == 1.0
        assert table.rows[0].cc == pytest.approx(1 / 3)

    def test_all_users_empty_rejected(self):
        with pytest.raises(ValueError):
            self.run(relevant=[[], []])


def test_metric_table_csv(tmp_path):
    table = MetricTable(rows=[MetricRow("ce", 1, 5, 0.5, 0.25, 1 / 3, 0.35)])
    path = tmp_path / "metrics.csv"
    table.write_csv(path, "# stamp\n")
    lines = path.read_text().splitlines()
    assert lines[0] == "# stamp"
    assert lines[1] == "loss,T,N,recall,ndcg,cc,f"
    assert lines[2] == "ce,1,5,0.500000,0.250000,0.333333,0.350000"
    assert MetricTable.read_csv(path).rows == [MetricRow("ce", 1, 5, 0.5, 0.25, 0.333333, 0.35)]
