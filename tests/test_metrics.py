"""Ranking metric fixtures and the per-user evaluation loop."""

import math

import numpy as np
import pytest

from dppseq.metrics import (
    MetricRow,
    MetricTable,
    category_coverage,
    evaluate_ranking_fn,
    f_score,
    ndcg_at,
    rank_candidates,
    recall_at,
)


class TestRecall:
    def test_half(self):
        assert recall_at([1, 2, 3, 4, 5], {2, 9}, 3) == 0.5

    def test_all_hits(self):
        assert recall_at([7, 8], {7, 8}, 5) == 1.0

    def test_no_hits(self):
        assert recall_at([1, 2, 3], {9}, 3) == 0.0

    def test_truncation(self):
        # relevant item at rank 4 does not count for N=3
        assert recall_at([1, 2, 3, 9], {9}, 3) == 0.0

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError):
            recall_at([1], set(), 3)


class TestNdcg:
    def test_hit_at_top(self):
        assert ndcg_at([5, 1, 2], {5}, 3) == 1.0

    def test_hit_at_rank_three(self):
        # dcg = 1/log2(4) = 0.5, idcg = 1
        assert ndcg_at([0, 1, 2], {2}, 3) == pytest.approx(0.5)

    def test_two_relevant_partial(self):
        expected = (1 / math.log2(3) + 1 / math.log2(4)) / (1 + 1 / math.log2(3))
        assert ndcg_at([0, 1, 2], {1, 2}, 3) == pytest.approx(expected)
        assert expected == pytest.approx(0.6934264, abs=1e-6)

    def test_miss(self):
        assert ndcg_at([0, 1], {9}, 2) == 0.0

    def test_ideal_normalizer_capped_at_n(self):
        # 5 relevant items but N=2: perfect prefix still scores 1
        assert ndcg_at([0, 1], set(range(5)), 2) == pytest.approx(1.0)


class TestCategoryCoverage:
    def test_three_of_ten(self):
        cats = {0: frozenset({0}), 1: frozenset({1, 2}), 2: frozenset({2})}
        assert category_coverage([0, 1, 2], cats, 10) == pytest.approx(0.3)

    def test_empty_list(self):
        assert category_coverage([], {}, 4) == 0.0

    def test_full_coverage(self):
        cats = [frozenset({0}), frozenset({1})]
        assert category_coverage([0, 1], cats, 2) == 1.0


class TestFScore:
    def test_harmonic_mean(self):
        assert f_score(0.12, 0.05) == pytest.approx(0.0705882, abs=1e-6)

    def test_symmetric(self):
        assert f_score(0.3, 0.7) == f_score(0.7, 0.3)

    def test_zero_zero(self):
        assert f_score(0.0, 0.0) == 0.0

    def test_equal_inputs_fixed_point(self):
        assert f_score(0.4, 0.4) == pytest.approx(0.4)


class TestRankCandidates:
    def test_descending(self):
        ranked = rank_candidates(np.array([[0.1, 0.9, 0.5]]), [set()], 3)
        assert ranked[0].tolist() == [1, 2, 0]

    def test_tie_breaks_by_item_index(self):
        ranked = rank_candidates(np.array([[0.5, 0.5, 0.5, 0.7]]), [set()], 4)
        assert ranked[0].tolist() == [3, 0, 1, 2]

    def test_excluded_left_out_and_short_rows_kept_whole(self):
        scores = np.array([[0.1, 0.9, 0.5, 0.3], [0.4, 0.3, 0.2, 0.1]])
        ranked = rank_candidates(scores, [{1, 3}, {0, 1, 2}], 3)
        assert ranked[0].tolist() == [2, 0]
        assert ranked[1].tolist() == [3]


class TestEvaluateRankingFn:
    def setup_method(self):
        # 6 items, 3 categories, 2 users; user 0 likes low indices
        self.cats = [frozenset({i // 2}) for i in range(6)]
        self.scores = np.array([[5.0, 4, 3, 2, 1, 0], [0.0, 1, 2, 3, 4, 5]])

    def run(self, relevant=None, exclude=None):
        return evaluate_ranking_fn(
            rank_candidates(self.scores, exclude if exclude is not None else [set(), set()], 2),
            relevant if relevant is not None else [[0, 1], [5]],
            item_categories=self.cats,
            n_categories=3,
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
