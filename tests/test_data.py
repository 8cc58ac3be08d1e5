"""Ingestion, k-core filtering, temporal splits, and instance generation."""

import numpy as np
import pytest

from dppseq.data import (
    SplitResult,
    default_lengths,
    k_core_filter,
    load_interactions,
    make_instances,
    parse_int_rows,
    temporal_split,
    user_histories,
    write_interactions,
    write_split_manifest,
)
from tests.conftest import log_from_rows


def write_csv(path, rows):
    lines = ["user_id,item_id,timestamp,categories"]
    lines.extend(",".join(str(c) for c in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def synthetic_log(n_users=4, n_items=8, per_user=6):
    rows = []
    t = 0
    for u in range(n_users):
        for j in range(per_user):
            item = (u + j) % n_items
            rows.append((f"u{u}", f"i{item}", t, [f"c{item % 3}"]))
            t += 1
    return log_from_rows(rows)


class TestLoadInteractions:
    def test_well_formed(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(
            path,
            [("u1", "i1", 10, "c1"), ("u1", "i2", 11, "c1;c2"), ("u2", "i1", 12, "c2")],
        )
        log = load_interactions(path)
        assert log.users.tolist() == [0, 0, 1]
        assert log.items.tolist() == [0, 1, 0]
        assert log.timestamps.tolist() == [10, 11, 12]
        assert log.categories.tolist() == ["c1", "c1;c2", "c2"]
        assert log.n_users == 2
        assert log.n_items == 2
        assert log.n_categories == 2
        assert log.item_categories.tolist() == [[True, True], [True, True]]

    def test_empty_category_rejected_strict(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, [("u1", "i1", 10, "c1"), ("u1", "i2", 11, "")])
        with pytest.raises(ValueError, match="3"):
            load_interactions(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("u1,i1,10,c1\n")
        with pytest.raises(ValueError, match="header"):
            load_interactions(path)

    def test_round_trip(self, tmp_path):
        log = synthetic_log()
        path = tmp_path / "out.csv"
        write_interactions(path, log)
        loaded = load_interactions(path)
        for column in ("users", "items", "timestamps", "categories"):
            assert np.array_equal(getattr(loaded, column), getattr(log, column))
        assert loaded.user_ids == log.user_ids
        assert loaded.item_ids == log.item_ids


class TestKCoreFilter:
    def test_identity_when_satisfied(self):
        log = synthetic_log(n_users=4, n_items=4, per_user=4)
        filtered = k_core_filter(log, k=2)
        assert len(filtered.users) == len(log.users)

    def test_k1_is_identity(self):
        log = synthetic_log()
        assert len(k_core_filter(log, k=1).users) == len(log.users)

    def test_cascading_removal(self):
        # users u0-u2 share items i0-i2 heavily; u3 only touches i3 and i0.
        # with k=2, i3 (degree 1) goes first, dropping u3 below k, whose
        # removal then leaves i0's count reduced but still >= 2.
        rows = []
        t = 0
        for u in range(3):
            for i in range(3):
                rows.append((f"u{u}", f"i{i}", t, ["c0"]))
                t += 1
        rows.append(("u3", "i3", t, ["c0"]))
        rows.append(("u3", "i0", t + 1, ["c0"]))
        log = log_from_rows(rows)
        filtered = k_core_filter(log, k=2)
        assert set(filtered.user_ids) == {"u0", "u1", "u2"}
        assert set(filtered.item_ids) == {"i0", "i1", "i2"}
        # degree bound holds for every survivor
        assert np.bincount(filtered.users).min() >= 2
        assert np.bincount(filtered.items).min() >= 2

    def test_empty_result_rejected(self):
        log = synthetic_log(n_users=2, n_items=8, per_user=3)
        with pytest.raises(ValueError):
            k_core_filter(log, k=50)


class TestTemporalSplit:
    def test_twelve_actions_t1(self):
        rows = [("u0", f"i{j}", j, ["c0"]) for j in range(12)]
        log = log_from_rows(rows)
        split = temporal_split(log, T=1)
        assert len(split.train[0]) == 9  # floor(0.9 * 11)
        assert len(split.valid[0]) == 2
        assert len(split.test[0]) == 1

    def test_too_short_user_dropped(self):
        rows = [("u0", f"i{j}", j, ["c0"]) for j in range(3)]
        log = log_from_rows(rows)
        split = temporal_split(log, T=2)
        assert split.dropped_users == [0]
        assert split.train[0] == []

    def test_partition_no_overlap(self):
        log = synthetic_log(n_users=3, n_items=20, per_user=15)
        split = temporal_split(log, T=3)
        for u in range(3):
            rebuilt = split.train[u] + split.valid[u] + split.test[u]
            assert rebuilt == log.items[log.users == u].tolist()

    def test_timestamp_ties_keep_input_order(self):
        rows = [("u0", f"i{j}", 5 - (j == 2), ["c0"]) for j in range(6)]
        split = temporal_split(log_from_rows(rows), T=1)
        assert split.train[0] + split.valid[0] + split.test[0] == [2, 0, 1, 3, 4, 5]


class TestMakeInstances:
    def test_exact_window_single_instance(self):
        split = SplitResult(train=[list(range(8))], valid=[[8]], test=[[9]], dropped_users=[])
        instances = make_instances(split, 30, L=5, T=3, Z=3, seed=0)
        assert len(instances) == 1
        assert instances.items.shape == (1, 11)
        assert instances.items[0, :8].tolist() == [0, 1, 2, 3, 4, 5, 6, 7]
        assert instances.users.tolist() == [0]
        assert instances.time_steps.tolist() == [5]

    def test_stride_one_count(self):
        split = SplitResult(train=[list(range(10))], valid=[[10]], test=[[11]], dropped_users=[])
        instances = make_instances(split, 40, L=5, T=3, Z=3, seed=0)
        assert len(instances) == 3

    def test_negatives_disjoint_from_history(self):
        split = SplitResult(
            train=[list(range(12))], valid=[[12]], test=[[13]], dropped_users=[]
        )
        history = user_histories(split)[0]
        for seed in range(100):
            for negatives in make_instances(split, 50, L=5, T=3, Z=3, seed=seed).items[:, 8:]:
                assert not set(negatives.tolist()) & history
                assert len(set(negatives.tolist())) == 3

    def test_deterministic(self):
        split = SplitResult(train=[list(range(15))], valid=[[15]], test=[[16]], dropped_users=[])
        a = make_instances(split, 60, L=5, T=2, Z=2, seed=9)
        b = make_instances(split, 60, L=5, T=2, Z=2, seed=9)
        for column in ("users", "items", "time_steps"):
            assert np.array_equal(getattr(a, column), getattr(b, column))

    def test_negatives_equal_the_catalog_scan(self):
        """The unseen pool from a history mask is the array that a scan over
        the catalog built, so `rng.choice` draws the same negatives."""
        def scan_negatives(split, n_items, L, T, Z, seed):
            histories = user_histories(split)
            out = []
            for u, seq in enumerate(split.train):
                if len(seq) < L + T:
                    continue
                rng = np.random.default_rng(np.random.SeedSequence([seed, u]))
                pool = np.asarray([i for i in range(n_items) if i not in histories[u]], dtype=int)
                if pool.size < Z:
                    continue
                for start in range(len(seq) - L - T + 1):
                    window = seq[start : start + L + T]
                    if len(set(window)) == len(window):
                        out.append(tuple(int(x) for x in rng.choice(pool, size=Z, replace=False)))
            return out

        setup = np.random.default_rng(4)
        drawn = 0
        for case in range(20):
            n_items = int(setup.integers(12, 60))
            parts = [
                [[int(i) for i in setup.integers(n_items, size=setup.integers(k))] for _ in range(6)]
                for k in (25, 4, 4)
            ]
            split = SplitResult(*parts, dropped_users=[])
            instances = make_instances(split, n_items, 4, 2, 3, seed=case)
            got = [tuple(n) for n in instances.items[:, 6:].tolist()]
            assert got == scan_negatives(split, n_items, 4, 2, 3, seed=case), case
            drawn += len(got)
        assert drawn > 100

    def test_short_user_contributes_nothing(self):
        split = SplitResult(train=[[0, 1, 2]], valid=[[3]], test=[[4]], dropped_users=[])
        instances = make_instances(split, 30, L=5, T=3, Z=3, seed=0)
        assert len(instances) == 0
        assert instances.items.shape == (0, 11)


class TestDefaults:
    def test_t1(self):
        assert default_lengths(1) == (5, 2)

    def test_t3(self):
        assert default_lengths(3) == (6, 3)

    def test_t5(self):
        assert default_lengths(5) == (6, 5)


def test_split_manifest(tmp_path):
    log = synthetic_log(n_users=3, n_items=20, per_user=10)
    split = temporal_split(log, T=2)
    path = tmp_path / "manifest.tsv"
    write_split_manifest(path, split)
    lines = path.read_text().splitlines()
    assert lines[0] == "user\tn_train\tn_valid\tn_test"
    assert len(lines) == 4


class TestParseIntRows:
    def test_tabs_and_commas(self):
        rows = parse_int_rows(["0\t1,2\t3", "4\t5,6\t-7"], 4, "f")
        assert rows.dtype == np.intp
        assert rows.tolist() == [[0, 1, 2, 3], [4, 5, 6, -7]]

    def test_no_lines(self):
        assert parse_int_rows([], 3, "f").shape == (0, 3)

    @pytest.mark.parametrize(
        "lines",
        [
            ["1,2,3", "4"],  # the right field count in total, not per line
            ["1,2", "3,4,5"],
            ["1,2", "3"],
            ["1,2", ""],
            ["1,", "2"],
        ],
    )
    def test_other_widths_rejected(self, lines):
        with pytest.raises(ValueError, match="^f: a line does not hold 2 fields"):
            parse_int_rows(lines, 2, "f")

    @pytest.mark.parametrize("field", ["x", "2.5", "", "9" * 20])
    def test_other_fields_rejected(self, field):
        with pytest.raises(ValueError, match="^f: "):
            parse_int_rows(["0,1", f"1,{field}"], 2, "f")
