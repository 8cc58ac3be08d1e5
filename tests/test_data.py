"""Ingestion, k-core filtering, temporal splits, and instance generation."""

import numpy as np
import pytest

from dppseq.data import (
    InteractionLog,
    default_lengths,
    k_core_filter,
    load_interactions,
    make_instances,
    temporal_split,
    user_histories,
    write_interactions,
    write_split_manifest,
)


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
    from dppseq.data import _build_log

    return _build_log(rows)


class TestLoadInteractions:
    def test_well_formed(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(
            path,
            [("u1", "i1", 10, "c1"), ("u1", "i2", 11, "c1;c2"), ("u2", "i1", 12, "c2")],
        )
        log = load_interactions(path)
        assert len(log.records) == 3
        assert log.n_users == 2
        assert log.n_items == 2
        assert log.n_categories == 2
        assert log.item_categories[log.item_ids.index("i2")] == frozenset({0, 1})

    def test_empty_category_rejected_strict(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, [("u1", "i1", 10, "c1"), ("u1", "i2", 11, "")])
        with pytest.raises(ValueError, match="3"):
            load_interactions(path)

    def test_lenient_mode_skips(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, [("u1", "i1", 10, "c1"), ("u1", "i2", 11, "")])
        log = load_interactions(path, strict=False)
        assert len(log.records) == 1

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
        assert loaded.records == log.records
        assert loaded.user_ids == log.user_ids
        assert loaded.item_ids == log.item_ids


class TestKCoreFilter:
    def test_identity_when_satisfied(self):
        log = synthetic_log(n_users=4, n_items=4, per_user=4)
        filtered = k_core_filter(log, k=2)
        assert len(filtered.records) == len(log.records)

    def test_k1_is_identity(self):
        log = synthetic_log()
        assert len(k_core_filter(log, k=1).records) == len(log.records)

    def test_cascading_removal(self):
        # users u0-u2 share items i0-i2 heavily; u3 only touches i3 and i0.
        # with k=2, i3 (degree 1) goes first, dropping u3 below k, whose
        # removal then leaves i0's count reduced but still >= 2.
        from dppseq.data import _build_log

        rows = []
        t = 0
        for u in range(3):
            for i in range(3):
                rows.append((f"u{u}", f"i{i}", t, ["c0"]))
                t += 1
        rows.append(("u3", "i3", t, ["c0"]))
        rows.append(("u3", "i0", t + 1, ["c0"]))
        log = _build_log(rows)
        filtered = k_core_filter(log, k=2)
        assert set(filtered.user_ids) == {"u0", "u1", "u2"}
        assert set(filtered.item_ids) == {"i0", "i1", "i2"}
        # degree bound holds for every survivor
        user_deg = {}
        item_deg = {}
        for rec in filtered.records:
            user_deg[rec.user] = user_deg.get(rec.user, 0) + 1
            item_deg[rec.item] = item_deg.get(rec.item, 0) + 1
        assert min(user_deg.values()) >= 2
        assert min(item_deg.values()) >= 2

    def test_empty_result_rejected(self):
        log = synthetic_log(n_users=2, n_items=8, per_user=3)
        with pytest.raises(ValueError):
            k_core_filter(log, k=50)


class TestTemporalSplit:
    def test_twelve_actions_t1(self):
        from dppseq.data import _build_log

        rows = [("u0", f"i{j}", j, ["c0"]) for j in range(12)]
        log = _build_log(rows)
        split = temporal_split(log, T=1)
        assert len(split.train[0]) == 9  # floor(0.9 * 11)
        assert len(split.valid[0]) == 2
        assert len(split.test[0]) == 1

    def test_too_short_user_dropped(self):
        from dppseq.data import _build_log

        rows = [("u0", f"i{j}", j, ["c0"]) for j in range(3)]
        log = _build_log(rows)
        split = temporal_split(log, T=2)
        assert split.dropped_users == [0]
        assert split.train[0] == []

    def test_partition_no_overlap(self):
        log = synthetic_log(n_users=3, n_items=20, per_user=15)
        split = temporal_split(log, T=3)
        sequences = log.user_sequences()
        for u in range(3):
            rebuilt = split.train[u] + split.valid[u] + split.test[u]
            assert rebuilt == sequences[u]

    def test_timestamp_ties_keep_input_order(self):
        from dppseq.data import _build_log

        rows = [("u0", f"i{j}", 5, ["c0"]) for j in range(6)]
        log = _build_log(rows)
        assert log.user_sequences()[0] == list(range(6))


class TestMakeInstances:
    def make_split(self, train_len, n_items=30):
        from dppseq.data import _build_log

        rows = [("u0", f"i{j}", j, ["c0"]) for j in range(train_len + 3)]
        log = _build_log(rows)
        split = temporal_split(log, T=1)
        return log, split

    def test_exact_window_single_instance(self):
        from dppseq.data import SplitResult

        split = SplitResult(train=[list(range(8))], valid=[[8]], test=[[9]], dropped_users=[])
        instances = make_instances(split, 30, L=5, T=3, Z=3, seed=0)
        assert len(instances) == 1
        assert instances[0].previous == (0, 1, 2, 3, 4)
        assert instances[0].targets == (5, 6, 7)

    def test_stride_one_count(self):
        from dppseq.data import SplitResult

        split = SplitResult(train=[list(range(10))], valid=[[10]], test=[[11]], dropped_users=[])
        instances = make_instances(split, 40, L=5, T=3, Z=3, seed=0)
        assert len(instances) == 3

    def test_negatives_disjoint_from_history(self):
        from dppseq.data import SplitResult

        split = SplitResult(
            train=[list(range(12))], valid=[[12]], test=[[13]], dropped_users=[]
        )
        history = user_histories(split)[0]
        for seed in range(100):
            for inst in make_instances(split, 50, L=5, T=3, Z=3, seed=seed):
                assert not set(inst.negatives) & history
                assert len(set(inst.negatives)) == 3

    def test_deterministic(self):
        from dppseq.data import SplitResult

        split = SplitResult(train=[list(range(15))], valid=[[15]], test=[[16]], dropped_users=[])
        a = make_instances(split, 60, L=5, T=2, Z=2, seed=9)
        b = make_instances(split, 60, L=5, T=2, Z=2, seed=9)
        assert a == b

    def test_negatives_equal_the_catalog_scan(self):
        """The unseen pool from a history mask is the array that a scan over
        the catalog built, so `rng.choice` draws the same negatives."""
        from dppseq.data import SplitResult

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
            got = [inst.negatives for inst in make_instances(split, n_items, 4, 2, 3, seed=case)]
            assert got == scan_negatives(split, n_items, 4, 2, 3, seed=case), case
            drawn += len(got)
        assert drawn > 100

    def test_short_user_contributes_nothing(self):
        from dppseq.data import SplitResult

        split = SplitResult(train=[[0, 1, 2]], valid=[[3]], test=[[4]], dropped_users=[])
        assert make_instances(split, 30, L=5, T=3, Z=3, seed=0) == []


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
