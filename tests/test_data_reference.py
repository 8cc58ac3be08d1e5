"""The columnar data layer against the row-object code it replaced.

`reference_*` below are the earlier `Record`-based loader, k-core filter,
temporal split and instance builder, kept as they were.  On random logs the
columnar code must give the same ids, item categories, written CSV, splits
and instances, and `prepare` must write the files the reference writes.
"""

import csv
import io
from dataclasses import dataclass, field

import numpy as np
import pytest

from dppseq.cli import _read_instances, load_config
from dppseq.cli import main as cli_main
from dppseq.data import (
    EXPECTED_HEADER,
    k_core_filter,
    load_interactions,
    make_instances,
    temporal_split,
    write_interactions,
)
from dppseq.synthetic import make_synthetic_log


@dataclass(frozen=True)
class Record:
    user: int
    item: int
    timestamp: int
    categories: frozenset


@dataclass
class ReferenceLog:
    records: list
    user_ids: list
    item_ids: list
    category_ids: list
    item_categories: list = field(default_factory=list)

    def user_sequences(self):
        seqs = [[] for _ in self.user_ids]
        for order, rec in enumerate(self.records):
            seqs[rec.user].append((rec.timestamp, order))
        out = []
        for entries in seqs:
            entries.sort()
            out.append([self.records[order].item for _, order in entries])
        return out


def reference_build_log(rows):
    user_map, item_map, cat_map = {}, {}, {}
    records, item_cats = [], {}
    for user_s, item_s, ts, cats in rows:
        u = user_map.setdefault(user_s, len(user_map))
        i = item_map.setdefault(item_s, len(item_map))
        cat_idx = frozenset(cat_map.setdefault(c, len(cat_map)) for c in cats)
        records.append(Record(user=u, item=i, timestamp=ts, categories=cat_idx))
        item_cats.setdefault(i, set()).update(cat_idx)
    return ReferenceLog(
        records=records,
        user_ids=list(user_map),
        item_ids=list(item_map),
        category_ids=list(cat_map),
        item_categories=[frozenset(item_cats[i]) for i in range(len(item_map))],
    )


def reference_load_interactions(path):
    rows, malformed = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != EXPECTED_HEADER:
            raise ValueError("bad header")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                user_s, item_s, ts_s, cats_s = row
                cats = [c for c in cats_s.split(";") if c]
                if not cats or not user_s or not item_s:
                    raise ValueError
                rows.append((user_s, item_s, int(ts_s), cats))
            except ValueError:
                malformed.append(lineno)
    if malformed:
        raise ValueError(f"malformed lines: {malformed[:10]} ({len(malformed)} total)")
    return reference_build_log(rows)


def reference_write_interactions(fh, log):
    writer = csv.writer(fh)
    writer.writerow(EXPECTED_HEADER)
    for rec in log.records:
        writer.writerow(
            [
                log.user_ids[rec.user],
                log.item_ids[rec.item],
                rec.timestamp,
                ";".join(sorted(log.category_ids[c] for c in rec.categories)),
            ]
        )


def reference_k_core_filter(log, k):
    """The filtered log, and the number of passes that removed rows."""
    records, passes = log.records, 0
    while True:
        user_deg, item_deg = {}, {}
        for rec in records:
            user_deg[rec.user] = user_deg.get(rec.user, 0) + 1
            item_deg[rec.item] = item_deg.get(rec.item, 0) + 1
        keep = [r for r in records if user_deg[r.user] >= k and item_deg[r.item] >= k]
        if len(keep) == len(records):
            break
        records, passes = keep, passes + 1
    if not records:
        raise ValueError(f"no interactions survive {k}-core filtering")
    rows = [
        (
            log.user_ids[rec.user],
            log.item_ids[rec.item],
            rec.timestamp,
            sorted(log.category_ids[c] for c in rec.categories),
        )
        for rec in records
    ]
    return reference_build_log(rows), passes


def reference_temporal_split(log, T):
    train, valid, test, dropped = [], [], [], []
    for u, seq in enumerate(log.user_sequences()):
        if len(seq) <= T + 1:
            dropped.append(u)
            train.append([])
            valid.append([])
            test.append([])
            continue
        head, tail = seq[:-T], seq[-T:]
        n_train = int(np.floor(0.9 * len(head)))
        train.append(head[:n_train])
        valid.append(head[n_train:])
        test.append(tail)
    return train, valid, test, dropped


def reference_make_instances(parts, n_items, L, T, Z, seed):
    """(user, previous, targets, negatives, time step) tuples, and the users
    skipped for too few unseen items."""
    train, valid, test, _ = parts
    instances, starved = [], []
    for u, seq in enumerate(train):
        if len(seq) < L + T:
            continue
        rng = np.random.default_rng(np.random.SeedSequence([seed, u]))
        pool = np.asarray(
            [i for i in range(n_items) if i not in set(seq) | set(valid[u]) | set(test[u])],
            dtype=int,
        )
        if pool.size < Z:
            starved.append(u)
            continue
        for start in range(len(seq) - L - T + 1):
            window = seq[start : start + L + T]
            if len(set(window)) != len(window):
                continue
            negatives = tuple(int(x) for x in rng.choice(pool, size=Z, replace=False))
            instances.append((u, tuple(window[:L]), tuple(window[L:]), negatives, start + L))
    return instances, starved


def reference_instances_body(instances):
    lines = ["user\tprevious\ttargets\tnegatives\ttime_step"]
    for u, prev, targets, negs, step in instances:
        lines.append(
            "\t".join([str(u), *(",".join(map(str, p)) for p in (prev, targets, negs)), str(step)])
        )
    return "\n".join(lines) + "\n"


def random_csv(rng):
    """A random interaction file: timestamp ties, repeated items within a
    user, duplicate, unsorted and empty category parts within a row, an
    item's categories varying by row, users of every length."""
    n_users = int(rng.integers(1, 25))
    n_items = int(rng.integers(2, 30))
    n_cats = int(rng.integers(1, 6))
    lines = [",".join(EXPECTED_HEADER)]
    for _ in range(int(rng.integers(1, 400))):
        cats = [f"c{c}" for c in rng.integers(n_cats, size=rng.integers(1, 4))]
        if rng.random() < 0.1:
            cats.insert(int(rng.integers(len(cats) + 1)), "")
        lines.append(
            f"u{rng.integers(n_users)},i{rng.integers(n_items)},"
            f"{rng.integers(0, 8)},{';'.join(cats)}"
        )
    return "\n".join(lines) + "\n"


def columns_of(log):
    return [
        log.users.tolist(),
        log.items.tolist(),
        log.timestamps.tolist(),
        log.categories.tolist(),
    ]


def reference_columns_of(log):
    return [
        [r.user for r in log.records],
        [r.item for r in log.records],
        [r.timestamp for r in log.records],
        [";".join(sorted(log.category_ids[c] for c in r.categories)) for r in log.records],
    ]


def assert_logs_equal(got, want):
    assert got.user_ids == want.user_ids
    assert got.item_ids == want.item_ids
    assert got.category_ids == want.category_ids
    table = got.item_categories
    assert table.dtype == bool and table.shape == (len(got.item_ids), len(got.category_ids))
    assert [frozenset(np.flatnonzero(row).tolist()) for row in table] == want.item_categories
    assert columns_of(got) == reference_columns_of(want)


def as_tuples(instances):
    L, T = instances.L, instances.T
    rows = zip(instances.users.tolist(), instances.items.tolist(), instances.time_steps.tolist())
    return [(u, tuple(i[:L]), tuple(i[L : L + T]), tuple(i[L + T :]), s) for u, i, s in rows]


def written(write, log):
    fh = io.StringIO(newline="")
    write(fh, log)
    return fh.getvalue()


def test_matches_the_record_reference(tmp_path):
    rng = np.random.default_rng(2024)
    seen = {"multi_pass": 0, "dropped": 0, "starved": 0, "ties": 0, "repeats": 0}
    seen.update(varying_categories=0, repeated_parts=0, empty_parts=0)
    for case in range(150):
        path = tmp_path / f"{case}.csv"
        text = random_csv(rng)
        path.write_text(text)
        got, want = load_interactions(path), reference_load_interactions(path)
        assert_logs_equal(got, want)
        by_item = {}
        for rec in want.records:
            by_item.setdefault(rec.item, set()).add(rec.categories)
        seen["varying_categories"] += any(len(c) > 1 for c in by_item.values())
        parts = [line.rsplit(",", 1)[1].split(";") for line in text.splitlines()[1:]]
        seen["repeated_parts"] += any(len(set(p) - {""}) < len(p) - p.count("") for p in parts)
        seen["empty_parts"] += any("" in p for p in parts)

        k = int(rng.integers(1, 5))
        try:
            want, passes = reference_k_core_filter(want, k)
        except ValueError:
            with pytest.raises(ValueError):
                k_core_filter(got, k)
            continue
        got = k_core_filter(got, k)
        assert_logs_equal(got, want)
        seen["multi_pass"] += passes >= 2
        out = tmp_path / "filtered.csv"
        write_interactions(out, got)
        assert out.read_bytes().decode() == written(reference_write_interactions, want)

        T = int(rng.integers(1, 4))
        split = temporal_split(got, T)
        parts = reference_temporal_split(want, T)
        assert (split.train, split.valid, split.test, split.dropped_users) == parts
        seen["dropped"] += bool(parts[3])
        stamps = {}
        for rec in want.records:
            stamps.setdefault(rec.user, []).append(rec.timestamp)
        seen["ties"] += any(len(set(t)) < len(t) for t in stamps.values())
        seen["repeats"] += any(len(set(s)) < len(s) for s in want.user_sequences())

        L, Z = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        seed = int(rng.integers(1000))
        instances = make_instances(split, got.n_items, L, T, Z, seed=seed)
        want_instances, starved = reference_make_instances(parts, len(want.item_ids), L, T, Z, seed)
        seen["starved"] += bool(starved)
        assert instances.items.shape == (len(want_instances), L + T + Z)
        assert as_tuples(instances) == want_instances
    assert min(seen.values()) > 0, seen


def test_prepare_writes_the_reference_files(tmp_path):
    """`prepare` on the acceptance determinism pipeline writes the filtered
    log, split manifest and instances the reference code writes."""
    dataset = tmp_path / "interactions.csv"
    write_interactions(
        dataset, make_synthetic_log(n_users=30, n_items=50, n_categories=5, seq_len=14, seed=0)
    )
    out = tmp_path / "out"
    config = tmp_path / "config.txt"
    config.write_text(
        f"dataset={dataset}\nout={out}\nT=2\nk_core=2\nkernel_dim=8\nkernel_epochs=5\n"
        "kernel_lr=0.01\nscorer_dim=8\nmax_epochs=3\nlosses=ce,cdsl\nseed=3\n"
    )
    assert cli_main(["--config", str(config), "prepare"]) == 0

    log, _ = reference_k_core_filter(reference_load_interactions(dataset), 2)
    want = written(reference_write_interactions, log)
    assert (out / "filtered.csv").read_bytes().decode() == want
    parts = reference_temporal_split(log, 2)
    manifest = ["user\tn_train\tn_valid\tn_test"] + [
        f"{u}\t{len(tr)}\t{len(va)}\t{len(te)}"
        for u, (tr, va, te) in enumerate(zip(*parts[:3]))
    ]
    assert (out / "split_manifest.tsv").read_text() == "\n".join(manifest) + "\n"
    instances, _ = reference_make_instances(parts, len(log.item_ids), 6, 2, 2, seed=3)
    stamped = (out / "instances.tsv").read_text().split("\n", 1)
    assert stamped[0].startswith("# config_hash=")
    assert stamped[1] == reference_instances_body(instances)
    # and `train` reads them back as the same rows
    back = _read_instances(out / "instances.tsv", load_config(str(config), {}))
    assert (back.L, back.T) == (6, 2)
    assert as_tuples(back) == instances
