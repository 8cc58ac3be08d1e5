"""Dataset ingestion, k-core filtering, temporal splitting, training
instance construction, and the checkpoint text format.

Input CSV schema (header required):
    user_id,item_id,timestamp,categories
where `categories` is a semicolon-separated, nonempty list of category ids.
Timestamps order each user's sequence; ties keep input-file order.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

log = logging.getLogger(__name__)

EXPECTED_HEADER = ["user_id", "item_id", "timestamp", "categories"]


@dataclass(frozen=True)
class Record:
    user: int  # dense index
    item: int
    timestamp: int
    categories: frozenset


@dataclass
class InteractionLog:
    records: list[Record]
    user_ids: list[str]  # dense index -> original id
    item_ids: list[str]
    category_ids: list[str]
    item_categories: list[frozenset] = field(default_factory=list)  # by item index

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def n_categories(self) -> int:
        return len(self.category_ids)

    def user_sequences(self) -> list[list[int]]:
        """Per-user item sequences, timestamp-sorted with stable tie-break."""
        seqs: list[list[tuple[int, int]]] = [[] for _ in range(self.n_users)]
        for order, rec in enumerate(self.records):
            seqs[rec.user].append((rec.timestamp, order))
        out: list[list[int]] = []
        for u, entries in enumerate(seqs):
            entries.sort()
            out.append([self.records[order].item for _, order in entries])
        return out


@dataclass(frozen=True)
class SequenceInstance:
    user: int
    previous: tuple[int, ...]
    targets: tuple[int, ...]
    negatives: tuple[int, ...]
    time_step: int


@dataclass
class SplitResult:
    train: list[list[int]]  # per user index; empty list = user dropped
    valid: list[list[int]]
    test: list[list[int]]
    dropped_users: list[int]


def default_lengths(T: int) -> tuple[int, int]:
    """(L, Z) defaults: L=5, Z=2 when predicting a single target, else L=6, Z=T."""
    if T == 1:
        return 5, 2
    return 6, T


def _build_log(rows: list[tuple[str, str, int, list[str]]]) -> InteractionLog:
    user_map: dict[str, int] = {}
    item_map: dict[str, int] = {}
    cat_map: dict[str, int] = {}
    records: list[Record] = []
    item_cats: dict[int, set] = {}
    for user_s, item_s, ts, cats in rows:
        u = user_map.setdefault(user_s, len(user_map))
        i = item_map.setdefault(item_s, len(item_map))
        cat_idx = frozenset(cat_map.setdefault(c, len(cat_map)) for c in cats)
        records.append(Record(user=u, item=i, timestamp=ts, categories=cat_idx))
        item_cats.setdefault(i, set()).update(cat_idx)
    return InteractionLog(
        records=records,
        user_ids=list(user_map),
        item_ids=list(item_map),
        category_ids=list(cat_map),
        item_categories=[frozenset(item_cats[i]) for i in range(len(item_map))],
    )


def load_interactions(path, strict: bool = True) -> InteractionLog:
    """Parse the interaction CSV into a densely indexed log."""
    rows: list[tuple[str, str, int, list[str]]] = []
    malformed: list[int] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != EXPECTED_HEADER:
            raise ValueError(f"expected header {','.join(EXPECTED_HEADER)}")
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
        if strict:
            raise ValueError(f"malformed lines: {malformed[:10]} ({len(malformed)} total)")
        log.warning("skipped %d malformed lines", len(malformed))
    return _build_log(rows)


def write_interactions(path, log_: InteractionLog) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(EXPECTED_HEADER)
        for rec in log_.records:
            writer.writerow(
                [
                    log_.user_ids[rec.user],
                    log_.item_ids[rec.item],
                    rec.timestamp,
                    ";".join(sorted(log_.category_ids[c] for c in rec.categories)),
                ]
            )


def k_core_filter(log_: InteractionLog, k: int = 10) -> InteractionLog:
    """Drop users and items with fewer than k interactions until a fixed point."""
    if k < 1:
        raise ValueError("k must be >= 1")
    records = log_.records
    while True:
        user_deg: dict[int, int] = {}
        item_deg: dict[int, int] = {}
        for rec in records:
            user_deg[rec.user] = user_deg.get(rec.user, 0) + 1
            item_deg[rec.item] = item_deg.get(rec.item, 0) + 1
        keep = [
            rec
            for rec in records
            if user_deg[rec.user] >= k and item_deg[rec.item] >= k
        ]
        if len(keep) == len(records):
            break
        records = keep
    if not records:
        raise ValueError(f"no interactions survive {k}-core filtering")
    rows = [
        (
            log_.user_ids[rec.user],
            log_.item_ids[rec.item],
            rec.timestamp,
            sorted(log_.category_ids[c] for c in rec.categories),
        )
        for rec in records
    ]
    return _build_log(rows)


def temporal_split(log_: InteractionLog, T: int) -> SplitResult:
    """Per user: last T actions to test; of the rest, first 90% (floor) to
    train and the remainder to validation.  Users that cannot fill all three
    parts are dropped."""
    sequences = log_.user_sequences()
    train, valid, test, dropped = [], [], [], []
    for u, seq in enumerate(sequences):
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
    if dropped:
        log.info("dropped %d users too short for a %d-target split", len(dropped), T)
    return SplitResult(train=train, valid=valid, test=test, dropped_users=dropped)


def user_histories(split: SplitResult) -> list[set[int]]:
    """Full (train+valid+test) interacted-item sets per user."""
    return [
        set(tr) | set(va) | set(te)
        for tr, va, te in zip(split.train, split.valid, split.test)
    ]


def make_instances(
    split: SplitResult,
    n_items: int,
    L: int,
    T: int,
    Z: int,
    seed: int = 0,
) -> list[SequenceInstance]:
    """Slide a length L+T window with stride 1 over each user's training
    sequence; negatives are drawn uniformly from items the user never
    interacted with (across all splits)."""
    if L < 1 or T < 1 or Z < 1:
        raise ValueError("L, T, Z must all be >= 1")
    histories = user_histories(split)
    instances: list[SequenceInstance] = []
    for u, seq in enumerate(split.train):
        if len(seq) < L + T:
            continue
        rng = np.random.default_rng(np.random.SeedSequence([seed, u]))
        seen = np.zeros(n_items, dtype=bool)
        seen[list(histories[u])] = True
        pool = np.flatnonzero(~seen)
        if pool.size < Z:
            log.warning("user %d has too few unseen items for Z=%d negatives", u, Z)
            continue
        for start in range(len(seq) - L - T + 1):
            window = seq[start : start + L + T]
            if len(set(window)) != len(window):
                # repeated interactions break the distinct-items ground-set
                # contract; such windows carry no usable set signal
                continue
            previous = tuple(window[:L])
            targets = tuple(window[L:])
            negatives = tuple(int(x) for x in rng.choice(pool, size=Z, replace=False))
            instances.append(
                SequenceInstance(
                    user=u,
                    previous=previous,
                    targets=targets,
                    negatives=negatives,
                    time_step=start + L,
                )
            )
    return instances


def write_split_manifest(path, split: SplitResult) -> None:
    """Per-user boundary counts so a split can be reproduced exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("user\tn_train\tn_valid\tn_test\n")
        for u in range(len(split.train)):
            fh.write(
                f"{u}\t{len(split.train[u])}\t{len(split.valid[u])}\t{len(split.test[u])}\n"
            )


def write_checkpoint(path, header: Sequence[int], arrays: Sequence[np.ndarray]) -> None:
    """The one text format of the kernel and scorer checkpoints: one integer
    per header line, which gives the shapes, then one line of `repr` floats
    per row of each array, a 1-d array on a single line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{int(h)}\n" for h in header)
        for array in arrays:
            for row in np.atleast_2d(array):
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def read_checkpoint(
    path, n_header: int, shapes: Callable[[list[int]], Sequence[tuple[int, ...]]]
) -> tuple[list[int], list[np.ndarray]]:
    """The header and the arrays of a checkpoint, with `shapes(header)` the
    shape of each array.  Raises ValueError when an array does not have its
    shape or holds a non-finite value."""
    with open(path, encoding="utf-8") as fh:
        header = [int(fh.readline()) for _ in range(n_header)]
        arrays = []
        for shape in shapes(header):
            lines = [fh.readline() for _ in range(shape[0] if len(shape) == 2 else 1)]
            rows = np.asarray([[float(v) for v in line.split()] for line in lines])
            array = rows if len(shape) == 2 else rows[0]
            if array.shape != tuple(shape):
                raise ValueError(f"{path}: checkpoint shape does not match its header")
            if not np.all(np.isfinite(array)):
                raise ValueError(f"{path}: checkpoint holds non-finite values")
            arrays.append(array)
    return header, arrays
