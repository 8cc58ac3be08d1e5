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
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

log = logging.getLogger(__name__)

EXPECTED_HEADER = ["user_id", "item_id", "timestamp", "categories"]


@dataclass(eq=False)
class InteractionLog:
    """The interaction rows as columns, in file order."""

    users: np.ndarray  # (R,) dense user index of each row
    items: np.ndarray  # (R,) dense item index
    timestamps: np.ndarray  # (R,) int64
    categories: np.ndarray  # (R,) str: the row's distinct category ids, sorted, joined by ";"
    user_ids: list[str]  # dense index -> original id
    item_ids: list[str]
    category_ids: list[str]
    item_categories: np.ndarray  # (M, C) bool: row i marks item i's categories over all its rows

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def n_categories(self) -> int:
        return len(self.category_ids)


@dataclass(frozen=True)
class SequenceInstance:
    """One training instance; `Instances` holds them as arrays."""

    user: int
    previous: tuple[int, ...]
    targets: tuple[int, ...]
    negatives: tuple[int, ...]
    time_step: int


@dataclass(eq=False)
class Instances:
    """Training instances of one layout, one per row: the ground set
    `items[k]` holds L previous items, T targets and Z negatives of user
    `users[k]`, whose targets start at `time_steps[k]` of their training
    sequence."""

    users: np.ndarray  # (N,)
    items: np.ndarray  # (N, L+T+Z)
    time_steps: np.ndarray  # (N,)
    L: int
    T: int

    def __len__(self) -> int:
        return self.users.shape[0]


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


def _codes(labels: Sequence) -> tuple[list, np.ndarray]:
    """The distinct labels in order of first appearance, and the index of
    each label among them."""
    distinct = list(dict.fromkeys(labels))
    index = {label: k for k, label in enumerate(distinct)}
    return distinct, np.fromiter(map(index.__getitem__, labels), np.intp, len(labels))


def _build_log(
    users: Sequence[str],
    items: Sequence[str],
    timestamps: Sequence[int],
    categories: Sequence[str],
) -> InteractionLog:
    """A log from label columns, each category cell a ";"-separated list.
    Users, items and categories are indexed densely in order of first
    appearance, a row's categories in the order listed."""
    user_ids, user_codes = _codes(users)
    item_ids, item_codes = _codes(items)
    cells, cell_codes = _codes(categories)
    parts = [[c for c in cell.split(";") if c] for cell in cells]
    category_ids = list(dict.fromkeys(chain.from_iterable(parts)))
    index = {c: k for k, c in enumerate(category_ids)}
    canonical = np.array([";".join(sorted(set(p))) for p in parts], dtype=object)
    cell_categories = np.zeros((len(cells), len(category_ids)), dtype=bool)
    for cell, p in enumerate(parts):
        cell_categories[cell, [index[c] for c in p]] = True
    pairs = np.unique(item_codes * len(cells) + cell_codes)
    item_categories = np.zeros((len(item_ids), len(category_ids)), dtype=bool)
    np.logical_or.at(item_categories, pairs // len(cells), cell_categories[pairs % len(cells)])
    return InteractionLog(
        users=user_codes,
        items=item_codes,
        timestamps=np.asarray(timestamps, dtype=np.int64),
        categories=canonical[cell_codes],
        user_ids=user_ids,
        item_ids=item_ids,
        category_ids=category_ids,
        item_categories=item_categories,
    )


def load_interactions(path) -> InteractionLog:
    """Parse the interaction CSV into a densely indexed log."""
    rows: list[tuple[str, str, int, str]] = []
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
                if not user_s or not item_s or not cats_s.strip(";"):
                    raise ValueError
                rows.append((user_s, item_s, int(ts_s), cats_s))
            except ValueError:
                malformed.append(lineno)
    if malformed:
        raise ValueError(f"malformed lines: {malformed[:10]} ({len(malformed)} total)")
    try:
        return _build_log(*(tuple(zip(*rows)) or ((),) * 4))
    except OverflowError:
        raise ValueError("timestamps must fit in 64 bits") from None


def write_interactions(path, log_: InteractionLog) -> None:
    """One row per interaction, in the log's order, with the row's own categories."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(EXPECTED_HEADER)
        writer.writerows(
            zip(
                np.asarray(log_.user_ids, dtype=object)[log_.users],
                np.asarray(log_.item_ids, dtype=object)[log_.items],
                log_.timestamps.tolist(),
                log_.categories,
            )
        )


def k_core_filter(log_: InteractionLog, k: int = 10) -> InteractionLog:
    """Drop users and items with fewer than k interactions until a fixed
    point, then index the surviving rows afresh, as a file of them would be."""
    if k < 1:
        raise ValueError("k must be >= 1")
    keep = np.ones(log_.users.shape, dtype=bool)
    while True:
        user_deg = np.bincount(log_.users[keep], minlength=log_.n_users)
        item_deg = np.bincount(log_.items[keep], minlength=log_.n_items)
        kept = keep & (user_deg[log_.users] >= k) & (item_deg[log_.items] >= k)
        if np.array_equal(kept, keep):
            break
        keep = kept
    if not keep.any():
        raise ValueError(f"no interactions survive {k}-core filtering")
    return _build_log(
        np.asarray(log_.user_ids, dtype=object)[log_.users[keep]].tolist(),
        np.asarray(log_.item_ids, dtype=object)[log_.items[keep]].tolist(),
        log_.timestamps[keep],
        log_.categories[keep].tolist(),
    )


def temporal_split(log_: InteractionLog, T: int) -> SplitResult:
    """Per user: last T actions to test; of the rest, first 90% (floor) to
    train and the remainder to validation.  Users that cannot fill all three
    parts are dropped.  A user's actions are ordered by timestamp, ties in
    file order."""
    order = np.lexsort((log_.timestamps, log_.users))
    items = log_.items[order].tolist()
    ends = np.cumsum(np.bincount(log_.users, minlength=log_.n_users)).tolist()
    train, valid, test, dropped = [], [], [], []
    for u, end in enumerate(ends):
        seq = items[ends[u - 1] if u else 0 : end]
        if len(seq) <= T + 1:
            dropped.append(u)
            seq = []
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
) -> Instances:
    """Slide a length L+T window with stride 1 over each user's training
    sequence; negatives are drawn uniformly from items the user never
    interacted with (across all splits)."""
    if L < 1 or T < 1 or Z < 1:
        raise ValueError("L, T, Z must all be >= 1")
    lengths = np.fromiter(map(len, split.train), np.intp, len(split.train))
    ends = np.cumsum(lengths)
    flat = np.fromiter(chain.from_iterable(split.train), np.intp, int(lengths.sum()))
    # every window of the concatenated sequences, kept where it lies within
    # one user's sequence and holds distinct items: repeated interactions
    # break the distinct-items ground-set contract, so such windows carry
    # no usable set signal
    if flat.size >= L + T:
        windows = sliding_window_view(flat, L + T)
    else:
        windows = np.empty((0, L + T), dtype=np.intp)
    owner = np.repeat(np.arange(lengths.size), lengths)[: len(windows)]
    ordered = np.sort(windows, axis=1)
    rows = np.flatnonzero(
        (np.arange(len(windows)) + L + T <= ends[owner])
        & np.all(ordered[:, 1:] != ordered[:, :-1], axis=1)
    )
    users = owner[rows]
    counts = np.bincount(users, minlength=lengths.size).tolist()
    negatives = np.empty((rows.size, Z), dtype=np.intp)
    drawn = np.ones(rows.size, dtype=bool)
    at = 0  # rows run in flat order, so each user's rows are one run
    for u in np.flatnonzero(lengths >= L + T).tolist():
        rng = np.random.default_rng(np.random.SeedSequence([seed, u]))
        seen = np.zeros(n_items, dtype=bool)
        seen[split.train[u] + split.valid[u] + split.test[u]] = True
        pool = np.flatnonzero(~seen)
        if pool.size < Z:
            log.warning("user %d has too few unseen items for Z=%d negatives", u, Z)
            drawn[at : at + counts[u]] = False
        else:
            for k in range(at, at + counts[u]):
                negatives[k] = rng.choice(pool, size=Z, replace=False)
        at += counts[u]
    rows, users = rows[drawn], users[drawn]
    return Instances(
        users=users,
        items=np.hstack([windows[rows], negatives[drawn]]),
        time_steps=rows - (ends - lengths)[users] + L,
        L=L,
        T=T,
    )


def write_split_manifest(path, split: SplitResult) -> None:
    """Per-user boundary counts so a split can be reproduced exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("user\tn_train\tn_valid\tn_test\n")
        for u in range(len(split.train)):
            fh.write(
                f"{u}\t{len(split.train[u])}\t{len(split.valid[u])}\t{len(split.test[u])}\n"
            )


def parse_int_rows(lines: Sequence[str], width: int, source) -> np.ndarray:
    """Lines of `width` tab- or comma-separated integers as a (len(lines),
    width) intp array.  Raises ValueError, naming `source`, on any other line."""
    # a "\n" field closes each line, so every line's field count shows
    fields = "\t\n\t".join([*lines, ""]).replace(",", "\t").split("\t")
    if len(fields) != len(lines) * (width + 1) + 1 or set(fields[width :: width + 1]) - {"\n"}:
        raise ValueError(f"{source}: a line does not hold {width} fields")
    del fields[width :: width + 1], fields[-1]  # the markers, then the final ""
    try:
        return np.array(fields, dtype=np.intp).reshape(len(lines), width)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{source}: {exc}") from None


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
