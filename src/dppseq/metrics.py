"""Top-N quality (recall, NDCG), diversity (category coverage), and
harmonic trade-off metrics, plus the block top-N ranking they are taken on."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np


def f_score(quality: float, diversity: float) -> float:
    """Harmonic mean of a quality score and a diversity score; 0 at 0+0."""
    if quality + diversity == 0:
        return 0.0
    return 2.0 * quality * diversity / (quality + diversity)


@dataclass
class MetricRow:
    loss: str
    T: int
    N: int
    recall: float
    ndcg: float
    cc: float
    f: float


_COLUMNS = ["loss", "T", "N", "recall", "ndcg", "cc", "f"]


@dataclass
class MetricTable:
    rows: list[MetricRow]

    def write_csv(self, path, stamp: str) -> None:
        """Write the stamp line, then the rows with 6 decimals per metric."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(stamp)
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(_COLUMNS)
            for r in self.rows:
                writer.writerow(
                    [r.loss, r.T, r.N, f"{r.recall:.6f}", f"{r.ndcg:.6f}", f"{r.cc:.6f}", f"{r.f:.6f}"]
                )

    @classmethod
    def read_csv(cls, path) -> "MetricTable":
        """Read a table that `write_csv` wrote, skipping its stamp."""
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(line for line in fh if not line.startswith("#"))
            if next(reader, None) != _COLUMNS:
                raise ValueError(f"{path} is not a metric table")
            return cls([MetricRow(r[0], int(r[1]), int(r[2]), *map(float, r[3:])) for r in reader])


RANK_BLOCK_USERS = 128  # users ranked at once; a block holds this many rows of M scores


def rank_candidates(
    scores: np.ndarray, exclude: tuple[np.ndarray, np.ndarray], top: int
) -> np.ndarray:
    """The top `top` items of each row of a (B, M) block of full-catalog
    scores, best first, as a (B, top) array.  A row with fewer than `top`
    candidates keeps them all and is padded with -1.

    `exclude` is a pair of flat index arrays (rows, items), and each listed
    item is left out of its row; so is every NaN or -inf score.  Each row is
    partitioned at its `top`-th smallest -score, and the items up to and tied
    with that value are ordered by (-score, item index).  That is the prefix
    a stable sort on -score gives, with ties to the lower item index.
    """
    neg = -np.asarray(scores, dtype=float)
    neg[np.isnan(neg)] = np.inf
    neg[exclude] = np.inf
    keep = neg < np.inf
    if top < neg.shape[1]:
        keep &= neg <= np.partition(neg, top - 1, axis=1)[:, top - 1 : top]
    # np.nonzero lists each row's survivors in item order, and lexsort is stable
    rows, items = np.nonzero(keep)
    order = np.lexsort((neg[rows, items], rows))
    rows, items = rows[order], items[order]
    rank = np.arange(rows.size) - np.searchsorted(rows, rows)
    first = rank < top
    ranked = np.full((neg.shape[0], top), -1, dtype=np.intp)
    ranked[rows[first], rank[first]] = items[first]
    return ranked


def flat_index(lists: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """The (rows, items) flat index arrays of one collection of items per row."""
    counts = [len(x) for x in lists]
    items = np.fromiter(chain.from_iterable(lists), dtype=np.intp, count=sum(counts))
    return np.repeat(np.arange(len(counts)), counts), items


def category_incidence(item_categories: Sequence[frozenset]) -> np.ndarray:
    """(M + 1, C) table whose row i marks item i's categories.  The last row
    marks none, so the -1 padding of `rank_candidates` covers nothing."""
    items, cats = flat_index(item_categories)
    table = np.zeros((len(item_categories) + 1, cats.max(initial=-1) + 1), dtype=bool)
    table[items, cats] = True
    return table


def user_metrics(
    ranked: np.ndarray,
    relevant: Sequence[Sequence[int]],
    N_list: Sequence[int],
    incidence: np.ndarray | None = None,
    n_categories: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Recall, NDCG and category coverage at each N, per user, from (U, K)
    top items (best first, `rank_candidates` output, K >= max(N_list)).

    Returns `kept`, the (U,) mask of users with a relevant item and a ranked
    item, and a (3, len(N_list), kept.sum()) array of their values.  Repeated
    relevant items count once.  NDCG has binary relevance and a 1/log2(rank+1)
    discount; DCG is a running sum in rank order.  Coverage is the share of
    `n_categories` that the top N items' rows of `incidence` (see
    `category_incidence`) mark, and 0 without it.  Users go through in blocks
    of RANK_BLOCK_USERS.
    """
    cols = np.asarray(N_list) - 1
    # each discount is the scalar expression, so that values match a per-user loop bit for bit
    discount = np.array([1.0 / np.log2(rank + 2) for rank in range(ranked.shape[1])])
    ideal = np.cumsum(discount)  # the DCG of n hits at ranks 0..n-1
    kept = np.zeros(len(ranked), dtype=bool)
    parts = []
    for start in range(0, len(ranked), RANK_BLOCK_USERS):
        block = ranked[start : start + RANK_BLOCK_USERS]
        rows, items = flat_index(relevant[start : start + RANK_BLOCK_USERS])
        # one column per item, and a last one that the -1 padding indexes
        width = max(block.max(initial=-1), items.max(initial=-1)) + 2
        is_relevant = np.zeros((len(block), width), dtype=bool)
        is_relevant[rows, items] = True
        n_relevant = np.count_nonzero(is_relevant, axis=1)
        ok = (n_relevant > 0) & (block[:, 0] >= 0)
        kept[start : start + len(block)] = ok
        block, n_relevant = block[ok], n_relevant[ok, None]
        hits = np.take_along_axis(is_relevant[ok], block, axis=1)
        recall = np.cumsum(hits, axis=1)[:, cols] / n_relevant
        dcg = np.cumsum(np.where(hits, discount, 0.0), axis=1)[:, cols]
        ndcg = dcg / ideal[np.minimum(cols + 1, n_relevant) - 1]
        cc = np.zeros_like(recall)
        if incidence is not None:
            covered = np.logical_or.accumulate(incidence[block], axis=1)
            cc = np.count_nonzero(covered, axis=2)[:, cols] / n_categories
        parts.append(np.stack([recall.T, ndcg.T, cc.T]))
    values = np.concatenate(parts, axis=2) if parts else np.zeros((3, len(cols), 0))
    return kept, values


def evaluate_ranking_fn(
    ranked: np.ndarray,
    relevant_per_user: Sequence[Sequence[int]],
    item_categories: Sequence[frozenset],
    n_categories: int,
    N_list: Sequence[int] = (3, 5, 10),
    loss_name: str = "",
    T: int = 0,
) -> MetricTable:
    """Mean Recall, NDCG and category coverage at each N over users, from
    each user's top items (`rank_candidates` output, see `user_metrics`).

    Users with no relevant items or no ranked items are left out of the
    averages; a ValueError is raised when no user is left.
    """
    if n_categories < 1:
        raise ValueError("n_categories must be >= 1")
    incidence = category_incidence(item_categories)
    _, values = user_metrics(ranked, relevant_per_user, N_list, incidence, n_categories)
    if not values.shape[2]:
        raise ValueError("no users were evaluable")
    rows = []
    for k, N in enumerate(N_list):
        re, nd, cc = (float(np.mean(v)) for v in values[:, k])
        rows.append(MetricRow(loss_name, T, N, re, nd, cc, f_score(0.5 * (re + nd), cc)))
    return MetricTable(rows=rows)
