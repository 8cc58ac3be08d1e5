"""Top-N quality (recall, NDCG), diversity (category coverage), and
harmonic trade-off metrics, plus the block top-N ranking they are taken on."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np


def recall_at(ranked: Sequence[int], relevant: set, N: int) -> float:
    if not relevant:
        raise ValueError("relevant set must be nonempty")
    hits = sum(1 for item in ranked[:N] if item in relevant)
    return hits / len(relevant)


def ndcg_at(ranked: Sequence[int], relevant: set, N: int) -> float:
    """Binary-relevance NDCG with 1/log2(rank+1) discount."""
    if not relevant:
        raise ValueError("relevant set must be nonempty")
    dcg = sum(
        1.0 / np.log2(rank + 2)
        for rank, item in enumerate(ranked[:N])
        if item in relevant
    )
    idcg = sum(1.0 / np.log2(rank + 2) for rank in range(min(N, len(relevant))))
    return dcg / idcg


def category_coverage(
    top_n: Sequence[int],
    item_categories: Mapping[int, frozenset] | Sequence[frozenset],
    total_categories: int,
) -> float:
    if total_categories < 1:
        raise ValueError("total_categories must be >= 1")
    covered: set = set()
    for item in top_n:
        covered |= set(item_categories[item])
    return len(covered) / total_categories


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


def rank_candidates(
    scores: np.ndarray, exclude: Sequence[Iterable[int]], top: int
) -> list[np.ndarray]:
    """The top `top` items of each row of a (B, M) block of full-catalog
    scores, best first.

    Row b's items in `exclude[b]` are left out, and a row with fewer than
    `top` candidates keeps them all.  A stable sort on -score sends ties to
    the lower item index.
    """
    neg = -np.asarray(scores, dtype=float)
    for row, items in zip(neg, exclude):
        row[list(items)] = np.inf
    order = np.argsort(neg, axis=1, kind="stable")[:, :top]
    kept = np.take_along_axis(neg, order, axis=1) < np.inf
    return [row[keep] for row, keep in zip(order, kept)]


def evaluate_ranking_fn(
    ranked_per_user: Sequence[np.ndarray],
    relevant_per_user: Sequence[Sequence[int]],
    item_categories: Sequence[frozenset],
    n_categories: int,
    N_list: Sequence[int] = (3, 5, 10),
    loss_name: str = "",
    T: int = 0,
) -> MetricTable:
    """Mean Recall, NDCG and category coverage at each N over users, from
    each user's top items (best first, `rank_candidates` output).

    Users with no relevant items or no ranked items are left out of the
    averages; a ValueError is raised when no user is left.
    """
    results = []  # per user, (recall, ndcg, cc) at each N
    for ranked, relevant in zip(ranked_per_user, relevant_per_user):
        relevant = set(relevant)
        ranked = np.asarray(ranked).tolist()
        if not relevant or not ranked:
            continue
        results.append(
            [
                (
                    recall_at(ranked, relevant, N),
                    ndcg_at(ranked, relevant, N),
                    category_coverage(ranked[:N], item_categories, n_categories),
                )
                for N in N_list
            ]
        )
    if not results:
        raise ValueError("no users were evaluable")

    rows = []
    for k, N in enumerate(N_list):
        re, nd, cc = (float(np.mean(v)) for v in zip(*(r[k] for r in results)))
        rows.append(MetricRow(loss_name, T, N, re, nd, cc, f_score(0.5 * (re + nd), cc)))
    return MetricTable(rows=rows)
