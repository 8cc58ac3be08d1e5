"""Brute-force oracles for tests: exponential-time subset enumeration,
cofactor-expansion determinants, and finite-difference gradients.

Nothing in the production path imports this module; it exists so every
numerical claim can be checked against an independent implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .kernels import SequenceKernel


@dataclass
class OracleReport:
    max_abs_err: float
    max_rel_err: float
    cases_checked: int


def cofactor_det(matrix: np.ndarray) -> float:
    """Determinant by Laplace expansion along the first row.

    The minor of rows r.. and a set of remaining columns is expanded along
    row r, and memoised on those columns (r is n minus their count), so each
    of the 2^n minors is summed once, in the same order as the plain
    recursion: O(n 2^n) in place of O(n!).
    """
    a = np.asarray(matrix, dtype=float)
    n = a.shape[0]
    if n == 0:
        return 1.0
    memo: dict[tuple[int, ...], float] = {}

    def minor(cols: tuple[int, ...]) -> float:
        row = n - len(cols)
        if len(cols) == 1:
            return float(a[row, cols[0]])
        if cols not in memo:
            total = 0.0
            for j, c in enumerate(cols):
                total += ((-1.0) ** j) * a[row, c] * minor(cols[:j] + cols[j + 1 :])
            memo[cols] = total
        return memo[cols]

    return minor(tuple(range(n)))


def oracle_dpp_distribution(kernel: SequenceKernel) -> dict[frozenset, float]:
    """Probability of every subset of the ground set under P(Y) ~ det(L_Y)."""
    n = kernel.size
    if n > 15:
        raise ValueError("ground set too large for enumeration")
    dets = {}
    for r in range(n + 1):
        for subset in combinations(range(n), r):
            pos = np.asarray(subset, dtype=int)
            sub = kernel.matrix[np.ix_(pos, pos)]
            dets[frozenset(subset)] = cofactor_det(sub) if pos.size else 1.0
    total = sum(dets.values())
    return {s: d / total for s, d in dets.items()}


def oracle_conditional_distribution(
    kernel: SequenceKernel, observed: Sequence[int]
) -> dict[frozenset, float]:
    """Distribution over supersets of `observed`, normalized among them."""
    obs = frozenset(int(p) for p in observed)
    dist = oracle_dpp_distribution(kernel)
    supersets = {s: p for s, p in dist.items() if obs <= s}
    total = sum(supersets.values())
    if total <= 0:
        raise ValueError("observed set has zero probability mass")
    return {s: p / total for s, p in supersets.items()}


def oracle_marginal(kernel: SequenceKernel, position: int) -> float:
    """Enumeration-based marginal probability that `position` is included."""
    dist = oracle_dpp_distribution(kernel)
    return sum(p for s, p in dist.items() if position in s)


def oracle_pair_probability(kernel: SequenceKernel, i: int, j: int) -> float:
    dist = oracle_dpp_distribution(kernel)
    return sum(p for s, p in dist.items() if i in s and j in s)


def oracle_fd_gradient(
    func: Callable[[np.ndarray], float],
    point: Sequence[float],
    h: float = 1e-5,
) -> np.ndarray:
    """Central finite differences per coordinate."""
    x = np.asarray(point, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step.flat[i] = h
        hi = func(x + step)
        lo = func(x - step)
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise ValueError("function non-finite within the difference stencil")
        grad.flat[i] = (hi - lo) / (2.0 * h)
    return grad


def compare_gradients(
    analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-8
) -> OracleReport:
    """Elementwise error report between an analytic and a numeric gradient."""
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    abs_err = np.abs(analytic - numeric)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return OracleReport(
        max_abs_err=float(abs_err.max(initial=0.0)),
        max_rel_err=float((abs_err / denom).max(initial=0.0)),
        cases_checked=int(analytic.size),
    )
