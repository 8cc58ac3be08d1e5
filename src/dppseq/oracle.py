"""Brute-force oracles for tests: exponential-time subset enumeration,
elimination and cofactor-expansion determinants, and finite-difference
gradients.

Nothing in the production path imports this module; it exists so every
numerical claim can be checked against an independent implementation.  No
oracle here calls LAPACK (`np.linalg`), which the production path uses:

- `principal_minor_dets` gives det(L_Y) for every subset Y of a ground set
  that holds a required set (all subsets when nothing is required) at once.
  For each size r it stacks those minors and runs Gaussian elimination with
  partial pivoting over the whole stack in numpy.
- `enumerate_normalizer`, `oracle_dpp_distribution` and
  `oracle_conditional_distribution` (and the marginal and pair oracles built
  on the distribution) sum and normalise those determinants, so
  Sum_{Y >= A} det(L_Y) = det(L + I_complement(A)) checks LAPACK against an
  independent computation.
- `cofactor_det`, Laplace expansion in plain Python, is the small-n
  reference that tests check the elimination against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .kernels import DiversityKernelLowRank, SequenceKernel


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


def _stack_dets(stack: np.ndarray) -> np.ndarray:
    """Determinants of an (N, r, r) stack by Gaussian elimination with
    partial pivoting.  A zero pivot column gives exactly 0.0."""
    a = np.array(stack, dtype=float)
    N, r = a.shape[:2]
    det = np.ones(N)
    singular = np.zeros(N, dtype=bool)
    at = np.arange(N)
    for k in range(r):
        p = k + np.argmax(np.abs(a[:, k:, k]), axis=1)
        det[p != k] *= -1.0
        pivot_row = a[at, p].copy()
        a[at, p] = a[:, k]
        a[:, k] = pivot_row
        pivot = a[:, k, k]
        zero = pivot == 0.0
        singular |= zero
        det *= pivot
        factors = a[:, k + 1 :, k] / np.where(zero, 1.0, pivot)[:, None]
        a[:, k + 1 :, k:] -= factors[:, :, None] * a[:, None, k, k:]
    return np.where(singular, 0.0, det)


def principal_minor_dets(
    matrix: np.ndarray, required: Sequence[int] = ()
) -> dict[tuple[int, ...], float]:
    """det(matrix[Y, Y]) of every subset Y of the positions that holds the
    positions `required`, keyed by Y's sorted positions in order of size,
    then lexicographically; the empty subset gives 1.0.  Only those subsets
    are eliminated, each exactly as in the enumeration of all of them.
    Exponential in n; rejected above n = 15, and for a non-finite matrix."""
    a = np.asarray(matrix, dtype=float)
    n = a.shape[0]
    if n > 15:
        raise ValueError("ground set too large for 2^n enumeration")
    if not np.all(np.isfinite(a)):
        raise ValueError("array must not contain infs or NaNs")
    req = sorted(set(int(p) for p in required))
    if req and (req[0] < 0 or req[-1] >= n):
        raise ValueError("subset position out of range")
    free = [p for p in range(n) if p not in req]
    dets: dict[tuple[int, ...], float] = {}
    for r in range(len(free) + 1):
        # merging req into each combination keeps the lexicographic order
        subsets = [tuple(sorted(req + list(c))) for c in combinations(free, r)]
        pos = np.array(subsets, dtype=np.intp)
        dets.update(zip(subsets, _stack_dets(a[pos[:, :, None], pos[:, None, :]]).tolist()))
    return dets


def identity_kernel(n_items: int) -> DiversityKernelLowRank:
    """Diagonal diversity kernel (no similarity structure); useful for tests."""
    return DiversityKernelLowRank(np.eye(n_items), normalized=True)


def enumerate_normalizer(kernel: SequenceKernel, required: Sequence[int] = ()) -> float:
    """Brute-force sum of det(L_Y) over all subsets Y containing `required`.

    With required empty this equals det(L + I).  Exponential in the ground-set
    size; rejected above n = 15.
    """
    return sum(principal_minor_dets(kernel.matrix, required).values())


def oracle_dpp_distribution(kernel: SequenceKernel) -> dict[frozenset, float]:
    """Probability of every subset of the ground set under P(Y) ~ det(L_Y).
    Rejects what `principal_minor_dets` rejects: n > 15 and a non-finite
    kernel."""
    dets = principal_minor_dets(kernel.matrix)
    total = sum(dets.values())
    return {frozenset(s): d / total for s, d in dets.items()}


def oracle_conditional_distribution(
    kernel: SequenceKernel, observed: Sequence[int]
) -> dict[frozenset, float]:
    """Distribution over supersets of `observed`, normalized among them."""
    dets = principal_minor_dets(kernel.matrix, observed)
    total = sum(dets.values())
    if total <= 0:
        raise ValueError("observed set has zero probability mass")
    return {frozenset(s): d / total for s, d in dets.items()}


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
