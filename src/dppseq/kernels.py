"""Sequence-kernel construction and DPP set log-likelihoods.

The central objects are a global low-rank diversity kernel K = V V^T over the
item catalog and, per training instance, a small dense kernel
L = Diag(q) K_sub Diag(q) over the instance's ground set (previous items,
targets, sampled negatives).  Set probabilities are ratios of principal-minor
determinants; the normalizer det(L + I) covers all subsets, and conditioning
on an observed set replaces I by an identity restricted to its complement.
The plain set likelihood (DSL) is the conditional one (CDSL) with nothing
observed.

Training calls `set_log_likelihood_batch` on stacks of same-layout ground
sets.  The per-instance chain (`build_sequence_kernel` ->
`cdsl_log_likelihood` -> `grad_quality`) factors its own log-dets, but
`_score_gradient` is the one score-gradient formula of both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

RAW_SCORE_CLAMP = 30.0
DEFAULT_JITTER = 1e-6


class SingularMatrixError(Exception):
    """Factorization failed even after diagonal jitter."""


@dataclass(frozen=True)
class GroundSet:
    """The per-instance item universe: previous items, targets, negatives.

    Positions are ordered previous-first, then targets, then negatives, and
    item indices must be distinct.
    """

    previous: tuple[int, ...]
    targets: tuple[int, ...]
    negatives: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "previous", tuple(int(i) for i in self.previous))
        object.__setattr__(self, "targets", tuple(int(i) for i in self.targets))
        object.__setattr__(self, "negatives", tuple(int(i) for i in self.negatives))
        if not self.targets:
            raise ValueError("ground set needs at least one target item")
        items = self.previous + self.targets + self.negatives
        if len(set(items)) != len(items):
            raise ValueError("ground-set item indices must be distinct")

    @property
    def items(self) -> tuple[int, ...]:
        return self.previous + self.targets + self.negatives

    @property
    def size(self) -> int:
        return len(self.previous) + len(self.targets) + len(self.negatives)

    @property
    def previous_positions(self) -> tuple[int, ...]:
        return tuple(range(len(self.previous)))

    @property
    def target_positions(self) -> tuple[int, ...]:
        lo = len(self.previous)
        return tuple(range(lo, lo + len(self.targets)))


@dataclass(frozen=True)
class DiversityKernelLowRank:
    """Low-rank factor matrix (one row per catalog item) of the global
    diversity kernel K = factors @ factors.T."""

    factors: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        factors = np.asarray(self.factors, dtype=float)
        if factors.ndim != 2:
            raise ValueError("factors must be a 2-d (items x latent) matrix")
        if not np.all(np.isfinite(factors)):
            raise ValueError("factors must be finite")
        object.__setattr__(self, "factors", factors)

    @property
    def n_items(self) -> int:
        return self.factors.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.factors.shape[1]

    def submatrix(self, items: Sequence[int]) -> np.ndarray:
        """Similarity kernel restricted to the given catalog items."""
        idx = np.asarray(items, dtype=int)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_items):
            raise ValueError("item index out of catalog range")
        rows = self.factors[idx]
        return rows @ rows.T

    def full(self) -> np.ndarray:
        return self.factors @ self.factors.T


def qualities_from_raw(raw_scores) -> np.ndarray:
    """q = exp(r/2) of raw scores clamped to +-RAW_SCORE_CLAMP, elementwise
    over an array of any shape; non-finite scores raise ValueError."""
    raw = np.asarray(raw_scores, dtype=float)
    if not np.all(np.isfinite(raw)):
        raise ValueError("raw scores must be finite")
    return np.exp(np.clip(raw, -RAW_SCORE_CLAMP, RAW_SCORE_CLAMP) / 2.0)


@dataclass(frozen=True)
class QualityVector:
    """Raw model scores and their positive quality transform q = exp(r/2)."""

    raw_scores: np.ndarray
    qualities: np.ndarray

    @classmethod
    def from_raw_scores(cls, raw_scores: Sequence[float]) -> "QualityVector":
        raw = np.asarray(raw_scores, dtype=float)
        return cls(raw_scores=raw, qualities=qualities_from_raw(raw))

    def __len__(self) -> int:
        return len(self.qualities)


@dataclass(frozen=True)
class SequenceKernel:
    """Dense quality-modulated kernel over one instance's ground set.

    matrix = Diag(q) @ base @ Diag(q), with `base` the diversity-kernel
    submatrix indexed by the ground set.
    """

    matrix: np.ndarray
    base: np.ndarray = field(repr=False)
    qualities: QualityVector = field(repr=False)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def build_sequence_kernel(
    qualities: QualityVector,
    kernel: DiversityKernelLowRank,
    ground_set: GroundSet,
) -> SequenceKernel:
    """Assemble L = Diag(q) K_sub Diag(q) for one training instance."""
    if len(qualities) != ground_set.size:
        raise ValueError(
            f"quality vector length {len(qualities)} != ground-set size {ground_set.size}"
        )
    if not np.all(np.isfinite(qualities.qualities)) or np.any(qualities.qualities <= 0):
        raise ValueError("qualities must be strictly positive and finite")
    base = kernel.submatrix(ground_set.items)
    q = qualities.qualities
    matrix = base * np.outer(q, q)
    return SequenceKernel(matrix=matrix, base=base, qualities=qualities)


def _check_symmetric(matrix: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    # LAPACK factors NaN into NaN without an error, and inf - inf below warns
    if not np.all(np.isfinite(matrix)):
        raise ValueError("array must not contain infs or NaNs")
    if matrix.size and np.max(np.abs(matrix - matrix.T)) > tol:
        raise ValueError("matrix must be symmetric")
    return matrix


def log_det_psd(matrix: np.ndarray) -> float:
    """log det of a symmetric PSD matrix via Cholesky, with one jitter retry."""
    return float(_log_det_of_factor(_cholesky_jittered(_check_symmetric(matrix))))


def _cholesky_jittered(matrix: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, with one retry at DEFAULT_JITTER on the diagonal."""
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        try:
            return np.linalg.cholesky(matrix + DEFAULT_JITTER * np.eye(matrix.shape[0]))
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError("matrix indefinite even after jitter") from exc


def _log_det_or_neginf(matrix: np.ndarray) -> float:
    """log det for a PSD principal minor; -inf when (numerically) singular.

    Distinct from log_det_psd: a singular minor means probability zero, not a
    numerical failure, so no jitter is applied here.
    """
    matrix = _check_symmetric(matrix)
    try:
        return float(_log_det_of_factor(np.linalg.cholesky(matrix)))
    except np.linalg.LinAlgError:
        eigs = np.linalg.eigvalsh(matrix)
        scale = max(1.0, float(np.max(np.abs(eigs))))
        if np.min(eigs) <= 1e-12 * scale:
            return -np.inf
        return float(np.sum(np.log(eigs)))


def _validate_positions(kernel: SequenceKernel, positions: Sequence[int]) -> np.ndarray:
    pos = sorted(set(int(p) for p in positions))
    if pos and (pos[0] < 0 or pos[-1] >= kernel.size):
        raise ValueError("subset position out of range")
    return np.asarray(pos, dtype=int)


def dsl_log_likelihood(kernel: SequenceKernel, targets: Sequence[int]) -> float:
    """log P(Y_T) = log det(L_{Y_T}) - log det(L + I) under the set DPP: the
    conditional log-likelihood with nothing observed."""
    return cdsl_log_likelihood(kernel, (), targets)


def cdsl_log_likelihood(
    kernel: SequenceKernel,
    observed: Sequence[int],
    full: Sequence[int],
) -> float:
    """log P(Y_full | Y_obs) with the conditional-DPP normalizer
    det(L + I_complement(observed))."""
    obs = _validate_positions(kernel, observed)
    ful = _validate_positions(kernel, full)
    if not set(obs).issubset(set(ful)):
        raise ValueError("observed set must be contained in the full set")
    if ful.size == 0:
        raise ValueError("full subset must be nonempty")
    num = _log_det_or_neginf(kernel.matrix[np.ix_(ful, ful)])
    if num == -np.inf:
        return -np.inf
    mask = np.ones(kernel.size)
    mask[obs] = 0.0
    den = log_det_psd(kernel.matrix + np.diag(mask))
    return num - den


def grad_quality(
    kernel: SequenceKernel,
    selected: Sequence[int],
    conditioned: Sequence[int] = (),
) -> np.ndarray:
    """Gradient of the negative set log-likelihood w.r.t. the raw scores r.

    `selected` is the set whose determinant forms the numerator and must be
    the first k positions (targets for the plain set likelihood, previous +
    targets for the conditional one); `conditioned`, the observed positions
    left out of the normalizer's identity mask, must be the first j <= k.
    The gradient is `set_log_likelihood_batch`'s for a one-row stack, from
    the same code.
    """
    sel = _validate_positions(kernel, selected)
    obs = _validate_positions(kernel, conditioned)
    k, j = sel.size, obs.size
    if k == 0:
        raise ValueError("selected subset must be nonempty")
    # sorted distinct positions are the first k exactly when the last is k - 1
    if j > k or sel[-1] != k - 1 or (j and obs[-1] != j - 1):
        raise ValueError("selected must be the first k positions and conditioned the first j <= k")
    mask = np.ones(kernel.size)
    mask[:j] = 0.0
    chol = _cholesky_jittered(_check_symmetric(kernel.matrix + np.diag(mask)))
    q = kernel.qualities
    return _score_gradient(
        kernel.base[None], q.qualities[None], q.raw_scores[None], chol[None], k, j
    )[0]


def _score_gradient(base, q, raw, chol, n_selected: int, n_observed: int) -> np.ndarray:
    """Gradients (B, n) of the negative set log-likelihoods w.r.t. the raw
    scores of a stack of ground sets, from their base kernels, qualities,
    raw scores and the lower Cholesky factors of their normalizers.

    d log det(L_Y)/dr_i = 1 for i in Y, and d log det(L + I_mask)/dr_i =
    q_i (K_sub Q B)_ii with B the inverse of the normalizer, through
    q = exp(r/2).
    """
    # The row norms s of chol are sqrt(diag(denom)), so chol / s is the
    # factor of the unit-diagonal S^-1 denom S^-1: its inverse is accurate
    # whatever the spread of the qualities, and B = S^-1 inv_scaled S^-1.
    s = np.linalg.norm(chol, axis=2)
    inv_chol = np.linalg.inv(chol / s[:, :, None])
    inv_scaled = inv_chol.transpose(0, 2, 1) @ inv_chol
    # q_i (K_sub Q B)_ii = r_i (K_sub R inv_scaled)_ii with r = q / s
    r = q / s
    grad = r * np.einsum("bij,bj,bji->bi", base, r, inv_scaled)
    grad[:, :n_selected] -= 1.0
    # exactly 0 at observed positions: P(Y | Y_obs) does not depend on their
    # qualities (row and column i of L + I_mask scale with q_i)
    grad[:, :n_observed] = 0.0
    grad[np.abs(raw) >= RAW_SCORE_CLAMP] = 0.0
    return grad


def set_log_likelihood_batch(
    kernel: DiversityKernelLowRank,
    items,
    raw_scores,
    n_selected: int,
    n_observed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Set log-likelihoods of a stack of same-layout ground sets, and the
    gradients of their negatives w.r.t. the raw scores.

    Row b is the ground set `items[b]` (B x n catalog indices) scored by
    `raw_scores[b]`.  The numerator set is the first `n_selected` positions
    and the conditioned set the first `n_observed`, so the plain set
    likelihood over targets + negatives is (T, 0) and the conditional one
    over previous + targets + negatives is (P + T, P).  Row b's value is
    log det(L_sel) - log det(L + I_mask), with I_mask the identity on the
    positions past the conditioned prefix, as in `cdsl_log_likelihood`; its
    gradient comes from `_score_gradient`, as `grad_quality`'s does.

    One Cholesky factorization of the stacked numerator blocks and one of
    the stacked normalizers give every log-det, and the inverse of the
    normalizer's factor gives the gradient.  If any row fails to factor, the
    stack is factored row by row under the per-instance rules: a singular
    numerator gives -inf and a zero gradient (the row is to be skipped), and
    a normalizer that fails even after one jitter retry raises
    SingularMatrixError.  Returns (log-likelihoods (B,), gradients (B, n)).
    """
    items = np.asarray(items, dtype=np.intp)
    raw = np.asarray(raw_scores, dtype=float)
    if items.ndim != 2 or raw.shape != items.shape:
        raise ValueError("items and raw scores must be matching (B, n) arrays")
    n = items.shape[1]
    if not 0 <= n_observed <= n_selected <= n or n_selected == 0:
        raise ValueError("selected set must be a nonempty prefix holding the conditioned one")
    if items.size and (items.min() < 0 or items.max() >= kernel.n_items):
        raise ValueError("item index out of catalog range")
    if np.any(np.diff(np.sort(items, axis=1), axis=1) == 0):
        raise ValueError("ground-set item indices must be distinct")
    q = qualities_from_raw(raw)
    rows = kernel.factors[items]
    base = rows @ rows.transpose(0, 2, 1)
    matrix = base * (q[:, :, None] * q[:, None, :])
    mask = np.ones(n)
    mask[:n_observed] = 0.0
    denom = matrix + np.diag(mask)
    try:
        num = _log_det_of_factor(np.linalg.cholesky(matrix[:, :n_selected, :n_selected]))
        chol = np.linalg.cholesky(denom)
    except np.linalg.LinAlgError:
        num, chol = _factor_rows(matrix, denom, n_selected)
    grad = _score_gradient(base, q, raw, chol, n_selected, n_observed)
    skipped = num == -np.inf
    grad[skipped] = 0.0
    return np.where(skipped, -np.inf, num - _log_det_of_factor(chol)), grad


def _log_det_of_factor(chol: np.ndarray) -> np.ndarray:
    """log det of each C C^T in a stack of triangular factors C."""
    return 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)


def _factor_rows(
    matrix: np.ndarray, denom: np.ndarray, n_selected: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row-by-row factoring for `set_log_likelihood_batch`: numerator
    log-dets (-inf when singular) and normalizer factors (the identity on
    rows whose numerator is singular)."""
    num = np.array([_log_det_or_neginf(m[:n_selected, :n_selected]) for m in matrix])
    chol = np.zeros_like(denom)
    chol[:] = np.eye(denom.shape[-1])
    for b in np.flatnonzero(num > -np.inf):
        chol[b] = _cholesky_jittered(denom[b])
    return num, chol
