"""Ground-truth diverse item sets for diversity-kernel learning.

Positive sets are drawn from each user's training items by weighted sampling
without replacement: after every pick, the weight of any not-yet-selected
item sharing a category with the pick is multiplied by a decay factor, which
favors category-diverse sets.  Each positive set is paired with a
category-matched negative set drawn from items the user never interacted
with.

Every draw is the one `rng.choice` would make, from the same stream: a
weighted pick is an inverse-CDF draw on one `rng.random()`, and a uniform
pick from m candidates is one `rng.integers(0, m)`.  So the array code
gives the sets that one `rng.choice` call per pick gave.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .data import parse_int_rows

log = logging.getLogger(__name__)

DEFAULT_DECAY = 0.5
DEFAULT_SET_SIZE = 5
POSITIVE_STREAM, NEGATIVE_STREAM = 0, 1
POSITIVE_BLOCK = 8  # positive sets drawn at once; those past full coverage are dropped

_NO_ITEMS = np.zeros(0, dtype=np.intp)


@dataclass
class PairedDiverseSets:
    """One user's sets as (S, k) arrays of item ids, row i of `negative` matched
    to row i of `positive`; rows are sorted on entry and hold distinct ids >= 0."""

    user: int
    positive: np.ndarray
    negative: np.ndarray

    def __post_init__(self):
        self.positive, self.negative = pos, neg = [
            np.sort(np.asarray(s, dtype=np.intp), axis=-1) for s in (self.positive, self.negative)
        ]
        if pos.ndim != 2 or pos.shape != neg.shape:
            raise ValueError(f"unbalanced sets for user {self.user}: {pos.shape} vs {neg.shape}")
        both = np.concatenate([pos, neg])
        if (both[:, :1] < 0).any() or (both[:, 1:] == both[:, :-1]).any():
            raise ValueError(f"user {self.user}: a set holds a negative or repeated item id")


def generate_diverse_sets(
    user_items: Sequence[tuple[int, frozenset]],
    decay: float = DEFAULT_DECAY,
    set_size: int = DEFAULT_SET_SIZE,
    seed: int | np.random.SeedSequence = 0,
) -> np.ndarray:
    """Emit positive sets until every item has appeared in at least one set,
    as an (S, min(set_size, n)) array of item ids, each row ascending.

    `user_items` is a list of (item index, category-id set).  Weights reset to
    uniform at the start of each set, so the sets are identically distributed.
    Each pick is the inverse-CDF draw that `rng.choice(n, p=weights /
    weights.sum())` makes from one `rng.random()`.  The sets are drawn
    POSITIVE_BLOCK at a time, as array code over a block of uniforms drawn
    at once: the same uniforms, in the same order, as one set after another.
    """
    if not user_items:
        raise ValueError("user has no items to sample from")
    if not 0.0 < decay <= 1.0:
        raise ValueError("decay must be in (0, 1]")
    if set_size < 1:
        raise ValueError("set_size must be >= 1")
    items = np.array([i for i, _ in user_items], dtype=np.intp)
    n = len(items)
    size = min(set_size, n)
    rng = np.random.default_rng(seed)
    # factor[i]: what a pick of item i multiplies the weights by: 0 for
    # item i itself, `decay` for the items sharing a category with it (a
    # weight already 0 stays 0) and 1 for the rest
    factor = np.where(_shares([c for _, c in user_items]), decay, 1.0)
    np.fill_diagonal(factor, 0.0)

    covered, sets, drawn = set(), [], []
    while len(covered) < n:
        picks, ok = _draw_block(factor, size, rng)
        drawn += ok.tolist()
        for row in picks.tolist():
            sets.append(row)
            covered.update(row)
            if len(covered) == n:
                break
    if not all(drawn[: len(sets)]):
        raise ValueError("decayed weights underflowed to zero; raise decay")
    return np.sort(items[sets], axis=1)


def _shares(categories: Sequence[Iterable[int]]) -> np.ndarray:
    """shares[i, j]: items i and j have a category in common, from the
    product of the item x category incidence matrix with itself."""
    columns: dict[int, int] = {}
    rows, cols = [], []
    for r, cats in enumerate(categories):
        for c in cats:
            rows.append(r)
            cols.append(columns.setdefault(c, len(columns)))
    incidence = np.zeros((len(categories), len(columns)))
    incidence[rows, cols] = 1.0
    return incidence @ incidence.T > 0


def _draw_block(
    factor: np.ndarray, size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """POSITIVE_BLOCK sets of `size` picks each, as (POSITIVE_BLOCK, size)
    indices into the items, and whether each set's weights stayed positive."""
    uniforms = rng.random((POSITIVE_BLOCK, size, 1))
    weights = np.ones((POSITIVE_BLOCK, len(factor)))
    cdf = np.empty_like(weights)
    picks = np.empty((POSITIVE_BLOCK, size), dtype=np.intp)
    for k in range(size):
        total = _choice_cdf(weights, cdf)
        picks[:, k] = pick = _choice_pick(cdf, uniforms[:, k])
        weights *= factor[pick]
    # weights only fall, so a row whose total was ever 0 (rng.choice's NaN
    # probabilities) still has total 0 at its last pick
    return picks, total[:, 0] > 0


def _choice_cdf(weights: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Into `out`, row by row, the CDF that `rng.choice(n, p=w / w.sum())`
    searches: the cumulative sum of the probabilities over its last entry.
    A row's sum along a C-contiguous (B, n) array is numpy's pairwise 1-D
    sum.  Returns the row sums, (B, 1)."""
    total = np.add.reduce(weights, axis=1, keepdims=True)
    np.divide(weights, total, out=out)
    np.add.accumulate(out, axis=1, out=out)
    out /= out[:, -1:]
    return total


def _choice_pick(cdf: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Row by row, `cdf.searchsorted(u, side="right")` for the (B, 1)
    `uniforms`: the count of CDF entries <= u, as the CDF does not
    decrease."""
    return np.add.reduce(cdf <= uniforms, axis=1)


def sample_negative_set(
    pools: Sequence[Sequence[int]],
    unseen: Sequence[int],
    rng: np.random.Generator,
) -> list[int]:
    """Negative set matching a positive set's categories item-for-item, sorted.

    `pools[k]` is the candidate pool of the k-th positive item in ascending
    item order: the sorted catalog items outside the user's history that
    share a category with it (see `unseen_pool`).  Each match is drawn
    uniformly from its pool less the items already chosen, the draw
    `rng.choice` makes on that remainder.  Falls back to a uniform draw
    over `unseen`, the sorted items outside the history, when nothing
    remains.
    """
    chosen: list[int] = []
    for pool in pools:
        pick = _draw_unchosen(pool, chosen, rng)
        if pick is None:
            log.debug("category-matched pool empty; falling back to uniform unseen draw")
            pick = _draw_unchosen(unseen, chosen, rng)
            if pick is None:
                raise ValueError("catalog exhausted while sampling a negative set")
        chosen.append(pick)
    return sorted(chosen)


def _draw_unchosen(
    pool: Sequence[int], chosen: Sequence[int], rng: np.random.Generator
) -> int | None:
    """A uniform draw from the sorted `pool` less `chosen`, or None when
    nothing remains: `j = rng.integers(0, m)` over the m remaining items,
    which is `rng.choice(remaining)`, mapped past the chosen positions."""
    taken = []
    for item in chosen:
        at = bisect_left(pool, item)
        if at < len(pool) and pool[at] == item:
            taken.append(at)
    m = len(pool) - len(taken)
    if not m:
        return None
    j = int(rng.integers(0, m))
    for at in sorted(taken):
        if at > j:
            break
        j += 1
    return int(pool[j])


def unseen_pool(
    catalog_by_category: Mapping[int, Sequence[int]],
    categories: Iterable[int],
    unseen_mask: np.ndarray,
) -> list[int]:
    """The sorted catalog items in any of `categories` that the boolean mask
    `unseen_mask` keeps.  The catalog's per-category items must be sorted
    and distinct."""
    own = [
        np.asarray(catalog_by_category[c], dtype=np.intp)
        for c in categories
        if c in catalog_by_category
    ]
    items = own[0] if len(own) == 1 else np.unique(np.concatenate([_NO_ITEMS, *own]))
    return items[unseen_mask[items]].tolist()


def user_seed(seed: int, user: int, stream: int) -> np.random.SeedSequence:
    """Seed of one user's POSITIVE_STREAM or NEGATIVE_STREAM draws; every
    (seed, user, stream) gets its own, independent stream."""
    return np.random.SeedSequence([seed, user, stream])


def build_paired_sets(
    user: int,
    user_items: Sequence[tuple[int, frozenset]],
    user_history: Iterable[int],
    catalog_by_category: Mapping[int, Sequence[int]],
    n_items: int,
    decay: float = DEFAULT_DECAY,
    set_size: int = DEFAULT_SET_SIZE,
    seed: int = 0,
) -> PairedDiverseSets:
    """Positive sets plus matched negatives for one user.

    `seed` is the global seed: the positive and the negative sets are drawn
    from the streams `user_seed(seed, user, ...)`, so generation is
    deterministic regardless of user processing order.
    `catalog_by_category` maps a category to its items, sorted, and the
    catalog's items are 0..n_items-1.  Each distinct category set of the
    user's items gets its candidate pool once.
    """
    positives = generate_diverse_sets(
        user_items, decay=decay, set_size=set_size, seed=user_seed(seed, user, POSITIVE_STREAM)
    )
    rng = np.random.default_rng(user_seed(seed, user, NEGATIVE_STREAM))
    unseen_mask = np.ones(n_items, dtype=bool)
    unseen_mask[list(user_history)] = False
    unseen = np.flatnonzero(unseen_mask)
    cats_of = {int(i): frozenset(c) for i, c in user_items}
    pools = {c: unseen_pool(catalog_by_category, c, unseen_mask) for c in set(cats_of.values())}
    negatives = [
        sample_negative_set([pools[cats_of[i]] for i in pos], unseen, rng)
        for pos in positives.tolist()
    ]
    return PairedDiverseSets(user, positives, negatives)


def dump_paired_sets(pairs: Iterable[PairedDiverseSets], path) -> None:
    """Write sets as `user<TAB>+|-<TAB>comma-separated item ids` lines, each
    positive set followed by its negative."""
    with open(path, "w", encoding="utf-8") as fh:
        for p in pairs:
            ids = ",".join(["%d"] * p.positive.shape[1])
            values = np.hstack([p.positive, p.negative]).ravel().tolist()
            fh.write(f"{p.user}\t+\t{ids}\n{p.user}\t-\t{ids}\n" * len(p.positive) % tuple(values))


def load_paired_sets(path) -> list[PairedDiverseSets]:
    """The `dump_paired_sets` file, one entry per user in user order, a user's
    sets in file order.  Raises ValueError on a malformed line, on a user whose
    rows differ in width, and in PairedDiverseSets."""
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines() if ln]
    if not lines:
        return []
    fields = "\t\n\t".join(lines).split("\t")  # "\n" closes each line, as in parse_int_rows
    users, signs, ids = fields[0::4], fields[1::4], fields[2::4]
    if len(fields) != 4 * len(lines) - 1 or set(fields[3::4]) - {"\n"} or set(signs) - {"+", "-"}:
        raise ValueError(f"{path}: a line is not user<TAB>+|-<TAB>item ids")
    positive = np.array(signs) == "+"
    users = parse_int_rows(users, 1, path)[:, 0]
    order = np.argsort(users, kind="stable")
    pairs = []
    for rows in np.split(order, np.flatnonzero(np.diff(users[order])) + 1):
        user, width = int(users[rows[0]]), ids[rows[0]].count(",") + 1
        sets = parse_int_rows([ids[i] for i in rows.tolist()], width, f"{path}: user {user}")
        pairs.append(PairedDiverseSets(user, sets[positive[rows]], sets[~positive[rows]]))
    return pairs
