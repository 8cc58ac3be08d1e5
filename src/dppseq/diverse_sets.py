"""Ground-truth diverse item sets for diversity-kernel learning.

Positive sets are drawn from each user's training items by weighted sampling
without replacement: after every pick, the weight of any not-yet-selected
item sharing a category with the pick is multiplied by a decay factor, which
favors category-diverse sets.  Each positive set is paired with a
category-matched negative set drawn from items the user never interacted
with.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

log = logging.getLogger(__name__)

DEFAULT_DECAY = 0.5
DEFAULT_SET_SIZE = 5
POSITIVE_STREAM, NEGATIVE_STREAM = 0, 1

_NO_ITEMS = np.zeros(0, dtype=np.intp)


@dataclass
class PairedDiverseSets:
    """Matched positive/negative item sets for one user."""

    user: int
    positive: list[frozenset] = field(default_factory=list)
    negative: list[frozenset] = field(default_factory=list)

    def __post_init__(self):
        if len(self.positive) != len(self.negative):
            raise ValueError("positive and negative set lists must be matched")


def generate_diverse_sets(
    user_items: Sequence[tuple[int, frozenset]],
    decay: float = DEFAULT_DECAY,
    set_size: int = DEFAULT_SET_SIZE,
    seed: int | np.random.SeedSequence = 0,
) -> list[frozenset]:
    """Emit positive sets until every item has appeared in at least one set.

    `user_items` is a list of (item index, category-id set).  Weights reset to
    uniform at the start of each set, so the sets are identically distributed.
    """
    if not user_items:
        raise ValueError("user has no items to sample from")
    if not 0.0 < decay <= 1.0:
        raise ValueError("decay must be in (0, 1]")
    items = [int(i) for i, _ in user_items]
    categories = [frozenset(c) for _, c in user_items]
    n = len(items)
    size = min(set_size, n)
    rng = np.random.default_rng(seed)
    # shares[i, j]: items i and j have a category in common
    shares = np.array([[bool(a & b) for b in categories] for a in categories])

    covered: set[int] = set()
    sets: list[frozenset] = []
    while len(covered) < n:
        weights = np.ones(n)
        chosen: list[int] = []
        for _ in range(size):
            probs = weights / weights.sum()
            pick = int(rng.choice(n, p=probs))
            chosen.append(pick)
            weights[pick] = 0.0
            weights[shares[pick] & (weights > 0)] *= decay
        covered.update(chosen)
        sets.append(frozenset(items[i] for i in chosen))
    return sets


def sample_negative_set(
    positive: Iterable[int],
    positive_categories: Mapping[int, frozenset],
    user_history: set[int],
    pools: Mapping[int, np.ndarray],
    rng: np.random.Generator,
    all_items: Sequence[int],
) -> frozenset:
    """Negative set matching the positive set's categories item-for-item.

    `pools` maps a category to the sorted catalog items in it that the user
    never interacted with (see `unseen_by_category`).  Each positive item's
    match is drawn uniformly from the union of its categories' pools, less
    the items already chosen.  Falls back to a uniform draw over unseen
    items when that union is empty.
    """
    chosen: list[int] = []
    for pos_item in sorted(positive):
        own = [pools.get(c, _NO_ITEMS) for c in positive_categories[pos_item]]
        candidates = own[0] if len(own) == 1 else np.unique(np.concatenate([_NO_ITEMS, *own]))
        for item in chosen:  # at most set_size - 1 items; cheaper than np.isin
            candidates = candidates[candidates != item]
        if not candidates.size:
            unseen = np.setdiff1d(np.asarray(all_items, dtype=np.intp), list(user_history))
            candidates = np.setdiff1d(unseen, chosen)
            if not candidates.size:
                raise ValueError("catalog exhausted while sampling a negative set")
            log.debug("category-matched pool empty; falling back to uniform unseen draw")
        chosen.append(int(rng.choice(candidates)))
    return frozenset(chosen)


def unseen_by_category(
    catalog_by_category: Mapping[int, Sequence[int]],
    user_history: set[int],
    categories: Iterable[int],
) -> dict[int, np.ndarray]:
    """For each of `categories` in the catalog, its items outside the user's
    history.  The catalog's per-category items must be sorted and distinct,
    and so are the pools."""
    cats = [c for c in categories if c in catalog_by_category]
    if not cats:
        return {}
    # one membership test for all the categories' items at once
    items = [np.asarray(catalog_by_category[c], dtype=np.intp) for c in cats]
    seen = np.fromiter(user_history, dtype=np.intp, count=len(user_history))
    unseen = ~np.isin(np.concatenate(items), seen)
    bounds = np.cumsum([len(a) for a in items])[:-1]
    return {c: a[keep] for c, a, keep in zip(cats, items, np.split(unseen, bounds))}


def user_seed(seed: int, user: int, stream: int) -> np.random.SeedSequence:
    """Seed of one user's POSITIVE_STREAM or NEGATIVE_STREAM draws; every
    (seed, user, stream) gets its own, independent stream."""
    return np.random.SeedSequence([seed, user, stream])


def build_paired_sets(
    user: int,
    user_items: Sequence[tuple[int, frozenset]],
    user_history: set[int],
    item_categories: Mapping[int, frozenset],
    catalog_by_category: Mapping[int, Sequence[int]],
    all_items: Sequence[int],
    decay: float = DEFAULT_DECAY,
    set_size: int = DEFAULT_SET_SIZE,
    seed: int = 0,
) -> PairedDiverseSets:
    """Positive sets plus matched negatives for one user.

    `seed` is the global seed: the positive and the negative sets are drawn
    from the streams `user_seed(seed, user, ...)`, so generation is
    deterministic regardless of user processing order.
    `catalog_by_category` maps a category to its items, sorted.
    """
    positives = generate_diverse_sets(
        user_items, decay=decay, set_size=set_size, seed=user_seed(seed, user, POSITIVE_STREAM)
    )
    rng = np.random.default_rng(user_seed(seed, user, NEGATIVE_STREAM))
    cats = {int(i): frozenset(c) for i, c in user_items}
    pools = unseen_by_category(catalog_by_category, user_history, set().union(*cats.values()))
    negatives = [
        sample_negative_set(
            pos,
            {i: cats.get(i, item_categories[i]) for i in pos},
            user_history,
            pools,
            rng,
            all_items,
        )
        for pos in positives
    ]
    return PairedDiverseSets(user=user, positive=positives, negative=negatives)


def dump_paired_sets(pairs: Iterable[PairedDiverseSets], path) -> None:
    """Write sets as `user<TAB>+|-<TAB>comma-separated item ids` lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for p in pairs:
            for pos, neg in zip(p.positive, p.negative):
                fh.write(f"{p.user}\t+\t{','.join(map(str, sorted(pos)))}\n")
                fh.write(f"{p.user}\t-\t{','.join(map(str, sorted(neg)))}\n")


def load_paired_sets(path) -> list[PairedDiverseSets]:
    by_user: dict[int, PairedDiverseSets] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            user_s, sign, ids = line.split("\t")
            user = int(user_s)
            items = frozenset(int(x) for x in ids.split(","))
            entry = by_user.setdefault(user, PairedDiverseSets(user=user))
            if sign == "+":
                entry.positive.append(items)
            else:
                entry.negative.append(items)
    for entry in by_user.values():
        if len(entry.positive) != len(entry.negative):
            raise ValueError(f"unbalanced set file for user {entry.user}")
    return [by_user[u] for u in sorted(by_user)]
