"""Ground-truth diverse item sets for diversity-kernel learning.

Positive sets are drawn from each user's training items by weighted sampling
without replacement: after every pick, the weight of any not-yet-selected
item sharing a category with the pick is multiplied by a decay factor, which
favors category-diverse sets.  Each positive set is paired with a
category-matched negative set drawn from items the user never interacted
with.

`draw_paired_sets` makes the sets of all users in one array pass over blocks
of users, each user drawing from its own streams:

- A positive pick is the inverse-CDF draw of `rng.choice(n, p=...)` on one
  `rng.random()`.  Users with the same item count n draw POSITIVE_BLOCK sets
  each as the rows of one weight array, on uniforms from their own streams.
- A negative pick from m candidates takes the candidate at int(u * m) for the
  next uniform u of its user's stream, one uniform a pick.  All sets of a
  block step together over their positions.

`generate_diverse_sets`, `sample_negative_set` and `build_paired_sets` are the
same code on one user or one set.
"""

from __future__ import annotations

import logging
from itertools import islice, repeat
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .data import parse_int_rows, write_rows

log = logging.getLogger(__name__)

DEFAULT_DECAY = 0.5
DEFAULT_SET_SIZE = 5
POSITIVE_STREAM, NEGATIVE_STREAM = 0, 1
POSITIVE_BLOCK = 8  # positive sets drawn at once; those past full coverage are dropped
# what one block of users may hold, in 8-byte elements: its same-n decay
# factors, or its negative pools' (pools, catalog) membership, and its
# generators, which hold about 4 to 8 kB each
BLOCK_ELEMENTS = 1 << 18
GENERATOR_ELEMENTS = 1024
READ_LINES = 1 << 14  # sets-file lines read and parsed at once
_NONE_TAKEN = np.iinfo(np.intp).max


class PairedSets(NamedTuple):
    """The paired sets of one size k, as the kernel fit reads them: row 2i of
    `sets` is pair i's positive set and row 2i+1 its matched negative, each
    row ascending.  Pairs run in (user, draw) order.  A draw or a sets file
    is a list of these tables, one per size, in ascending k."""

    users: np.ndarray  # (P,) the user of each pair
    sets: np.ndarray  # (2P, k) intp

    @property
    def positive(self) -> np.ndarray:
        return self.sets[0::2]

    @property
    def negative(self) -> np.ndarray:
        return self.sets[1::2]


def paired_sets(
    users: Sequence[int], positives: Sequence[ArrayLike], negatives: Sequence[ArrayLike]
) -> list[PairedSets]:
    """The tables of user `users[i]`'s (S, k) positive sets `positives[i]`,
    row j matched to row j of `negatives[i]`; a user may come more than once.
    Raises ValueError naming the user as `_tables` does, or on sets that are
    not (S, k)."""
    chunks = []
    for user, *pair in zip(users, positives, negatives):
        for negative, sets in enumerate(np.asarray(s, dtype=np.intp) for s in pair):
            if sets.ndim != 2:
                raise ValueError(f"user {user}: sets are not an (S, k) array")
            rows = len(sets)
            chunks.append((np.full(rows, user, np.intp), np.full(rows, negative, bool), sets))
    return _tables(chunks)


def _tables(chunks: Iterable[tuple[np.ndarray, ...]], source=None) -> list[PairedSets]:
    """The tables of chunks of rows in draw order, each (R,) users, (R,)
    negative flags and (R, k) item ids: each user's i-th positive row is
    paired with its i-th negative row.  Raises ValueError naming the user,
    and `source` if given, when its rows differ in width or in sign count,
    or one holds a negative or repeated id."""
    where = f"{source}: " if source is not None else ""
    by_width: dict[int, list] = {}
    for chunk in chunks:
        if len(chunk[2]):
            by_width.setdefault(chunk[2].shape[1], []).append(chunk)
    held = [np.unique(np.concatenate([c[0] for c in group])) for group in by_width.values()]
    held = np.sort(np.concatenate([np.zeros(0, np.intp), *held]))
    if len(twice := held[1:][held[1:] == held[:-1]]):
        raise ValueError(f"{where}user {twice[0]}: rows differ in width")
    tables = []
    for k in sorted(by_width):
        # one width's chunks joined at a time, so that only its rows are held twice
        users, negative, sets = map(np.concatenate, zip(*by_width.pop(k)))
        sets.sort(axis=1)
        if len(bad := np.flatnonzero(_bad_rows(sets))):
            user = users[bad[0]]
            raise ValueError(f"{where}user {user}: a set holds a negative or repeated item id")
        # the positive rows by user, then the negative rows by user, each
        # user's in draw order: where each user has as many of both, the
        # i-th positive row and the i-th negative row are a pair
        order = np.lexsort((users, negative))
        half = len(users) - np.count_nonzero(negative)
        pair_users = users[order[:half]]
        if 2 * half != len(users) or np.any(pair_users != users[order[half:]]):
            distinct, code = np.unique(users, return_inverse=True)
            excess = np.bincount(code, np.where(negative, -1, 1), len(distinct))
            raise ValueError(f"{where}unbalanced sets for user {distinct[excess != 0][0]}")
        into = np.column_stack([order[:half], order[half:]]).ravel()
        # a file in dump order is in pair order already
        tables.append(PairedSets(pair_users, sets if np.all(into[1:] > into[:-1]) else sets[into]))
    return tables


def _bad_rows(rows: np.ndarray) -> np.ndarray:
    """Which rows of a row-sorted (R, k) array hold a negative or repeated id."""
    return (rows[:, :1] < 0).any(axis=1) | (rows[:, 1:] == rows[:, :-1]).any(axis=1)


def _check_settings(decay: float, set_size: int) -> None:
    if not 0.0 < decay <= 1.0:
        raise ValueError("decay must be in (0, 1]")
    if set_size < 1:
        raise ValueError("set_size must be >= 1")


def user_seed(seed: int, user: int, stream: int) -> np.random.SeedSequence:
    """Seed of one user's POSITIVE_STREAM or NEGATIVE_STREAM draws; every
    (seed, user, stream) gets its own, independent stream."""
    return np.random.SeedSequence([seed, user, stream])


def draw_paired_sets(
    users: Sequence[int],
    items: Sequence[Sequence[int]],
    histories: Sequence[Iterable[int]],
    item_categories: np.ndarray,
    decay: float = DEFAULT_DECAY,
    set_size: int = DEFAULT_SET_SIZE,
    seed: int = 0,
) -> list[PairedSets]:
    """The tables of positive sets plus matched negatives of `users`.

    `items[i]` are user i's distinct training items, at least one, and
    `histories[i]` every item it interacted with; `item_categories` is the
    (M, C) bool item x category table of the catalog's items 0..M-1.
    `seed` is the global seed: user u's positive and negative sets are drawn
    from the streams `user_seed(seed, u, ...)`, so each user's sets are the
    same whichever users are drawn with it.
    """
    _check_settings(decay, set_size)
    items = [np.asarray(i, dtype=np.intp) for i in items]
    if not all(len(i) for i in items):
        raise ValueError("user has no items to sample from")

    def streams(stream: int) -> Callable[[int], np.random.Generator]:
        # made block by block, so that a block's generators count in its size
        return lambda i: np.random.default_rng(user_seed(seed, users[i], stream))

    picks = _positive_picks(
        [item_categories[i] for i in items], decay, set_size, streams(POSITIVE_STREAM)
    )
    positives = [np.sort(i[p], axis=1) for i, p in zip(items, picks)]
    negatives = _negative_sets(
        items, positives, histories, item_categories, streams(NEGATIVE_STREAM)
    )
    return paired_sets(users, positives, negatives)


def build_paired_sets(
    user: int,
    items: Sequence[int],
    user_history: Iterable[int],
    item_categories: np.ndarray,
    decay: float = DEFAULT_DECAY,
    set_size: int = DEFAULT_SET_SIZE,
    seed: int = 0,
) -> PairedSets:
    """`draw_paired_sets` for one user: its one table."""
    return draw_paired_sets(
        [user], [items], [user_history], item_categories, decay, set_size, seed
    )[0]


def generate_diverse_sets(
    items: Sequence[int],
    categories: np.ndarray,
    decay: float = DEFAULT_DECAY,
    set_size: int = DEFAULT_SET_SIZE,
    seed: int | np.random.SeedSequence = 0,
) -> np.ndarray:
    """Emit positive sets until every item has appeared in at least one set,
    as an (S, min(set_size, n)) array of item ids, each row ascending.

    `items` are n distinct item ids and `categories` their (n, C) bool rows
    of the item x category table.  Weights reset to uniform at the start of
    each set, so the sets are identically distributed.
    """
    if not len(items):
        raise ValueError("user has no items to sample from")
    _check_settings(decay, set_size)
    items = np.asarray(items, dtype=np.intp)
    picks = _positive_picks([categories], decay, set_size, lambda _: np.random.default_rng(seed))
    return np.sort(items[picks[0]], axis=1)


def _positive_picks(
    categories: Sequence[np.ndarray],
    decay: float,
    set_size: int,
    rng_of: Callable[[int], np.random.Generator],
) -> list[np.ndarray]:
    """Each user's positive sets as (S, min(set_size, n)) indices into its
    items, in pick order, from the (n, C) category rows of its items and the
    generator `rng_of(user)`.

    Users of one item count n draw together, in blocks whose (users, n, n)
    decay factors stay within BLOCK_ELEMENTS: a row of one (rows, n) weight
    array sums as the 1-D weights of `rng.choice` do only at equal n."""
    picks: list[np.ndarray] = [np.zeros((0, 0), dtype=np.intp)] * len(categories)
    by_n: dict[int, list[int]] = {}
    for u, c in enumerate(categories):
        by_n.setdefault(len(c), []).append(u)
    for n, group in by_n.items():
        per_block = max(1, BLOCK_ELEMENTS // (n * max(n, POSITIVE_BLOCK) + GENERATOR_ELEMENTS))
        for lo in range(0, len(group), per_block):
            block = group[lo : lo + per_block]
            sets = _draw_sets(
                np.stack([categories[u] for u in block]),
                decay,
                min(set_size, n),
                [rng_of(u) for u in block],
            )
            for u, s in zip(block, sets):
                picks[u] = s
    return picks


def _draw_sets(
    categories: np.ndarray, decay: float, size: int, rngs: Sequence[np.random.Generator]
) -> list[np.ndarray]:
    """`_positive_picks` for G users of n items each, from their (G, n, C)
    category rows: rounds of POSITIVE_BLOCK sets per user, one set a row of
    one weight array, until each user's sets cover its items; the sets past
    the one that covers them are dropped."""
    G, n, _ = categories.shape
    rows = categories.astype(np.float32)  # a float product runs on BLAS; counts stay exact
    # factor[g, i]: what a pick of item i multiplies user g's weights by: 0
    # for item i itself, `decay` for the items sharing a category with it (a
    # weight already 0 stays 0) and 1 for the rest
    factor = np.where(rows @ rows.transpose(0, 2, 1) > 0, decay, 1.0)
    factor[:, np.arange(n), np.arange(n)] = 0.0
    covered = np.zeros((G, n), dtype=bool)
    sets: list[list[np.ndarray]] = [[] for _ in range(G)]
    active = np.arange(G)
    while len(active):
        uniforms = np.concatenate(
            [rngs[g].random((POSITIVE_BLOCK, size, 1)) for g in active.tolist()]
        )
        owner = np.repeat(active, POSITIVE_BLOCK)  # one set a row
        weights = np.ones((len(owner), n))
        cdf = np.empty_like(weights)
        picks = np.empty((len(owner), size), dtype=np.intp)
        for k in range(size):
            total = _choice_cdf(weights, cdf)
            picks[:, k] = pick = _choice_pick(cdf, uniforms[:, k])
            weights *= factor[owner, pick]
        # weights only fall, so a set whose total was ever 0 (rng.choice's NaN
        # probabilities) still has total 0 at its last pick
        ok = total[:, 0] > 0
        picks = picks.reshape(len(active), POSITIVE_BLOCK, size)
        hit = np.zeros((len(active), POSITIVE_BLOCK, n), dtype=bool)
        np.put_along_axis(hit, picks, True, axis=2)
        seen = np.logical_or.accumulate(hit, axis=1) | covered[active, None]
        full = seen.all(axis=2)
        done = full.any(axis=1)
        keep = np.where(done, full.argmax(axis=1) + 1, POSITIVE_BLOCK)
        kept = np.arange(POSITIVE_BLOCK) < keep[:, None]
        if (kept & ~ok.reshape(kept.shape)).any():
            raise ValueError("decayed weights underflowed to zero; raise decay")
        for a, g in enumerate(active.tolist()):
            sets[g].append(picks[a, : keep[a]])
        covered[active] = seen[:, -1]
        active = active[~done]
    return [np.concatenate(s) for s in sets]


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
    share a category with it.  Each match takes one `rng.random()` u and is
    the candidate at int(u * m) of the m items its pool holds less those
    already chosen; of `unseen`, the sorted items outside the history, less
    those, when nothing of its pool remains.
    """
    pools = [np.asarray(p, dtype=np.intp) for p in [*pools, unseen]]
    n_items = 1 + max((int(p.max()) for p in pools if len(p)), default=0)
    keys = np.concatenate([np.zeros(0, np.intp), *(k * n_items + p for k, p in enumerate(pools))])
    n = len(pools) - 1  # one user, one set of n picks; pool n is its unseen items
    chosen = _negative_picks(
        keys, n_items, np.arange(n), np.array([1]), np.array([n]), np.array([n]), [rng]
    )
    return sorted(chosen.tolist())


def _negative_sets(
    items: Sequence[np.ndarray],
    positives: Sequence[np.ndarray],
    histories: Sequence[Iterable[int]],
    item_categories: np.ndarray,
    rng_of: Callable[[int], np.random.Generator],
) -> list[np.ndarray]:
    """Each user's negative sets, (S, k) like its positive sets and row i
    matched to row i, drawn from `rng_of(user)` as `sample_negative_set`
    draws them, one uniform a pick.

    A pool is kept for each distinct category row of a user's items, and
    one more for its unseen items.  Users go through in blocks whose pools'
    membership of the catalog, one (pools, M) array, stays within
    BLOCK_ELEMENTS."""
    n_items = len(item_categories)
    rows, row_of = np.unique(item_categories, axis=0, return_inverse=True)
    row_of = row_of.reshape(-1)
    rows, table = rows.astype(np.float32), item_categories.astype(np.float32)
    pairs = np.concatenate([[0], *(u * len(rows) + row_of[i] for u, i in enumerate(items))])
    n_pools = np.bincount(np.unique(pairs[1:]) // len(rows), minlength=len(items))
    n_picks = np.array([p.size for p in positives], dtype=np.intp)
    cost = np.cumsum((n_pools + 1) * n_items + 2 * n_picks + GENERATOR_ELEMENTS)
    negatives = []
    lo = 0
    while lo < len(items):
        below = cost[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(cost, below + BLOCK_ELEMENTS, side="right")))
        users = range(lo, hi)
        picks = np.concatenate([positives[u].ravel() for u in users])
        owner = np.repeat(np.arange(len(users)), n_picks[lo:hi])
        pools, pick_pool = np.unique(owner * len(rows) + row_of[picks], return_inverse=True)
        pool_user, pool_row = np.divmod(pools, len(rows))
        history = [np.fromiter(histories[u], dtype=np.intp) for u in users]
        member = np.ones((len(pools) + len(users), n_items), dtype=bool)
        unseen = member[len(pools) :]  # each user's unseen items, the last pools
        seen_by = np.repeat(np.arange(len(users)), [len(h) for h in history])
        unseen[seen_by, np.concatenate(history)] = False
        member[: len(pools)] = rows[pool_row] @ table.T > 0
        member[: len(pools)] &= unseen[pool_user]
        chosen = _negative_picks(
            np.flatnonzero(member),  # pool * M + item, ascending: each pool's items, sorted
            n_items,
            pick_pool.reshape(-1),
            np.array([len(positives[u]) for u in users]),
            np.array([positives[u].shape[1] for u in users]),
            len(pools) + np.arange(len(users)),
            [rng_of(u) for u in users],
        )
        ends = np.cumsum(n_picks[lo:hi])[:-1]
        negatives += [c.reshape(positives[u].shape) for u, c in zip(users, np.split(chosen, ends))]
        lo = hi
    return negatives


def _negative_picks(
    keys: np.ndarray,
    n_items: int,
    pick_pool: np.ndarray,
    counts: np.ndarray,
    sizes: np.ndarray,
    unseen_pool: np.ndarray,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """The matched negative of every positive pick of a block of users.

    Pool p's items are the ascending `keys` p * n_items + item, and user b's
    unseen items are its pool `unseen_pool[b]`, the last pools.  User b's
    picks come next in `pick_pool`: `counts[b]` sets of `sizes[b]` picks back
    to back, which take the uniforms of one `rngs[b].random` call in turn.
    A pick with uniform u takes the item at int(u * m) of the m items its
    pool holds less those its set has chosen; of its user's unseen items
    less those, when none remains.  The sets step together over their
    positions.
    """
    n_pools = int(unseen_pool.max()) + 1
    start = np.searchsorted(keys, np.arange(n_pools + 1) * n_items)
    keys = np.append(keys, n_pools * n_items)  # no lookup runs past the end
    owner = np.repeat(np.arange(len(rngs)), counts)  # the user of each set
    size = sizes[owner]
    first = np.cumsum(size) - size  # each set's first pick
    uniforms = np.concatenate([r.random(n) for r, n in zip(rngs, (counts * sizes).tolist())])
    chosen = np.zeros(len(uniforms), dtype=np.intp)
    for q in range(int(size.max())):
        live = np.flatnonzero(size > q)
        pick = first[live] + q
        before = chosen[pick[:, None] - q + np.arange(q)]  # the set's earlier picks
        pool = pick_pool[pick]
        m, taken = _remaining(keys, start, pool, before, n_items)
        empty = np.flatnonzero(m == 0)
        if len(empty):
            log.debug("category-matched pool empty; falling back to uniform unseen draw")
            pool[empty] = unseen_pool[owner[live[empty]]]
            m[empty], taken[empty] = _remaining(keys, start, pool[empty], before[empty], n_items)
            if not m.all():
                raise ValueError("catalog exhausted while sampling a negative set")
        j = (uniforms[pick] * m).astype(np.intp)
        for c in range(q):  # skip past the chosen items, in pool order
            j += taken[:, c] <= j
        chosen[pick] = keys[start[pool] + j] - pool * n_items
    return chosen


def _remaining(
    keys: np.ndarray, start: np.ndarray, pool: np.ndarray, before: np.ndarray, n_items: int
) -> tuple[np.ndarray, np.ndarray]:
    """How many items each `pool` holds less its set's earlier picks
    `before`, and where in the pool those it holds are, ascending and padded
    with _NONE_TAKEN."""
    wanted = pool[:, None] * n_items + before
    found = keys.searchsorted(wanted)
    held = keys[found] == wanted
    lo = start[pool]
    taken = np.sort(np.where(held, found - lo[:, None], _NONE_TAKEN), axis=1)
    return start[pool + 1] - lo - held.sum(axis=1), taken


def dump_paired_sets(tables: Sequence[PairedSets], path) -> None:
    """Write the tables' sets as `user<TAB>+|-<TAB>comma-separated item ids`
    lines in user order, each positive set followed by its negative."""
    table_of = np.repeat(np.arange(len(tables)), [len(t.users) for t in tables])
    pair_of = np.concatenate([np.zeros(0, np.intp), *(np.arange(len(t.users)) for t in tables)])
    users = np.concatenate([np.zeros(0, np.intp), *(t.users for t in tables)])
    order = np.argsort(users, kind="stable")
    # in user order, the pairs come in runs of one table each
    heads = np.flatnonzero(np.diff(table_of[order], prepend=-1)).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        for head, end in zip(heads, [*heads[1:], len(order)]):
            table, run = tables[table_of[order[head]]], pair_of[order[head:end]]
            users, positive, negative = table.users[run], table.positive[run], table.negative[run]
            ids = ",".join(["%d"] * positive.shape[1])
            write_rows(fh, f"%d\t+\t{ids}\n%d\t-\t{ids}", [users, positive, users, negative])


def load_paired_sets(path) -> list[PairedSets]:
    """The tables of a `dump_paired_sets` file, each user's sets in file
    order.  Raises ValueError naming the file on a malformed line, and its
    user too on a malformed item id, and as `_tables` does.

    The file is read READ_LINES lines at a time, and of each block only its
    int arrays are kept."""

    def chunks():
        with open(path, encoding="utf-8") as fh:
            while block := "".join(islice(fh, READ_LINES)):
                if lines := [ln for ln in block.splitlines() if ln]:
                    yield from _parse_block(lines, path)

    return _tables(chunks(), path)


def _parse_block(lines: list[str], path) -> list[tuple[np.ndarray, ...]]:
    """The (users, negative flags, item ids) chunks of a block of lines, one
    a width."""
    fields = "\t\n\t".join(lines).split("\t")  # "\n" closes each line
    users, signs, ids, ends = (fields[k::4] for k in range(4))
    if len(fields) != 4 * len(lines) - 1 or {*ends} - {"\n"} or {*signs} - {"+", "-"}:
        raise ValueError(f"{path}: a line is not user<TAB>+|-<TAB>item ids")
    users = parse_int_rows(users, 1, path)[:, 0]
    negative = np.frombuffer("".join(signs).encode(), np.uint8) == ord("-")
    widths = np.fromiter(map(str.count, ids, repeat(",")), np.intp, len(ids)) + 1
    chunks = []
    for width in np.unique(widths).tolist():
        rows = np.flatnonzero(widths == width)
        lines = [ids[i] for i in rows.tolist()]
        try:
            chunks.append((users[rows], negative[rows], parse_int_rows(lines, width, path)))
        except ValueError:
            for line, user in zip(lines, users[rows].tolist()):
                parse_int_rows([line], width, f"{path}: user {user}")
            raise
    return chunks
