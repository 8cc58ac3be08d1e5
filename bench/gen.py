"""Seeded interaction logs for the benchmark workloads.

The generator plants the structure the losses are meant to pick up: every
user has two preferred categories and alternates between them, with
occasional excursions to a random category.  It is written apart from
`dppseq.synthetic`, so a change there cannot change a workload.

Besides the planted users, a log may hold `cold_users` with COLD_LEN
actions each, fewer than `k_core`; k-core filtering removes them, and the
items only they touched, over more than one pass.
"""

from __future__ import annotations

import numpy as np

HEADER = "user_id,item_id,timestamp,categories\n"
NOISE = 0.15  # chance that a step goes to a random category
COLD_LEN = 3


def item_categories(n_items: int, n_categories: int, rng: np.random.Generator) -> list[tuple[int, ...]]:
    """Item i belongs to category i % n_categories; one item in eight also to
    the next category, so the category column holds lists."""
    cats = []
    for i in range(n_items):
        primary = i % n_categories
        if rng.random() < 0.125:
            cats.append(tuple(sorted((primary, (primary + 1) % n_categories))))
        else:
            cats.append((primary,))
    return cats


def make_rows(
    n_users: int,
    n_items: int,
    n_categories: int,
    seq_len: int,
    seed: int,
    cold_users: int = 0,
) -> tuple[list[tuple[str, str, int, str]], list[tuple[int, ...]]]:
    """Rows (user_id, item_id, timestamp, categories) in shuffled file order,
    and the category tuple of every item index."""
    if n_items % n_categories:
        raise ValueError("n_items must be a multiple of n_categories")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6265]))
    cats = item_categories(n_items, n_categories, rng)
    by_cat = [np.arange(c, n_items, n_categories) for c in range(n_categories)]
    if seq_len > 2 * len(by_cat[0]):
        raise ValueError("seq_len exceeds what two categories can supply")

    rows = []
    for u in range(n_users + cold_users):
        length = seq_len if u < n_users else COLD_LEN
        pref = rng.choice(n_categories, size=2, replace=False)
        seen: set[int] = set()
        ts = 1_600_000_000 + int(rng.integers(0, 86_400))
        step = 0
        while len(seen) < length:
            if rng.random() < NOISE:
                cat = int(rng.integers(n_categories))
            else:
                cat = int(pref[step % 2])
            pool = by_cat[cat]
            item = int(pool[rng.integers(pool.size)])
            step += 1
            if item in seen:
                continue
            seen.add(item)
            ts += int(rng.integers(60, 3_600))
            rows.append((f"u{u}", f"i{item}", ts, ";".join(f"c{c}" for c in cats[item])))
    order = rng.permutation(len(rows))
    return [rows[k] for k in order], cats


def write_csv(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(HEADER)
        fh.writelines(f"{u},{i},{t},{c}\n" for u, i, t, c in rows)
