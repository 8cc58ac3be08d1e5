"""Seeded synthetic interaction data with planted structure.

Each user is assigned a pair of preferred categories and their sequence
alternates between them, with occasional excursions to other categories.
This plants both a per-user preference signal (learnable by any loss) and
cross-category transition structure (rewarding sequence-aware losses).
"""

from __future__ import annotations

import numpy as np

from .data import InteractionLog, _build_log


def make_synthetic_log(
    n_users: int = 500,
    n_items: int = 200,
    n_categories: int = 10,
    seq_len: int = 30,
    noise: float = 0.1,
    seed: int = 0,
) -> InteractionLog:
    """Interaction log with `seq_len` distinct items per user."""
    if n_items % n_categories != 0:
        raise ValueError("n_items must divide evenly into categories")
    per_cat = n_items // n_categories
    rng = np.random.default_rng(seed)
    item_category = np.repeat(np.arange(n_categories), per_cat)

    rows = []
    for u in range(n_users):
        cats = rng.choice(n_categories, size=2, replace=False)
        seen: set[int] = set()
        t = 0
        while len(seen) < seq_len:
            if rng.random() < noise:
                cat = int(rng.integers(n_categories))
            else:
                # alternate between the user's two preferred categories
                cat = int(cats[t % 2])
            pool = [
                i
                for i in range(cat * per_cat, (cat + 1) * per_cat)
                if i not in seen
            ]
            if not pool:
                continue
            item = int(rng.choice(pool))
            seen.add(item)
            rows.append((f"u{u}", f"i{item}", t, f"c{item_category[item]}"))
            t += 1
    return _build_log(*zip(*rows))
