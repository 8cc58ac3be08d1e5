"""Diverse-set generation, matched negative sampling and the sets file."""

import tracemalloc
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dppseq.cli import load_config
from dppseq.cli import main as cli_main
from dppseq.data import load_interactions, temporal_split, user_histories, write_interactions
from dppseq import diverse_sets
from dppseq.diverse_sets import (
    NEGATIVE_STREAM,
    POSITIVE_BLOCK,
    POSITIVE_STREAM,
    PairedSets,
    build_paired_sets,
    dump_paired_sets,
    generate_diverse_sets,
    load_paired_sets,
    paired_sets,
    sample_negative_set,
    _choice_cdf,
    _choice_pick,
    user_seed,
)
from dppseq.kernel_learning import (
    KernelTrainConfig,
    _group_sets,
    load_kernel,
    normalize_kernel,
    train_kernel,
)
from dppseq.synthetic import make_synthetic_log
from tests.conftest import category_table


def items_with_cats(cats_per_item):
    return [(i, frozenset(c)) for i, c in enumerate(cats_per_item)]


def as_arrays(user_items, n_categories=None):
    """`generate_diverse_sets`'s items and category rows of (item, category
    set) pairs."""
    cats = [c for _, c in user_items]
    width = n_categories or 1 + max(chain.from_iterable(cats), default=0)
    return [i for i, _ in user_items], category_table(cats, width)


def unseen_mask(n_items, history):
    mask = np.ones(n_items, dtype=bool)
    mask[list(history)] = False
    return mask


_NO_ITEMS = np.zeros(0, dtype=np.intp)


def unseen_pool(catalog_by_category, categories, unseen_mask):
    """The union of per-category catalog arrays that `build_paired_sets`
    replaced with a column test on the item x category table: the sorted
    catalog items in any of `categories` that `unseen_mask` keeps."""
    own = [
        np.asarray(catalog_by_category[c], dtype=np.intp)
        for c in categories
        if c in catalog_by_category
    ]
    items = own[0] if len(own) == 1 else np.unique(np.concatenate([_NO_ITEMS, *own]))
    return items[unseen_mask[items]].tolist()


def negative_pools(positive, positive_categories, catalog, history, n_items):
    """sample_negative_set's arguments for a positive set: each item's pool,
    in ascending item order, and the unseen items."""
    mask = unseen_mask(n_items, history)
    pools = [unseen_pool(catalog, positive_categories[i], mask) for i in sorted(positive)]
    return pools, np.flatnonzero(mask)


class TestGenerateDiverseSets:
    def test_five_items_five_categories_single_set(self):
        user_items = items_with_cats([[0], [1], [2], [3], [4]])
        sets = generate_diverse_sets(*as_arrays(user_items), seed=1)
        assert sets.tolist() == [[0, 1, 2, 3, 4]]

    def test_single_category_uniform_decay(self):
        user_items = items_with_cats([[0]] * 5)
        for seed in range(50):
            sets = generate_diverse_sets(*as_arrays(user_items), seed=seed)
            assert sets.tolist() == [[0, 1, 2, 3, 4]]

    def test_decay_increases_category_diversity(self):
        # 10 items in 2 categories (5+5): decayed sampling should cover both
        # categories more often than the no-decay control
        user_items = items_with_cats([[0]] * 5 + [[1]] * 5)

        def mean_categories(decay, runs=400):
            counts = []
            for seed in range(runs):
                for s in generate_diverse_sets(*as_arrays(user_items), decay=decay, seed=seed):
                    cats = {0 if i < 5 else 1 for i in s}
                    counts.append(len(cats))
            return float(np.mean(counts))

        assert mean_categories(0.2) > mean_categories(1.0)

    def test_coverage_and_distinctness(self):
        rng = np.random.default_rng(0)
        cats = [[int(rng.integers(3))] for _ in range(12)]
        user_items = items_with_cats(cats)
        sets = generate_diverse_sets(*as_arrays(user_items), seed=3)
        assert set(sets.ravel().tolist()) == set(range(12))
        assert sets.dtype == np.intp and sets.shape[1] == 5
        assert np.all(sets[:, 1:] > sets[:, :-1])  # distinct items, ascending

    def test_short_user_gets_small_sets(self):
        user_items = items_with_cats([[0], [1], [2]])
        sets = generate_diverse_sets(*as_arrays(user_items), seed=0)
        assert sets.tolist() == [[0, 1, 2]]

    def test_deterministic(self):
        user_items = items_with_cats([[i % 3] for i in range(9)])
        a = generate_diverse_sets(*as_arrays(user_items), seed=42)
        b = generate_diverse_sets(*as_arrays(user_items), seed=42)
        assert np.array_equal(a, b)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            generate_diverse_sets([], np.zeros((0, 1), bool), seed=0)

    @pytest.mark.parametrize("set_size", [0, -1])
    def test_set_size_below_one_rejected(self, set_size):
        # a set of no items never adds coverage, so this would never return
        with pytest.raises(ValueError, match="set_size"):
            generate_diverse_sets(*as_arrays(items_with_cats([[0], [1]])), set_size=set_size)

    @pytest.mark.parametrize("decay", [0.0, 1.5, float("nan")])
    def test_decay_outside_unit_interval_rejected(self, decay):
        with pytest.raises(ValueError, match="decay"):
            generate_diverse_sets(*as_arrays(items_with_cats([[0], [1]])), decay=decay)


class TestChoiceArithmetic:
    """The block code's pieces against the 1-D arithmetic of
    `rng.choice(n, p=w / w.sum())`, bit for bit."""

    def random_weights(self, setup):
        n = int(setup.integers(1, 300))
        rows = int(setup.integers(1, 2 * POSITIVE_BLOCK))
        if setup.random() < 0.5:
            # decayed weights: powers of one decay, some picked (0)
            weights = setup.uniform(0.01, 1.0) ** setup.integers(0, 12, size=(rows, n))
            weights *= setup.random((rows, n)) > 0.3
        else:
            weights = setup.random((rows, n)) * 10.0 ** setup.integers(-30, 30, size=(rows, n))
        weights[:, setup.integers(n)] = 1.0  # no row is all 0
        return weights

    def test_row_cdf_is_the_1d_cdf(self):
        setup = np.random.default_rng(7)
        for case in range(400):
            weights = self.random_weights(setup)
            cdf = np.empty_like(weights)
            total = _choice_cdf(weights, cdf)
            for r, w in enumerate(weights):
                assert total[r, 0] == w.sum(), case
                want = (w / w.sum()).cumsum()
                want /= want[-1]
                assert cdf[r].tobytes() == want.tobytes(), (case, r)

    def test_pick_is_searchsorted_right(self):
        setup = np.random.default_rng(8)
        for case in range(400):
            weights = self.random_weights(setup)
            cdf = np.empty_like(weights)
            _choice_cdf(weights, cdf)
            # random uniforms, 0, and CDF entries themselves (ties)
            u = setup.random(len(cdf))
            u[setup.random(len(cdf)) < 0.3] = 0.0
            ties = setup.random(len(cdf)) < 0.4
            u[ties] = cdf[ties, setup.integers(cdf.shape[1])]
            want = [np.searchsorted(row, x, side="right") for row, x in zip(cdf, u)]
            assert _choice_pick(cdf, u[:, None]).tolist() == want, case


class TestSampleNegativeSet:
    def setup_method(self):
        # catalog: items 0-9 in cat 0, 10-19 in cat 1
        self.catalog = {0: list(range(10)), 1: list(range(10, 20))}
        self.cats = {i: frozenset([0 if i < 10 else 1]) for i in range(20)}

    def sample(self, positive, history, rng):
        pools, unseen = negative_pools(positive, self.cats, self.catalog, history, 20)
        return sample_negative_set(pools, unseen, rng)

    def test_category_matching(self):
        neg = self.sample({0, 10}, {0, 10}, np.random.default_rng(0))
        assert len(neg) == 2 and neg == sorted(neg)
        assert neg[0] < 10 <= neg[1]
        assert not set(neg) & {0, 10}

    def test_fallback_when_category_exhausted(self):
        # user has seen every cat-0 item, so the match falls back to unseen
        neg = self.sample({0}, set(range(10)), np.random.default_rng(0))
        assert len(neg) == 1
        assert neg[0] >= 10

    def test_catalog_exhausted_rejected(self):
        with pytest.raises(ValueError):
            self.sample({0}, set(range(20)), np.random.default_rng(0))

    def test_never_returns_history_items(self):
        history = set(range(0, 20, 2))
        for seed in range(200):
            neg = self.sample({0, 11}, history, np.random.default_rng(seed))
            assert not set(neg) & history


def reference_sample_negative_set(
    positive, positive_categories, user_history, catalog_by_category, rng, all_items
):
    """The per-item scan over the catalog that `sample_negative_set` replaced,
    with the chosen items in ascending order: each match is the candidate at
    int(u * m) of the m candidates, for one `rng.random()` u."""
    chosen = set()
    for pos_item in sorted(positive):
        cats = sorted(positive_categories[pos_item])
        candidates = []
        for c in cats:
            candidates.extend(
                i
                for i in catalog_by_category.get(c, ())
                if i not in user_history and i not in chosen
            )
        if not candidates:
            candidates = [i for i in all_items if i not in user_history and i not in chosen]
            if not candidates:
                raise ValueError("catalog exhausted while sampling a negative set")
        candidates = sorted(set(candidates))
        chosen.add(candidates[int(rng.random() * len(candidates))])
    return sorted(chosen)


def reference_generate_diverse_sets(user_items, decay=0.5, set_size=5, seed=0):
    """The one `rng.choice(n, p=...)` per pick that `generate_diverse_sets`
    replaced, each set's items in ascending order."""
    items = [int(i) for i, _ in user_items]
    categories = [frozenset(c) for _, c in user_items]
    n = len(items)
    size = min(set_size, n)
    rng = np.random.default_rng(seed)
    shares = np.array([[bool(a & b) for b in categories] for a in categories])
    covered = set()
    sets = []
    while len(covered) < n:
        weights = np.ones(n)
        chosen = []
        for _ in range(size):
            probs = weights / weights.sum()
            pick = int(rng.choice(n, p=probs))
            chosen.append(pick)
            weights[pick] = 0.0
            weights[shares[pick] & (weights > 0)] *= decay
        covered.update(chosen)
        sets.append(sorted(items[i] for i in chosen))
    return sets


def random_user_items(setup, n):
    """n distinct item ids in random order, with one to three of up to six
    categories each."""
    n_cats = int(setup.integers(1, 7))
    ids = setup.choice(10 * n, n, replace=False)
    return [
        (int(i), frozenset(int(c) for c in setup.integers(n_cats, size=setup.integers(1, 4))))
        for i in ids
    ]


class TestMatchesReference:
    def test_same_draws_on_same_generator_states(self):
        """Random catalogs with one or two categories per item and histories
        from empty to a whole category, so the uniform fallback and the
        exhausted catalog both occur; each case runs both functions on twin
        generators."""
        fallbacks = exhausted = 0
        for case in range(300):
            setup = np.random.default_rng([case, 1])
            n_items, n_cats = int(setup.integers(4, 40)), int(setup.integers(1, 5))
            item_cats = {}
            for i in range(n_items):
                extra = {int(setup.integers(n_cats))} if setup.random() < 0.3 else set()
                item_cats[i] = frozenset({i % n_cats} | extra)
            catalog = {}
            for i, cats in item_cats.items():
                for c in cats:
                    catalog.setdefault(c, []).append(i)
            seen = setup.choice(n_items, setup.integers(n_items), replace=False)
            history = {int(i) for i in seen}
            if case % 3 == 0:
                history |= set(catalog[0])  # category 0 has no unseen items left
            size = setup.integers(1, min(6, n_items))
            positive = {int(i) for i in setup.choice(n_items, size, replace=False)}
            positive_cats = {i: item_cats[i] for i in positive}
            all_items = list(range(n_items))
            pools, unseen = negative_pools(positive, positive_cats, catalog, history, n_items)
            fallbacks += not all(pools)
            rng_ref, rng_new = np.random.default_rng(case), np.random.default_rng(case)
            try:
                want = reference_sample_negative_set(
                    positive, positive_cats, history, catalog, rng_ref, all_items
                )
            except ValueError:
                exhausted += 1
                with pytest.raises(ValueError):
                    sample_negative_set(pools, unseen, rng_new)
                continue
            got = sample_negative_set(pools, unseen, rng_new)
            assert got == want, case
            assert rng_new.bit_generator.state == rng_ref.bit_generator.state, case
        assert exhausted > 0 and fallbacks > exhausted, (exhausted, fallbacks)

    def test_positive_sets_equal_one_choice_per_pick(self):
        """Random users of 1 to 40 items, decay in (0, 1] with 1.0 among
        them, and set sizes below and above the item count: the set lists
        equal those of one `rng.choice(n, p=...)` per pick, which rests on
        the row sums and counts of the array code matching numpy's 1-D sum
        and searchsorted bit for bit."""
        sizes_seen = set()
        for case in range(300):
            setup = np.random.default_rng([case, 2])
            n = int(setup.integers(1, 41))
            user_items = random_user_items(setup, n)
            decay = 1.0 if case % 5 == 0 else float(setup.uniform(0.01, 1.0))
            set_size = int(setup.integers(1, n + 4))
            sizes_seen.add(set_size > n)
            seed = user_seed(case, 1, POSITIVE_STREAM)
            want = reference_generate_diverse_sets(user_items, decay, set_size, seed)
            items, categories = as_arrays(user_items, 6)
            got = generate_diverse_sets(items, categories, decay, set_size, seed)
            assert len(got) == len(want), case
            for row, (got_row, want_row) in enumerate(zip(got.tolist(), want)):
                assert got_row == want_row, (case, row)
        assert sizes_seen == {False, True}

    def test_underflowed_weights_rejected_like_choice(self):
        # the third pick finds every weight decayed to 0, where rng.choice
        # raises on its NaN probabilities
        user_items = items_with_cats([[0]] * 4)
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError):
                reference_generate_diverse_sets(user_items, decay=1e-200, set_size=3)
            with pytest.raises(ValueError):
                generate_diverse_sets(*as_arrays(user_items), decay=1e-200, set_size=3)

    def test_thousand_item_user_equals_one_choice_per_pick(self):
        """1,000 items in 50 categories, one to three each: the decay pattern
        comes from a float product on BLAS, and the sets equal those of one
        `rng.choice(n, p=...)` per pick."""
        setup = np.random.default_rng(5)
        user_items = [
            (int(i), frozenset(setup.choice(50, setup.integers(1, 4), replace=False).tolist()))
            for i in setup.permutation(3000)[:1000]
        ]
        seed = user_seed(5, 9, POSITIVE_STREAM)
        want = reference_generate_diverse_sets(user_items, 0.5, 5, seed)
        got = generate_diverse_sets(*as_arrays(user_items, 50), 0.5, 5, seed)
        assert got.tolist() == want


class TestUserStreams:
    def test_no_two_streams_start_alike(self):
        """Before, user u drew positives from seed ^ u and negatives from
        (seed ^ u) + 1, so with seed 0 user 4's negatives replayed user 5's
        positives."""
        starts = {}
        for seed in range(4):
            for user in range(200):
                for stream in (POSITIVE_STREAM, NEGATIVE_STREAM):
                    rng = np.random.default_rng(user_seed(seed, user, stream))
                    first = tuple(rng.integers(2**63, size=4))
                    assert first not in starts, ((seed, user, stream), starts.get(first))
                    starts[first] = (seed, user, stream)

    def test_build_paired_sets_draws_from_the_user_streams(self):
        table = category_table([[i % 2] for i in range(20)], 2)
        for user in (4, 5):
            pairs = build_paired_sets(user, range(7), set(range(7)), table, seed=0)
            assert np.array_equal(
                pairs.positive,
                generate_diverse_sets(
                    range(7), table[:7], seed=user_seed(0, user, POSITIVE_STREAM)
                ),
            )


class TestPairedDiverseSets:
    """The checks of `paired_sets`, the builder of every table of sets."""

    def test_rows_sorted_on_entry(self):
        (pairs,) = paired_sets([3], [[[4, 1, 2]]], [np.array([[9, 0, 5]])])
        assert pairs.positive.tolist() == [[1, 2, 4]] and pairs.negative.tolist() == [[0, 5, 9]]
        assert pairs.positive.dtype == pairs.negative.dtype == np.intp
        assert pairs.users.tolist() == [3] and pairs.sets.tolist() == [[1, 2, 4], [0, 5, 9]]

    @pytest.mark.parametrize(
        "positive, negative",
        [
            ([[1, 2], [3, 4]], [[5, 6]]),  # unbalanced
            ([[1, 2]], [[5]]),  # sizes differ
            ([[1, 2]], [[5, -1]]),
            ([[1, 1]], [[5, 6]]),
            ([1, 2], [5, 6]),  # not (S, k)
        ],
    )
    def test_invalid_sets_rejected(self, positive, negative):
        with pytest.raises(ValueError, match="user 3"):
            paired_sets([3], [positive], [negative])


class TestBuildPairedSets:
    def test_matched_sizes_and_coverage(self):
        # user interacted with items 0..5, three in each category
        table = category_table([[0]] * 3 + [[1]] * 3 + [[i // 10] for i in range(6, 20)], 2)
        pairs = build_paired_sets(
            user=7,
            items=range(6),
            user_history=set(range(6)),
            item_categories=table,
            seed=5,
        )
        assert pairs.users.tolist() == [7] * len(pairs.positive)
        assert pairs.positive.shape == pairs.negative.shape
        assert set(pairs.positive.ravel().tolist()) == set(range(6))
        assert not set(pairs.negative.ravel().tolist()) & set(range(6))
        assert np.all(pairs.negative[:, 1:] > pairs.negative[:, :-1])

    def test_dump_load_round_trip(self, tmp_path):
        table = np.ones((10, 1), dtype=bool)
        pairs = build_paired_sets(0, range(5), set(range(5)), table, seed=0)
        path = tmp_path / "sets.tsv"
        dump_paired_sets([pairs], path)
        loaded = load_paired_sets(path)
        assert len(loaded) == 1
        assert np.array_equal(loaded[0].users, pairs.users)
        assert np.array_equal(loaded[0].positive, pairs.positive)
        assert np.array_equal(loaded[0].negative, pairs.negative)

    def test_dump_writes_every_pair_of_tables_out_of_user_order(self, tmp_path):
        """Tables whose users do not ascend: every pair is written, in user
        order, so the read gives the same pairs sorted by user."""
        tables = [
            PairedSets(np.array([2, 0]), np.array([[10], [11], [12], [13]])),
            PairedSets(np.array([3, 1, 3]), np.arange(12).reshape(6, 2)),
        ]
        path = tmp_path / "sets.tsv"
        dump_paired_sets(tables, path)
        assert path.read_text().splitlines() == [
            "0\t+\t12", "0\t-\t13",
            "1\t+\t4,5", "1\t-\t6,7",
            "2\t+\t10", "2\t-\t11",
            "3\t+\t0,1", "3\t-\t2,3", "3\t+\t8,9", "3\t-\t10,11",
        ]  # fmt: skip
        narrow, wide = load_paired_sets(path)
        assert narrow.users.tolist() == [0, 2] and narrow.sets.ravel().tolist() == [12, 13, 10, 11]
        assert wide.users.tolist() == [1, 3, 3]
        assert wide.sets.tolist() == tables[1].sets[[2, 3, 0, 1, 4, 5]].tolist()


def _shares(categories):
    """The per-user float incidence product that `generate_diverse_sets`
    replaced with `categories @ categories.T`: shares[i, j] is whether items
    i and j have a category in common."""
    columns = {}
    rows, cols = [], []
    for r, cats in enumerate(categories):
        for c in cats:
            rows.append(r)
            cols.append(columns.setdefault(c, len(columns)))
    incidence = np.zeros((len(categories), len(columns)))
    incidence[rows, cols] = 1.0
    return incidence @ incidence.T > 0


def reference_draw_block(factor, size, rng):
    """One user's POSITIVE_BLOCK sets of `size` picks on the (n, n) decay
    `factor`, as the one-user array code drew them before the users of one
    item count were drawn together: (POSITIVE_BLOCK, size) indices."""
    uniforms = rng.random((POSITIVE_BLOCK, size, 1))
    weights = np.ones((POSITIVE_BLOCK, len(factor)))
    cdf = np.empty_like(weights)
    picks = np.empty((POSITIVE_BLOCK, size), dtype=np.intp)
    for k in range(size):
        _choice_cdf(weights, cdf)
        picks[:, k] = pick = _choice_pick(cdf, uniforms[:, k])
        weights *= factor[pick]
    return picks


def reference_build_paired_sets(user, user_items, user_history, item_categories, decay,
                                set_size, seed):
    """`build_paired_sets` on the frozenset path it replaced: `user_items` as
    (item, category set) pairs, the decay factor from `_shares`, and each
    negative pool the union of per-category arrays of a catalog dict.  Returns
    the pairs and the positive and negative generators."""
    items = np.array([i for i, _ in user_items], dtype=np.intp)
    n = len(items)
    positive_rng = np.random.default_rng(user_seed(seed, user, POSITIVE_STREAM))
    factor = np.where(_shares([c for _, c in user_items]), decay, 1.0)
    np.fill_diagonal(factor, 0.0)
    covered, sets = set(), []
    while len(covered) < n:
        picks = reference_draw_block(factor, min(set_size, n), positive_rng)
        for row in picks.tolist():
            sets.append(row)
            covered.update(row)
            if len(covered) == n:
                break
    positives = np.sort(items[sets], axis=1)

    catalog = {}
    for item, cats in enumerate(item_categories):
        for c in cats:
            catalog.setdefault(c, []).append(item)
    negative_rng = np.random.default_rng(user_seed(seed, user, NEGATIVE_STREAM))
    mask = unseen_mask(len(item_categories), user_history)
    cats_of = dict(user_items)
    pools = {c: unseen_pool(catalog, c, mask) for c in set(cats_of.values())}
    negatives = [
        sample_negative_set([pools[cats_of[i]] for i in pos], np.flatnonzero(mask), negative_rng)
        for pos in positives.tolist()
    ]
    (pairs,) = paired_sets([user], [positives], [negatives])
    return pairs, positive_rng, negative_rng


def test_build_paired_sets_matches_the_frozenset_path(monkeypatch):
    """Random catalogs of items in one to three categories, users whose items
    leave some categories unmarked, histories that empty a category of the
    user's items, and decay 1.0 among the decays: the pairs, and the states
    of both generators after the draws, equal those of the frozenset path."""
    make_rng, made = np.random.default_rng, []

    def recording_rng(seed):
        made.append(make_rng(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    seen = dict(multi_category=0, unmarked_category=0, emptied_category=0, decay_one=0,
                exhausted=0)
    for case in range(200):
        setup = make_rng([case, 3])
        n_items, n_cats = int(setup.integers(4, 50)), int(setup.integers(1, 7))
        item_cats = [
            frozenset(setup.choice(n_cats, min(n_cats, setup.integers(1, 4)), replace=False).tolist())
            for _ in range(n_items)
        ]
        table = category_table(item_cats, n_cats)
        ids = setup.permutation(n_items)[: setup.integers(1, min(15, n_items // 2) + 1)].tolist()
        user_items = [(i, item_cats[i]) for i in ids]
        history = set(ids) | set(setup.choice(n_items, setup.integers(n_items // 2 + 1)).tolist())
        if case % 3 == 0:
            emptied = min(item_cats[ids[0]])
            history |= {i for i, c in enumerate(item_cats) if emptied in c}
        decay = 1.0 if case % 4 == 0 else float(setup.uniform(0.05, 1.0))
        set_size = int(setup.integers(1, 7))
        seen["multi_category"] += any(len(c) > 1 for _, c in user_items)
        seen["unmarked_category"] += not table[ids].any(axis=0).all()
        seen["emptied_category"] += any(
            history >= {i for i, c in enumerate(item_cats) if c & cats} for _, cats in user_items
        )
        seen["decay_one"] += decay == 1.0
        args = (case, user_items, history)
        try:
            want, *want_rngs = reference_build_paired_sets(*args, item_cats, decay, set_size, 7)
        except ValueError:
            seen["exhausted"] += 1
            with pytest.raises(ValueError):
                build_paired_sets(case, ids, history, table, decay, set_size, 7)
            continue
        made.clear()
        got = build_paired_sets(case, ids, history, table, decay, set_size, 7)
        assert np.array_equal(got.users, want.users), case
        assert np.array_equal(got.positive, want.positive), case
        assert np.array_equal(got.negative, want.negative), case
        assert [r.bit_generator.state for r in made] == [r.bit_generator.state for r in want_rngs]
    assert min(seen.values()) > 0, seen


def reference_sets_file(out, T, decay, set_size, seed):
    """diverse_sets.tsv as the per-pick reference functions write it, from
    the filtered log of a prepared pipeline."""
    log = load_interactions(out / "filtered.csv")
    split = temporal_split(log, T)
    histories = user_histories(split)
    item_categories = [frozenset(np.flatnonzero(row).tolist()) for row in log.item_categories]
    catalog = {}
    for item, cats in enumerate(item_categories):
        for c in cats:
            catalog.setdefault(c, []).append(item)
    lines = []
    for u, train in enumerate(split.train):
        if not train:
            continue
        user_items = [(i, item_categories[i]) for i in dict.fromkeys(train)]
        positives = reference_generate_diverse_sets(
            user_items, decay, set_size, user_seed(seed, u, POSITIVE_STREAM)
        )
        rng = np.random.default_rng(user_seed(seed, u, NEGATIVE_STREAM))
        cats = dict(user_items)
        for pos in positives:
            neg = reference_sample_negative_set(
                pos, cats, histories[u], catalog, rng, range(log.n_items)
            )
            lines.append(f"{u}\t+\t{','.join(map(str, sorted(pos)))}\n")
            lines.append(f"{u}\t-\t{','.join(map(str, sorted(neg)))}\n")
    return "".join(lines).encode()


@pytest.mark.parametrize("decay, set_size", [(0.5, 5), (0.3, 3)])
def test_gen_sets_matches_the_choice_reference(tmp_path, decay, set_size):
    """The acceptance determinism pipeline: if numpy ever changes the draws
    of `rng.choice`, this fails instead of the sets drifting silently."""
    dataset = tmp_path / "interactions.csv"
    log = make_synthetic_log(n_users=30, n_items=50, n_categories=5, seq_len=14, seed=0)
    write_interactions(dataset, log)
    out = tmp_path / "out"
    config = tmp_path / "config.txt"
    config.write_text(
        f"dataset={dataset}\nout={out}\nT=2\nk_core=2\nkernel_dim=8\nkernel_epochs=5\n"
        "kernel_lr=0.01\nscorer_dim=8\nmax_epochs=3\nlosses=ce,cdsl\nseed=3\n"
        f"decay={decay}\nset_size={set_size}\n"
    )
    assert cli_main(["--config", str(config), "prepare"]) == 0
    assert cli_main(["--config", str(config), "gen-sets"]) == 0
    want = reference_sets_file(out, 2, decay, set_size, seed=3)
    assert (out / "diverse_sets.tsv").read_bytes() == want


def write_multi_user_log(path):
    """2,000 items in 50 categories, every seventh item in a second one.
    User "heavy" has 1,052 train items, user "fallback" every item of
    category c0, user "narrow" every item of category c1 but one, and 100
    more users of 3 to 30 items, 60 of them of 8."""
    setup = np.random.default_rng(11)
    cats = [f"c{i % 50}" + (f";c{i // 7 % 50}" if i % 7 == 0 else "") for i in range(2000)]
    users = {"heavy": setup.permutation(2000)[:1170]}
    users["fallback"] = [i for i, c in enumerate(cats) if "c0" in c.split(";")]
    users["narrow"] = [i for i, c in enumerate(cats) if "c1" in c.split(";")][1:]
    for u in range(100):
        n = 8 if u < 60 else int(setup.integers(3, 31))
        users[f"u{u}"] = setup.permutation(2000)[:n]
    rows = [
        f"{user},i{item},{t},{cats[item]}\n"
        for user, items in users.items()
        for t, item in enumerate(items)
    ]
    path.write_text("user_id,item_id,timestamp,categories\n" + "".join(rows))


def test_gen_sets_draws_many_users_at_once_as_the_reference(tmp_path, monkeypatch, caplog):
    """Users of many item counts, one of over 1,000 train items, one whose
    category pool is empty so that it falls back to unseen draws, one whose
    pool is down to one item, and a block size small enough that the users
    take several blocks, of the negative draws and of the positive draws at
    one item count: `gen-sets` writes the bytes of the per-pick reference."""
    monkeypatch.setattr(diverse_sets, "BLOCK_ELEMENTS", 1 << 15)
    blocks = {"negative": 0, "positive": []}
    draw_sets, negative_picks = diverse_sets._draw_sets, diverse_sets._negative_picks

    def counted_draw_sets(categories, *args):
        blocks["positive"].append(categories.shape[1])
        return draw_sets(categories, *args)

    def counted_negative_picks(*args):
        blocks["negative"] += 1
        return negative_picks(*args)

    monkeypatch.setattr(diverse_sets, "_draw_sets", counted_draw_sets)
    monkeypatch.setattr(diverse_sets, "_negative_picks", counted_negative_picks)
    dataset = tmp_path / "interactions.csv"
    write_multi_user_log(dataset)
    out = tmp_path / "out"
    config = tmp_path / "config.txt"
    config.write_text(f"dataset={dataset}\nout={out}\nT=1\nk_core=1\nlosses=ce\nseed=8\n")
    assert cli_main(["--config", str(config), "prepare"]) == 0
    with caplog.at_level("DEBUG", logger="dppseq.diverse_sets"):
        assert cli_main(["--config", str(config), "gen-sets"]) == 0
    assert "falling back to uniform unseen draw" in caplog.text
    split = temporal_split(load_interactions(out / "filtered.csv"), 1)
    counts = [len(set(train)) for train in split.train]
    assert max(counts) >= 1000 and len(set(counts)) >= 10
    assert blocks["negative"] > 10
    assert max(blocks["positive"].count(n) for n in blocks["positive"]) > 1
    want = reference_sets_file(out, 1, 0.5, 5, seed=8)
    assert (out / "diverse_sets.tsv").read_bytes() == want


def frozenset_load_paired_sets(path):
    """The sets-file reader that `load_paired_sets` replaced: one frozenset
    per line, as (user, positives, negatives) in user order."""
    by_user = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            user_s, sign, ids = line.split("\t")
            items = frozenset(int(x) for x in ids.split(","))
            positives, negatives = by_user.setdefault(int(user_s), ([], []))
            (positives if sign == "+" else negatives).append(items)
    return [(u, *by_user[u]) for u in sorted(by_user)]


def frozenset_group_sets(pairs):
    """The per-set loop and sort that `_group_sets` replaced."""
    by_size = {}
    for _, positives, negatives in pairs:
        for pos, neg in zip(positives, negatives):
            for items, sign in ((pos, 1.0), (neg, -1.0)):
                sets, signs = by_size.setdefault(len(items), ([], []))
                sets.append(items)
                signs.append(sign)
    groups = []
    for k, (sets, signs) in sorted(by_size.items()):
        items = np.fromiter(chain.from_iterable(sets), np.intp, len(sets) * k)
        groups.append((np.sort(items.reshape(len(sets), k)), np.asarray(signs)))
    return groups


def fstring_dump_paired_sets(pairs, path):
    """The f-string writer that `dump_paired_sets` replaced."""
    with open(path, "w", encoding="utf-8") as fh:
        for user, positives, negatives in pairs:
            for pos, neg in zip(positives, negatives):
                fh.write(f"{user}\t+\t{','.join(map(str, sorted(pos)))}\n")
                fh.write(f"{user}\t-\t{','.join(map(str, sorted(neg)))}\n")


@st.composite
def sets_files(draw):
    """Lines of a valid sets file: two to six users, the first with sets of
    one item and the others of 2 to 6, every line in random order, so users
    are out of order and interleaved, and the ids of a line in random
    order."""
    users = draw(st.lists(st.integers(0, 10**6), min_size=2, max_size=6, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lines = []
    for user in users:
        width = 1 if user == users[0] else draw(st.integers(2, 6))
        for _ in range(draw(st.integers(1, 4))):
            for sign in "+-":
                ids = rng.choice(40, width, replace=False).tolist()
                lines.append(f"{user}\t{sign}\t{','.join(map(str, ids))}")
    return [lines[i] for i in draw(st.permutations(range(len(lines))))]


@pytest.fixture(scope="module")
def sets_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("sets")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(lines=sets_files())
def test_sets_file_matches_the_frozenset_path(sets_dir, lines):
    path = sets_dir / "sets.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    pairs, old = load_paired_sets(path), frozenset_load_paired_sets(path)
    # each user in one table, and each table in user order
    held = np.concatenate([np.unique(t.users) for t in pairs])
    assert sorted(held.tolist()) == [user for user, _, _ in old]
    assert all(np.all(np.diff(t.users) >= 0) for t in pairs)
    groups, want = _group_sets(pairs), frozenset_group_sets(old)
    assert [g[0].shape for g in groups] == [w[0].shape for w in want]
    for (items, signs, _), (want_items, want_signs) in zip(groups, want):
        assert items.dtype == want_items.dtype and np.array_equal(items, want_items)
        assert signs.dtype == want_signs.dtype and np.array_equal(signs, want_signs)
    dump_paired_sets(pairs, sets_dir / "new.tsv")
    fstring_dump_paired_sets(old, sets_dir / "old.tsv")
    assert (sets_dir / "new.tsv").read_bytes() == (sets_dir / "old.tsv").read_bytes()


USER_7_MALFORMED = [
    ["7\t+\t1,2", "7\t-\t3,3"],  # repeated id
    ["7\t+\t1,2", "7\t-\t3,-4"],  # negative id
    ["7\t+\t1,2", "7\t-\t3,x"],  # not an integer
    ["7\t+\t1,2", "7\t-\t3," + "9" * 20],  # overflows
    ["7\t+\t1,2", "7\t-\t3,4", "7\t+\t5,6"],  # unbalanced
    ["7\t+\t1,2", "7\t-\t3,4", "7\t+\t5,6", "8\t-\t7,8"],  # unbalanced, the file's signs not
    ["7\t+\t1,2", "7\t-\t3,4", "7\t+\t5,6,8", "7\t-\t9,10,11"],  # two widths
]


@pytest.mark.parametrize("bad_lines", USER_7_MALFORMED)
def test_malformed_sets_file_names_the_user(tmp_path, bad_lines):
    """Every row is parsed and checked at once, and the error still names
    the user of the malformed line, among users that are well formed."""
    good = ["2\t+\t1,2", "2\t-\t3,4", "9\t+\t1,2,3", "9\t-\t4,5,6"]
    path = tmp_path / "sets.tsv"
    path.write_text("\n".join(good[:2] + bad_lines + good[2:]) + "\n")
    with pytest.raises(ValueError, match="user 7"):
        load_paired_sets(path)


@pytest.mark.parametrize("bad_lines", USER_7_MALFORMED)
def test_malformed_line_in_a_later_block_names_the_user(tmp_path, monkeypatch, bad_lines):
    # blocks of 3 lines: users 2 and 9 fill the first two, so user 7's
    # lines start the third, and its last bad line is in the third or the
    # fourth
    monkeypatch.setattr(diverse_sets, "READ_LINES", 3)
    good = ["2\t+\t1,2", "9\t+\t1,2,3", "2\t-\t3,4", "9\t-\t4,5,6", "", "2\t+\t5,6", "2\t-\t7,8"]
    path = tmp_path / "sets.tsv"
    path.write_text("\n".join(good[:6] + bad_lines + good[6:]) + "\n")
    with pytest.raises(ValueError, match="user 7"):
        load_paired_sets(path)


def test_user_whose_width_changes_across_blocks_rejected(tmp_path, monkeypatch):
    monkeypatch.setattr(diverse_sets, "READ_LINES", 3)
    lines = ["7\t+\t1,2", "7\t-\t3,4", "2\t+\t1,2", "7\t+\t5,6,8", "7\t-\t9,10,11", "2\t-\t3,4"]
    path = tmp_path / "sets.tsv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="user 7: rows differ in width"):
        load_paired_sets(path)
    path.write_text("\n".join(lines[:3] + lines[5:]) + "\n")
    assert [t.users.tolist() for t in load_paired_sets(path)] == [[2, 7]]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(lines=sets_files())
def test_sets_file_read_in_blocks_of_three_lines(sets_dir, lines):
    # with READ_LINES = 3, a user's rows and a width's rows are spread over
    # blocks, some blocks hold only blank lines, and the tables are those
    # of one block
    path = sets_dir / "sets.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    want = load_paired_sets(path)
    path.write_text("".join(f"{line}\n\n\n\n" for line in lines), encoding="utf-8")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(diverse_sets, "READ_LINES", 3)
        got = load_paired_sets(path)
    assert [t.sets.shape for t in got] == [t.sets.shape for t in want]
    for table, wanted in zip(got, want):
        assert table.users.dtype == wanted.users.dtype and np.array_equal(table.users, wanted.users)
        assert table.sets.dtype == wanted.sets.dtype and np.array_equal(table.sets, wanted.sets)


def test_sets_file_read_in_bounded_memory(tmp_path):
    """200,000 lines of 5-item sets (100,000 pairs of 10,000 users): the
    read holds one block's strings at a time and the int arrays, so its
    peak stays under 4 times the tables it returns."""
    rng = np.random.default_rng(5)
    written = PairedSets(
        np.repeat(np.arange(10_000), 10), np.cumsum(rng.integers(1, 700, (200_000, 5)), axis=1)
    )
    path = tmp_path / "sets.tsv"
    dump_paired_sets([written], path)
    assert len(path.read_text().splitlines()) == 200_000
    tracemalloc.start()
    try:
        (table,) = load_paired_sets(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(table.users, written.users) and np.array_equal(table.sets, written.sets)
    held = table.users.nbytes + table.sets.nbytes
    assert peak < 4 * held, (peak, held)


def test_kernel_from_the_sets_file_equals_the_fit_in_memory(tmp_path):
    """`train-kernel` fits on the parsed `diverse_sets.tsv`; its kernel.txt
    equals, bit for bit, the fit on the pairs `build_paired_sets` holds in
    memory, so the parse keeps the set order within and across size groups."""
    long_users = make_synthetic_log(n_users=30, n_items=50, n_categories=5, seq_len=14, seed=0)
    short_users = make_synthetic_log(n_users=12, n_items=50, n_categories=5, seq_len=6, seed=1)
    write_interactions(tmp_path / "long.csv", long_users)
    write_interactions(tmp_path / "short.csv", short_users)
    short_rows = (tmp_path / "short.csv").read_text().splitlines()[1:]
    dataset = tmp_path / "interactions.csv"
    dataset.write_text(
        (tmp_path / "long.csv").read_text() + "".join(f"s{row}\n" for row in short_rows)
    )
    out = tmp_path / "out"
    config_path = tmp_path / "config.txt"
    config_path.write_text(
        f"dataset={dataset}\nout={out}\nT=2\nk_core=2\nkernel_dim=8\nkernel_epochs=5\n"
        "kernel_lr=0.01\nlosses=ce,cdsl\nseed=4\n"
    )
    for stage in ("prepare", "gen-sets", "train-kernel"):
        assert cli_main(["--config", str(config_path), stage]) == 0

    config = load_config(str(config_path), {})
    log = load_interactions(out / "filtered.csv")
    split = temporal_split(log, config.T)
    histories = user_histories(split)
    draw = dict(decay=config.decay, set_size=config.set_size, seed=config.seed)
    pairs = []
    for u, tr in enumerate(split.train):
        if not tr:
            continue
        items = list(dict.fromkeys(tr))
        pairs.append(build_paired_sets(u, items, histories[u], log.item_categories, **draw))
    assert len({p.positive.shape[1] for p in pairs}) > 1
    kernel_config = KernelTrainConfig(
        latent_dim=config.kernel_dim,
        learning_rate=config.kernel_lr,
        epochs=config.kernel_epochs,
        l2_reg=config.kernel_l2,
        seed=config.seed,
    )
    tables = paired_sets(*zip(*((t.users[0], t.positive, t.negative) for t in pairs)))
    kernel, _ = train_kernel(tables, log.n_items, kernel_config)
    kernel = normalize_kernel(kernel, seed=config.seed)
    assert np.array_equal(load_kernel(out / "kernel.txt").factors, kernel.factors)
