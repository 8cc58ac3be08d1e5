"""Diverse-set generation and matched negative sampling."""

import numpy as np
import pytest

from dppseq.diverse_sets import (
    NEGATIVE_STREAM,
    POSITIVE_STREAM,
    build_paired_sets,
    dump_paired_sets,
    generate_diverse_sets,
    load_paired_sets,
    sample_negative_set,
    unseen_by_category,
    user_seed,
)


def items_with_cats(cats_per_item):
    return [(i, frozenset(c)) for i, c in enumerate(cats_per_item)]


class TestGenerateDiverseSets:
    def test_five_items_five_categories_single_set(self):
        user_items = items_with_cats([[0], [1], [2], [3], [4]])
        sets = generate_diverse_sets(user_items, seed=1)
        assert sets == [frozenset(range(5))]

    def test_single_category_uniform_decay(self):
        user_items = items_with_cats([[0]] * 5)
        for seed in range(50):
            sets = generate_diverse_sets(user_items, seed=seed)
            assert sets == [frozenset(range(5))]

    def test_decay_increases_category_diversity(self):
        # 10 items in 2 categories (5+5): decayed sampling should cover both
        # categories more often than the no-decay control
        user_items = items_with_cats([[0]] * 5 + [[1]] * 5)

        def mean_categories(decay, runs=400):
            counts = []
            for seed in range(runs):
                for s in generate_diverse_sets(user_items, decay=decay, seed=seed):
                    cats = {0 if i < 5 else 1 for i in s}
                    counts.append(len(cats))
            return float(np.mean(counts))

        assert mean_categories(0.2) > mean_categories(1.0)

    def test_coverage_and_distinctness(self):
        rng = np.random.default_rng(0)
        cats = [[int(rng.integers(3))] for _ in range(12)]
        user_items = items_with_cats(cats)
        sets = generate_diverse_sets(user_items, seed=3)
        union = set().union(*sets)
        assert union == set(range(12))
        for s in sets:
            assert len(s) == 5

    def test_short_user_gets_small_sets(self):
        user_items = items_with_cats([[0], [1], [2]])
        sets = generate_diverse_sets(user_items, seed=0)
        assert sets == [frozenset({0, 1, 2})]

    def test_deterministic(self):
        user_items = items_with_cats([[i % 3] for i in range(9)])
        a = generate_diverse_sets(user_items, seed=42)
        b = generate_diverse_sets(user_items, seed=42)
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            generate_diverse_sets([], seed=0)


class TestSampleNegativeSet:
    def setup_method(self):
        # catalog: items 0-9 in cat 0, 10-19 in cat 1
        self.catalog = {0: list(range(10)), 1: list(range(10, 20))}
        self.all_items = list(range(20))

    def test_category_matching(self):
        rng = np.random.default_rng(0)
        neg = sample_negative_set(
            positive={0, 10},
            positive_categories={0: frozenset([0]), 10: frozenset([1])},
            user_history={0, 10},
            pools=unseen_by_category(self.catalog, {0, 10}, (0, 1)),
            rng=rng,
            all_items=self.all_items,
        )
        assert len(neg) == 2
        assert any(i < 10 for i in neg) and any(i >= 10 for i in neg)
        assert not neg & {0, 10}

    def test_fallback_when_category_exhausted(self):
        rng = np.random.default_rng(0)
        # user has seen every cat-0 item, so the match falls back to unseen
        neg = sample_negative_set(
            positive={0},
            positive_categories={0: frozenset([0])},
            user_history=set(range(10)),
            pools=unseen_by_category(self.catalog, set(range(10)), (0, 1)),
            rng=rng,
            all_items=self.all_items,
        )
        assert len(neg) == 1
        assert next(iter(neg)) >= 10

    def test_catalog_exhausted_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_negative_set(
                positive={0},
                positive_categories={0: frozenset([0])},
                user_history=set(range(20)),
                pools=unseen_by_category(self.catalog, set(range(20)), (0, 1)),
                rng=rng,
                all_items=self.all_items,
            )

    def test_never_returns_history_items(self):
        history = set(range(0, 20, 2))
        for seed in range(200):
            rng = np.random.default_rng(seed)
            neg = sample_negative_set(
                positive={0, 11},
                positive_categories={0: frozenset([0]), 11: frozenset([1])},
                user_history=history,
                pools=unseen_by_category(self.catalog, history, (0, 1)),
                rng=rng,
                all_items=self.all_items,
            )
            assert not neg & history


def reference_sample_negative_set(
    positive, positive_categories, user_history, catalog_by_category, rng, all_items
):
    """The per-item scan over the catalog that `sample_negative_set` replaced."""
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
        chosen.add(int(rng.choice(candidates)))
    return frozenset(chosen)


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
            pools = unseen_by_category(catalog, history, range(n_cats))
            fallbacks += any(
                not any(len(pools.get(c, ())) for c in positive_cats[i]) for i in positive
            )
            rng_ref, rng_new = np.random.default_rng(case), np.random.default_rng(case)
            try:
                want = reference_sample_negative_set(
                    positive, positive_cats, history, catalog, rng_ref, all_items
                )
            except ValueError:
                exhausted += 1
                with pytest.raises(ValueError):
                    sample_negative_set(positive, positive_cats, history, pools, rng_new, all_items)
                continue
            got = sample_negative_set(positive, positive_cats, history, pools, rng_new, all_items)
            assert got == want, case
            assert rng_new.bit_generator.state == rng_ref.bit_generator.state, case
        assert exhausted > 0 and fallbacks > exhausted, (exhausted, fallbacks)


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
        catalog = {0: list(range(10)), 1: list(range(10, 20))}
        user_items = items_with_cats([[0], [1], [0], [1], [0], [1], [0]])
        item_categories = {i: frozenset([0 if i < 10 else 1]) for i in range(20)}
        for user in (4, 5):
            pairs = build_paired_sets(
                user, user_items, set(range(7)), item_categories, catalog, list(range(20)), seed=0
            )
            assert pairs.positive == generate_diverse_sets(
                user_items, seed=user_seed(0, user, POSITIVE_STREAM)
            )


class TestBuildPairedSets:
    def test_matched_sizes_and_coverage(self):
        catalog = {0: list(range(10)), 1: list(range(10, 20))}
        user_items = items_with_cats(
            [[0]] * 3 + [[1]] * 3
        )  # user interacted with items 0..5
        item_categories = {i: frozenset([0 if i < 10 else 1]) for i in range(20)}
        pairs = build_paired_sets(
            user=7,
            user_items=user_items,
            user_history=set(range(6)),
            item_categories=item_categories,
            catalog_by_category=catalog,
            all_items=list(range(20)),
            seed=5,
        )
        assert pairs.user == 7
        assert len(pairs.positive) == len(pairs.negative)
        assert set().union(*pairs.positive) == set(range(6))
        for pos, neg in zip(pairs.positive, pairs.negative):
            assert len(pos) == len(neg)
            assert not neg & set(range(6))

    def test_dump_load_round_trip(self, tmp_path):
        catalog = {0: list(range(10))}
        user_items = items_with_cats([[0]] * 5)
        item_categories = {i: frozenset([0]) for i in range(10)}
        pairs = build_paired_sets(
            0, user_items, set(range(5)), item_categories, catalog, list(range(10)), seed=0
        )
        path = tmp_path / "sets.tsv"
        dump_paired_sets([pairs], path)
        loaded = load_paired_sets(path)
        assert len(loaded) == 1
        assert loaded[0].positive == pairs.positive
        assert loaded[0].negative == pairs.negative
