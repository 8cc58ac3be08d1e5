"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the summary lines as
they complete.  The end-to-end directional check (criterion 8) trains four
scorers and takes a few minutes single-threaded.
"""

import functools
import time

import numpy as np
import pytest
import scipy.linalg as la

from dppseq.cli import main as cli_main
from dppseq.data import (
    k_core_filter,
    make_instances,
    temporal_split,
    user_histories,
    write_interactions,
)
from dppseq.diverse_sets import build_paired_sets, paired_sets
from dppseq.kernel_learning import (
    JITTER,
    KernelTrainConfig,
    _group_sets,
    _objective_and_gradient,
    normalize_kernel,
    paired_set_objective,
    train_kernel,
)
from dppseq.kernels import (
    DiversityKernelLowRank,
    GroundSet,
    QualityVector,
    build_sequence_kernel,
    cdsl_log_likelihood,
    dsl_log_likelihood,
)
from dppseq.losses import bpr_loss, cdsl_loss, ce_loss, dsl_loss
from dppseq.metrics import f_score
from dppseq.oracle import (
    enumerate_normalizer,
    oracle_conditional_distribution,
    oracle_dpp_distribution,
    oracle_fd_gradient,
    oracle_marginal,
    oracle_pair_probability,
)
from dppseq.scorer import (
    TrainConfig,
    backprop_scores,
    evaluate_model,
    init_params,
    instance_loss,
    train,
    validation_ndcg,
)
from dppseq.synthetic import make_synthetic_log
from tests.conftest import (
    category_table,
    dense_grads,
    instance_array,
    one_user_metrics,
    pack,
    random_sequence_kernel,
    random_unit_row_kernel,
    unpack,
)


def report(n, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {n} ({name}): FAIL")
                raise
            print(f"ACCEPTANCE {n} ({name}): PASS")

        return wrapper

    return decorate


@report(1, "normalization identity")
def test_01_normalization_identity():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(2, 13))
        kernel = random_sequence_kernel(n, rng)
        lhs = enumerate_normalizer(kernel)
        rhs = float(la.det(kernel.matrix + np.eye(n)))
        assert abs(lhs - rhs) / abs(rhs) < 1e-8
    assert time.perf_counter() - t0 < 10.0


@report(2, "conditional normalization")
def test_02_conditional_normalization():
    rng = np.random.default_rng(102)
    for _ in range(200):
        n = int(rng.integers(2, 13))
        kernel = random_sequence_kernel(n, rng)
        n_obs = int(rng.integers(1, n))
        observed = sorted(rng.choice(n, size=n_obs, replace=False).tolist())
        lhs = enumerate_normalizer(kernel, required=observed)
        mask = np.ones(n)
        mask[observed] = 0.0
        rhs = float(la.det(kernel.matrix + np.diag(mask)))
        assert abs(lhs - rhs) / abs(rhs) < 1e-8


@report(3, "distribution oracle equivalence")
def test_03_distribution_oracle_equivalence():
    rng = np.random.default_rng(103)
    for n in (2, 3, 5, 7, 10):
        kernel = random_sequence_kernel(n, rng)
        dist = oracle_dpp_distribution(kernel)
        for subset, prob in dist.items():
            if not subset:
                continue
            assert abs(np.exp(dsl_log_likelihood(kernel, sorted(subset))) - prob) < 1e-9
        observed = [0]
        cond = oracle_conditional_distribution(kernel, observed)
        for subset, prob in cond.items():
            got = np.exp(cdsl_log_likelihood(kernel, observed, sorted(subset)))
            assert abs(got - prob) < 1e-9


@report(4, "marginal and pair identities")
def test_04_marginal_pair_identities():
    rng = np.random.default_rng(104)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        kernel = random_sequence_kernel(n, rng)
        L = kernel.matrix
        M = L @ la.inv(L + np.eye(n))
        for i in range(n):
            assert abs(oracle_marginal(kernel, i) - M[i, i]) < 1e-8
        for i in range(n):
            for j in range(i + 1, n):
                expected = M[i, i] * M[j, j] - M[i, j] ** 2
                assert abs(oracle_pair_probability(kernel, i, j) - expected) < 1e-8


def _assert_close(analytic, fd, rel=1e-4, floor=1e-3):
    analytic = np.asarray(analytic, dtype=float)
    fd = np.asarray(fd, dtype=float)
    denom = np.maximum(np.abs(fd), floor)
    assert np.max(np.abs(analytic - fd) / denom) < rel


def _random_instance(rng, n_prev=2, n_targets=2, n_neg=2):
    n = n_prev + n_targets + n_neg
    gs = GroundSet(
        previous=tuple(range(n_prev)),
        targets=tuple(range(n_prev, n_prev + n_targets)),
        negatives=tuple(range(n_prev + n_targets, n)),
    )
    kernel = random_unit_row_kernel(n + 2, n + 4, rng)
    scores = rng.uniform(-1.5, 1.5, size=n)
    return gs, kernel, scores


@report(5, "gradient suite")
def test_05_gradient_suite():
    rng = np.random.default_rng(105)

    for _ in range(50):  # pointwise losses w.r.t. scores
        t = rng.standard_normal(3)
        g = rng.standard_normal(3)
        result = ce_loss(t, g)
        fd = oracle_fd_gradient(
            lambda x: ce_loss(x[:3], x[3:]).value, np.concatenate([t, g])
        )
        _assert_close(result.grad_scores, fd)
        result = bpr_loss(t, g)
        fd = oracle_fd_gradient(
            lambda x: bpr_loss(x[:3], x[3:]).value, np.concatenate([t, g])
        )
        _assert_close(result.grad_scores, fd)

    for _ in range(50):  # set losses w.r.t. scores
        gs, kernel, scores = _random_instance(rng)
        tgt_neg = scores[2:]
        result = dsl_loss(gs, tgt_neg, kernel)
        assert not result.skipped
        fd = oracle_fd_gradient(lambda x: dsl_loss(gs, x, kernel).value, tgt_neg)
        _assert_close(result.grad_scores, fd)
        result = cdsl_loss(gs, scores, kernel)
        assert not result.skipped
        fd = oracle_fd_gradient(lambda x: cdsl_loss(gs, x, kernel).value, scores)
        _assert_close(result.grad_scores, fd)

    for _ in range(50):  # paired-set objective w.r.t. factor matrix V
        V = rng.standard_normal((8, 3))
        pos = rng.choice(8, size=2, replace=False)
        neg = rng.choice(8, size=2, replace=False)
        pairs = paired_sets([0], [[pos]], [[neg]])
        analytic = _objective_and_gradient(V, _group_sets(pairs), 0.05, 1e-4)[1]
        fd = oracle_fd_gradient(
            lambda flat: paired_set_objective(
                DiversityKernelLowRank(flat.reshape(8, 3)), pairs, 0.05, 1e-4
            ),
            V.ravel(),
        ).reshape(8, 3)
        _assert_close(analytic, fd)

    n_users, n_items, d = 2, 10, 3
    kernel = random_unit_row_kernel(n_items, 8, rng)
    for loss_kind in ("ce", "bpr", "dsl", "cdsl"):
        for _ in range(50):  # scorer parameters through each loss
            params = init_params(n_users, n_items, d=d, seed=int(rng.integers(1 << 30)))
            items = rng.choice(n_items, size=6, replace=False)
            instance_gs = GroundSet(
                previous=tuple(int(x) for x in items[:2]),
                targets=tuple(int(x) for x in items[2:4]),
                negatives=tuple(int(x) for x in items[4:6]),
            )
            from dppseq.data import SequenceInstance

            instance = SequenceInstance(
                user=int(rng.integers(n_users)),
                previous=instance_gs.previous,
                targets=instance_gs.targets,
                negatives=instance_gs.negatives,
                time_step=2,
            )

            result, scored = instance_loss(params, instance, loss_kind, kernel)
            assert not result.skipped
            blocks = backprop_scores(
                params, instance.user, instance.previous, scored, result.grad_scores
            )
            fd = oracle_fd_gradient(
                lambda flat: instance_loss(
                    unpack(flat, params), instance, loss_kind, kernel
                )[0].value,
                pack(params),
            )
            _assert_close(pack(dense_grads(params, blocks)), fd)


def _two_cluster_pairs(rng, n_pairs, n_items=20):
    """(positive, negative) set pairs, each set sorted."""
    pairs = []
    for _ in range(n_pairs):
        pos = set(rng.choice(10, size=2, replace=False)) | set(
            10 + rng.choice(10, size=2, replace=False)
        )
        cluster = int(rng.integers(2)) * 10
        neg = set(cluster + rng.choice(10, size=4, replace=False))
        pairs.append((sorted(pos), sorted(neg)))
    return pairs


@report(6, "kernel learning sanity")
def test_06_kernel_learning_sanity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)
    train_pairs = _two_cluster_pairs(rng, 200)
    held_out = _two_cluster_pairs(rng, 80)
    config = KernelTrainConfig(latent_dim=3, learning_rate=0.01, epochs=200, seed=1)
    positives, negatives = zip(*train_pairs)
    kernel, _ = train_kernel(paired_sets([0], [positives], [negatives]), 20, config)
    margins = [
        paired_set_objective(kernel, paired_sets([0], [[pos]], [[neg]]), jitter=JITTER)
        for pos, neg in held_out
    ]
    assert float(np.mean(margins)) > 0.0
    assert time.perf_counter() - t0 < 30.0


@report(7, "metric fixtures")
def test_07_metric_fixtures():
    # one-row calls of the block metrics: (recall, ndcg, cc) at N
    # top-3 [a,b,c] with relevant {b,d}
    recall, nd, _ = one_user_metrics([0, 1, 2], [1, 3], 3)
    assert recall == 0.5
    assert round(nd, 5) == 0.38685
    assert one_user_metrics([5, 0, 1], [5], 3)[1] == 1.0
    assert one_user_metrics([0, 1, 2], [9], 3)[1] == 0.0
    cats = category_table([{0}, {0, 1}, {2}], 10)
    assert one_user_metrics([0, 1, 2], [0], 3, cats)[2] == pytest.approx(0.3)
    assert f_score(0.5, 0.5) == pytest.approx(0.5)
    assert f_score(0.04, 0.3) == pytest.approx(0.024 / 0.34)
    assert round(f_score(0.04, 0.3), 6) == 0.070588
    assert f_score(0.0, 0.3) == 0.0


@report(8, "end-to-end directional check")
def test_08_end_to_end_directional():
    t0 = time.perf_counter()
    log = make_synthetic_log(500, 200, 10, seq_len=30, noise=0.2, seed=0)
    split = temporal_split(log, T=3)
    instances = make_instances(split, 200, L=6, T=3, Z=3, seed=0)
    histories = user_histories(split)

    drawn = []
    for u, tr in enumerate(split.train):
        if not tr:
            continue
        items = list(dict.fromkeys(tr))
        drawn.append(build_paired_sets(u, items, histories[u], log.item_categories, seed=u))
    pairs = paired_sets(*zip(*((t.users[0], t.positive, t.negative) for t in drawn)))
    kernel, _ = train_kernel(
        pairs, 200, KernelTrainConfig(latent_dim=32, learning_rate=0.005, epochs=20, seed=0)
    )
    kernel = normalize_kernel(kernel)

    baseline = validation_ndcg(init_params(500, 200, d=32, seed=123), split, 200, L=6)
    validate = lambda p: validation_ndcg(p, split, 200, L=6)
    best_val = {}
    rows = {}
    for loss_kind in ("ce", "bpr", "dsl", "cdsl"):
        params = init_params(500, 200, d=32, seed=0)
        config = TrainConfig(learning_rate=0.6, batch_size=32, max_epochs=30, patience=10, seed=0)
        trained, tlog = train(params, instances, loss_kind, kernel, config, validate)
        best_val[loss_kind] = max(tlog.epoch_val_ndcg)
        table = evaluate_model(
            trained, split, 200, 6, log.item_categories, N_list=(5,), loss_name=loss_kind
        )
        rows[loss_kind] = table.rows[0]

    for loss_kind, val in best_val.items():
        assert val >= 3.0 * baseline, (loss_kind, val, baseline)
    assert rows["cdsl"].cc >= rows["ce"].cc
    assert rows["cdsl"].f >= rows["ce"].f
    assert rows["dsl"].recall >= 0.9 * rows["ce"].recall
    assert time.perf_counter() - t0 < 600.0


@report(9, "protocol conformance")
def test_09_protocol_conformance(tmp_path):
    from dppseq.cli import load_config

    p1 = tmp_path / "t1.txt"
    p1.write_text("T=1\nlosses=ce,bpr,cdsl\n")
    c1 = load_config(str(p1), {})
    assert (c1.L, c1.Z) == (5, 2)
    p3 = tmp_path / "t3.txt"
    p3.write_text("T=3\n")
    c3 = load_config(str(p3), {})
    assert (c3.L, c3.Z) == (6, 3)

    # early stopping halts exactly when Nd@5 stalls for 10 successive epochs
    from dppseq.data import SequenceInstance

    rng = np.random.default_rng(9)
    instances = instance_array(
        [
            SequenceInstance(
                user=0,
                previous=tuple(int(x) for x in rng.choice(20, 3, replace=False)),
                targets=(17, 18),
                negatives=(15, 16),
                time_step=3,
            )
            for _ in range(8)
        ]
    )
    values = iter([0.5] + [0.4] * 50)
    _, tlog = train(
        init_params(1, 20, d=2, seed=0),
        instances,
        "ce",
        None,
        TrainConfig(learning_rate=0.0, max_epochs=50, patience=10, seed=0),
        validate=lambda p: next(values),
    )
    assert tlog.best_epoch == 0
    assert len(tlog.epoch_val_ndcg) == 11  # epochs 1..10 stall, stop at epoch 10

    values = iter([0.5, 0.4, 0.4, 0.6] + [0.4] * 50)
    _, tlog = train(
        init_params(1, 20, d=2, seed=0),
        instances,
        "ce",
        None,
        TrainConfig(learning_rate=0.0, max_epochs=50, patience=10, seed=0),
        validate=lambda p: next(values),
    )
    assert tlog.best_epoch == 3
    assert len(tlog.epoch_val_ndcg) == 14

    # 10-core filtering reaches a verified fixed point
    log = make_synthetic_log(60, 50, 5, seq_len=12, seed=0)
    filtered = k_core_filter(log, k=10)
    assert np.bincount(filtered.users, minlength=filtered.n_users).min() >= 10
    assert np.bincount(filtered.items, minlength=filtered.n_items).min() >= 10
    again = k_core_filter(filtered, k=10)
    for column in ("users", "items", "timestamps", "categories"):
        assert np.array_equal(getattr(again, column), getattr(filtered, column))
    assert again.category_ids == filtered.category_ids


@report(10, "determinism")
def test_10_determinism(tmp_path):
    dataset = tmp_path / "interactions.csv"
    log = make_synthetic_log(n_users=30, n_items=50, n_categories=5, seq_len=14, seed=0)
    write_interactions(dataset, log)
    out = tmp_path / "out"
    config = tmp_path / "config.txt"
    config.write_text(
        f"dataset={dataset}\nout={out}\nT=2\nk_core=2\nkernel_dim=8\nkernel_epochs=5\n"
        "kernel_lr=0.01\nscorer_dim=8\nmax_epochs=3\nlosses=ce,cdsl\nseed=3\n"
    )

    def run():
        base = ["--config", str(config)]
        assert cli_main(base + ["prepare"]) == 0
        assert cli_main(base + ["gen-sets"]) == 0
        assert cli_main(base + ["train-kernel"]) == 0
        for loss_kind in ("ce", "cdsl"):
            assert cli_main(base + ["train", "--loss", loss_kind]) == 0
            assert cli_main(base + ["evaluate", "--loss", loss_kind]) == 0
        return {
            name: (out / name).read_bytes()
            for name in ("metrics_ce.csv", "metrics_cdsl.csv", "kernel.bin", "scorer_ce.bin",
                         "scorer_cdsl.bin")
        }

    first = run()
    second = run()
    assert first == second
