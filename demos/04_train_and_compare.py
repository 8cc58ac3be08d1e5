"""Train the embedding scorer under each loss and compare test metrics.

Uses a small planted synthetic catalog (every user prefers two of the five
categories) so the whole comparison runs in well under a minute.  The
conditional set loss typically trades a little accuracy for noticeably
broader category coverage.
"""

import numpy as np

from dppseq.data import make_instances, temporal_split, user_histories
from dppseq.diverse_sets import build_paired_sets
from dppseq.kernel_learning import KernelTrainConfig, normalize_kernel, train_kernel
from dppseq.scorer import TrainConfig, evaluate_model, init_params, train, validation_ndcg
from dppseq.synthetic import make_synthetic_log

T, L, Z, d = 2, 5, 2, 16

log = make_synthetic_log(n_users=120, n_items=80, n_categories=5, seq_len=18, seed=0)
split = temporal_split(log, T=T)
instances = make_instances(split, log.n_items, L=L, T=T, Z=Z, seed=0)
print(f"{log.n_users} users, {log.n_items} items, {len(instances)} training instances")

# diverse sets -> diversity kernel (needed by the set losses)
histories = user_histories(split)
pairs = [
    build_paired_sets(u, list(dict.fromkeys(tr)), histories[u], log.item_categories, seed=u)
    for u, tr in enumerate(split.train)
    if tr
]
kernel, _ = train_kernel(
    pairs, log.n_items, KernelTrainConfig(latent_dim=16, learning_rate=0.005, epochs=15, seed=0)
)
kernel = normalize_kernel(kernel)

validate = lambda p: validation_ndcg(p, split, log.n_items, L)
print(f"\n{'loss':6s} {'val Nd@5':>9s} {'Re@5':>7s} {'Nd@5':>7s} {'CC@5':>7s} {'F@5':>7s}")
for loss_kind in ("ce", "bpr", "dsl", "cdsl"):
    params = init_params(log.n_users, log.n_items, d=d, seed=0)
    config = TrainConfig(learning_rate=0.5, batch_size=32, max_epochs=20, patience=10, seed=0)
    trained, tlog = train(params, instances, loss_kind, kernel, config, validate)
    table = evaluate_model(
        trained,
        split,
        log.n_items,
        L,
        log.item_categories,
        N_list=(5,),
        loss_name=loss_kind,
    )
    row = table.rows[0]
    print(
        f"{loss_kind:6s} {max(tlog.epoch_val_ndcg):9.4f} "
        f"{row.recall:7.4f} {row.ndcg:7.4f} {row.cc:7.4f} {row.f:7.4f}"
    )
