"""Command-line pipeline: raw CSV to metric tables comparing the four losses.

Subcommands: prepare, gen-sets, train-kernel, train, evaluate, report.
Every output file is stamped with the resolved-config hash and seed, and each
stage is resumable from the files the previous stage wrote.

Exit codes: 0 success, 2 usage/config error, 3 data error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import diverse_sets as ds_mod
from . import kernel_learning as kl_mod
from . import scorer as scorer_mod
from .data import Instances
from .kernels import SingularMatrixError
from .metrics import MetricRow, MetricTable

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


# the lowest value of each integer setting; L = 0 and Z = 0 derive them from T
_LOWEST = dict(T=1, L=0, Z=0, k_core=1, kernel_dim=1, kernel_epochs=1, set_size=1, scorer_dim=1,
               batch_size=1, max_epochs=1, patience=1, seed=0)


@dataclass
class ExperimentConfig:
    dataset: str = ""
    T: int = 1
    L: int = 0  # 0 = derive from T
    Z: int = 0  # 0 = derive from T
    k_core: int = 10
    kernel_dim: int = 32
    kernel_lr: float = 0.05
    kernel_epochs: int = 100
    kernel_l2: float = 0.01
    decay: float = 0.5
    set_size: int = 5
    scorer_dim: int = 32
    scorer_lr: float = 0.05
    batch_size: int = 32
    max_epochs: int = 50
    patience: int = 10
    losses: tuple[str, ...] = ("ce", "bpr", "dsl", "cdsl")
    n_list: tuple[int, ...] = (3, 5, 10)
    seed: int = 0
    out: str = "out"

    def resolve(self) -> "ExperimentConfig":
        data_mod.check_lowest(self, _LOWEST)
        for name in ("losses", "n_list"):
            entries = getattr(self, name)
            if not entries or len(set(entries)) < len(entries):
                raise ValueError(f"{name} must hold distinct entries, at least one; got {entries}")
        if min(self.n_list) < 1:
            raise ValueError(f"n_list must hold cutoffs N >= 1, got {self.n_list}")
        for name in ("kernel_lr", "scorer_lr"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if not self.kernel_l2 >= 0:
            raise ValueError(f"kernel_l2 must be >= 0, got {self.kernel_l2}")
        if not 0.0 < self.decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {self.decay}")
        # the smallest weight a set's last pick can meet is 1.0 times decay,
        # set_size - 1 times over.  A product by a decay above 0.5 never
        # rounds to 0, and one by at most 0.5 halves it, so 1,100 products
        # decide whether it underflows
        weight = 1.0
        for _ in range(min(self.set_size - 1, 1100)):
            weight *= self.decay
        if weight == 0.0:
            raise ValueError(
                f"decay {self.decay} underflows to 0 within set_size={self.set_size} picks"
            )
        L, Z = data_mod.default_lengths(self.T)
        if self.L == 0:
            self.L = L
        if self.Z == 0:
            self.Z = Z
        if "dsl" in self.losses and self.T <= 1:
            raise ValueError("dsl requires T > 1; drop it from `losses` or raise T")
        unknown = set(self.losses) - set(scorer_mod.LOSS_KINDS)
        if unknown:
            raise ValueError(f"unknown losses: {sorted(unknown)}")
        # a rank-D kernel gives every set of more than D items probability
        # zero, so each set-likelihood numerator must fit in the rank
        if "cdsl" in self.losses and self.kernel_dim < self.L + self.T:
            raise ValueError(
                f"cdsl needs kernel_dim >= L+T = {self.L + self.T}, got {self.kernel_dim}"
            )
        if "bpr" in self.losses and self.Z < self.T:
            raise ValueError(
                f"bpr pairs each target with a negative, so it needs Z >= T = {self.T}; got {self.Z}"
            )
        if "dsl" in self.losses and self.kernel_dim < self.T:
            raise ValueError(f"dsl needs kernel_dim >= T = {self.T}, got {self.kernel_dim}")
        return self

    def dump(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{f.name}={value}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.dump().encode()).hexdigest()[:16]


def load_config(path: str | None, overrides: dict) -> ExperimentConfig:
    """Parse a key=value config file; command-line overrides win."""
    values: dict = {}
    if path:
        for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    values.update({k: v for k, v in overrides.items() if v is not None})

    config = ExperimentConfig()
    names = {f.name for f in fields(config)}
    for key, value in values.items():
        if key not in names:
            raise ValueError(f"unknown config key {key!r}")
        current = getattr(config, key)
        if isinstance(current, tuple):
            parts = tuple(p for p in str(value).split(",") if p)
            value = tuple(int(p) for p in parts) if key == "n_list" else parts
        elif isinstance(current, int):
            value = int(value)
        elif isinstance(current, float):
            value = float(value)
        setattr(config, key, value)
    return config.resolve()


def _stamp(config: ExperimentConfig) -> str:
    return f"# config_hash={config.config_hash()} seed={config.seed}\n"


def _write_stamped(path: Path, config: ExperimentConfig, body: str) -> None:
    path.write_text(_stamp(config) + body)


def _out_dir(config: ExperimentConfig) -> Path:
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_filtered(config: ExperimentConfig) -> data_mod.InteractionLog:
    filtered = _out_dir(config) / "filtered.csv"
    if not filtered.exists():
        raise FileNotFoundError(f"{filtered} missing; run `prepare` first")
    return data_mod.load_interactions(filtered)


def _load_prepared(config: ExperimentConfig):
    log_ = _load_filtered(config)
    return log_, data_mod.temporal_split(log_, config.T)


def _write_instances(path: Path, config: ExperimentConfig, instances: Instances) -> None:
    """One line per instance: user, then its previous items, targets and
    negatives as comma lists, then its time step, tab-separated."""
    L, T = instances.L, instances.T
    lists = [",".join(["%d"] * n) for n in (L, T, instances.items.shape[1] - L - T)]
    line = "\t".join(["%d", *lists, "%d"])
    table = np.column_stack([instances.users, instances.items, instances.time_steps]).tolist()
    lines = ["user\tprevious\ttargets\tnegatives\ttime_step"] + [line % tuple(r) for r in table]
    _write_stamped(path, config, "\n".join(lines) + "\n")


def _read_instances(path: Path, config: ExperimentConfig) -> Instances:
    """The `_write_instances` file of `config` as arrays, in one parse."""
    stamped = path.read_text().splitlines()
    lines = [ln for ln in stamped if ln and not ln.startswith(("#", "user\t"))]
    rows = data_mod.parse_int_rows(lines, 2 + config.L + config.T + config.Z, path)
    return Instances(rows[:, 0], rows[:, 1:-1], rows[:, -1], config.L, config.T)


def cmd_prepare(config: ExperimentConfig) -> None:
    out = _out_dir(config)
    log_ = data_mod.load_interactions(config.dataset)
    log_ = data_mod.k_core_filter(log_, config.k_core)
    data_mod.write_interactions(out / "filtered.csv", log_)
    split = data_mod.temporal_split(log_, config.T)
    data_mod.write_split_manifest(out / "split_manifest.tsv", split)
    instances = data_mod.make_instances(
        split, log_.n_items, config.L, config.T, config.Z, seed=config.seed
    )
    _write_instances(out / "instances.tsv", config, instances)
    (out / "config_resolved.txt").write_text(_stamp(config) + config.dump())
    print(f"prepared {len(instances)} instances over {log_.n_users} users, {log_.n_items} items")


def cmd_gen_sets(config: ExperimentConfig) -> None:
    log_, split = _load_prepared(config)
    histories = data_mod.user_histories(split)
    users = [u for u, train_items in enumerate(split.train) if train_items]
    pairs = ds_mod.draw_paired_sets(
        users,
        [list(dict.fromkeys(split.train[u])) for u in users],
        [histories[u] for u in users],
        log_.item_categories,
        decay=config.decay,
        set_size=config.set_size,
        seed=config.seed,
    )
    ds_mod.dump_paired_sets(pairs, _out_dir(config) / "diverse_sets.tsv")
    n_sets = sum(len(p.positive) for p in pairs)
    print(f"generated {n_sets} paired diverse sets for {len(pairs)} users")


def cmd_train_kernel(config: ExperimentConfig) -> None:
    out = _out_dir(config)
    n_items = _load_filtered(config).n_items
    sets_path = out / "diverse_sets.tsv"
    if not sets_path.exists():
        raise FileNotFoundError(f"{sets_path} missing; run `gen-sets` first")
    pairs = ds_mod.load_paired_sets(sets_path)
    kcfg = kl_mod.KernelTrainConfig(
        latent_dim=config.kernel_dim,
        learning_rate=config.kernel_lr,
        epochs=config.kernel_epochs,
        l2_reg=config.kernel_l2,
        seed=config.seed,
    )
    kernel, history = kl_mod.train_kernel(pairs, n_items, kcfg)
    kernel = kl_mod.normalize_kernel(kernel, seed=config.seed)
    kl_mod.save_kernel(out / "kernel.txt", kernel)
    body = "epoch,objective\n" + "\n".join(
        f"{e},{obj:.6f}" for e, obj in enumerate(history)
    )
    _write_stamped(out / "kernel_objective.csv", config, body + "\n")
    print(f"trained kernel over {kernel.n_items} items, D={kernel.latent_dim}")


def cmd_train(config: ExperimentConfig, loss_kind: str) -> None:
    out = _out_dir(config)
    log_, split = _load_prepared(config)
    instances = _read_instances(out / "instances.tsv", config)
    kernel = None
    if loss_kind in ("dsl", "cdsl"):
        kernel_path = out / "kernel.txt"
        if not kernel_path.exists():
            raise FileNotFoundError(f"{kernel_path} missing; run `train-kernel` first")
        kernel = kl_mod.load_kernel(kernel_path)
    params = scorer_mod.init_params(
        log_.n_users, log_.n_items, d=config.scorer_dim, seed=config.seed
    )
    tcfg = scorer_mod.TrainConfig(
        learning_rate=config.scorer_lr,
        batch_size=config.batch_size,
        max_epochs=config.max_epochs,
        patience=config.patience,
        seed=config.seed,
    )
    validate = lambda p: scorer_mod.validation_ndcg(p, split, log_.n_items, config.L)
    params, tlog = scorer_mod.train(params, instances, loss_kind, kernel, tcfg, validate)
    scorer_mod.save_params(out / f"scorer_{loss_kind}.txt", params)
    _write_train_log(out / f"train_log_{loss_kind}.csv", config, tlog)
    print(
        f"trained {loss_kind}: {len(tlog.epoch_loss)} epochs, "
        f"best epoch {tlog.best_epoch}, val Nd@5 {max(tlog.epoch_val_ndcg):.4f}"
    )


_TRAIN_LOG_HEADER = "epoch,train_loss,val_ndcg5,seconds"


def _write_train_log(path: Path, config: ExperimentConfig, tlog: scorer_mod.TrainLog) -> None:
    rows = enumerate(zip(tlog.epoch_loss, tlog.epoch_val_ndcg, tlog.epoch_seconds))
    body = "\n".join(f"{e},{l:.6f},{v:.6f},{s:.3f}" for e, (l, v, s) in rows)
    _write_stamped(path, config, f"{_TRAIN_LOG_HEADER}\n{body}\n")


def _read_train_log(path: Path) -> scorer_mod.TrainLog:
    """The per-epoch columns of a `_write_train_log` file, at the precision
    written."""
    tlog = scorer_mod.TrainLog()
    for line in path.read_text().splitlines():
        if not line or line.startswith("#") or line == _TRAIN_LOG_HEADER:
            continue
        _, loss, ndcg, seconds = line.split(",")
        tlog.epoch_loss.append(float(loss))
        tlog.epoch_val_ndcg.append(float(ndcg))
        tlog.epoch_seconds.append(float(seconds))
    return tlog


def cmd_evaluate(config: ExperimentConfig, loss_kind: str) -> None:
    out = _out_dir(config)
    log_, split = _load_prepared(config)
    checkpoint = out / f"scorer_{loss_kind}.txt"
    if not checkpoint.exists():
        raise FileNotFoundError(f"{checkpoint} missing; run `train --loss {loss_kind}` first")
    params = scorer_mod.load_params(checkpoint)
    table = scorer_mod.evaluate_model(
        params,
        split,
        log_.n_items,
        config.L,
        log_.item_categories,
        N_list=config.n_list,
        loss_name=loss_kind,
    )
    path = out / f"metrics_{loss_kind}.csv"
    table.write_csv(path, _stamp(config))
    print(f"wrote {path}")


def cmd_report(config: ExperimentConfig) -> None:
    out = _out_dir(config)
    rows: list[MetricRow] = []
    efficiency = ["loss,seconds_per_epoch,epochs_to_best,total_seconds"]
    curves = ["loss,epoch,val_ndcg5"]
    for loss_kind in config.losses:
        metrics_path = out / f"metrics_{loss_kind}.csv"
        if not metrics_path.exists():
            raise FileNotFoundError(f"{metrics_path} missing; run `evaluate` for {loss_kind}")
        rows += MetricTable.read_csv(metrics_path).rows
        tl_path = out / f"train_log_{loss_kind}.csv"
        if tl_path.exists():
            tlog = _read_train_log(tl_path)
            ndcgs = tlog.epoch_val_ndcg
            best_epoch = int(np.argmax(ndcgs))
            per_epoch = float(np.mean(tlog.epoch_seconds))
            efficiency.append(
                f"{loss_kind},{per_epoch:.3f},{best_epoch + 1},{per_epoch * (best_epoch + 1):.3f}"
            )
            curves.extend(f"{loss_kind},{e},{v:.6f}" for e, v in enumerate(ndcgs))
    MetricTable(rows).write_csv(out / "report.csv", _stamp(config))
    _write_stamped(out / "efficiency.csv", config, "\n".join(efficiency) + "\n")
    _write_stamped(out / "validation_curves.csv", config, "\n".join(curves) + "\n")
    print(f"wrote {out / 'report.csv'} ({len(rows)} rows)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dppseq", description="DPP set-likelihood loss experiments"
    )
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("prepare")
    sub.add_parser("gen-sets")
    sub.add_parser("train-kernel")
    train_p = sub.add_parser("train")
    train_p.add_argument("--loss", required=True, choices=scorer_mod.LOSS_KINDS)
    eval_p = sub.add_parser("evaluate")
    eval_p.add_argument("--loss", required=True, choices=scorer_mod.LOSS_KINDS)
    sub.add_parser("report")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(
            args.config,
            {"seed": args.seed, "out": args.out},
        )
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # `resolve` checks the settings of the configured losses only
    if args.command in ("train", "evaluate") and args.loss not in config.losses:
        losses = ",".join(config.losses)
        print(f"config error: --loss {args.loss} is not in losses={losses}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "prepare":
            if not config.dataset:
                print("config error: no dataset path given", file=sys.stderr)
                return EXIT_CONFIG
            if not Path(config.dataset).exists():
                print(f"config error: dataset {config.dataset} not found", file=sys.stderr)
                return EXIT_CONFIG
            cmd_prepare(config)
        elif args.command == "gen-sets":
            cmd_gen_sets(config)
        elif args.command == "train-kernel":
            cmd_train_kernel(config)
        elif args.command == "train":
            cmd_train(config, args.loss)
        elif args.command == "evaluate":
            cmd_evaluate(config, args.loss)
        elif args.command == "report":
            cmd_report(config)
    except (FileNotFoundError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (SingularMatrixError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
