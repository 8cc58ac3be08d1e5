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
from dataclasses import dataclass, fields
from itertools import chain
from pathlib import Path
from typing import NamedTuple, Sequence

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


class Prepared(NamedTuple):
    """What the stages after `prepare` read of the log: its sizes, its item x
    category table and its split."""

    n_users: int
    n_items: int
    item_categories: np.ndarray  # (M, C) bool
    split: data_mod.SplitResult


# the label lines of `split.tsv`: over its counts, its (item, category)
# pairs and its (user, part, item) rows
_SPLIT_LABELS = (
    "n_users\tn_items\tn_categories\tn_pairs\tn_rows",
    "item\tcategory",
    "user\tpart\titem",
)

# rows formatted per write, which bounds the text held at once
WRITE_BLOCK_ROWS = 4096


def _write_rows(fh, line: str, columns: Sequence[np.ndarray]) -> None:
    """One line `line % row` per row of the nonnegative integer columns side
    by side, `line` a template of `%d` fields, a block of rows at a time.
    Each value and the separator after its field come from one table of such
    strings for 0 to the largest value; the values are ids, counts and
    positions, so the tables are no larger than the data."""
    n_rows = len(columns[0])
    if n_rows == 0:
        return
    if min(c.min() for c in columns) < 0:
        raise ValueError("_write_rows writes nonnegative values only")
    names = np.array(list(map(str, range(max(c.max() for c in columns) + 1))), dtype=object)
    separators = (line + "\n").split("%d")[1:]
    groups = [
        (names + sep, [k for k, other in enumerate(separators) if other == sep])
        for sep in dict.fromkeys(separators)
    ]
    for start in range(0, n_rows, WRITE_BLOCK_ROWS):
        block = np.column_stack([c[start : start + WRITE_BLOCK_ROWS] for c in columns])
        text = np.empty(block.shape, dtype=object)
        for strings, fields in groups:
            text[:, fields] = strings[block[:, fields]]
        fh.write("".join(text.ravel().tolist()))


def _write_split(
    path: Path, config: ExperimentConfig, log_: data_mod.InteractionLog, split: data_mod.SplitResult
) -> None:
    """The log's sizes, its item x category table as (item, category) pairs
    and its split as one (user, part, item) row per action, part 0 train,
    1 validation and 2 test, in split order."""
    parts = [part for seqs in zip(split.train, split.valid, split.test) for part in seqs]
    lengths = np.fromiter(map(len, parts), np.intp, len(parts))
    slots = np.repeat(np.arange(len(parts)), lengths)
    items = np.fromiter(chain.from_iterable(parts), np.intp, slots.size)
    pairs = np.argwhere(log_.item_categories)
    counts = (log_.n_users, log_.n_items, log_.n_categories, len(pairs), len(items))
    with open(path, "w", encoding="utf-8") as fh:
        header = [_SPLIT_LABELS[0], "\t".join(map(str, counts)), _SPLIT_LABELS[1]]
        fh.write(_stamp(config) + "\n".join(header) + "\n")
        _write_rows(fh, "%d\t%d", [pairs])
        fh.write(_SPLIT_LABELS[2] + "\n")
        _write_rows(fh, "%d\t%d\t%d", [slots // 3, slots % 3, items])


def _in_range(column: np.ndarray, n: int) -> bool:
    return column.size == 0 or (column.min() >= 0 and column.max() < n)


def _load_prepared(config: ExperimentConfig) -> Prepared:
    """`prepare`'s `split.tsv`, checked as outside input: its counts match
    its rows, every id is in range, the rows run in (user, part) order, and
    each user kept holds T test items and the floor of 90% of the rest in
    train.  Raises ValueError naming the file on any other content."""
    path = _out_dir(config) / "split.tsv"
    if not path.exists():
        raise FileNotFoundError(f"{path} missing; run `prepare` first")
    lines = path.read_text(encoding="utf-8").splitlines()
    if lines and lines[0].startswith("#"):
        del lines[0]
    if lines[:1] != [_SPLIT_LABELS[0]] or len(lines) < 4:
        raise ValueError(f"{path}: not a split file; run `prepare` again")
    n_users, n_items, n_categories, n_pairs, n_rows = data_mod.parse_int_rows(
        lines[1:2], 5, path
    )[0].tolist()
    if (
        min(n_users, n_items, n_categories, n_pairs, n_rows) < 0
        or len(lines) != 4 + n_pairs + n_rows
        or (lines[2], lines[3 + n_pairs]) != _SPLIT_LABELS[1:]
    ):
        raise ValueError(f"{path}: the counts of its header do not match its rows")
    pairs = data_mod.parse_int_rows(lines[3 : 3 + n_pairs], 2, path)
    rows = data_mod.parse_int_rows(lines[4 + n_pairs :], 3, path)
    users, parts, items = rows.T
    if not (
        _in_range(pairs[:, 0], n_items)
        and _in_range(pairs[:, 1], n_categories)
        and _in_range(users, n_users)
        and _in_range(items, n_items)
    ):
        raise ValueError(f"{path}: an id is out of range")
    if not _in_range(parts, 3):
        raise ValueError(f"{path}: a part is not 0, 1 or 2")
    keys = users * 3 + parts
    if np.any(keys[1:] < keys[:-1]):
        raise ValueError(f"{path}: its rows are not ordered by (user, part)")
    item_categories = np.zeros((n_items, n_categories), dtype=bool)
    item_categories[pairs[:, 0], pairs[:, 1]] = True
    # every item and every category of the log comes from a row that lists
    # at least one category
    if not (item_categories.any(axis=1).all() and item_categories.any(axis=0).all()):
        raise ValueError(f"{path}: an item or a category holds no pair")
    counts = np.bincount(keys, minlength=3 * n_users).reshape(n_users, 3)
    kept = counts.any(axis=1)
    n_train, n_valid, n_test = counts[kept].T
    if np.any(n_test != config.T):
        raise ValueError(
            f"{path}: a user holds other than T={config.T} test items; "
            "run `prepare` again for this T"
        )
    head = n_train + n_valid
    if np.any(head < 2) or np.any(n_train != np.floor(0.9 * head)):
        raise ValueError(f"{path}: a user's train and validation items break the 90% rule")
    seq = items.tolist()
    ends = np.cumsum(counts.ravel()).tolist()
    seqs = [seq[start:end] for start, end in zip([0, *ends], ends)]
    split = data_mod.SplitResult(
        train=seqs[0::3],
        valid=seqs[1::3],
        test=seqs[2::3],
        dropped_users=np.flatnonzero(~kept).tolist(),
    )
    return Prepared(n_users, n_items, item_categories, split)


def _write_instances(path: Path, config: ExperimentConfig, instances: Instances) -> None:
    """One line per instance: user, then its previous items, targets and
    negatives as comma lists, then its time step, tab-separated."""
    L, T = instances.L, instances.T
    lists = [",".join(["%d"] * n) for n in (L, T, instances.items.shape[1] - L - T)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{_stamp(config)}user\tprevious\ttargets\tnegatives\ttime_step\n")
        columns = [instances.users, instances.items, instances.time_steps]
        _write_rows(fh, "\t".join(["%d", *lists, "%d"]), columns)


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
    _write_split(out / "split.tsv", config, log_, split)
    instances = data_mod.make_instances(
        split, log_.n_items, config.L, config.T, config.Z, seed=config.seed
    )
    _write_instances(out / "instances.tsv", config, instances)
    (out / "config_resolved.txt").write_text(_stamp(config) + config.dump())
    print(f"prepared {len(instances)} instances over {log_.n_users} users, {log_.n_items} items")


def cmd_gen_sets(config: ExperimentConfig) -> None:
    _, _, item_categories, split = _load_prepared(config)
    histories = data_mod.user_histories(split)
    users = [u for u, train_items in enumerate(split.train) if train_items]
    pairs = ds_mod.draw_paired_sets(
        users,
        [list(dict.fromkeys(split.train[u])) for u in users],
        [histories[u] for u in users],
        item_categories,
        decay=config.decay,
        set_size=config.set_size,
        seed=config.seed,
    )
    ds_mod.dump_paired_sets(pairs, _out_dir(config) / "diverse_sets.tsv")
    n_sets = sum(len(p.positive) for p in pairs)
    print(f"generated {n_sets} paired diverse sets for {len(pairs)} users")


def cmd_train_kernel(config: ExperimentConfig) -> None:
    out = _out_dir(config)
    n_items = _load_prepared(config).n_items
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
    n_users, n_items, _, split = _load_prepared(config)
    instances = _read_instances(out / "instances.tsv", config)
    kernel = None
    if loss_kind in ("dsl", "cdsl"):
        kernel_path = out / "kernel.txt"
        if not kernel_path.exists():
            raise FileNotFoundError(f"{kernel_path} missing; run `train-kernel` first")
        kernel = kl_mod.load_kernel(kernel_path)
    params = scorer_mod.init_params(n_users, n_items, d=config.scorer_dim, seed=config.seed)
    tcfg = scorer_mod.TrainConfig(
        learning_rate=config.scorer_lr,
        batch_size=config.batch_size,
        max_epochs=config.max_epochs,
        patience=config.patience,
        seed=config.seed,
    )
    validate = lambda p: scorer_mod.validation_ndcg(p, split, n_items, config.L)
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
    _, n_items, item_categories, split = _load_prepared(config)
    checkpoint = out / f"scorer_{loss_kind}.txt"
    if not checkpoint.exists():
        raise FileNotFoundError(f"{checkpoint} missing; run `train --loss {loss_kind}` first")
    params = scorer_mod.load_params(checkpoint)
    table = scorer_mod.evaluate_model(
        params,
        split,
        n_items,
        config.L,
        item_categories,
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
    except (OSError, ValueError) as exc:  # an OSError names the file it could not open
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (SingularMatrixError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
