"""One benchmark run of one workload, in one process.

Generates the workload's inputs from the seed, drives the program through
`dppseq.cli.main` (one call per stage) and the public functions of its
`oracle`, `kernels` and `losses` modules, times every call, checks every
output with `checks.py` and writes `result.json` into the run directory.

A run is as many whole, identical rounds as fit in its seconds; a round
calls every task a fixed number of times, in pipeline order.  A stage rerun
on the same files does the same work, so every round attempts the same
operations, and the per-layer figures of a traced run are per round and
repeat exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import logging
import resource
import statistics
import sys
import time
import types
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import gen

LOSSES = ("ce", "bpr", "dsl", "cdsl")


@dataclass
class Workload:
    data: dict
    config: dict
    evaluate: tuple[str, ...]
    # ground sets verified per verify rep, and the slice of each instance
    # used: the last `verify_prev` previous items and the first
    # `verify_negs` negatives (enumeration is O(n!) in the set size)
    verify_sets: int
    verify_prev: int
    verify_negs: int
    # calls per round of each task (default 1), chosen so that every timed
    # metric gets a few seconds of calls in a run
    reps: dict = field(default_factory=dict)


# Every workload trains the kernel at the program's default learning rate,
# for enough epochs that its halving-on-two-regressions rule can fire.
WORKLOADS = {
    # shape of the acceptance test's end-to-end run: the set losses and the
    # per-instance score/backprop path do most of the work.  Every stage is
    # linear in the users at fixed items and actions, so the five or six
    # rounds of 100 users in a run do the work of one 500- to 600-user
    # pipeline in the same proportions, and each metric is sampled once per
    # round across the run
    "desk": Workload(
        data=dict(n_users=100, n_items=200, n_categories=10, seq_len=30),
        config=dict(T=3, L=6, Z=3, k_core=5, kernel_dim=32, kernel_epochs=3,
                    set_size=5, scorer_lr=0.6, max_epochs=1, patience=1),
        evaluate=LOSSES,
        verify_sets=1, verify_prev=2, verify_negs=2,
        reps={"prepare": 3, "train-ce": 2, "train-bpr": 2, "evaluate": 3},
    ),
    # the largest catalog of which a run holds two or three rounds: ingest,
    # negative sampling against the catalog and full-catalog ranking dominate
    "catalog": Workload(
        data=dict(n_users=900, n_items=1200, n_categories=20, seq_len=18, cold_users=90),
        config=dict(T=2, L=12, Z=2, k_core=5, kernel_dim=32, kernel_epochs=3,
                    set_size=8, scorer_lr=0.6, max_epochs=1, patience=1),
        evaluate=("ce", "cdsl"),
        verify_sets=10, verify_prev=2, verify_negs=2,
        reps={"prepare": 2, "verify": 2},
    ),
}


END_TO_END = (
    "setup_s", "pipeline_s", "prepare_rows_per_s", "gen_sets_per_s", "train_kernel_pairs_per_s",
    "train_ce_inst_per_s", "train_bpr_inst_per_s", "train_dsl_inst_per_s", "train_cdsl_inst_per_s",
    "evaluate_users_per_s", "verify_checks_per_s", "peak_rss_mb",
)

PER_LAYER_SPANS = (
    "data.load_interactions", "data.k_core_filter", "data.make_instances", "data.temporal_split",
    "diverse_sets.generate_diverse_sets", "diverse_sets.sample_negative_set",
    "kernel_learning.paired_set_objective", "kernels.build_sequence_kernel",
    "kernels.log_det_psd", "kernels.grad_quality",
    "losses.ce_loss", "losses.bpr_loss", "losses.dsl_loss", "losses.cdsl_loss",
    "scorer.score", "scorer.backprop_scores", "scorer.validation_ndcg",
    "metrics.rank_candidates", "metrics.evaluate_ranking_fn",
    "kernel_learning.load_kernel", "scorer.save_params", "scorer.load_params",
    "diverse_sets.load_paired_sets",
    "oracle.oracle_dpp_distribution", "oracle.oracle_conditional_distribution",
    "oracle.oracle_marginal", "oracle.oracle_pair_probability", "oracle.oracle_fd_gradient",
)
SELF_NAMES = {"kernel_learning.train_kernel": "kernel_learning.train_kernel_self_s",
              "scorer.train": "scorer.train_self_s", "cli.stage": "cli.stage_self_s"}
CALL_COUNTS = ("kernels.log_det_psd", "losses.ce_loss", "losses.bpr_loss", "losses.dsl_loss",
               "losses.cdsl_loss")
WORK_COUNTS = ("work.rows", "work.instances", "work.users", "work.checks")
EVENT_COUNTS = ("losses.skipped", "kernel_learning.lr_halvings", "scorer.early_stops")


def per_layer_names() -> list[str]:
    return (
        [f"{n}_s" for n in PER_LAYER_SPANS]
        + list(SELF_NAMES.values())
        + [f"{n}_calls" for n in CALL_COUNTS]
        + ["diverse_sets.sets"]
        + list(WORK_COUNTS)
        + list(EVENT_COUNTS)
    )


class StageFailed(RuntimeError):
    pass


class Run:
    def __init__(self, name: str, seed: int, out: Path, tracer=None) -> None:
        from dppseq import cli, kernel_learning, kernels, losses, oracle, scorer

        self.cli = cli
        self.api = types.SimpleNamespace(kernels=kernels, losses=losses, oracle=oracle,
                                         scorer=scorer, kernel_learning=kernel_learning)
        self.w = WORKLOADS[name]
        self.seed = seed
        self.out = out
        self.tracer = tracer
        self.cfg_path = out / "config.txt"
        self.stage_out = out / "pipeline"
        self.ops = 0
        # work units of one call of each task, read after its first call
        self.work: dict[str, float] = {}

    # inputs -----------------------------------------------------------------
    def make_inputs(self) -> None:
        rows, _ = gen.make_rows(seed=self.seed, **self.w.data)
        gen.write_csv(self.out / "input.csv", rows)
        self.n_rows = len(rows)
        cfg = dict(self.w.config, dataset=str(self.out / "input.csv"), out=str(self.stage_out),
                   seed=self.seed, losses=",".join(LOSSES))
        self.cfg_path.write_text("".join(f"{k}={v}\n" for k, v in cfg.items()))

    # operations -------------------------------------------------------------
    def stage(self, *argv: str) -> None:
        args = ["--config", str(self.cfg_path), *argv]
        with contextlib.redirect_stdout(io.StringIO()):
            if self.tracer is None:
                code = self.cli.main(args)
            else:
                code = self.tracer.span("cli.stage", self.cli.main, args)
        self.ops += 1
        if code != 0:
            raise StageFailed(f"dppseq {' '.join(argv)} exited {code}")

    def tasks(self):
        """(task name, one repetition, work units per repetition)."""
        yield "prepare", lambda: self.stage("prepare"), lambda: self.n_rows
        yield "gen-sets", lambda: self.stage("gen-sets"), lambda: self.counts["sets"]
        yield "train-kernel", lambda: self.stage("train-kernel"), \
            lambda: self.counts["sets"] * self.w.config["kernel_epochs"]
        for kind in LOSSES:
            yield f"train-{kind}", lambda k=kind: self.stage("train", "--loss", k), \
                lambda: self.counts["instances"] * self.w.config["max_epochs"]
        yield "evaluate", self.evaluate_all, lambda: self.counts["users"] * len(self.w.evaluate)
        yield "verify", self.verify, lambda: self.checks_per_rep

    def evaluate_all(self) -> None:
        for kind in self.w.evaluate:
            self.stage("evaluate", "--loss", kind)

    def after(self, task: str) -> None:
        """Read the work counts a task's outputs define (once, untimed)."""
        p = self.stage_out
        if task == "prepare":
            self.log = checks.Log(p / "filtered.csv")
            n_inst = len(checks.read_instances(p / "instances.tsv"))
            users = sum(1 for parts in self.log.split(self.w.config["T"]) if parts is not None)
            self.counts = {"instances": n_inst, "users": users}
        elif task == "gen-sets":
            n = sum(1 for ln in (p / "diverse_sets.tsv").read_text().splitlines() if "\t+\t" in ln)
            self.counts["sets"] = n
        elif task == "train-cdsl":
            self.prepare_verify()

    def prepare_verify(self) -> None:
        """Ground sets for the verify task: seeded instances, the trained
        kernel and the cdsl scorer's scores for them."""
        self.kernel = self.api.kernel_learning.load_kernel(self.stage_out / "kernel.txt")
        params = checks.read_scorer(self.stage_out / "scorer_cdsl.txt")
        instances = checks.read_instances(self.stage_out / "instances.tsv")
        rng = np.random.default_rng([self.seed, 7])
        picks = rng.choice(len(instances), size=self.w.verify_sets, replace=False)
        self.verify_cases = []
        for k in sorted(picks):
            u, prev, targets, negs, _ = instances[k]
            prev = prev[len(prev) - self.w.verify_prev:]
            negs = negs[: self.w.verify_negs]
            scores = checks.own_scores(params, u, prev, prev + targets + negs)
            self.verify_cases.append((prev, targets, negs, scores))
        self.checks_per_rep = None

    def verify(self) -> None:
        n = 0
        for prev, targets, negs, scores in self.verify_cases:
            n += checks.verify_ground_set(self.kernel, prev, targets, negs, scores, self.api)
        if self.checks_per_rep is None:
            self.checks_per_rep = n
        if n != self.checks_per_rep:
            raise checks.CheckError("verify made a different number of checks")
        self.ops += n

    # checks -----------------------------------------------------------------
    def check_outputs(self) -> int:
        c, p, kl, sc = self.w.config, self.stage_out, self.api.kernel_learning, self.api.scorer
        facts = checks.check_prepare(p, c["k_core"], c["T"], c["L"], c["Z"], self.log)
        facts += checks.check_gen_sets(p, c["T"], self.log)
        facts += checks.check_train_kernel(p, self.log.n_items, c["kernel_dim"])
        instances = checks.read_instances(p / "instances.tsv")
        rng = np.random.default_rng([self.seed, 11])
        sample = [instances[k] for k in rng.choice(len(instances), size=32, replace=False)]
        kernel = kl.load_kernel(p / "kernel.txt")
        from dppseq.data import SequenceInstance

        for kind in LOSSES:
            params = sc.load_params(p / f"scorer_{kind}.txt")
            results = [
                sc.instance_loss(params, SequenceInstance(*inst), kind, kernel)[0] for inst in sample
            ]
            facts += checks.check_train(p, kind, results, sample, c["max_epochs"])
        n_list = (3, 5, 10)
        for kind in self.w.evaluate:
            facts += checks.check_evaluate(p, kind, self.log, c["T"], c["L"], n_list)
        return facts


def run_rounds(run: Run, seconds: float) -> tuple[dict[str, list[float]], dict[str, list[float]], int]:
    """Whole rounds of every task, at least one, and no more than fit in
    `seconds` of timed calls at the mean round time so far; returns the wall
    and the process CPU seconds of every call, by task, and the number of
    rounds.  The wall time is the gated figure; CPU time is kept as a
    diagnostic."""
    walls: dict[str, list[float]] = {}
    cpus: dict[str, list[float]] = {}
    rounds, timed = 0, 0.0
    while rounds == 0 or timed * (rounds + 1) / rounds <= seconds:
        for name, rep, work in run.tasks():
            for _ in range(run.w.reps.get(name, 1)):
                t0, c0 = time.perf_counter(), time.process_time()
                rep()
                walls.setdefault(name, []).append(time.perf_counter() - t0)
                cpus.setdefault(name, []).append(time.process_time() - c0)
                if name not in run.work:
                    run.after(name)
                    run.work[name] = work()
        rounds += 1
        timed = sum(map(sum, walls.values()))
    return walls, cpus, rounds


def end_to_end(run: Run, walls: dict[str, list[float]]) -> dict:
    """Rates are all the work of a task's calls over their summed wall time."""
    rate = {k: run.work[k] * len(v) / sum(v) for k, v in walls.items()}
    return {
        # one pipeline: every stage once, evaluate once per evaluated loss
        "pipeline_s": sum(statistics.fmean(v) for k, v in walls.items() if k != "verify"),
        "prepare_rows_per_s": rate["prepare"],
        "gen_sets_per_s": rate["gen-sets"],
        "train_kernel_pairs_per_s": rate["train-kernel"],
        **{f"train_{k}_inst_per_s": rate[f"train-{k}"] for k in LOSSES},
        "evaluate_users_per_s": rate["evaluate"],
        "verify_checks_per_s": rate["verify"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(run: Run, rounds: int, log_counter) -> dict:
    """Self times per round, and counts per round that must divide exactly."""
    tracer = run.tracer
    self_s, calls = tracer.self_times()
    metrics = {f"{n}_s": self_s.get(n, 0.0) / rounds for n in PER_LAYER_SPANS}
    metrics.update({v: self_s.get(k, 0.0) / rounds for k, v in SELF_NAMES.items()})
    for n in CALL_COUNTS:
        metrics[f"{n}_calls"] = exact_div(calls.get(n, 0), rounds)
    metrics["diverse_sets.sets"] = run.counts["sets"]
    skipped = sum(v for k, v in tracer.counts.items() if k.endswith(".skipped"))
    metrics.update({
        "work.rows": run.n_rows, "work.instances": run.counts["instances"],
        "work.users": run.counts["users"],
        "work.checks": run.checks_per_rep * run.w.reps.get("verify", 1),
        "losses.skipped": exact_div(skipped, rounds),
        "kernel_learning.lr_halvings": exact_div(log_counter.counts["lr_halvings"], rounds),
        "scorer.early_stops": exact_div(log_counter.counts["early_stops"], rounds),
    })
    return metrics


def exact_div(total: int, rounds: int) -> int:
    if total % rounds:
        raise checks.CheckError(f"count {total} differs between {rounds} identical rounds")
    return total // rounds


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    out = Path(args.out)

    import dppseq

    from tracing import LogCounter, Tracer

    log_counter = LogCounter({"lr_halvings": "halving learning rate", "early_stops": "early stop"})
    for name in ("dppseq.kernel_learning", "dppseq.scorer"):
        logging.getLogger(name).addHandler(log_counter)
    run = Run(args.workload, args.seed, out, Tracer() if args.trace else None)
    run.make_inputs()

    failed, metrics, calls, facts, check_s = 0, {}, {}, 0, 0.0
    try:
        if run.tracer is not None:
            run.tracer.install()
        try:
            walls, cpus, rounds = run_rounds(run, args.seconds)
        finally:
            if run.tracer is not None:
                run.tracer.uninstall()
        calls = {clock: {k: [round(t, 4) for t in v] for k, v in d.items()}
                 for clock, d in (("wall", walls), ("cpu", cpus))}
        if run.tracer is not None:
            metrics = per_layer(run, rounds, log_counter)
            run.tracer.dump(out / "spans.tsv")
        else:
            metrics = end_to_end(run, walls)
        t0 = time.perf_counter()
        facts = run.check_outputs()
        check_s = time.perf_counter() - t0
        correct, error = True, ""
    except StageFailed as exc:
        failed, correct, error = 1, False, str(exc)
    except checks.CheckError as exc:
        correct, error = False, str(exc)
    result = {
        "correct": correct, "attempted": max(run.ops, 1), "failed": failed, "metrics": metrics,
        "calls": calls, "facts_checked": facts, "check_s": check_s, "error": error,
        "program": str(Path(dppseq.__file__).resolve().parent),
    }
    (out / "result.json").write_text(json.dumps(result, indent=1))
    print(json.dumps({k: result[k] for k in ("correct", "error")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
