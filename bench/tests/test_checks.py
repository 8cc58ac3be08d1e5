"""Tests of the benchmark's own checkers, generator and tracer.

    python3 -m pytest bench/tests -q

A small pipeline is run once through `dppseq.cli.main`; every checker must
pass on its outputs and catch a perturbed copy of them.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

T, L, Z, K_CORE = 2, 4, 2, 3
N_LIST = (3, 5, 10)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    from dppseq import cli

    base = tmp_path_factory.mktemp("pipeline")
    rows, _ = gen.make_rows(60, 40, 4, 12, seed=3, cold_users=5)
    gen.write_csv(base / "input.csv", rows)
    cfg = base / "config.txt"
    cfg.write_text(
        f"dataset={base / 'input.csv'}\nout={base / 'out'}\nT={T}\nL={L}\nk_core={K_CORE}\n"
        "kernel_dim=16\nkernel_epochs=3\nmax_epochs=1\npatience=1\nscorer_lr=0.6\n"
    )
    stages = [["prepare"], ["gen-sets"], ["train-kernel"]]
    stages += [[verb, "--loss", k] for k in worker.LOSSES for verb in ("train", "evaluate")]
    for stage in stages:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["--config", str(cfg), *stage]) == 0, stage
    return base / "out"


def copy_of(pipeline: Path, tmp_path: Path) -> Path:
    out = tmp_path / "out"
    shutil.copytree(pipeline, out)
    return out


def program_losses(out: Path, kind: str, sample):
    from dppseq import kernel_learning, scorer
    from dppseq.data import SequenceInstance

    params = scorer.load_params(out / f"scorer_{kind}.txt")
    kernel = kernel_learning.load_kernel(out / "kernel.txt")
    return [scorer.instance_loss(params, SequenceInstance(*i), kind, kernel)[0] for i in sample]


def test_checks_pass_on_program_outputs(pipeline):
    log = checks.Log(pipeline / "filtered.csv")
    assert checks.check_prepare(pipeline, K_CORE, T, L, Z, log) > 0
    assert checks.check_gen_sets(pipeline, T, log) > 0
    assert checks.check_train_kernel(pipeline, log.n_items, 16) > 0
    sample = checks.read_instances(pipeline / "instances.tsv")[:20]
    for kind in worker.LOSSES:
        checks.check_train(pipeline, kind, program_losses(pipeline, kind, sample), sample, 1)
        checks.check_evaluate(pipeline, kind, log, T, L, N_LIST)


@pytest.mark.parametrize("kind", worker.LOSSES)
def test_perturbed_loss_value_is_caught(pipeline, kind):
    sample = checks.read_instances(pipeline / "instances.tsv")[:5]
    results = program_losses(pipeline, kind, sample)
    results[2].value *= 1.0 + 1e-8
    with pytest.raises(checks.CheckError, match="loss"):
        checks.check_train(pipeline, kind, results, sample, 1)


def test_perturbed_metrics_row_is_caught(pipeline, tmp_path):
    out = copy_of(pipeline, tmp_path)
    path = out / "metrics_cdsl.csv"
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[5] = f"{float(cells[5]) + 1e-6:.6f}"  # cc@5 moved by one in the last place
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    log = checks.Log(out / "filtered.csv")
    with pytest.raises(checks.CheckError, match="cc@5"):
        checks.check_evaluate(out, "cdsl", log, T, L, N_LIST)


def test_negative_in_history_is_caught(pipeline, tmp_path):
    out = copy_of(pipeline, tmp_path)
    path = out / "instances.tsv"
    lines = path.read_text().splitlines()
    user, prev, targets, negs, step = lines[2].split("\t")
    negs = ",".join([prev.split(",")[0]] + negs.split(",")[1:])
    lines[2] = "\t".join((user, prev, targets, negs, step))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckError, match="negative in history"):
        checks.check_prepare(out, K_CORE, T, L, Z, checks.Log(out / "filtered.csv"))


def test_k_core_violation_is_caught(pipeline, tmp_path):
    out = copy_of(pipeline, tmp_path)
    with open(out / "filtered.csv", "a") as fh:
        fh.write("lonely,i0,1,c0\n")
    with pytest.raises(checks.CheckError, match="k-core"):
        checks.check_prepare(out, K_CORE, T, L, Z, checks.Log(out / "filtered.csv"))


def test_uncovered_train_item_is_caught(pipeline, tmp_path):
    out = copy_of(pipeline, tmp_path)
    path = out / "diverse_sets.tsv"
    lines = path.read_text().splitlines()
    first_user = lines[0].split("\t")[0]
    mine = [k for k, ln in enumerate(lines) if ln.split("\t")[0] == first_user]
    keep = [ln for k, ln in enumerate(lines) if k not in mine[-2:]]  # drop the last pair
    path.write_text("\n".join(keep) + "\n")
    log = checks.Log(out / "filtered.csv")
    with pytest.raises(checks.CheckError, match="cover"):
        checks.check_gen_sets(out, T, log)


def test_non_unit_kernel_row_is_caught(pipeline, tmp_path):
    out = copy_of(pipeline, tmp_path)
    path = out / "kernel.txt"
    lines = path.read_text().splitlines()
    lines[3] = " ".join(repr(1.001 * float(v)) for v in lines[3].split())
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckError, match="unit norm"):
        checks.check_train_kernel(out, len(lines) - 3, 16)


def test_oracle_battery_and_distribution_sum():
    from dppseq import kernels, losses, oracle
    from types import SimpleNamespace

    rng = np.random.default_rng(0)
    V = rng.standard_normal((20, 16))
    kernel = kernels.DiversityKernelLowRank(V / np.linalg.norm(V, axis=1)[:, None])
    api = SimpleNamespace(kernels=kernels, losses=losses, oracle=oracle)
    scores = rng.uniform(-1, 1, 6)
    assert checks.verify_ground_set(kernel, (1, 2), (3, 4), (5, 6), scores, api) == 12
    with pytest.raises(checks.CheckError, match="sum to 1"):
        checks.check_distribution_sums({frozenset(): 0.5, frozenset({0}): 0.5 + 1e-6})


def test_generator_is_seeded():
    a, cats = gen.make_rows(30, 40, 4, 10, seed=5, cold_users=3)
    b, _ = gen.make_rows(30, 40, 4, 10, seed=5, cold_users=3)
    c, _ = gen.make_rows(30, 40, 4, 10, seed=6, cold_users=3)
    assert a == b and a != c
    assert len(a) == 30 * 10 + 3 * 3
    per_user = {}
    for user, item, _, cat in a:
        per_user.setdefault(user, []).append(item)
        assert cat == ";".join(f"c{x}" for x in cats[int(item[1:])])
    assert all(len(set(items)) == len(items) for items in per_user.values())


def test_tracer_self_time_and_restore():
    from dppseq import kernels, losses

    original = losses.build_sequence_kernel
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert losses.build_sequence_kernel is kernels.build_sequence_kernel is not original
        rng = np.random.default_rng(1)
        V = rng.standard_normal((10, 8))
        kernel = kernels.DiversityKernelLowRank(V)
        gs = kernels.GroundSet(previous=(0, 1), targets=(2,), negatives=(3, 4))
        tracer.span("outer", losses.cdsl_loss, gs, rng.uniform(-1, 1, 5), kernel)
    finally:
        tracer.uninstall()
    assert losses.build_sequence_kernel is kernels.build_sequence_kernel is original
    self_s, calls = tracer.self_times()
    assert calls["outer"] == calls["losses.cdsl_loss"] == calls["kernels.grad_quality"] == 1
    assert calls["kernels.log_det_psd"] == 1
    total = tracer.spans[0][2] - tracer.spans[0][1]
    assert sum(self_s.values()) == pytest.approx(total, rel=1e-9)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(worker.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == worker.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(worker.WORKLOADS)
