"""Benchmark entry point.

    python3 bench/run.py --workload desk --seed 1 --seconds 35 --trace 0

Runs one workload in one child process (`worker.py`) with BLAS and OpenMP
pinned to one thread through the child's environment, times set-up in a few
short probe processes, and prints one JSON line: `correct`, `attempted`,
`failed` and `metrics` (end-to-end metrics untraced, per-layer metrics
traced).  Run files go to `bench/_runs/<workload>/`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
from worker import END_TO_END, WORKLOADS, per_layer_names  # noqa: E402

UNITS = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_per_s"):
        return "1/s"
    return "s" if name.endswith("_s") else "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "dppseq" / "__init__.py").is_file():
        print(f"no dppseq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = HERE / "_runs" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = child_env()

    with open(out / "worker.log", "w") as logf:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", str(out)],
            env=env, stdout=logf, stderr=subprocess.STDOUT, timeout=TIMEOUT_S,
        )
    if proc.returncode != 0 or not (out / "result.json").exists():
        sys.stderr.write((out / "worker.log").read_text()[-4000:])
        return 1
    result = json.loads((out / "result.json").read_text())
    if result["program"] != str(ROOT / "src" / "dppseq"):
        print(f"benchmarked {result['program']}, not this checkout", file=sys.stderr)
        return 1
    if result["error"]:
        print(result["error"], file=sys.stderr)

    metrics = result["metrics"]
    if args.trace:
        names = per_layer_names()
    else:
        names = END_TO_END
        setup = []
        for _ in range(SETUP_PROBES):
            probe = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), str(out / "config.txt")],
                env=env, capture_output=True, text=True, timeout=60, check=True,
            )
            setup.append(float(probe.stdout.strip().splitlines()[-1]))
        metrics["setup_s"] = statistics.median(setup)
    report = {name: {"value": metrics[name], "unit": unit(name)} for name in names if name in metrics}
    print(json.dumps({
        "correct": result["correct"] and len(report) == len(names),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
