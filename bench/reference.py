"""One-off reference figures at paper scale, outside the gated runs.

    python3 bench/reference.py [--seed 0]

Generates about 600k interactions (6000 users x 100 actions over 3600
items) with the benchmark's generator and times `prepare` and `gen-sets`
once each, wall and process CPU.  Takes several minutes.  Files go to
`bench/_runs/reference/`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import gen  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    out = HERE / "_runs" / "reference"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    rows, _ = gen.make_rows(6000, 3600, 36, 100, seed=args.seed)
    gen.write_csv(out / "input.csv", rows)
    (out / "config.txt").write_text(
        f"dataset={out / 'input.csv'}\nout={out / 'pipeline'}\nT=3\nk_core=10\nseed={args.seed}\n"
    )
    from dppseq import cli

    print(f"rows {len(rows)}")
    for stage in ("prepare", "gen-sets"):
        t0, c0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--config", str(out / "config.txt"), stage])
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        print(f"{stage}: exit {code}, wall {wall:.1f} s, cpu {cpu:.1f} s")
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
