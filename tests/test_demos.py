"""Each demo runs to completion in its own process, with one BLAS thread.

TMPDIR points at the test's own directory, so the directories that demos
make with `tempfile` go away with it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dppseq

DEMO_DIR = Path(__file__).resolve().parents[1] / "demos"
DEMOS = [
    "01_set_probabilities",
    "02_set_likelihood_losses",
    "03_learn_diversity_kernel",
    "04_train_and_compare",
    "05_cli_pipeline",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo, tmp_path):
    src = str(Path(dppseq.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        TMPDIR=str(tmp_path),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    result = subprocess.run(
        [sys.executable, str(DEMO_DIR / f"{demo}.py")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
