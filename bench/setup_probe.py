"""Prints the wall seconds from the start of this script to a resolved config: the
import of `dppseq` and its numeric stack, then config resolution, which is
what every CLI stage pays before its first step."""

import sys
import time

t0 = time.perf_counter()
from dppseq import cli  # noqa: E402

cli.load_config(sys.argv[1], {"seed": None, "threads": None, "out": None})
print(repr(time.perf_counter() - t0))
