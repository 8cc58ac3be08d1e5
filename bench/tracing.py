"""Spans around the public functions of the `dppseq` modules.

`Tracer.install` replaces every public function listed in `TRACED` by a
wrapper that records one span per call (name, start, end, parent) in memory,
in its own module and in every `dppseq` module that imported it by name.
`uninstall` puts the originals back.  Self time of a span is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import logging
import sys
import time
from collections import Counter, defaultdict

TRACED = {
    "data": (
        "load_interactions",
        "write_interactions",
        "k_core_filter",
        "temporal_split",
        "user_histories",
        "make_instances",
        "write_split_manifest",
    ),
    "diverse_sets": (
        "generate_diverse_sets",
        "sample_negative_set",
        "build_paired_sets",
        "dump_paired_sets",
        "load_paired_sets",
    ),
    "kernel_learning": (
        "paired_set_objective",
        "train_kernel",
        "normalize_kernel",
        "save_kernel",
        "load_kernel",
    ),
    "kernels": (
        "build_sequence_kernel",
        "log_det_psd",
        "dsl_log_likelihood",
        "cdsl_log_likelihood",
        "grad_quality",
    ),
    "losses": ("ce_loss", "bpr_loss", "dsl_loss", "cdsl_loss"),
    "scorer": (
        "init_params",
        "score",
        "backprop_scores",
        "instance_loss",
        "train",
        "validation_ndcg",
        "evaluate_model",
        "save_params",
        "load_params",
    ),
    "metrics": ("rank_candidates", "evaluate_ranking_fn"),
    "oracle": (
        "oracle_dpp_distribution",
        "oracle_conditional_distribution",
        "oracle_marginal",
        "oracle_pair_probability",
        "oracle_fd_gradient",
    ),
}


class Tracer:
    def __init__(self) -> None:
        # each span is [name, start, end, parent index]; -1 is the root
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append([name, time.perf_counter(), 0.0, stack[-1]])
        stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            spans[idx][2] = time.perf_counter()

    def _wrap(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if getattr(result, "skipped", False) is True:
                counts[name + ".skipped"] += 1
            return result

        return wrapper

    def install(self) -> None:
        modules = {n: m for n, m in sys.modules.items() if n == "dppseq" or n.startswith("dppseq.")}
        for short, names in TRACED.items():
            module = modules[f"dppseq.{short}"]
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(f"{short}.{name}", original)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Summed self time and call count per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, _), inner in zip(self.spans, child_time):
            totals[name] += (end - start) - inner
            calls[name] += 1
        return dict(totals), calls

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for k, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{k}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


class LogCounter(logging.Handler):
    """Counts the program's own log records whose message contains a marker."""

    def __init__(self, markers: dict[str, str]) -> None:
        super().__init__(level=logging.INFO)
        self.markers = markers
        self.counts: Counter = Counter()

    def emit(self, record: logging.LogRecord) -> None:
        message = record.getMessage()
        for key, marker in self.markers.items():
            if marker in message:
                self.counts[key] += 1
