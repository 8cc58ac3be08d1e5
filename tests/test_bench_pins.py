"""The program names that the benchmark pins resolve to program functions.

`bench/tracing.py` wraps each function named in `TRACED`, and
`bench/worker.py` reads its per-layer figures under the span names of
`PER_LAYER_SPANS`, `CALL_COUNTS` and `SELF_NAMES`.  A refactor that moves or
renames one of those functions would break a benchmark run; these tests
fail first.  The bench files are parsed as text, never imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _module(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def assigned(path: Path, name: str):
    """The literal value of the module-level assignment to `name` in `path`."""
    for node in _module(path).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"no assignment to {name} in {path}")


def worker_spans() -> set[str]:
    """The span names that the worker opens itself, with a literal name, as
    `tracer.span("cli.stage", ...)`: they name no program function."""
    return {
        node.args[0].value
        for node in ast.walk(_module(BENCH / "worker.py"))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "span"
        and node.args
        and isinstance(node.args[0], ast.Constant)
    }


def traced_names() -> list[str]:
    return [f"{m}.{f}" for m, names in assigned(BENCH / "tracing.py", "TRACED").items() for f in names]


def test_every_traced_name_is_a_program_function():
    names = traced_names()
    assert len(names) > 30 and len(set(names)) == len(names)
    missing = []
    for dotted in names:
        module, name = dotted.split(".")
        if not inspect.isfunction(getattr(importlib.import_module(f"dppseq.{module}"), name, None)):
            missing.append(dotted)
    assert not missing, f"bench/tracing.py traces names that are no dppseq function: {missing}"


@pytest.mark.parametrize("table", ["PER_LAYER_SPANS", "CALL_COUNTS", "SELF_NAMES"])
def test_every_per_layer_span_is_traced(table):
    # a span name that is neither traced nor opened by the worker would
    # read 0 in every run
    names = list(assigned(BENCH / "worker.py", table))
    assert names
    known = set(traced_names()) | worker_spans()
    missing = [name for name in names if name not in known]
    assert not missing, f"bench/worker.py {table} names spans that no run records: {missing}"
