"""Every function the bench harness traces exists in the package.

``bench/spans.py`` wraps the attributes its ``TARGETS`` list names and skips
any that is missing, so a rename would silently zero a layer metric (or the
bench's count of null-cache misses). The list is read with ``ast``; the bench
is not imported.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
# (module, attribute) deleted from the package; their spans are dropped with
# the next bench change. Keyed by module, so a name gone from one module (the
# second import path ``simharness.p_value``) still has to exist in the others.
GONE = {
    ("screening", "screen_window"),
    ("nullsim", "maximize_lambda_batch"),
    ("wavelet", "average_ranks"),
    ("simharness", "p_value"),
}


def bench_targets() -> list[tuple[str, str]]:
    """(module, attribute) of each entry of the ``TARGETS`` list."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return [(entry.elts[1].id, entry.elts[2].value) for entry in node.value.elts]
    raise AssertionError("bench/spans.py defines no TARGETS list")


def test_every_traced_function_exists():
    targets = bench_targets()
    assert ("nullsim", "simulate_null") in targets
    missing = [
        f"{module}.{attr}" for module, attr in targets if (module, attr) not in GONE
        and not hasattr(importlib.import_module(f"wavescreen.{module}"), attr)
    ]
    assert missing == []
