"""Every function that perfbench's tracer wraps exists in the package.

``perfbench/run.py`` crashes on a traced name that no longer resolves,
so a rename or deletion in ``src/slimfork`` is caught here first.
"""

from __future__ import annotations

import ast
from pathlib import Path

import slimfork
import slimfork.cli  # noqa: F401  (the tracer resolves cli.main)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_names() -> tuple[str, ...]:
    """The ``TRACED`` tuple of the tracer, read without importing it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {TRACER}")


def test_every_traced_name_resolves():
    names = traced_names()
    assert names
    missing = []
    for qualname in names:
        module_name, attr = qualname.split(".")
        module = getattr(slimfork, module_name, None)
        if not callable(getattr(module, attr, None)):
            missing.append(qualname)
    assert missing == []
