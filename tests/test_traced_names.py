"""Every package name the benchmark's traced pass swaps exists.

``perfbench/worker.py``'s ``layers_traced`` replaces module-level names of
``cncsynth`` with span-recording wrappers through ``setattr``; a renamed or
deleted name would make ``--trace 1`` fail with ``AttributeError``.  The
worker is parsed, not imported.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

WORKER = Path(__file__).parent.parent / "perfbench" / "worker.py"


def traced_names(source: str) -> list[tuple[str, str]]:
    """The ``(module, "name")`` pairs that open the tuples in ``layers_traced``."""
    tree = ast.parse(source)
    fn = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "layers_traced")
    return [(t.elts[0].id, t.elts[1].value) for t in ast.walk(fn)
            if isinstance(t, ast.Tuple) and len(t.elts) >= 2 and isinstance(t.elts[0], ast.Name)
            and isinstance(t.elts[1], ast.Constant) and isinstance(t.elts[1].value, str)]


def test_traced_names_exist():
    pairs = traced_names(WORKER.read_text())
    assert {mod for mod, _ in pairs} == {"cli", "reduction", "synth"}
    missing = [f"{mod}.{name}" for mod, name in pairs
               if not hasattr(importlib.import_module(f"cncsynth.{mod}"), name)]
    assert missing == []


def test_traced_names_reads_the_swap_tuples():
    src = "def layers_traced(tr):\n    swaps = [(synth, 'gone', tr.wrap(1)), (cli, 'x', f)]\n    saved = [(m, n, g) for m, n, _ in swaps]\n"
    assert traced_names(src) == [("synth", "gone"), ("cli", "x")]
