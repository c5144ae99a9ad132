"""No module of the package imports a name it never uses or imports from
one module in two statements, and no private function or method of the
package goes unreferenced."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "cncsynth"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_finds_an_unused_name():
    src = "from __future__ import annotations\nimport os, sys\nfrom a.b import c as d, e\nprint(sys.argv, e)\n"
    assert unused_imports(src) == ["line 2: os", "line 3: d"]


def repeated_from_imports(source: str) -> list[str]:
    """``from X import`` statements, function-level ones included, that
    repeat an ``X`` an earlier statement of the module imports from."""
    first: dict[str, int] = {}
    repeats = []
    for node in sorted((n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.ImportFrom)),
                       key=lambda n: n.lineno):
        module = "." * node.level + (node.module or "")
        if module in first:
            repeats.append(f"line {node.lineno}: {module} (first at line {first[module]})")
        else:
            first[module] = node.lineno
    return repeats


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_from_import_per_module(path):
    assert repeated_from_imports(path.read_text()) == []


def test_repeated_from_imports_finds_a_second_statement():
    src = ("from a import b\nfrom a.c import d\nimport a\nfrom a import e\n"
           "def f():\n    from a.c import g\n    from . import h\n")
    assert repeated_from_imports(src) == ["line 4: a (first at line 1)",
                                          "line 6: a.c (first at line 2)"]


def unreferenced_private_functions(sources: dict[str, str]) -> list[str]:
    """``_``-prefixed module-level functions and methods (dunders aside) whose
    name no ``Name`` or attribute anywhere in ``sources`` mentions."""
    defined: list[tuple[str, str]] = []
    used: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        bodies = [tree.body] + [n.body for n in tree.body if isinstance(n, ast.ClassDef)]
        defined += [(f"{module}:{n.lineno}", n.name) for body in bodies for n in body
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and n.name.startswith("_") and not n.name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [f"{where} {name}" for where, name in defined if name not in used]


def test_no_unreferenced_private_functions():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_functions(sources) == []


def test_unreferenced_private_functions_finds_a_dead_helper():
    a = "def _used():\n    pass\n\ndef _dead():\n    pass\n\nclass K:\n    def _gone(self):\n        pass\n    def __init__(self):\n        pass\n"
    b = "from a import _used\n_used()\n"
    assert unreferenced_private_functions({"a.py": a, "b.py": b}) == ["a.py:4 _dead", "a.py:8 _gone"]


GC_SWITCHES = {"collect", "disable", "enable", "freeze", "set_threshold", "unfreeze"}


def gc_switches_outside(sources: dict[str, str], helper: tuple[str, str]) -> list[str]:
    """Uses of ``gc.collect``, ``gc.disable``, ``gc.enable``, ``gc.freeze``,
    ``gc.set_threshold`` and ``gc.unfreeze`` (through ``import gc``, an alias
    of it, or ``from gc import``) anywhere but in the function ``helper``
    names as ``(module, function)``."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        aliases = {a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
                   for a in n.names if a.name == "gc"}
        allowed = {id(c) for n in ast.walk(tree)
                   if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and (module, n.name) == helper
                   for c in ast.walk(n)}
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "gc":
                names = [a.name for a in node.names if a.name in GC_SWITCHES or a.name == "*"]
            elif (isinstance(node, ast.Attribute) and node.attr in GC_SWITCHES
                  and isinstance(node.value, ast.Name) and node.value.id in aliases):
                names = [node.attr]
            else:
                continue
            found += [(module, node.lineno, name) for name in names]
    return [f"{module}:{line} gc.{name}" for module, line, name in sorted(found)]


def test_only_the_pause_helper_switches_gc():
    # A second path that turns the collector off could leave it off in the
    # host program, and one that collects or promotes objects could undo a
    # caller's freeze; synth._gc_paused restores the caller's setting and
    # leaves frozen objects frozen.
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert gc_switches_outside(sources, ("synth.py", "_gc_paused")) == []


def test_gc_switches_outside_finds_a_second_path():
    a = ("import gc\nimport gc as g\n\ndef _pause():\n    gc.collect(1)\n    gc.disable()\n"
         "    gc.freeze()\n    gc.unfreeze()\n    gc.enable()\n\n"
         "def solve():\n    gc.isenabled()\n    g.freeze()\n    f = gc.set_threshold\n"
         "    g.unfreeze()\n    gc.collect()\n    gc.get_freeze_count()\n")
    b = "from gc import collect, disable, unfreeze\n\ndef _pause():\n    disable()\n"
    assert gc_switches_outside({"a.py": a, "b.py": b}, ("a.py", "_pause")) == [
        "a.py:13 gc.freeze", "a.py:14 gc.set_threshold", "a.py:15 gc.unfreeze",
        "a.py:16 gc.collect", "b.py:1 gc.collect", "b.py:1 gc.disable", "b.py:1 gc.unfreeze"]


def test_importing_the_cli_loads_no_process_modules():
    # Only an external solver run needs subprocess and tempfile; a plain
    # import must not pay for them.
    code = "import sys, cncsynth.cli; print(sorted({'subprocess', 'tempfile'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
