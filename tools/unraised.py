"""List the library's ``raise`` statements that a test run never executes.

Runs a pytest selection in this process under ``sys.settrace``, tracing
line events only in ``src/streamkc``, then prints each ``raise`` statement
whose first line never ran, as ``path:line: function: text``, and a count.
Without arguments the selection is the fast subset, ``-m "not slow" tests``;
arguments replace it and are handed to pytest as they are::

    python3 tools/unraised.py
    python3 tools/unraised.py tests/test_histogram.py -q

The tracer slows the run down many times over: the fast subset takes
minutes.  A child process the tests start (such as a ``python -O`` restore)
is not traced.  A ``raise`` that shares its first line with other code, as
in ``if x: raise E``, reads as executed whenever that line runs.  The list
is for reading, not a gate: the exit status is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "streamkc"
FAST_SUBSET = ["-m", "not slow", "tests"]


def raise_lines(source: str) -> list[tuple[int, str]]:
    """(first line, qualified name of the enclosing function or "<module>")
    of every ``raise`` statement in source, in line order."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = child.name if scope == "<module>" else f"{scope}.{child.name}"
                visit(child, name)
                continue
            if isinstance(child, ast.Raise):
                found.append((child.lineno, scope))
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def traced(run, directory: Path) -> tuple[object, dict[str, set[int]]]:
    """run()'s result and the lines it executed in each file under directory."""
    prefix = os.path.realpath(directory) + os.sep
    executed: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    inside: dict[str, bool] = {}  # file name -> whether it lies under directory

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        hit = inside.get(name)
        if hit is None:
            hit = inside[name] = os.path.realpath(name).startswith(prefix)
        return local if hit else None

    outer = sys.gettrace(), threading.gettrace()  # restored after: a traced run may nest
    threading.settrace(calls)
    sys.settrace(calls)
    try:
        result = run()
    finally:
        sys.settrace(outer[0])
        threading.settrace(outer[1])
    by_path: dict[str, set[int]] = defaultdict(set)
    for name, lines in executed.items():
        by_path[os.path.realpath(name)] |= lines
    return result, by_path


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(LIBRARY.parent))
    os.chdir(ROOT)
    status, executed = traced(lambda: pytest.main(argv or FAST_SUBSET), LIBRARY)
    missed = 0
    for path in sorted(LIBRARY.glob("*.py")):
        text = path.read_text().splitlines()
        ran = executed.get(os.path.realpath(path), set())
        for line, scope in raise_lines("\n".join(text)):
            if line not in ran:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{line}: {scope}: {text[line - 1].strip()}")
    print(f"{missed} raise statements never executed")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
