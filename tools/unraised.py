"""List the library statements that a test run never executes.

Runs a pytest selection in this process under ``sys.settrace``, tracing
line events only in ``src/streamkc``, then prints each statement none of
whose lines ran, as ``path:line: function: text``, and a count: a compound
statement (``if``, ``for``, ``def`` and the like) by its header alone, a
docstring not at all.  Without arguments the selection is the fast subset,
``-m "not slow" tests``; arguments replace it and are handed to pytest as
they are::

    python3 tools/unraised.py
    python3 tools/unraised.py tests/test_histogram.py -q

Over the fast subset the last line should read ``0 statements never
executed``.  The tracer slows the run down many times over: the fast subset
takes minutes.  A child process the tests start (such as a ``python -O``
restore) is not traced.  A statement that shares a line with other code, as
``raise E`` in ``if x: raise E``, reads as executed whenever that line runs.
The exit status is pytest's.
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


def statements(source: str) -> list[tuple[int, int, str]]:
    """(first line, last line, qualified name of the enclosing function or
    "<module>") of every statement in source but docstrings, in line
    order.  The lines of a compound statement are its header's: those
    before its first body statement."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        body = getattr(node, "body", None)
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.stmt):
                visit(child, scope)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            else:
                inner = scope
            docstring = (isinstance(child, ast.Expr) and child is (body or [None])[0]
                         and isinstance(node, (ast.Module, ast.FunctionDef,
                                               ast.AsyncFunctionDef, ast.ClassDef))
                         and isinstance(child.value, ast.Constant)
                         and isinstance(child.value.value, str))
            if not docstring:
                inner_body = getattr(child, "body", None)
                last = (max(child.lineno, inner_body[0].lineno - 1)
                        if isinstance(inner_body, list) and inner_body else child.end_lineno)
                found.append((child.lineno, last, scope))
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def unexecuted(source: str, ran: set[int]) -> list[tuple[int, str]]:
    """(first line, scope) of every statement of source, as ``statements``
    reads them, none of whose lines is in ran."""
    return [(first, scope) for first, last, scope in statements(source)
            if ran.isdisjoint(range(first, last + 1))]


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
        source = "\n".join(text)
        ran = executed.get(os.path.realpath(path), set())
        for line, scope in unexecuted(source, ran):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{line}: {scope}: {text[line - 1].strip()}")
    print(f"{missed} statements never executed")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
