"""List the statements of src/czkit that no tier-1 test executes.

Runs the tier-1 suite in this process under ``sys.settrace``, with line
tracing only in frames whose code lies in src/czkit, and prints each
statement of which no line ran, docstrings skipped, as ``path:line: text``,
then their count.  A statement counts as run when any of its lines runs
(two statements on one line share it).  Standard library only; arguments
go to pytest:

    python tools/statement_coverage.py
    python tools/statement_coverage.py tests/test_certify.py

The exit code is pytest's.
"""

from __future__ import annotations

import ast
import collections
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "czkit"


def statements(path: Path) -> dict:
    """first line -> (lines, text) of every statement of ``path`` but
    docstrings, decorators included."""
    source = path.read_text()
    lines = source.splitlines()
    out = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or (
                isinstance(node, ast.Expr) and
                isinstance(node.value, ast.Constant) and
                isinstance(node.value.value, str)):
            continue
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", [])])
        out[first] = (range(first, node.end_lineno + 1),
                      lines[node.lineno - 1].strip())
    return out


def main(argv: list[str]) -> int:
    prefix = str(PACKAGE) + os.sep
    ran = collections.defaultdict(set)      # file name -> lines run

    def trace_lines(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            return trace_lines
        return None

    os.chdir(ROOT)
    sys.path.insert(0, str(PACKAGE.parent))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    import pytest
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            "--continue-on-collection-errors"] + argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    modules = 0
    for path in sorted(PACKAGE.glob("*.py")):
        hit = ran[str(path)]
        rows = [(first, text) for first, (own, text) in
                sorted(statements(path).items()) if hit.isdisjoint(own)]
        modules += bool(rows)
        missed += len(rows)
        for first, text in rows:
            print(f"{path.relative_to(ROOT)}:{first}: {text}")
    print(f"{missed} statements not run, in {modules} modules")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
