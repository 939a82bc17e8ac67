"""List the statements under src/ that no tier-1 test executes.

    PYTHONPATH=src python tests/untested_lines.py [PYTEST-ARGS...]

Runs the suite in this process (`tests` by default) under `sys.settrace`
and `threading.settrace`, then prints `file:line statement` for each
statement of `src/bicat_euler/*.py`, in file and line order, that ran in no
test.  Statements come from `ast`; docstrings and the bodies of
`if TYPE_CHECKING:` are skipped, and so are `try`, `global` and `nonlocal`,
which leave no line event of their own.  A statement counts as run when any
line of its header (for a compound statement, the lines before its body)
ran.  Code that tests run in a subprocess (`python -m bicat_euler.cli ...`)
is not seen, so a line that only such tests reach is listed too.

The suite's own output goes to stderr; stdout holds only the list.  This is
a reading aid for finding missing tests, not a gate: the exit code is the
suite's.
"""

import ast
import contextlib
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bicat_euler"
UNTRACED = (ast.Try, ast.Global, ast.Nonlocal) + ((ast.TryStar,) if hasattr(ast, "TryStar") else ())


def _is_docstring(node: ast.stmt, body: list) -> bool:
    return (
        node is body[0]
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _header(node: ast.stmt) -> range:
    """The lines whose events mean the statement ran: all of a simple one, the head of a compound one."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(first, max(body[0].lineno, node.lineno + 1))
    return range(first, node.end_lineno + 1)


def statements(tree: ast.Module) -> list[tuple[int, range]]:
    """(line, header lines) of each statement that leaves a line event when it runs."""
    out = []

    def visit(body: list):
        for node in body:
            if _is_docstring(node, body):
                continue
            if not isinstance(node, UNTRACED):
                out.append((node.lineno, _header(node)))
            if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
                visit(node.orelse)
                continue
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []))
            for handler in getattr(node, "handlers", []):
                visit(handler.body)
            for case in getattr(node, "cases", []):
                visit(case.body)

    visit(tree.body)
    return out


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(SRC) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set())
        return local

    sys.path[:0] = [str(ROOT), str(ROOT / "src")]  # as `PYTHONPATH=src python -m pytest` from the root
    threading.settrace(call)
    sys.settrace(call)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        seen = ran.get(str(path), set())
        for line, header in statements(ast.parse(text)):
            if seen.isdisjoint(header):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{line} {lines[line - 1].strip()}")
    print(f"{missed} statements under src/ ran in no in-process test (subprocess runs are not seen)", file=sys.stderr)
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
