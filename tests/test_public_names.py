"""The package holds only what its commands run.

Every public top-level function, class and constant of
`src/bicat_euler/*.py` must be named by other code under `src/`: outside its
own definition, and not only in a comment or docstring.  A name that only
tests use belongs under `tests/` (`catalog.py` and `builders.py` for inputs,
the `*_oracle.py` modules for independent checks).  The allowlist names the
exceptions, each with its reason.
"""

import ast
import io
import pathlib
import re
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "bicat_euler"

ALLOWED = {
    "cli.main": "the command line itself: `python -m bicat_euler.cli` and the tests call it",
    "cli.run": "the console-script entry point that pyproject.toml names",
}


def public_definitions() -> dict[str, tuple[pathlib.Path, int, int]]:
    """`module.name` of every public top-level function and class, with its file and line span."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found[f"{path.stem}.{node.name}"] = (path, node.lineno, node.end_lineno)
    return found


def public_constants() -> dict[str, tuple[pathlib.Path, int, int]]:
    """`module.name` of every public name a top-level assignment binds, with its file and line span."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    found[f"{path.stem}.{target.id}"] = (path, node.lineno, node.end_lineno)
    return found


def _code_lines(path: pathlib.Path) -> list[str]:
    """The lines of a module with its comments and docstrings blanked out."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            row, col = tok.start
            lines[row - 1] = lines[row - 1][:col]
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                for row in range(first.lineno, first.end_lineno + 1):
                    lines[row - 1] = ""
    return lines


def unreached() -> list[str]:
    """The public names that no other code under `src/` names, allowlist aside."""
    code = {path: _code_lines(path) for path in sorted(SRC.glob("*.py"))}
    out = []
    for qualified, (path, start, end) in {**public_definitions(), **public_constants()}.items():
        if qualified in ALLOWED:
            continue
        word = re.compile(rf"\b{re.escape(qualified.split('.', 1)[1])}\b")
        named = any(
            word.search(line)
            for other, lines in code.items()
            for row, line in enumerate(lines, 1)
            if not (other == path and start <= row <= end)
        )
        if not named:
            out.append(qualified)
    return out


def test_every_public_name_is_named_by_other_code_under_src():
    assert unreached() == []


def test_the_allowlist_names_only_public_definitions():
    assert set(ALLOWED) <= set(public_definitions()) | set(public_constants())
