"""Byte-identity of every `check` and `verify` report on the shipped corpus.

`golden_reports.json` maps each run

    bicat-euler check fixtures/<file> <predicate> [--json]
    bicat-euler verify <theorem> fixtures/<file> [--json]

over every fixture and negative fixture, run from the repository root, to
its exit code and the sha256 of its stdout and of its stderr.  A `--json`
run is keyed by its command without `--json`, and the same run without
`--json` by that key followed by ` (plain)`.  A run that exits 3 (internal
error) is never pinned: it fails the test.

Regenerate with `PYTHONPATH=src python tests/test_golden_reports.py` only
when a report is meant to change, and say which one in the change log.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys

from bicat_euler.cli import EXIT_INTERNAL, main

GOLDEN = pathlib.Path(__file__).with_name("golden_reports.json")
REPO = pathlib.Path(__file__).resolve().parent.parent
PREDICATES = ("acyclic", "fibered", "fib-groupoids", "pseudogroupoid", "biequivalence", "fib-pseudogroupoids")
THEOREMS = ("gr", "product-cat", "biequivalence", "gr-bicat", "product-bicat")


def _argvs() -> dict[str, list[str]]:
    paths = sorted(REPO.glob("fixtures/*.catj")) + sorted(REPO.glob("fixtures/negative/*.catj"))
    argvs = {}
    for path in paths:
        rel = path.relative_to(REPO).as_posix()
        for predicate in PREDICATES:
            argvs[f"check {rel} {predicate}"] = ["check", rel, predicate]
        for theorem in THEOREMS:
            argvs[f"verify {theorem} {rel}"] = ["verify", theorem, rel]
    return {**{name: [*argv, "--json"] for name, argv in argvs.items()},
            **{f"{name} (plain)": argv for name, argv in argvs.items()}}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _reports():
    """Yield (name, {exit, stdout, stderr} digests, stderr text) for every run, from the repository root."""
    cwd = os.getcwd()
    os.chdir(REPO)
    try:
        for name, argv in _argvs().items():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            digests = {key: _sha256(s.getvalue()) for key, s in (("stdout", out), ("stderr", err))}
            yield name, {"exit": code, **digests}, err.getvalue()
    finally:
        os.chdir(cwd)


def test_golden_covers_every_run():
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == sorted(_argvs())


def test_check_and_verify_reports_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for name, got, err in _reports():
        assert got["exit"] != EXIT_INTERNAL, (name, err)
        assert got == golden[name], name


if __name__ == "__main__":
    golden = {}
    for name, got, err in _reports():
        if got["exit"] == EXIT_INTERNAL:
            sys.exit(f"{name} exits 3, which is never pinned:\n{err}")
        golden[name] = got
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(golden)} runs written to {GOLDEN.name}")
