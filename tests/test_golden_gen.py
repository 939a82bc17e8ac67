"""Byte-identity of every `gen` document at desk scale.

`golden_gen.json` maps each run

    bicat-euler gen <kind> --seed <seed> --size <size>

for every kind, seeds 0-11 and sizes 1-4, to its exit code and the sha256
of its stdout, which is the document `gen` writes.  A run that exits 3
(internal error) is never pinned: it fails the test.

Regenerate with `PYTHONPATH=src python tests/test_golden_gen.py` only when
a document is meant to change, and say which one in the change log.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys

from bicat_euler.cli import EXIT_INTERNAL, _GEN_KINDS, main

GOLDEN = pathlib.Path(__file__).with_name("golden_gen.json")
SEEDS = range(12)
SIZES = range(1, 5)


def _argvs() -> dict[str, list[str]]:
    return {
        f"gen {kind} --seed {seed} --size {size}": ["gen", kind, "--seed", str(seed), "--size", str(size)]
        for kind in _GEN_KINDS
        for seed in SEEDS
        for size in SIZES
    }


def _runs():
    """Yield (name, {exit, stdout digest}, stderr text) for every run."""
    for name, argv in _argvs().items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        yield name, {"exit": code, "stdout": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()}, err.getvalue()


def test_golden_covers_every_run():
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == sorted(_argvs())


def test_gen_documents_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for name, got, err in _runs():
        assert got["exit"] != EXIT_INTERNAL, (name, err)
        assert got == golden[name], name


if __name__ == "__main__":
    golden = {}
    for name, got, err in _runs():
        if got["exit"] == EXIT_INTERNAL:
            sys.exit(f"{name} exits 3, which is never pinned:\n{err}")
        golden[name] = got
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(golden)} runs written to {GOLDEN.name}")
