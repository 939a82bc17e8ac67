"""Byte-identity of `chi --json --weighting --coweighting` on the shipped corpus.

`golden_chi.json` maps each fixture the `chi` command accepts (category,
catgraph and bicategory documents) to the exit code and the exact stdout of

    bicat-euler chi fixtures/<name> --json --weighting --coweighting

run from the repository root.  Any change to the exact kernels, the
weighting choice for singular systems or the report layout shows up here.
"""

import json
import pathlib

from bicat_euler.catdsl import parse
from bicat_euler.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden_chi.json")
CHI_KINDS = ("category", "catgraph", "bicategory")


def _chi_fixtures(fixture_dir) -> list[str]:
    names = []
    for path in sorted(fixture_dir.glob("*.catj")):
        doc = parse(path.read_text(encoding="utf-8")).document
        if doc is not None and doc.kind in CHI_KINDS:
            names.append(path.name)
    return names


def test_golden_covers_every_chi_fixture(fixture_dir):
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == _chi_fixtures(fixture_dir)


def test_chi_json_matches_golden(capsys, monkeypatch, fixture_dir):
    monkeypatch.chdir(fixture_dir.parent)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for name, expected in golden.items():
        code = main(["chi", f"fixtures/{name}", "--json", "--weighting", "--coweighting"])
        out = capsys.readouterr().out
        assert {"exit": code, "stdout": out} == expected, name
