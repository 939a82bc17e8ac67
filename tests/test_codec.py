"""`catdsl`'s JSON codec against the `json` package it stands in for.

`catdsl.dumps` must write the bytes of `json.dumps(value, indent=…,
sort_keys=True)` for every value the package writes: each report and plain
line of the command line and each `serialize` document.  `catdsl._decoded`
must read the value `json.loads` reads, and every text it rejects or whose
document the builders reject must go to the positional scanner.
"""

import ast
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from bicat_euler import catdsl, cli
from test_golden_reports import _argvs

REPO = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = sorted(REPO.glob("fixtures/*.catj"))
NEGATIVE = sorted(REPO.glob("fixtures/negative/*.catj"))


def _checked(monkeypatch, module) -> list:
    """Make module's `dumps` check each value against `json.dumps`, indented and not; return the values written."""
    written = []
    dumps = catdsl.dumps

    def checked(value, indent=None):
        for width in (None, 2):
            assert dumps(value, width) == json.dumps(value, indent=width, sort_keys=True)
        written.append(value)
        return dumps(value, indent)

    monkeypatch.setattr(module, "dumps", checked)
    return written


def test_writer_matches_json_on_every_golden_report(monkeypatch):
    written = _checked(monkeypatch, cli)
    monkeypatch.chdir(REPO)
    reports = 0
    for argv in _argvs().values():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        reports += code in (cli.EXIT_PASS, cli.EXIT_FAIL) and "--json" in argv
    # Each --json run that does not stop at an input error writes its report; a failed plain check
    # also writes its witnesses.
    assert reports and len(written) > reports


def test_writer_matches_json_on_serialize_of_every_fixture_and_gen_kind(monkeypatch):
    written = _checked(monkeypatch, catdsl)
    for path in FIXTURES:
        catdsl.serialize(catdsl.parse(path.read_text(encoding="utf-8")).document.value)
    for build, _ in cli._GEN_KINDS.values():
        for seed, size in ((0, 1), (1, 2), (2, 3)):
            catdsl.serialize(build(seed, size))
    assert len(written) == len(FIXTURES) + 3 * len(cli._GEN_KINDS)


EDGE_VALUES = {
    "non-ascii": {"é": ["ζ", "\U0001f600", "\ud83d"], "Z/2": "∘"},
    "control-characters": ["\x00\x01\t\n\r\x1f\x7f", 'quote " and backslash \\', "/"],
    "empty": [[], {}, (), ""],
    "nested-empty": {"a": [[], [{}], {"b": {}}], "c": ([()],)},
    "constants": [True, False, None, {"t": True, "f": False, "n": None}],
    "ints": [0, -1, 7, -(10**40), 10**40],
    "scalars": -3,
    "sorted-keys": {"b": 1, "a": 2, "A": 3, "": 4, "aa": {"z": 1, "y": 2}},
}


@pytest.mark.parametrize("name", sorted(EDGE_VALUES))
@pytest.mark.parametrize("indent", [None, 2])
def test_writer_matches_json_on_edge_values(name, indent):
    value = EDGE_VALUES[name]
    assert catdsl.dumps(value, indent) == json.dumps(value, indent=indent, sort_keys=True)


@pytest.mark.parametrize("value", [1.5, {1, 2}, b"x", object(), [1, 2.0], {"a": {"b": frozenset()}}, {(1, 2): "a"}])
def test_writer_raises_type_error_on_any_other_type(value):
    with pytest.raises(TypeError):
        catdsl.dumps(value)
    with pytest.raises(TypeError):
        catdsl.dumps(value, 2)


@pytest.mark.parametrize("path", FIXTURES + NEGATIVE, ids=lambda p: p.name)
def test_reader_matches_json_loads_on_every_fixture(path):
    text = path.read_text(encoding="utf-8")
    try:
        expected = json.loads(text, object_pairs_hook=dict, strict=False)
    except ValueError:
        with pytest.raises((StopIteration, ValueError)):
            catdsl._decoded(text, dict)
    else:
        assert catdsl._decoded(text, dict) == expected


@pytest.mark.parametrize("path", NEGATIVE, ids=lambda p: p.name)
def test_reader_falls_back_to_the_scanner_on_every_negative_fixture(path):
    assert catdsl._read_plain(path.read_text(encoding="utf-8")) is None


ARROW = (REPO / "fixtures" / "arrow.catj").read_text(encoding="utf-8")
MALFORMED = [
    '{"kind" "category"}',
    '{"kind": "category",}',
    '{"kind": }',
    '{"kind": "category"',
    "[1, 2,]",
    '["unterminated',
    '{"a": "bad \\x escape"}',
    "{1: 2}",
    "tru",
    ARROW + " x",
    ARROW.replace(",", "", 1),
    "  \n",
    "",
]


def _fresh(code: str, *flags: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, check=True)
    return proc.stdout


def test_malformed_texts_are_diagnosed_alike_without_json_loaded():
    # Before 3.12 the C decoder raises SystemError on a syntax error when `json.decoder` is not loaded,
    # as in a command's process; this process has loaded it.  `-S`: no site hook loads it either.
    code = f"""import sys
loaded = "json.decoder" in sys.modules
from bicat_euler.catdsl import parse
print(repr((loaded, [[str(d) for d in parse(t).diagnostics] for t in {MALFORMED!r}])))
"""
    expected = [[str(d) for d in catdsl.parse(text).diagnostics] for text in MALFORMED]
    assert all(any(" E005 " in d for d in diagnostics) for diagnostics in expected)
    assert ast.literal_eval(_fresh(code, "-S")) == (False, expected)


def test_codec_falls_back_to_json_without_its_c_accelerator():
    text = (REPO / "fixtures" / "gr-psg-over-arrow.catj").read_text(encoding="utf-8")
    code = f"""import sys
sys.modules["_json"] = None  # an interpreter built without it
from bicat_euler.catdsl import dumps, parse, serialize
text = {text!r}
print(repr((serialize(parse(text).document.value), [str(d) for d in parse("[1,]").diagnostics], dumps({EDGE_VALUES!r}))))
"""
    expected = (
        catdsl.serialize(catdsl.parse(text).document.value),
        [str(d) for d in catdsl.parse("[1,]").diagnostics],
        catdsl.dumps(EDGE_VALUES),
    )
    assert ast.literal_eval(_fresh(code)) == expected
