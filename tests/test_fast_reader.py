"""The C-decoder reading of `.catj` documents against the scanner-only path.

`parse` first reads a text with `json.loads` and builds it through the
plain builder; a text the decoder rejects, one holding a `\\u` escape, and
one the builders find a problem in go through the positional scanner.  The
slow path is the fast one switched off here by a monkeypatch: on every
input both must give the same diagnostics and an equal document.  Every
positive fixture and every `gen` output must take the fast path, or the
speedup would be lost while every result stayed right.
"""

import json
import sys

import pytest

from bicat_euler import catdsl, cli
from bicat_euler import fixtures as fx
from test_scanner import CORPUS, EDGE_CASES, mutants


def _scanner_only(monkeypatch, text):
    with monkeypatch.context() as m:
        m.setattr(catdsl, "_read_plain", lambda text: None)
        return catdsl.parse(text)


def _agrees(monkeypatch, text) -> bool:
    fast, slow = catdsl.parse(text), _scanner_only(monkeypatch, text)
    return fast.diagnostics == slow.diagnostics and fast.document == slow.document


def _scanned(monkeypatch, text) -> bool:
    """Whether parsing text constructs a `_Scanner`; the result must be a document."""
    made = []

    class Recorded(catdsl._Scanner):
        def __init__(self, text):
            made.append(text)
            super().__init__(text)

    with monkeypatch.context() as m:
        m.setattr(catdsl, "_Scanner", Recorded)
        result = catdsl.parse(text)
    assert result.ok, result.diagnostics[:3]
    return bool(made)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_fast_path_matches_scanner_on_corpus(monkeypatch, name):
    assert _agrees(monkeypatch, CORPUS[name])


@pytest.mark.parametrize("text", EDGE_CASES, ids=range(len(EDGE_CASES)))
def test_fast_path_matches_scanner_on_edge_cases(monkeypatch, text):
    assert _agrees(monkeypatch, text)


def test_fast_path_matches_scanner_on_mutants(monkeypatch):
    failures = [text for text in mutants(1200, seed=20141001) if not _agrees(monkeypatch, text)]
    assert not failures, failures[:3]


ARROW = CORPUS["arrow.catj"]


def _noted(value: str) -> str:
    """The arrow category with an extra field, which the builders ignore, holding value."""
    return ARROW.replace("{", '{"note": ' + value + ", ", 1)


def _labelled(label: str) -> str:
    """The arrow category with its object "0" renamed to label, written raw."""
    return ARROW.replace('"0"', '"' + label + '"')


# Each text, and whether the scanner-only path accepts it.
TARGETED = {
    "nan": (_noted("NaN"), False),
    "infinity": (_noted("Infinity"), False),
    "minus-infinity": (_noted("-Infinity"), False),
    "bare-nan": ("NaN", False),
    "duplicate-key": (ARROW.replace("{", '{"kind": "category", ', 1), False),
    "surrogate-pair": (_labelled("\\ud83d\\ude00"), True),
    "bom": ("\ufeff" + ARROW, False),
    # Past the int conversion limit where the interpreter has one (4,300 digits by default).
    "long-integer": (_noted("1" * 5000), not hasattr(sys, "get_int_max_str_digits")),
    "deep-nesting": (_noted("[" * 5000 + "]" * 5000), True),
    "raw-tab-and-nul": (_labelled("a\tb\x00c"), True),
    "number-in-a-triple": (ARROW.replace('"a"', "7"), False),
    "bare-point": (_noted("1."), True),
    "leading-zeros": (_noted("007"), True),
    "arabic-indic-digit": (_noted("-\u0663"), True),
    # An optional field holding null is ill-typed, not absent.
    "null-optional-field": (CORPUS["bpt.catj"].replace("{", '{"associator": null, ', 1), False),
    # So is a required one.
    "null-kind": (json.dumps({**json.loads(ARROW), "kind": None}), False),
    "null-objects": (json.dumps({**json.loads(ARROW), "objects": None}), False),
}


@pytest.mark.parametrize("name", sorted(TARGETED))
def test_fast_path_matches_scanner_on_targeted_texts(monkeypatch, name):
    text, accepted = TARGETED[name]
    assert _agrees(monkeypatch, text)
    assert catdsl.parse(text).ok == accepted


def test_required_null_field_is_reported():
    for name, message in (("null-kind", "kind must be a string"), ("null-objects", "objects must be a JSON array")):
        first = catdsl.parse(TARGETED[name][0]).diagnostics[0]
        assert (first.code, first.message) == ("E003", message)


def test_hom_key_naming_an_undeclared_object_is_reported_at_the_key(monkeypatch):
    point = {"objects": ["u"], "morphisms": [["e", "u", "u"]], "identity": {"u": "e"}, "compose": [["e", "e", "e"]]}
    text = json.dumps({"kind": "catgraph", "objects": ["a"], "hom": {"a|a": point, "a|z": point}}, indent=1)
    at = text.index('"a|z"')
    line, col = text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
    expected = [f"{line}:{col} E001 hom key references undeclared object 'z'"]
    assert [str(d) for d in catdsl.parse(text).diagnostics] == expected
    assert [str(d) for d in _scanner_only(monkeypatch, text).diagnostics] == expected


def test_surrogate_pair_escape_stays_two_characters():
    category = catdsl.parse(TARGETED["surrogate-pair"][0]).document.value
    assert "\ud83d\ude00" in category.objects and "\U0001f600" not in category.objects


POSITIVE = sorted(name for name in CORPUS if not name.startswith("negative/"))


@pytest.mark.parametrize("name", POSITIVE)
def test_positive_fixtures_take_the_fast_path(monkeypatch, name):
    compact = json.dumps(json.loads(CORPUS[name]), separators=(",", ":"))
    assert not _scanned(monkeypatch, CORPUS[name])
    assert not _scanned(monkeypatch, compact)


@pytest.mark.parametrize("kind", sorted(cli._GEN_KINDS))
def test_gen_outputs_take_the_fast_path(monkeypatch, kind):
    build = cli._GEN_KINDS[kind][0]
    for seed, size in ((0, 1), (1, 2), (2, 3)):
        assert not _scanned(monkeypatch, catdsl.serialize(build(seed, size)))


def test_decoder_interns_table_labels(monkeypatch):
    # The collapse of the suspension of Z/12 on two objects, whose hcompose2 rows repeat 12 2-cell labels.
    elements, mult, unit = fx.cyclic_group(12)
    text = catdsl.serialize(fx.collapse_to_point(fx.suspension_two_group(["o0", "o1"], elements, mult, unit)))
    value = catdsl.parse(text).document.value
    source = value.source
    labels = [label for (xyz, *cells), res in source.hcompose2.items() for label in (*xyz, *cells, res)]
    labels += [label for hom in source.graph.hom.values() for key, h in hom.compose.items() for label in (*key, h)]
    assert labels and all(sys.intern(label) is label for label in labels)
    assert value == _scanner_only(monkeypatch, text).document.value
