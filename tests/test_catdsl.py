"""Parser/serializer: round trips, canonical bytes, diagnostics with spans."""

import json

import pytest

from bicat_euler import fixtures as fx
from bicat_euler.catdsl import parse, serialize

ROUND_TRIP_VALUES = [
    "PT", "D2", "ARROW", "PAIR", "SPAN", "BZ2", "EZ2",
    "PSG", "BPT", "ACYCLIC2", "ARROW_BICAT", "EZ2_BICAT", "BZ2_TWOGROUP",
    "EZ2_TO_BZ2", "D2_TO_PT",
    "ARROW_BASE_LAXCAT", "BZ2_BASE_LAXCAT",
    "GR_PSG_OVER_ARROW", "PSG_COLLAPSE",
]


@pytest.mark.parametrize("name", ROUND_TRIP_VALUES)
def test_round_trip_structural_and_byte_identity(name):
    value = getattr(fx, name)
    text = serialize(value)
    result = parse(text)
    assert result.ok, result.diagnostics
    assert result.document.value == value
    assert serialize(result.document.value) == text


def test_round_trip_trihom():
    t = fx.constant_trihomomorphism(fx.ARROW_BICAT, fx.PSG)
    text = serialize(t)
    result = parse(text)
    assert result.ok and result.document.kind == "trihom"
    assert result.document.value == t


def test_round_trip_catgraph():
    g = fx.PSG.graph
    text = serialize(g)
    result = parse(text)
    assert result.ok and result.document.kind == "catgraph"
    assert result.document.value == g


def test_corpus_files_are_canonical(fixture_dir):
    for path in sorted(fixture_dir.glob("*.catj")):
        text = path.read_text(encoding="utf-8")
        result = parse(text)
        assert result.ok, (path.name, result.diagnostics)
        assert serialize(result.document.value) == text, path.name


def test_structurally_equal_documents_serialize_identically():
    a = fx.discrete_category(["x", "y"])
    b = fx.discrete_category(["y", "x"])  # same category, different declaration order
    assert a == b
    assert serialize(a) == serialize(b)


NEGATIVE_CODES = {
    "e001-undeclared-object.catj": "E001",
    "e002-duplicate.catj": "E002",
    "e003-missing-field.catj": "E003",
    "e004-unknown-kind.catj": "E004",
    "e005-syntax.catj": "E005",
    "e005-bad-exponent.catj": "E005",
    "e006-bad-key.catj": "E006",
    "e010-incomplete-map.catj": "E010",
    "e012-missing-pullback.catj": "E012",
    "e013-missing-fiber.catj": "E013",
    "e014-missing-component.catj": "E014",
    "law-missing-composite.catj": "MissingComposite",
    "law-identity.catj": "IdentityLawViolation",
    "law-assoc.catj": "AssociativityViolation",
    "law-dangling.catj": "DanglingEndpoint",
    "missing-composition-data.catj": "MissingCompositionData",
    "unknown-2cell.catj": "MissingCompositionData",
    "incoherent-laxcat.catj": "IncoherentData",
    "illtyped-trihom.catj": "IllTypedComponent",
}


@pytest.mark.parametrize("name", sorted(NEGATIVE_CODES))
def test_negative_corpus_triggers_each_code(name, negative_dir):
    text = (negative_dir / name).read_text(encoding="utf-8")
    result = parse(text)
    assert result.document is None
    assert NEGATIVE_CODES[name] in {d.code for d in result.diagnostics}


def test_every_diagnostic_carries_a_span(negative_dir):
    for path in sorted(negative_dir.glob("*.catj")):
        result = parse(path.read_text(encoding="utf-8"))
        assert result.diagnostics, path.name
        for diag in result.diagnostics:
            assert diag.line >= 1 and diag.col >= 1, path.name


@pytest.mark.parametrize("text", ['{"kind": 1e}', '{"kind": 1e+}', '{"kind": 1E-}'])
def test_exponent_without_digits_is_e005(text):
    result = parse(text)
    assert result.document is None
    assert [str(d) for d in result.diagnostics] == ["1:10 E005 malformed number"]


def test_deep_nesting_is_a_diagnostic_not_a_recursion_error():
    assert [str(d) for d in parse("[" * 5000).diagnostics] == ["1:5001 E005 malformed number"]
    closed = parse("[" * 5000 + "]" * 5000)
    assert [str(d) for d in closed.diagnostics] == ["1:1 E003 document must be a JSON object"]


def test_e014_names_alpha_and_fiber_object(negative_dir):
    result = parse((negative_dir / "e014-missing-component.catj").read_text())
    messages = [d.message for d in result.diagnostics if d.code == "E014"]
    assert any("idI" in m and "'q'" in m for m in messages)


def test_parser_recovers_and_reports_every_error():
    text = json.dumps(
        {
            "kind": "category",
            "objects": ["0"],
            "morphisms": [["a", "0", "1"], ["b", "2", "0"], ["id0", "0", "0"]],
            "identity": {"0": "id0"},
            "compose": [["id0", "id0", "id0"], ["zzz", "id0", "id0"]],
        }
    )
    result = parse(text)
    assert result.document is None
    e001 = [d for d in result.diagnostics if d.code == "E001"]
    assert len(e001) >= 3  # two bad endpoints and one unknown compose operand


def test_every_hom_reports_its_own_law_violations():
    # An arrow a -> b whose compose table lacks ib∘f; a failing hom must not hide a later one's violations.
    arrow = {
        "objects": ["a", "b"],
        "morphisms": [["ia", "a", "a"], ["ib", "b", "b"], ["f", "a", "b"]],
        "identity": {"a": "ia", "b": "ib"},
        "compose": [["ia", "ia", "ia"], ["ib", "ib", "ib"], ["f", "ia", "f"]],
    }
    text = json.dumps({"kind": "catgraph", "objects": ["x", "y"], "hom": {"x|x": arrow, "y|y": arrow}}, indent=1)
    result = parse(text)
    lines = enumerate(text.splitlines(), 1)
    homs = [(n, line.index("{") + 1) for n, line in lines if '"x|x"' in line or '"y|y"' in line]
    assert result.document is None and len(homs) == 2
    assert [(d.code, (d.line, d.col)) for d in result.diagnostics] == [("MissingComposite", pos) for pos in homs]


def _positions(diagnostics):
    return [(d.line, d.col) for d in diagnostics]


def test_every_pullback_functor_reports_its_own_law_violations(fixture_dir):
    # Both pullback functors of the laxcat break functoriality; the second must not be skipped.
    doc = json.loads((fixture_dir / "bz2-base-laxcat.catj").read_text())
    doc["pullbacks"]["e"]["morphism_map"] = {"idx": "idy", "idy": "idy"}
    doc["pullbacks"]["g"]["morphism_map"] = {"idx": "idx", "idy": "idy"}
    result = parse(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    assert result.document is None
    assert _positions(result.diagnostics) == [(82, 10)] * 2 + [(92, 10)] * 4


def test_every_fiber_hom_functor_reports_its_own_law_violations(fixture_dir):
    # Two pullback lax functors of the trihom each have one hom functor that sends g0 to g1.
    doc = json.loads((fixture_dir / "trihom-const-psg-arrow.catj").read_text())
    for key, hom in (("0|0|id0", "p|p"), ("1|1|id1", "q|q")):
        doc["pullback1"][key]["hom_functors"][hom]["morphism_map"] = {"g0": "g1", "g1": "g1"}
    result = parse(json.dumps(doc, indent=1))
    assert result.document is None
    assert [d.code for d in result.diagnostics] == (["IdentityLawViolation"] + ["AssociativityViolation"] * 4) * 2
    assert _positions(result.diagnostics) == [(978, 12)] * 5 + [(1093, 12)] * 5


def test_e001_span_points_into_the_document(negative_dir):
    result = parse((negative_dir / "e001-undeclared-object.catj").read_text())
    diag = result.diagnostics[0]
    assert diag.code == "E001" and diag.line == 4


def test_serializer_rejects_unknown_values():
    with pytest.raises(TypeError):
        serialize(42)
