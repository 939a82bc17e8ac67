"""Parser/serializer: round trips, canonical bytes, diagnostics with spans."""

import json

import pytest

from bicat_euler import fixtures as fx
from bicat_euler.bicat import validate_lax_functor
from bicat_euler.catdsl import parse, serialize
from bicat_euler.fincat import validate_functor

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
    "unknown-phi-object.catj": "MissingCompositionData",
    "unknown-comp-iso-key.catj": "IncoherentData",
    "incoherent-laxcat.catj": "IncoherentData",
    "illtyped-trihom.catj": "IllTypedComponent",
    "stray-object-key.catj": "E001",
    "stray-morphism-key.catj": "E001",
    "stray-laxfunctor-object-key.catj": "E001",
}


@pytest.mark.parametrize("name", sorted(NEGATIVE_CODES))
def test_negative_corpus_triggers_each_code(name, negative_dir):
    text = (negative_dir / name).read_text(encoding="utf-8")
    result = parse(text)
    assert result.document is None
    assert NEGATIVE_CODES[name] in {d.code for d in result.diagnostics}


@pytest.mark.parametrize("name,message,line,col", [
    ("stray-object-key.catj", "object_map key 'zz' is not a source object", 15, 38),
    ("stray-morphism-key.catj", "morphism_map key 'zz' is not a source morphism", 16, 48),
    ("stray-laxfunctor-object-key.catj", "object_map key 'zz' is not a source object", 19, 28),
])
def test_a_stray_map_key_is_one_diagnostic_at_the_key(negative_dir, name, message, line, col):
    text = (negative_dir / name).read_text(encoding="utf-8")
    result = parse(text)
    assert [(d.code, d.message, d.line, d.col) for d in result.diagnostics] == [("E001", message, line, col)]
    assert parse(text.replace(', "zz": "*"', "").replace(', "zz": "id*"', "")).ok


def test_serialize_writes_no_stray_map_key():
    functor = validate_functor(
        fx.EZ2, fx.BZ2, {**fx.EZ2_TO_BZ2.object_map, "zz": "*"}, {**fx.EZ2_TO_BZ2.morphism_map, "zz": "g"}
    )
    assert serialize(functor) == serialize(fx.EZ2_TO_BZ2)
    collapse = fx.collapse_to_point(fx.PSG)
    lax = validate_lax_functor(collapse.source, collapse.target, {**collapse.object_map, "zz": "*"},
                               collapse.hom_functors)
    assert serialize(lax) == serialize(collapse)


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


def _bpt_with_coherence_cells():
    """BPT with its (unique) associator and unitors attached."""
    from bicat_euler.bicat import validate_bicategory

    unitors = {("*", "*", "I"): "idI"}
    return validate_bicategory(
        ["*"], {("*", "*"): fx.one_object_cat("I")}, {"*": "I"}, {(("*", "*", "*"), "I", "I"): "I"},
        hcompose2={(("*", "*", "*"), "idI", "idI"): "idI"},
        associator={(("*", "*", "*", "*"), "I", "I", "I"): "idI"},
        unitor_l=unitors,
        unitor_r=unitors,
    )


def _bpt_identity_with_phi_psi():
    from bicat_euler.bicat import validate_lax_functor
    from bicat_euler.fincat import validate_functor

    hom = fx.BPT.hom_at("*", "*")
    return validate_lax_functor(
        fx.BPT, fx.BPT, {"*": "*"}, {("*", "*"): validate_functor(hom, hom, {"I": "I"}, {"idI": "idI"})},
        phi={(("*", "*", "*"), "I", "I"): "idI"}, psi={"*": "idI"},
    )


def _arrow_base_laxcat_with_identity_isos():
    from bicat_euler.fib1 import LaxFunctorToCat, validate_laxcat

    f = fx.ARROW_BASE_LAXCAT
    base = f.base
    comp_iso = {
        (g.name, h.name): {
            z: f.fiber[h.src].identity[f.pullback[base.compose2(g.name, h.name)].ob(z)] for z in f.fiber[g.dst].objects
        }
        for g in base.morphisms
        for h in base.morphisms
        if g.src == h.dst
    }
    unit_iso = {b: dict(f.fiber[b].identity) for b in base.objects}
    return validate_laxcat(LaxFunctorToCat(base, f.fiber, f.pullback, comp_iso, unit_iso))


# Values that carry the optional fields no file in fixtures/ has, with those fields.
COHERENCE_VALUES = {
    "bpt-associator-unitors": (_bpt_with_coherence_cells, ("associator", "unitor_l", "unitor_r")),
    "bpt-identity-phi-psi": (_bpt_identity_with_phi_psi, ("phi", "psi")),
    "arrow-base-laxcat-isos": (_arrow_base_laxcat_with_identity_isos, ("comp_iso", "unit_iso")),
}


@pytest.mark.parametrize("name", sorted(COHERENCE_VALUES))
def test_round_trip_of_optional_coherence_fields(name):
    build, fields = COHERENCE_VALUES[name]
    value = build()
    text = serialize(value)
    assert all(field in json.loads(text) for field in fields)
    result = parse(text)
    assert result.ok, result.diagnostics
    assert result.document.value == value
    assert serialize(result.document.value) == text


def _doc(value) -> dict:
    return json.loads(serialize(value))


def _set(*path_and_value):
    """An edit that sets doc[path...] to the last argument."""
    *path, value = path_and_value

    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value

    return edit


# One ill-typed entry for each table shape the reader has: (value, edit, expected (code, message) list).
E003_CASES = {
    "object-labels": (lambda: fx.ARROW, _set("objects", ["0", "1", 7]), [("E003", "object label must be a string")]),
    "hom-table": (lambda: fx.PSG.graph, _set("hom", []), [("E003", "hom must be a JSON object")]),
    "compose1-rows": (
        lambda: fx.BPT, _set("compose1", "*|*|*", [["I", "I"]]),
        [("E003", "compose1[*|*|*] entries must be arrays of 3 strings")],
    ),
    "associator-rows": (
        _bpt_with_coherence_cells, _set("associator", "*|*|*|*", [["I", "I", "I"]]),
        [("E003", "associator[*|*|*|*] entries must be arrays of 4 strings")],
    ),
    "unitor-rows": (
        _bpt_with_coherence_cells, _set("unitor_l", "*|*", [["I"]]),
        [("E003", "unitor_l[*|*] entries must be arrays of 2 strings")],
    ),
    "phi-rows": (
        _bpt_identity_with_phi_psi, _set("phi", "*|*|*", "I"), [("E003", "phi[*|*|*] must be a JSON array")],
    ),
    "fibers-table": (
        lambda: fx.ARROW_BASE_LAXCAT, _set("fibers", []),
        [
            ("E003", "fibers must be a JSON object"),
            ("E013", "missing fiber for base object '0'"),
            ("E013", "missing fiber for base object '1'"),
        ],
    ),
    "pullbacks-table": (
        lambda: fx.ARROW_BASE_LAXCAT, _set("pullbacks", "a", "x"), [("E003", "functor maps must be a JSON object")],
    ),
    "comp-iso-table": (
        _arrow_base_laxcat_with_identity_isos, _set("comp_iso", "a|id0", []),
        [("E003", "comp_iso[a|id0] must be a JSON object")],
    ),
    "unit-iso-table": (
        _arrow_base_laxcat_with_identity_isos, _set("unit_iso", "0", []),
        [("E003", "unit_iso[0] must be a JSON object")],
    ),
    "hom-functors-table": (
        _bpt_identity_with_phi_psi, _set("hom_functors", []),
        [("E003", "hom_functors must be a JSON object"), ("E010", "hom_functors is missing '*|*'")],
    ),
    "pullback1-object-map": (
        lambda: fx.constant_trihomomorphism(fx.ARROW_BICAT, fx.PSG), _set("pullback1", "0|0|id0", "object_map", []),
        [
            ("E003", "object_map must be a JSON object"),
            ("E010", "object_map is missing 'p'"),
            ("E010", "object_map is missing 'q'"),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(E003_CASES))
def test_each_table_shape_reports_an_ill_typed_entry(name):
    value, edit, expected = E003_CASES[name]
    doc = _doc(value())
    edit(doc)
    result = parse(json.dumps(doc, indent=1))
    assert result.document is None
    assert [(d.code, d.message) for d in result.diagnostics] == expected


def test_pullback_object_map_outside_the_target_fiber_is_one_e001(fixture_dir):
    # As for a top-level laxfunctor: no hom functor is checked against the empty hom of an unknown object.
    doc = json.loads((fixture_dir / "trihom-const-psg-arrow.catj").read_text())
    doc["pullback1"]["0|0|id0"]["object_map"]["p"] = "nowhere"
    result = parse(json.dumps(doc, indent=1))
    assert [str(d) for d in result.diagnostics] == ["1015:18 E001 object_map['p'] references undeclared object 'nowhere'"]


def test_write_fixture_corpus_reproduces_every_positive_fixture(tmp_path, fixture_dir):
    written = fx.write_fixture_corpus(tmp_path)
    assert sorted(path.name for path in written) == sorted(path.name for path in fixture_dir.glob("*.catj"))
    for path in written:
        assert path.read_bytes() == (fixture_dir / path.name).read_bytes(), path.name


def _dumped(doc) -> str:
    return json.dumps(doc, indent=2)


def test_each_fiber_of_a_trihom_reports_its_own_violation(fixture_dir):
    doc = json.loads((fixture_dir / "trihom-const-psg-arrow.catj").read_text(encoding="utf-8"))
    for fiber in doc["fibers"].values():
        fiber["identity1"]["p"] = "mpq"
    assert [str(d) for d in parse(_dumped(doc)).diagnostics] == [
        "141:10 MissingCompositionData identity 1-cell of p missing or not in hom(p,p)",
        "557:10 MissingCompositionData identity 1-cell of p missing or not in hom(p,p)",
    ]


def test_source_and_target_of_a_lax_functor_report_their_own_violations(fixture_dir):
    doc = json.loads((fixture_dir / "psg-collapse.catj").read_text(encoding="utf-8"))
    doc["source"]["identity1"]["p"] = "zz"
    doc["target"]["identity1"]["*"] = "zz"
    assert [str(d) for d in parse(_dumped(doc)).diagnostics] == [
        "45:13 MissingCompositionData identity 1-cell of p missing or not in hom(p,p)",
        "461:13 MissingCompositionData identity 1-cell of * missing or not in hom(*,*)",
    ]


def test_a_pullback_between_lawful_fibers_is_checked_when_another_fiber_fails(fixture_dir):
    doc = json.loads((fixture_dir / "arrow-base-laxcat.catj").read_text(encoding="utf-8"))
    doc["fibers"]["1"]["compose"] = []
    doc["pullbacks"]["id0"]["morphism_map"]["idx"] = "idy"
    assert [(d.code, d.message) for d in parse(_dumped(doc)).diagnostics] == [
        ("MissingComposite", "compose(id*, id*) undefined"),
        ("DanglingEndpoint", "image of idx has wrong endpoints"),
        ("IdentityLawViolation", "identity of x not preserved"),
    ]
