"""Each distinct hom category is built, validated and solved once per call.

`catdsl.parse` shares equal category sub-documents while decoding: the
`object_pairs_hook` of `catdsl._shared_categories` returns one object for
equal copies of a well-formed category's four tables, and the builders keep a
map from a category node to its validated `FinCategory`, so that one object
is read and validated once.  A document that goes through the positional
scanner (one with a diagnostic or a `\\u` escape) has unshared nodes and
builds every copy on its own.  `bicat.similarity_matrix_cg` solves each
distinct hom object once.  The slow path is each memo defeated here by a
monkeypatch: every copy is then decoded, read and validated on its own, and
goes through `euler_char_cat` on its own, as before the memos, and must give
the same diagnostics, equal values and the same ζ.
"""

import json

import pytest

import catalog
from bicat_euler import bicat, catdsl, fincat
from builders import product_cg
from catalog import gen_catgraph_with_chi
from bicat_euler.exactq import QMatrix
from test_scanner import CORPUS, mutants


class _Forgetful(dict):
    """A memo that stores nothing, so every lookup misses."""

    def __setitem__(self, key, value):
        pass


def _without_memo(builder: type) -> type:
    class NoMemo(builder):
        def __init__(self):
            super().__init__()
            self.categories = _Forgetful()

    return NoMemo


def _slow_parse(monkeypatch, text):
    # The decoder shares no copy, and neither builder keeps a category: well-formed documents go
    # through the plain one, the rest through the positional one.
    with monkeypatch.context() as m:
        m.setattr(catdsl, "_shared_categories", lambda: catdsl._unique_keys)
        m.setattr(catdsl, "_Builder", _without_memo(catdsl._Builder))
        m.setattr(catdsl, "_PlainBuilder", _without_memo(catdsl._PlainBuilder))
        return catdsl.parse(text)


def _agrees(monkeypatch, text) -> bool:
    fast, slow = catdsl.parse(text), _slow_parse(monkeypatch, text)
    return fast.diagnostics == slow.diagnostics and fast.document == slow.document


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_memo_matches_slow_path_on_corpus(monkeypatch, name):
    assert _agrees(monkeypatch, CORPUS[name])


def test_memo_matches_slow_path_on_mutants(monkeypatch):
    failures = [text for text in mutants(1200, seed=20141001) if not _agrees(monkeypatch, text)]
    assert not failures, failures[:3]


def _hom(cells: list[str]) -> dict:
    return {
        "objects": cells,
        "morphisms": [[f"i{c}", c, c] for c in cells],
        "identity": {c: f"i{c}" for c in cells},
        "compose": [[f"i{c}", f"i{c}", f"i{c}"] for c in cells],
    }


def _catgraph(hom: dict) -> str:
    objects = sorted({x for key in hom for x in key.split("|")})
    return json.dumps({"kind": "catgraph", "objects": objects, "hom": hom}, indent=1)


# Two copies of each of two homs, and the pairs (a, c) and (c, a) left empty.
SHARED = _catgraph(
    {"a|a": _hom(["u"]), "a|b": _hom(["u", "v"]), "b|a": _hom(["u", "v"]), "b|b": _hom(["u"]), "c|c": _hom(["u"])}
)


def _decoded_homs(text: str) -> dict:
    return json.loads(text, object_pairs_hook=catdsl._shared_categories())["hom"]


def test_identical_hom_documents_share_one_category():
    graph = catdsl.parse(SHARED).document.value
    assert graph.hom_at("a", "b") is graph.hom_at("b", "a")
    assert graph.hom_at("a", "a") is graph.hom_at("b", "b") is graph.hom_at("c", "c")
    assert graph.hom_at("a", "a") is not graph.hom_at("a", "b")


def test_decoder_returns_one_object_for_equal_hom_documents():
    hom = _decoded_homs(SHARED)
    assert hom["a|b"] is hom["b|a"]
    assert hom["a|a"] is hom["b|b"] is hom["c|c"]
    assert hom["a|a"] is not hom["a|b"]


_POINT = {"objects": ["u"], "morphisms": [["e", "u", "u"]], "identity": {"u": "e"}, "compose": [["e", "e", "e"]]}

# A valid hom, then a copy that differs only where a label array is a string of the same characters,
# or that has a fifth key: neither copy is shared.
UNSHARED = {
    "objects-string": _catgraph({"a|a": _POINT, "b|b": {**_POINT, "objects": "u"}}),
    "row-string": _catgraph({"a|a": _POINT, "b|b": {**_POINT, "morphisms": ["euu"]}}),
    "fifth-key": _catgraph({"a|a": _POINT, "b|b": {**_POINT, "note": "x"}}),
}


@pytest.mark.parametrize("name", sorted(UNSHARED))
def test_copies_that_differ_in_type_or_keys_are_not_shared(monkeypatch, name):
    hom = _decoded_homs(UNSHARED[name])
    assert hom["a|a"] is not hom["b|b"]
    assert _agrees(monkeypatch, UNSHARED[name])
    result = catdsl.parse(UNSHARED[name])
    if name == "fifth-key":
        graph = result.document.value
        assert graph.hom_at("a", "a") == graph.hom_at("b", "b")
    else:
        assert result.document is None and result.diagnostics[0].code == "E003"


def _monoid(square: str) -> dict:
    """One object, identity e and s with s∘s = square."""
    table = [["e", "e", "e"], ["e", "s", "s"], ["s", "e", "s"], ["s", "s", square]]
    return {"objects": ["*"], "morphisms": [["e", "*", "*"], ["s", "*", "*"]], "identity": {"*": "e"}, "compose": table}


def _differing(table: str, value) -> str:
    """A valid hom, then a copy of it with one table replaced."""
    return _catgraph({"a|a": _monoid("e"), "b|b": {**_monoid("e"), table: value}})


# Each second hom differs from the first in one table: only the compose one is a category.
DIFFERING = {
    "compose": _differing("compose", _monoid("s")["compose"]),
    "identity": _differing("identity", {"*": "s"}),
    "morphisms": _differing("morphisms", _monoid("e")["morphisms"] + [["z", "*", "*"]]),
    "objects": _differing("objects", ["*", "w"]),
}


@pytest.mark.parametrize("table", sorted(DIFFERING))
def test_homs_differing_in_one_table_stay_distinct(monkeypatch, table):
    assert _agrees(monkeypatch, DIFFERING[table])
    result = catdsl.parse(DIFFERING[table])
    if table == "compose":
        graph = result.document.value
        assert [graph.hom_at(x, x).compose[("s", "s")] for x in "ab"] == ["e", "s"]
    else:
        assert result.document is None and result.diagnostics


def test_identical_invalid_homs_each_report_at_their_own_position(monkeypatch):
    bad = _hom(["u"])
    bad["compose"].append(["iu", "iu", "nosuch"])
    text = _catgraph({"a|a": bad, "a|b": bad})
    result = catdsl.parse(text)
    assert result.diagnostics == _slow_parse(monkeypatch, text).diagnostics
    e001 = [(d.line, d.col) for d in result.diagnostics if d.code == "E001"]
    assert len(e001) == 2 and e001[0] != e001[1]
    # A law violation, not an E00x error: each copy is validated and reports at its own position.
    lawless = _hom(["u"])
    lawless["compose"] = []
    text = _catgraph({"a|a": lawless, "b|b": lawless})
    result = catdsl.parse(text)
    assert [d.code for d in result.diagnostics] == ["MissingComposite"] * 2
    assert result.diagnostics[0].line != result.diagnostics[1].line
    assert result.diagnostics == _slow_parse(monkeypatch, text).diagnostics


def _catgraphs():
    yield catdsl.parse(SHARED).document.value
    for name in ("psg.catj", "ez2-bicat.catj", "nochi-catgraph.catj", "bz2-2group.catj", "arrow-bicat.catj"):
        value = catdsl.parse(CORPUS[name]).document.value
        yield getattr(value, "graph", value)
    for seed in range(40):
        yield gen_catgraph_with_chi(seed, 3)
    yield product_cg([catalog.PSG.graph, catalog.ACYCLIC2.graph])
    yield product_cg([])


def test_similarity_matrix_solves_each_distinct_hom_once(monkeypatch):
    calls = []

    def counted(hom):
        calls.append(hom)
        return fincat.euler_char_cat(hom)

    monkeypatch.setattr(bicat, "euler_char_cat", counted)
    for graph in _catgraphs():
        homs = [graph.hom_at(i, j) for i in graph.objects for j in graph.objects]
        calls.clear()
        zeta = bicat.similarity_matrix_cg(graph)
        assert len(calls) == len({id(h) for h in homs}) == len({id(h) for h in calls})
        expected = QMatrix.build(graph.objects, lambda i, j: fincat.euler_char_cat(graph.hom_at(i, j)).chi)
        assert zeta == expected


def test_hom_without_euler_names_the_first_pair(monkeypatch):
    # ζ = [[1, 1], [2, 2]] has no weighting; direct construction skips the laws, which ζ does not read.
    morphisms = [("ix", "x", "x"), ("f", "x", "y"), ("g", "y", "x"), ("h", "y", "x"), ("iy", "y", "y"), ("e", "y", "y")]
    nochi = fincat.FinCategory(("x", "y"), tuple(fincat.Morphism(*m) for m in morphisms), {"x": "ix", "y": "iy"}, {})
    assert fincat.euler_char_cat(nochi).chi is None
    graph = bicat.make_catgraph(("a", "b"), {("a", "a"): catalog.PT, ("a", "b"): nochi, ("b", "a"): nochi})
    calls = []
    monkeypatch.setattr(bicat, "euler_char_cat", lambda hom: calls.append(hom) or fincat.euler_char_cat(hom))
    with pytest.raises(bicat.MissingEulerCharacteristic, match=r"^hom\(a,b\) has no Euler characteristic$"):
        bicat.similarity_matrix_cg(graph)
    assert calls == [catalog.PT, nochi]
