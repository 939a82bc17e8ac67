"""The plain reader's peak memory: no table of a document is held decoded all at once.

`catdsl.parse` reads each entry of a `|`-keyed row table alone and turns its
rows into tuples of interned labels before it reads the next, so what a
parse allocates and frees again stays below the decoded size of its largest
table.  A reader that decodes the whole document first frees, after the
parse, more than half of what the `hcompose2` table of this document decodes
to; this one frees about a third.

A category's `morphisms` and `compose` tables are decoded with the category,
then interned in place, a chunk of rows at a time, and the first category of
each size builds no lookup key of its own, so a parse frees, besides what it
keeps, well under the decoded size of the `compose` table: about 0.45 of it
on a product category of some 2,000 rows, where a copy built beside the
decoded rows frees 0.7 to 0.9.

`parse(text, read_again)` keeps no reference to the text, so a caller that
keeps none has it freed before the build; `parse(text)` keeps it for the
scanner.
"""

import functools
import gc
import json
import sys
import tracemalloc

import pytest

from bicat_euler import catdsl
from bicat_euler import fixtures as fx
from bicat_euler.fincat import validate_functor
from builders import pair_label, product_cat
from conftest import FIXTURE_DIR, NEGATIVE_DIR


def _traced(build):
    """build(), how much more memory it holds when done, and the peak above the start while it ran."""
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        value = build()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return value, held - before, peak - before


def test_parse_never_holds_a_row_table_decoded_all_at_once():
    # The collapse of the suspension of Z/20 on two objects, as the bifib-collapse benchmark's largest
    # document: its hcompose2 has 8 entries of 400 rows.
    elements, mult, unit = fx.cyclic_group(20)
    text = catdsl.serialize(fx.collapse_to_point(fx.suspension_two_group(["o0", "o1"], elements, mult, unit)))
    hcompose2 = json.loads(text)["source"]["hcompose2"]
    assert len(hcompose2) == 8 and {len(rows) for rows in hcompose2.values()} == {400}
    table = json.dumps(hcompose2)
    del hcompose2
    decoded, table_size, _ = _traced(lambda: json.loads(table))
    del decoded
    result, held, peak = _traced(lambda: catdsl.parse(text))
    assert result.ok and len(result.document.value.source.hcompose2) == 8 * 400
    assert peak - held < table_size / 2, (peak, held, table_size)


def _cyclic(n: int):
    return fx.group_category("*", *fx.cyclic_group(n))


def _indiscrete(n: int):
    return fx.indiscrete_category([str(k) for k in range(n)])


# Products as the big-category benchmark shapes them, (factors, compose rows): c9xi3 and i3xc3xi2.
PRODUCTS = {
    "c9xi3": ((_cyclic(9), _indiscrete(3)), 2187),
    "i3xc3xi2": ((_indiscrete(3), _cyclic(3), _indiscrete(2)), 1944),
}


def _projection(first, rest):
    """The product first x rest and its projection onto first."""
    total = product_cat(first, rest)
    object_map = {pair_label(x, y): x for x in first.objects for y in rest.objects}
    morphism_map = {pair_label(m.name, n.name): m.name for m in first.morphisms for n in rest.morphisms}
    return total, validate_functor(total, first, object_map, morphism_map)


@pytest.mark.parametrize("shape", sorted(PRODUCTS))
@pytest.mark.parametrize("kind", ["category", "functor"])
def test_parse_holds_a_category_table_decoded_at_most_in_part(shape, kind):
    (first, *others), rows = PRODUCTS[shape]
    total, projection = _projection(first, functools.reduce(product_cat, others))
    assert len(total.compose) == rows
    text = catdsl.serialize(total if kind == "category" else projection)
    document = json.loads(text)
    table = json.dumps((document if kind == "category" else document["source"])["compose"])
    del document
    decoded, table_size, _ = _traced(lambda: json.loads(table))
    del decoded
    result, held, peak = _traced(lambda: catdsl.parse(text))
    assert result.ok and result.document.kind == kind
    assert peak - held < 0.6 * table_size, (peak, held, table_size)


class _NotedText(str):
    """A text that notes in its list `freed` when it is freed."""

    def __del__(self):
        self.freed.append(True)


def _noted(text: str, freed: list) -> _NotedText:
    noted = _NotedText(text)
    noted.freed = freed
    return noted


def _parse_noted(text: str, again: bool):
    """parse a copy of text that no caller holds, with read_again if `again`.

    The result, whether the copy was already freed at each build, and how often the text was read again.
    """
    freed, freed_at_builds, reads = [], [], []
    build = catdsl._build_document

    def noted_build(builder, root):
        freed_at_builds.append(bool(freed))
        return build(builder, root)

    def read_again():
        reads.append(text)
        return text

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(catdsl, "_build_document", noted_build)
        if again:
            result = catdsl.parse(_noted(text, freed), read_again)
        else:
            result = catdsl.parse(_noted(text, freed))
    return result, freed_at_builds, len(reads)


def _escaped() -> str:
    """A clean document with a `\\u` escape, which only the scanner reads."""
    return (FIXTURE_DIR / "pt.catj").read_text().replace('"*"', '"\\u002a"')


# Each document, read by name, with how often parse(text, read_again) reads it again: once for the scanner
# when it has a problem or a `\\u` escape, else never.
DOCUMENTS = {
    **{path.name: (path.read_text, 0) for path in sorted(FIXTURE_DIR.glob("*.catj"))},
    **{f"negative/{path.name}": (path.read_text, 1) for path in sorted(NEGATIVE_DIR.glob("*.catj"))},
    "escaped": (_escaped, 1),
}


def _outcome(result):
    return result.diagnostics, result.ok and catdsl.serialize(result.document.value)


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_parse_reads_a_text_again_only_for_the_scanner(name):
    read, reads = DOCUMENTS[name]
    text = read()
    result, freed_at_builds, count = _parse_noted(text, again=True)
    kept, held_at_builds, _ = _parse_noted(text, again=False)
    assert count == reads
    assert _outcome(result) == _outcome(kept) == _outcome(catdsl.parse(text))
    assert result.ok == (not name.startswith("negative/"))
    assert not any(held_at_builds)
    if sys.version_info >= (3, 11):  # before, the calling frame keeps an argument until the call returns
        assert all(freed_at_builds)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="before 3.11 the calling frame keeps an argument")
def test_parse_frees_a_text_it_can_read_again_before_the_build():
    text = (FIXTURE_DIR / "bz2.catj").read_text()
    result, freed_at_builds, _ = _parse_noted(text, again=True)
    assert result.ok and freed_at_builds == [True]
    result, freed_at_builds, _ = _parse_noted(text, again=False)
    assert result.ok and freed_at_builds == [False]


@pytest.mark.parametrize("text", [(NEGATIVE_DIR / "e001-undeclared-object.catj").read_text(), _escaped()])
def test_parse_raises_what_read_again_raises(text):
    class Unreadable(Exception):
        pass

    def read_again():
        raise Unreadable

    with pytest.raises(Unreadable):
        catdsl.parse(text, read_again)
