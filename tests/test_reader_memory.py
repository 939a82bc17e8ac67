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
"""

import functools
import gc
import json
import tracemalloc

import pytest

from bicat_euler import catdsl
from bicat_euler import fixtures as fx
from bicat_euler.fincat import validate_functor
from builders import pair_label, product_cat


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
