"""The plain reader's peak memory: a row table is never held decoded all at once.

`catdsl.parse` reads each entry of a `|`-keyed row table alone and turns its
rows into tuples of interned labels before it reads the next, so what a
parse allocates and frees again stays below the decoded size of its largest
table.  A reader that decodes the whole document first frees, after the
parse, more than half of what the `hcompose2` table of this document decodes
to; this one frees about a third.
"""

import gc
import json
import tracemalloc

from bicat_euler import catdsl
from bicat_euler import fixtures as fx


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
