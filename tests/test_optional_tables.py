"""`parse` never raises on the optional tables of a document.

The golden mutants only edit members a document already has, so they never
reach the optional tables of the corpus that have none: `hcompose2`,
`associator`, `unitor_l` and `unitor_r` of a bicategory, `phi` and `psi` of a
lax functor, `comp_iso` and `unit_iso` of a laxcat.  Each variant here adds
some of them to a corpus document, with entries whose labels are drawn from
the document plus one undeclared label.  Half of the variants fill a table
frame by frame, the way a complete table would be laid out, so the values
reach the checks that run after the frame is found complete.
"""

import json
import pathlib
import random

from bicat_euler.catdsl import parse

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
COUNT, SEED = 500, 20140601
UNDECLARED = "undeclared"


def _labels(node) -> list:
    """Every string under `node`, values and `|`-separated key parts, sorted, plus the undeclared label."""
    out = {UNDECLARED}
    stack = [node]
    while stack:
        value = stack.pop()
        if isinstance(value, str):
            out.add(value)
        elif isinstance(value, list):
            stack += value
        elif isinstance(value, dict):
            for key, sub in value.items():
                out.update(key.split("|"))
                stack.append(sub)
    return sorted(out)


def _keyed_rows(rng, labels, key_arity, width, frames=()):
    """A `|`-keyed table of rows: random keys and rows, or one random value for each (key, row prefix) in `frames`."""
    table = {}
    if frames and rng.random() < 0.5:
        for key, prefix in frames:
            table.setdefault("|".join(key), []).append([*prefix, rng.choice(labels)])
        return table
    for _ in range(rng.randint(1, 4)):
        key = "|".join(rng.choice(labels) for _ in range(key_arity))
        table[key] = [[rng.choice(labels) for _ in range(width)] for _ in range(rng.randint(1, 3))]
    return table


def _nested_map(rng, labels, keys, inner):
    """{key: {label: label}}: for each of `keys`, one value per label of `inner`, or random keys throughout."""
    if rng.random() < 0.5:
        return {key: {x: rng.choice(labels) for x in inner} for key in keys}
    return {rng.choice(labels): {rng.choice(labels): rng.choice(labels)} for _ in range(rng.randint(1, 3))}


def _compose_frames(compose):
    """(key parts, (g, f)) of every entry of a `compose1` table."""
    return [(tuple(key.split("|")), tuple(row[:2])) for key, rows in compose.items() for row in rows]


def _add_to_bicategory(rng, bicat):
    labels = _labels(bicat)
    frames = _compose_frames(bicat["compose1"])
    if rng.random() < 0.5:
        bicat["hcompose2"] = _keyed_rows(rng, labels, 3, 3, frames)
    if rng.random() < 0.4:
        bicat["associator"] = _keyed_rows(rng, labels, 4, 4)
    for key in ("unitor_l", "unitor_r"):
        if rng.random() < 0.3:
            bicat[key] = _keyed_rows(rng, labels, 2, 2)


def _variant(rng, doc):
    kind = doc["kind"]
    labels = _labels(doc)
    if kind == "bicategory":
        _add_to_bicategory(rng, doc)
    elif kind == "trihom":
        for bicat in [doc["base"], *doc["fibers"].values()]:
            _add_to_bicategory(rng, bicat)
    elif kind == "laxfunctor":
        for side in ("source", "target"):
            _add_to_bicategory(rng, doc[side])
        if rng.random() < 0.8:
            doc["phi"] = _keyed_rows(rng, labels, 3, 3, _compose_frames(doc["source"]["compose1"]))
        if rng.random() < 0.6:
            doc["psi"] = {rng.choice(labels): rng.choice(labels) for _ in range(rng.randint(1, 3))}
    elif kind == "laxcat":
        fiber_objects = sorted({x for fiber in doc["fibers"].values() for x in fiber["objects"]})
        composable = [f"{g}|{f}" for g, f, _ in doc["base"]["compose"]]
        doc["comp_iso"] = _nested_map(rng, labels, composable, fiber_objects)
        doc["unit_iso"] = _nested_map(rng, labels, doc["base"]["objects"], fiber_objects)
    return doc


def test_parse_never_raises_on_optional_tables():
    rng = random.Random(SEED)
    kinds = ("bicategory", "trihom", "laxfunctor", "laxcat")
    corpus = [json.loads(path.read_text(encoding="utf-8")) for path in sorted(FIXTURES.glob("*.catj"))]
    corpus = [doc for doc in corpus if doc["kind"] in kinds]
    outcomes = set()
    for _ in range(COUNT):
        text = json.dumps(_variant(rng, json.loads(json.dumps(rng.choice(corpus)))))
        result = parse(text)  # raises nothing
        outcomes.add(result.ok)
    assert outcomes == {True, False}
