"""The named categories, functors and bicategories of the test suite, and seeded draws from them.

Every name is a module constant, built and validated on import (a few
milliseconds).  chi(PT)=1, chi(D2)=2, chi(ARROW)=1, chi(PAIR)=0,
chi(SPAN)=1, chi(BZ2)=1/2, chi(EZ2)=1 and chi(PSG)=2 are derivable by hand
from the similarity matrices.  `write_fixture_corpus` writes the catalog as
the shipped `fixtures/*.catj` files.  The values that `gen` also draws on
come from the builders of `bicat_euler.fixtures`; the rest are test inputs
only.
"""

import pathlib
import random

from bicat_euler import fixtures as fx
from bicat_euler.bicat import CatGraph, LaxFunctorBicat, make_catgraph, validate_bicategory
from bicat_euler.catdsl import serialize
from bicat_euler.fib1 import LaxFunctorToCat, validate_laxcat
from bicat_euler.fincat import PT, FinCategory, Functor, validate_category, validate_functor
from bicat_euler.generators import gen_acyclic_category, gen_pseudogroupoid
from builders import (
    catgraph_of_category,
    coproduct_cat,
    gen_groupoid,
    inflate_bicategory,
    inflate_category,
    locally_discrete,
    product_cat,
    product_projection,
    quotient_action_functor,
)

D2 = fx.discrete_category(["x", "y"])

ARROW = fx.arrow()

PAIR = validate_category(
    ["0", "1"],
    [("id0", "0", "0"), ("id1", "1", "1"), ("a", "0", "1"), ("b", "0", "1")],
    {"0": "id0", "1": "id1"},
    {
        ("id0", "id0"): "id0",
        ("id1", "id1"): "id1",
        ("a", "id0"): "a",
        ("id1", "a"): "a",
        ("b", "id0"): "b",
        ("id1", "b"): "b",
    },
)

SPAN = validate_category(
    ["c", "l", "r"],
    [("idc", "c", "c"), ("idl", "l", "l"), ("idr", "r", "r"), ("f", "c", "l"), ("g", "c", "r")],
    {"c": "idc", "l": "idl", "r": "idr"},
    {
        ("idc", "idc"): "idc",
        ("idl", "idl"): "idl",
        ("idr", "idr"): "idr",
        ("f", "idc"): "f",
        ("idl", "f"): "f",
        ("g", "idc"): "g",
        ("idr", "g"): "g",
    },
)

BZ2 = fx.group_category("*", ["e", "g"], {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "e"}, "e")

EZ2 = fx.indiscrete_category(["0", "1"])

EZ2_TO_BZ2 = validate_functor(EZ2, BZ2, {"0": "*", "1": "*"}, {"id0": "e", "id1": "e", "m01": "g", "m10": "g"})

D2_TO_PT = validate_functor(D2, PT, {"x": "*", "y": "*"}, {"idx": "id*", "idy": "id*"})

BPT = fx.bpt()
ARROW_BICAT = fx.arrow_bicat()
EZ2_BICAT = fx.ez2_bicat()

# Two objects, hom(0,1) the walking 2-cell (s => t), endo-homs trivial.
ACYCLIC2 = validate_bicategory(
    ["0", "1"],
    {
        ("0", "0"): fx.one_object_cat("id0"),
        ("1", "1"): fx.one_object_cat("id1"),
        ("0", "1"): validate_category(
            ["s", "t"],
            [("ids", "s", "s"), ("idt", "t", "t"), ("a2", "s", "t")],
            {"s": "ids", "t": "idt"},
            {("ids", "ids"): "ids", ("idt", "idt"): "idt", ("a2", "ids"): "a2", ("idt", "a2"): "a2"},
        ),
    },
    {"0": "id0", "1": "id1"},
    {
        (("0", "0", "0"), "id0", "id0"): "id0",
        (("1", "1", "1"), "id1", "id1"): "id1",
        (("0", "0", "1"), "s", "id0"): "s",
        (("0", "0", "1"), "t", "id0"): "t",
        (("0", "1", "1"), "id1", "s"): "s",
        (("0", "1", "1"), "id1", "t"): "t",
    },
    {
        (("0", "0", "0"), "idid0", "idid0"): "idid0",
        (("1", "1", "1"), "idid1", "idid1"): "idid1",
        (("0", "0", "1"), "ids", "idid0"): "ids",
        (("0", "0", "1"), "idt", "idid0"): "idt",
        (("0", "0", "1"), "a2", "idid0"): "a2",
        (("0", "1", "1"), "idid1", "ids"): "ids",
        (("0", "1", "1"), "idid1", "idt"): "idt",
        (("0", "1", "1"), "idid1", "a2"): "a2",
    },
)

PSG = fx.suspension_two_group(["p", "q"], *fx.cyclic_group(2))
BZ2_TWOGROUP = fx.bz2_twogroup()

PSG_COLLAPSE = fx.collapse_to_point(PSG)

# The only biequivalence of the fixture corpus: the indiscrete category on two objects is equivalent to the point.
EZ2_TO_BPT = fx.collapse_to_point(EZ2_BICAT)

GR_PSG_OVER_ARROW = product_projection(ARROW_BICAT, PSG)

# Z/4 on x and on y acting on two arrows x -> y through Z/2, over the arrow 0 -> 1, locally discrete.
# A valid strict homomorphism that is no fibration: a0∘s2 = a0 is a second lift of a0.
TWO_LIFTS_OVER_ARROW = locally_discrete(quotient_action_functor((4, 4, 2), (1, 1, 1)))

# Similarity matrix [[1,1],[2,2]]: the weighting system is inconsistent, so
# this cat-graph has a coweighting but no Euler characteristic.
NOCHI_CATGRAPH = make_catgraph(["0", "1"], {("0", "0"): PT, ("0", "1"): PT, ("1", "0"): D2, ("1", "1"): D2})


def _category(objects, morphisms, composites) -> FinCategory:
    """validate_category with an identity id<x> on each object and its composites filled in."""
    identity = {x: f"id{x}" for x in objects}
    arrows = [(identity[x], x, x) for x in objects] + morphisms
    compose = dict(composites)
    for g, src, dst in arrows:
        compose[(identity[dst], g)] = compose[(g, identity[src])] = g
    return validate_category(objects, arrows, identity, compose)


# A lawful category with no Euler characteristic: idempotents e on x and d on y, with e = u∘f and
# d = f∘u for f: x -> y and each of four arrows u: y -> x, and e∘u = u∘d = u0.  Its similarity
# matrix [[2, 1], [4, 2]] has neither a weighting nor a coweighting.
_US = ("u0", "u1", "u2", "u3")
NOCHI_CAT = _category(
    ["x", "y"],
    [("e", "x", "x"), ("d", "y", "y"), ("f", "x", "y")] + [(u, "y", "x") for u in _US],
    {("e", "e"): "e", ("d", "d"): "d", ("f", "e"): "f", ("d", "f"): "f"}
    | {(g, h): v for u in _US for g, h, v in (("e", u, "u0"), (u, "d", "u0"), (u, "f", "e"), ("f", u, "d"))},
)

# NOCHI_CAT with a terminal object t: the weighting is 1 at t and 0 elsewhere, and there is no coweighting.
NOCOWEIGHTING_CAT = _category(
    ["t", "x", "y"],
    [("e", "x", "x"), ("d", "y", "y"), ("f", "x", "y"), ("tx", "x", "t"), ("ty", "y", "t")]
    + [(u, "y", "x") for u in _US],
    dict(NOCHI_CAT.compose)
    | {("tx", "e"): "tx", ("ty", "f"): "tx", ("ty", "d"): "ty"}
    | {("tx", u): "ty" for u in _US},
)

ARROW_BASE_LAXCAT = validate_laxcat(
    LaxFunctorToCat(
        base=ARROW,
        fiber={"0": D2, "1": PT},
        pullback={
            "id0": fx.identity_functor(D2),
            "id1": fx.identity_functor(PT),
            "a": validate_functor(PT, D2, {"*": "x"}, {"id*": "idx"}),
        },
    )
)

BZ2_BASE_LAXCAT = validate_laxcat(
    LaxFunctorToCat(
        base=BZ2,
        fiber={"*": D2},
        pullback={
            "e": fx.identity_functor(D2),
            "g": validate_functor(D2, D2, {"x": "y", "y": "x"}, {"idx": "idy", "idy": "idx"}),
        },
    )
)

_FIXTURE_CATS = [PT, D2, ARROW, PAIR, SPAN, BZ2, EZ2]


def gen_category_with_chi(seed: int, size: int) -> FinCategory:
    """Random category guaranteed to have an Euler characteristic."""
    rng = random.Random(f"cat:{seed}")
    roll = rng.random()
    if roll < 0.35:
        return rng.choice(_FIXTURE_CATS)
    if roll < 0.6:
        return gen_acyclic_category(seed, rng.randint(1, max(2, min(size, 4))))
    if roll < 0.8:
        return gen_groupoid(seed, size)
    a = gen_category_with_chi(seed * 31 + 1, max(1, size - 1))
    b = rng.choice(_FIXTURE_CATS[:5])
    if rng.random() < 0.5 and len(a.objects) * len(b.objects) <= 8:
        return product_cat(a, b)
    return coproduct_cat([a, b])


def gen_equivalence(seed: int, size: int) -> Functor:
    """An equivalence functor: inclusion of a category into its inflation."""
    rng = random.Random(f"equiv:{seed}")
    base = gen_category_with_chi(seed, size)
    _, inclusion = inflate_category(base, [rng.randint(1, 3) for _ in base.objects])
    return inclusion


def gen_biequivalence(seed: int, size: int) -> LaxFunctorBicat:
    rng = random.Random(f"biequiv:{seed}")
    base = rng.choice([PSG, BPT, EZ2_BICAT, ARROW_BICAT, BZ2_TWOGROUP, gen_pseudogroupoid(seed, 2)])
    _, inclusion = inflate_bicategory(base, [rng.randint(1, 3) for _ in base.objects])
    return inclusion


def gen_catgraph_with_chi(seed: int, size: int) -> CatGraph:
    rng = random.Random(f"cg:{seed}")
    roll = rng.random()
    if roll < 0.4:
        return gen_pseudogroupoid(seed, rng.randint(1, max(1, min(size, 3)))).graph
    if roll < 0.8:
        return catgraph_of_category(gen_category_with_chi(seed, size))
    return rng.choice([PSG.graph, ACYCLIC2.graph, BPT.graph, EZ2_BICAT.graph])


def write_fixture_corpus(directory) -> list:
    """Serialize the catalog to <directory>/*.catj; returns the written paths."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    corpus = {
        "pt": PT,
        "d2": D2,
        "arrow": ARROW,
        "pair": PAIR,
        "span": SPAN,
        "bz2": BZ2,
        "ez2": EZ2,
        "psg": PSG,
        "bpt": BPT,
        "acyclic2": ACYCLIC2,
        "arrow-bicat": ARROW_BICAT,
        "ez2-bicat": EZ2_BICAT,
        "bz2-2group": BZ2_TWOGROUP,
        "ez2-to-bz2": EZ2_TO_BZ2,
        "d2-to-pt": D2_TO_PT,
        "arrow-base-laxcat": ARROW_BASE_LAXCAT,
        "bz2-base-laxcat": BZ2_BASE_LAXCAT,
        "gr-psg-over-arrow": GR_PSG_OVER_ARROW,
        "psg-collapse": PSG_COLLAPSE,
        "ez2-to-bpt": EZ2_TO_BPT,
        "two-lifts-over-arrow": TWO_LIFTS_OVER_ARROW,
        "trihom-const-psg-arrow": fx.constant_trihomomorphism(ARROW_BICAT, PSG),
        "nochi-catgraph": NOCHI_CATGRAPH,
    }
    written = []
    for name, value in corpus.items():
        path = directory / f"{name}.catj"
        path.write_text(serialize(value), encoding="utf-8")
        written.append(path)
    return written
