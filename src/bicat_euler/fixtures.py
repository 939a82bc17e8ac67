"""Shared fixture catalog: hand-verifiable categories and bicategories.

These are the ground-truth instances used across the test suite and
shipped as .catj files; values chi(PT)=1, chi(D2)=2, chi(ARROW)=1,
chi(PAIR)=0, chi(SPAN)=1, chi(BZ2)=1/2, chi(EZ2)=1, chi(PSG)=2 are all
derivable by hand from the similarity matrices.
"""

from __future__ import annotations

TYPE_CHECKING = False  # typing is imported for annotations only, never at run time
if TYPE_CHECKING:
    from typing import Callable, Mapping, Sequence

from .bicat import (
    Bicategory,
    LaxFunctorBicat,
    identity_lax_functor,
    make_catgraph,
    product_projection,
    validate_bicategory,
    validate_lax_functor,
)
from .bifib import Trihomomorphism, validate_trihomomorphism
from .fib1 import LaxFunctorToCat, validate_laxcat
from .fincat import PT, FinCategory, Functor, validate_category, validate_functor

# The named values (D2, ARROW, PSG, ...) are built on first access, through the
# module `__getattr__` below: importing this module validates nothing.
_CATALOG: dict[str, Callable[[], object]] = {}


def __getattr__(name: str):
    """PEP 562: build the catalog value `name` on its first access and keep it."""
    if name not in _CATALOG:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = _CATALOG[name]()
    return value


def _fx(name: str):
    """A catalog value, from inside this module, where a global lookup does not reach `__getattr__`."""
    return globals()[name] if name in globals() else __getattr__(name)


def discrete_category(labels: Sequence[str]) -> FinCategory:
    """Only identity morphisms, named id<label>."""
    idname = {x: f"id{x}" for x in labels}
    return validate_category(
        list(labels),
        [(idname[x], x, x) for x in labels],
        idname,
        {(idname[x], idname[x]): idname[x] for x in labels},
    )


def one_object_cat(label: str) -> FinCategory:
    return discrete_category([label])


def indiscrete_category(labels: Sequence[str]) -> FinCategory:
    """Exactly one morphism between every ordered pair: id<x> or m<x><y>."""

    def name(x, y):
        return f"id{x}" if x == y else f"m{x}{y}"

    morphisms = [(name(x, y), x, y) for x in labels for y in labels]
    compose = {}
    for x in labels:
        for y in labels:
            for z in labels:
                compose[(name(y, z), name(x, y))] = name(x, z)
    return validate_category(list(labels), morphisms, {x: f"id{x}" for x in labels}, compose)


def group_category(obj: str, elements: Sequence[str], mult: Mapping[tuple[str, str], str], unit: str) -> FinCategory:
    """One object whose endomorphisms form the given group table."""
    return validate_category(
        [obj],
        [(e, obj, obj) for e in elements],
        {obj: unit},
        {(a, b): mult[(a, b)] for a in elements for b in elements},
    )


def cyclic_group(n: int) -> tuple[tuple[str, ...], dict[tuple[str, str], str], str]:
    elements = tuple(f"g{k}" for k in range(n))
    mult = {(f"g{a}", f"g{b}"): f"g{(a + b) % n}" for a in range(n) for b in range(n)}
    return elements, mult, "g0"


def klein_group() -> tuple[tuple[str, ...], dict[tuple[str, str], str], str]:
    elements = tuple(f"g{k}" for k in range(4))
    mult = {(f"g{a}", f"g{b}"): f"g{a ^ b}" for a in range(4) for b in range(4)}
    return elements, mult, "g0"


_CATALOG["D2"] = lambda: discrete_category(["x", "y"])

_CATALOG["ARROW"] = lambda: validate_category(
    ["0", "1"],
    [("id0", "0", "0"), ("id1", "1", "1"), ("a", "0", "1")],
    {"0": "id0", "1": "id1"},
    {
        ("id0", "id0"): "id0",
        ("id1", "id1"): "id1",
        ("a", "id0"): "a",
        ("id1", "a"): "a",
    },
)

_CATALOG["PAIR"] = lambda: validate_category(
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

_CATALOG["SPAN"] = lambda: validate_category(
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

_Z2 = {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "e"}
_CATALOG["BZ2"] = lambda: group_category("*", ["e", "g"], _Z2, "e")

_CATALOG["EZ2"] = lambda: indiscrete_category(["0", "1"])

_CATALOG["EZ2_TO_BZ2"] = lambda: validate_functor(
    _fx("EZ2"),
    _fx("BZ2"),
    {"0": "*", "1": "*"},
    {"id0": "e", "id1": "e", "m01": "g", "m10": "g"},
)

_CATALOG["D2_TO_PT"] = lambda: validate_functor(_fx("D2"), PT, {"x": "*", "y": "*"}, {"idx": "id*", "idy": "id*"})


def thin_bicategory(
    objects: Sequence[str],
    onecells: Mapping[tuple[str, str], Sequence[str]],
    compose1_cells: Mapping[tuple[tuple[str, str, str], str, str], str],
    identity1: Mapping[str, str],
) -> Bicategory:
    """Bicategory with discrete hom categories (identity 2-cells only)."""
    hom = {pair: discrete_category(cells) for pair, cells in onecells.items()}
    hcompose2 = {
        ((x, y, z), f"id{g}", f"id{f}"): f"id{h}" for ((x, y, z), g, f), h in compose1_cells.items()
    }
    return validate_bicategory(objects, hom, identity1, dict(compose1_cells), hcompose2)


def _thin_from_category(cat: FinCategory) -> Bicategory:
    """Trivial-2-cell bicategory of a thin category (every hom at most one morphism)."""
    onecells = {}
    compose1 = {}
    for x in cat.objects:
        for y in cat.objects:
            cells = cat.hom(x, y)
            assert len(cells) <= 1, "thin categories only"
            onecells[(x, y)] = list(cells)
    for x in cat.objects:
        for y in cat.objects:
            for z in cat.objects:
                for f in cat.hom(x, y):
                    for g in cat.hom(y, z):
                        compose1[((x, y, z), g, f)] = cat.compose2(g, f)
    return thin_bicategory(cat.objects, onecells, compose1, {x: cat.identity[x] for x in cat.objects})


# One object, one 1-cell named I, one 2-cell: the point bicategory.
_CATALOG["BPT"] = lambda: validate_bicategory(
    ["*"],
    {("*", "*"): one_object_cat("I")},
    {"*": "I"},
    {(("*", "*", "*"), "I", "I"): "I"},
    {(("*", "*", "*"), "idI", "idI"): "idI"},
)

_CATALOG["ARROW_BICAT"] = lambda: _thin_from_category(_fx("ARROW"))
_CATALOG["EZ2_BICAT"] = lambda: _thin_from_category(_fx("EZ2"))

# Two objects, hom(0,1) the walking 2-cell (s => t), endo-homs trivial.
_CATALOG["_ACYCLIC2_HOM01"] = lambda: validate_category(
    ["s", "t"],
    [("ids", "s", "s"), ("idt", "t", "t"), ("a2", "s", "t")],
    {"s": "ids", "t": "idt"},
    {
        ("ids", "ids"): "ids",
        ("idt", "idt"): "idt",
        ("a2", "ids"): "a2",
        ("idt", "a2"): "a2",
    },
)

_CATALOG["ACYCLIC2"] = lambda: validate_bicategory(
    ["0", "1"],
    {("0", "0"): one_object_cat("id0"), ("1", "1"): one_object_cat("id1"), ("0", "1"): _fx("_ACYCLIC2_HOM01")},
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


def suspension_two_group(
    objects: Sequence[str],
    elements: Sequence[str],
    mult: Mapping[tuple[str, str], str],
    unit: str,
) -> Bicategory:
    """Connected pseudogroupoid: one 1-cell m<x><y> per pair, 2-cells an abelian group.

    Horizontal and vertical composition are both the group product, so the
    interchange law needs commutativity; callers pass abelian tables only.
    """
    hom = {}
    for x in objects:
        for y in objects:
            m = f"m{x}{y}"
            hom[(x, y)] = validate_category(
                [m],
                [(e, m, m) for e in elements],
                {m: unit},
                {(a, b): mult[(a, b)] for a in elements for b in elements},
            )
    identity1 = {x: f"m{x}{x}" for x in objects}
    compose1 = {}
    hcompose2 = {}
    for x in objects:
        for y in objects:
            for z in objects:
                compose1[((x, y, z), f"m{y}{z}", f"m{x}{y}")] = f"m{x}{z}"
                for b in elements:
                    for a in elements:
                        hcompose2[((x, y, z), b, a)] = mult[(b, a)]
    return validate_bicategory(objects, hom, identity1, compose1, hcompose2)


def discrete_suspension(
    elements: Sequence[str], mult: Mapping[tuple[str, str], str], unit: str
) -> Bicategory:
    """One object whose 1-cells form a group and whose 2-cells are all identities."""
    hom = {("*", "*"): discrete_category(elements)}
    compose1 = {(("*", "*", "*"), b, a): mult[(b, a)] for a in elements for b in elements}
    hcompose2 = {(("*", "*", "*"), f"id{b}", f"id{a}"): f"id{mult[(b, a)]}" for a in elements for b in elements}
    return validate_bicategory(["*"], hom, {"*": unit}, compose1, hcompose2)


_Z2_ELTS, _Z2_MULT, _Z2_UNIT = cyclic_group(2)
_CATALOG["PSG"] = lambda: suspension_two_group(["p", "q"], _Z2_ELTS, _Z2_MULT, _Z2_UNIT)
_CATALOG["BZ2_TWOGROUP"] = lambda: suspension_two_group(["*"], _Z2_ELTS, _Z2_MULT, _Z2_UNIT)


def collapse_to_point(b: Bicategory) -> LaxFunctorBicat:
    """The unique lax functor b -> BPT."""
    bpt = _fx("BPT")
    hom_functors = {}
    for x in b.objects:
        for y in b.objects:
            src = b.hom_at(x, y)
            hom_functors[(x, y)] = validate_functor(
                src,
                bpt.hom_at("*", "*"),
                {f: "I" for f in src.objects},
                {m.name: "idI" for m in src.morphisms},
            )
    return validate_lax_functor(b, bpt, {x: "*" for x in b.objects}, hom_functors)


_CATALOG["PSG_COLLAPSE"] = lambda: collapse_to_point(_fx("PSG"))

_CATALOG["GR_PSG_OVER_ARROW"] = lambda: product_projection(_fx("ARROW_BICAT"), _fx("PSG"))

# Similarity matrix [[1,1],[2,2]]: the weighting system is inconsistent, so
# this cat-graph has a coweighting but no Euler characteristic.
_CATALOG["NOCHI_CATGRAPH"] = lambda: make_catgraph(
    ["0", "1"],
    {("0", "0"): PT, ("0", "1"): PT, ("1", "0"): _fx("D2"), ("1", "1"): _fx("D2")},
)


def identity_functor(cat: FinCategory) -> Functor:
    return validate_functor(
        cat, cat, {x: x for x in cat.objects}, {m.name: m.name for m in cat.morphisms}
    )


_CATALOG["_D2_SWAP"] = lambda: validate_functor(
    _fx("D2"), _fx("D2"), {"x": "y", "y": "x"}, {"idx": "idy", "idy": "idx"}
)

_CATALOG["ARROW_BASE_LAXCAT"] = lambda: validate_laxcat(
    LaxFunctorToCat(
        base=_fx("ARROW"),
        fiber={"0": _fx("D2"), "1": PT},
        pullback={
            "id0": identity_functor(_fx("D2")),
            "id1": identity_functor(PT),
            "a": validate_functor(PT, _fx("D2"), {"*": "x"}, {"id*": "idx"}),
        },
    )
)

_CATALOG["BZ2_BASE_LAXCAT"] = lambda: validate_laxcat(
    LaxFunctorToCat(
        base=_fx("BZ2"),
        fiber={"*": _fx("D2")},
        pullback={"e": identity_functor(_fx("D2")), "g": _fx("_D2_SWAP")},
    )
)


def constant_trihomomorphism(base: Bicategory, fiber: Bicategory):
    """Constant fibers, identity pullbacks, identity 2-cell components."""
    base.require_composition()
    fiber.require_composition()
    pullback1 = {}
    pullback2 = {}
    for b in base.objects:
        for c in base.objects:
            for f in base.onecells(b, c):
                pullback1[(b, c, f)] = identity_lax_functor(fiber)
            hom = base.hom_at(b, c)
            for alpha in hom.morphisms:
                pullback2[(b, c, alpha.name)] = {y: fiber.id1(y) for y in fiber.objects}
    return validate_trihomomorphism(
        Trihomomorphism(base, {b: fiber for b in base.objects}, pullback1, pullback2)
    )


def write_fixture_corpus(directory) -> list:
    """Serialize the catalog to <directory>/*.catj; returns the written paths."""
    import pathlib

    from .catdsl import serialize

    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    corpus = {
        "pt": PT,
        "d2": _fx("D2"),
        "arrow": _fx("ARROW"),
        "pair": _fx("PAIR"),
        "span": _fx("SPAN"),
        "bz2": _fx("BZ2"),
        "ez2": _fx("EZ2"),
        "psg": _fx("PSG"),
        "bpt": _fx("BPT"),
        "acyclic2": _fx("ACYCLIC2"),
        "arrow-bicat": _fx("ARROW_BICAT"),
        "ez2-bicat": _fx("EZ2_BICAT"),
        "bz2-2group": _fx("BZ2_TWOGROUP"),
        "ez2-to-bz2": _fx("EZ2_TO_BZ2"),
        "d2-to-pt": _fx("D2_TO_PT"),
        "arrow-base-laxcat": _fx("ARROW_BASE_LAXCAT"),
        "bz2-base-laxcat": _fx("BZ2_BASE_LAXCAT"),
        "gr-psg-over-arrow": _fx("GR_PSG_OVER_ARROW"),
        "psg-collapse": _fx("PSG_COLLAPSE"),
        "trihom-const-psg-arrow": constant_trihomomorphism(_fx("ARROW_BICAT"), _fx("PSG")),
        "nochi-catgraph": _fx("NOCHI_CATGRAPH"),
    }
    written = []
    for name, value in corpus.items():
        path = directory / f"{name}.catj"
        path.write_text(serialize(value), encoding="utf-8")
        written.append(path)
    return written
