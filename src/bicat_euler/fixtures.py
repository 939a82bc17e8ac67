"""Builders of the small categories and bicategories that `gen` is made from.

Each builder validates and returns a new value on every call; importing
this module builds nothing.  `bpt`, `arrow_bicat`, `ez2_bicat` and
`bz2_twogroup` are the bases of the constant trihomomorphisms; `arrow` is
the category 0 -> 1.  Their chis are derivable by hand from the similarity
matrices: chi(ARROW) = 1, chi(BPT) = 1, chi(BZ2_TWOGROUP) = 1/2.
"""

from __future__ import annotations

TYPE_CHECKING = False  # typing is imported for annotations only, never at run time
if TYPE_CHECKING:
    from typing import Mapping, Sequence

from .bicat import (
    Bicategory,
    LaxFunctorBicat,
    identity_lax_functor,
    validate_bicategory,
    validate_lax_functor,
)
from .bifib import Trihomomorphism, validate_trihomomorphism
from .fincat import FinCategory, Functor, validate_category, validate_functor


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


def arrow() -> FinCategory:
    """The category 0 -> 1: one non-identity morphism a."""
    return validate_category(
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


def identity_functor(cat: FinCategory) -> Functor:
    return validate_functor(
        cat, cat, {x: x for x in cat.objects}, {m.name: m.name for m in cat.morphisms}
    )


def _locally_discrete(cat: FinCategory) -> Bicategory:
    """A category as a bicategory: discrete homs, identity 2-cells id<f> only."""
    hom = {(x, y): discrete_category(cat.hom(x, y)) for x in cat.objects for y in cat.objects}
    compose1 = {((cat.src(f), cat.src(g), cat.dst(g)), g, f): h for (g, f), h in cat.compose.items()}
    hcompose2 = {((x, y, z), f"id{g}", f"id{f}"): f"id{h}" for ((x, y, z), g, f), h in compose1.items()}
    return validate_bicategory(cat.objects, hom, {x: cat.identity[x] for x in cat.objects}, compose1, hcompose2)


def bpt() -> Bicategory:
    """The point bicategory: one object, one 1-cell named I, one 2-cell."""
    return validate_bicategory(
        ["*"],
        {("*", "*"): one_object_cat("I")},
        {"*": "I"},
        {(("*", "*", "*"), "I", "I"): "I"},
        {(("*", "*", "*"), "idI", "idI"): "idI"},
    )


def arrow_bicat() -> Bicategory:
    """The arrow category 0 -> 1 as a bicategory with identity 2-cells only."""
    return _locally_discrete(arrow())


def ez2_bicat() -> Bicategory:
    """The indiscrete category on 0 and 1 as a bicategory with identity 2-cells only."""
    return _locally_discrete(indiscrete_category(["0", "1"]))


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


def bz2_twogroup() -> Bicategory:
    """The suspension of Z/2 on one object: one 1-cell, 2-cells Z/2."""
    return suspension_two_group(["*"], *cyclic_group(2))


def discrete_suspension(
    elements: Sequence[str], mult: Mapping[tuple[str, str], str], unit: str
) -> Bicategory:
    """One object whose 1-cells form a group and whose 2-cells are all identities."""
    hom = {("*", "*"): discrete_category(elements)}
    compose1 = {(("*", "*", "*"), b, a): mult[(b, a)] for a in elements for b in elements}
    hcompose2 = {(("*", "*", "*"), f"id{b}", f"id{a}"): f"id{mult[(b, a)]}" for a in elements for b in elements}
    return validate_bicategory(["*"], hom, {"*": unit}, compose1, hcompose2)


def collapse_to_point(b: Bicategory) -> LaxFunctorBicat:
    """The unique lax functor b -> BPT."""
    point = bpt()
    hom_functors = {}
    for x in b.objects:
        for y in b.objects:
            src = b.hom_at(x, y)
            hom_functors[(x, y)] = validate_functor(
                src,
                point.hom_at("*", "*"),
                {f: "I" for f in src.objects},
                {m.name: "idI" for m in src.morphisms},
            )
    return validate_lax_functor(b, point, {x: "*" for x in b.objects}, hom_functors)


def constant_trihomomorphism(base: Bicategory, fiber: Bicategory):
    """Constant fibers, identity pullbacks, identity 2-cell components."""
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
