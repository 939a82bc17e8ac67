"""Cat-graphs and bicategories with exact Euler characteristics.

The similarity matrix of a cat-graph has chi(hom(i,j)) entries; all the
bicategorical predicates (acyclicity, pseudogroupoid, biequivalence) are
decided by exhaustive search in the finite hom categories.
"""

from __future__ import annotations

from collections.abc import Mapping
from operator import mul
TYPE_CHECKING = False  # typing is imported for annotations only, never at run time
if TYPE_CHECKING:
    from typing import Optional, Sequence

    from .exactq import Rational

from .exactq import MatrixEuler, QMatrix, QVector, Record, matrix_euler, rational
from .fincat import (
    EMPTY_CATEGORY,
    FinCategory,
    Functor,
    InvalidInput,
    MissingEulerCharacteristic,
    check_equivalence_functor,
    euler_char_cat,
    require_euler,
    zigzag_components,
)
from .fincat import acyclic_witness as cat_acyclic_witness


class MissingCompositionData(InvalidInput):
    pass


class NotBiequivalence(InvalidInput):
    pass


class Hcompose2IdentityViolation(InvalidInput):
    """hcompose2 of two identity 2-cells is not the identity 2-cell of the composite 1-cell."""


class CatGraph(Record):
    """Finite object set with a finite category of morphisms per ordered pair."""

    objects: tuple[str, ...]
    hom: Mapping[tuple[str, str], FinCategory]

    def hom_at(self, x: str, y: str) -> FinCategory:
        return self.hom.get((x, y), EMPTY_CATEGORY)

    def onecells(self, x: str, y: str) -> tuple[str, ...]:
        return self.hom_at(x, y).objects

    def composable_pairs(self):
        """Each compose1 key ((x, y, z), g, f) with f: x -> y and g: y -> z, by objects and then 1-cell labels."""
        objs = self.objects
        for x in objs:
            for y in objs:
                for z in objs:
                    for f in self.onecells(x, y):
                        for g in self.onecells(y, z):
                            yield (x, y, z), g, f


def make_catgraph(objects: Sequence[str], hom: Mapping[tuple[str, str], FinCategory]) -> CatGraph:
    """Normalize: sorted objects, every pair present (empty category default)."""
    objs = tuple(sorted(objects))
    table = {}
    for x in objs:
        for y in objs:
            table[(x, y)] = hom.get((x, y), EMPTY_CATEGORY)
    return CatGraph(objs, table)


class Bicategory(Record):
    """Cat-graph plus its 1-cell composition.

    compose1 is keyed ((x, y, z), g, f) with f: x -> y and g: y -> z.
    hcompose2 is optional, but `bifib` takes a lax functor as strict, and
    so as a candidate fibration, only when both of its sides carry it.
    Associators and unitors are optional and only frame-checked.
    """

    graph: CatGraph
    identity1: Mapping[str, str]
    compose1: Mapping[tuple[tuple[str, str, str], str, str], str]
    hcompose2: Optional[Mapping[tuple[tuple[str, str, str], str, str], str]] = None
    associator: Optional[Mapping] = None
    unitor_l: Optional[Mapping] = None
    unitor_r: Optional[Mapping] = None

    @property
    def objects(self) -> tuple[str, ...]:
        return self.graph.objects

    def hom_at(self, x: str, y: str) -> FinCategory:
        return self.graph.hom_at(x, y)

    def onecells(self, x: str, y: str) -> tuple[str, ...]:
        return self.graph.onecells(x, y)

    def id1(self, x: str) -> str:
        return self.identity1[x]

    def c1(self, x: str, y: str, z: str, g: str, f: str) -> str:
        return self.compose1[((x, y, z), g, f)]

    def h2(self, x: str, y: str, z: str, beta: str, alpha: str) -> str:
        return self.hcompose2[((x, y, z), beta, alpha)]


def validate_bicategory(
    objects: Sequence[str],
    hom: Mapping[tuple[str, str], FinCategory],
    identity1: Mapping[str, str],
    compose1: Mapping[tuple[tuple[str, str, str], str, str], str],
    hcompose2=None,
    associator=None,
    unitor_l=None,
    unitor_r=None,
) -> Bicategory:
    """Endpoint/totality validation of the composition data (frames, and hcompose2 on identities)."""
    graph = make_catgraph(objects, hom)
    for x in graph.objects:
        ident = identity1.get(x)
        if ident is None or ident not in graph.onecells(x, x):
            raise MissingCompositionData(f"identity 1-cell of {x} missing or not in hom({x},{x})")
    for key in graph.composable_pairs():
        (x, y, z), g, f = key
        h = compose1.get(key)
        if h is None:
            raise MissingCompositionData(f"compose1 missing at (({x},{y},{z}), {g}, {f})")
        if h not in graph.hom_at(x, z).identity:  # the identity table is keyed by the hom's 1-cells
            raise MissingCompositionData(f"compose1 at (({x},{y},{z}), {g}, {f}) leaves hom({x},{z})")
    bi = Bicategory(graph, dict(identity1), dict(compose1), hcompose2, associator, unitor_l, unitor_r)
    if hcompose2 is not None:
        for x in graph.objects:
            for y in graph.objects:
                for z in graph.objects:
                    hx, hy, hz = graph.hom_at(x, y), graph.hom_at(y, z), graph.hom_at(x, z)
                    xyz, cells = (x, y, z), hz._by_name
                    for alpha in hx.morphisms:
                        for beta in hy.morphisms:
                            res = hcompose2.get((xyz, beta.name, alpha.name))
                            if res is None:
                                raise MissingCompositionData(
                                    f"hcompose2 missing at (({x},{y},{z}), {beta.name}, {alpha.name})"
                                )
                            cell = cells.get(res)
                            if cell is None:
                                raise MissingCompositionData(
                                    f"hcompose2 at (({x},{y},{z}), {beta.name}, {alpha.name}) "
                                    f"names unknown 2-cell {res!r}"
                                )
                            # compose1 is total on 1-cells here: checked above.
                            if (
                                cell.src != compose1[(xyz, beta.src, alpha.src)]
                                or cell.dst != compose1[(xyz, beta.dst, alpha.dst)]
                            ):
                                raise MissingCompositionData(
                                    f"hcompose2 at (({x},{y},{z}), {beta.name}, {alpha.name}) has wrong frame"
                                )
                    for f in hx.objects:
                        for g in hy.objects:
                            id_g, id_f = hy.identity[g], hx.identity[f]
                            if hcompose2[((x, y, z), id_g, id_f)] != hz.identity[bi.c1(x, y, z, g, f)]:
                                raise Hcompose2IdentityViolation(
                                    f"hcompose2 at (({x},{y},{z}), {id_g}, {id_f}) is not the identity of {g}∘{f}"
                                )
    if associator is not None:
        _validate_associator(bi, associator)
    if unitor_l is not None or unitor_r is not None:
        _validate_unitors(bi, unitor_l or {}, unitor_r or {})
    return bi


def _validate_associator(bi: Bicategory, associator: Mapping):
    g = bi.graph
    for x in g.objects:
        for y in g.objects:
            for z in g.objects:
                for w in g.objects:
                    hom = g.hom_at(x, w)
                    for f in g.onecells(x, y):
                        for gg in g.onecells(y, z):
                            for h in g.onecells(z, w):
                                cell = associator.get(((x, y, z, w), h, gg, f))
                                if cell is None:
                                    raise MissingCompositionData(f"associator missing at ({h},{gg},{f})")
                                if cell not in hom._by_name:
                                    raise MissingCompositionData(
                                        f"associator at ({h},{gg},{f}) names unknown 2-cell {cell!r}"
                                    )
                                src = bi.c1(x, z, w, h, bi.c1(x, y, z, gg, f))
                                dst = bi.c1(x, y, w, bi.c1(y, z, w, h, gg), f)
                                if hom.src(cell) != src or hom.dst(cell) != dst or hom.inverse_of(cell) is None:
                                    raise MissingCompositionData(f"associator at ({h},{gg},{f}) has a bad frame")


def _validate_unitors(bi: Bicategory, unitor_l: Mapping, unitor_r: Mapping):
    g = bi.graph
    for x in g.objects:
        for y in g.objects:
            hom = g.hom_at(x, y)
            for f in g.onecells(x, y):
                left = unitor_l.get((x, y, f))
                if left is not None:
                    if left not in hom._by_name:
                        raise MissingCompositionData(f"left unitor at {f} names unknown 2-cell {left!r}")
                    src = bi.c1(x, y, y, bi.id1(y), f)
                    if hom.src(left) != src or hom.dst(left) != f or hom.inverse_of(left) is None:
                        raise MissingCompositionData(f"left unitor at {f} has a bad frame")
                right = unitor_r.get((x, y, f))
                if right is not None:
                    if right not in hom._by_name:
                        raise MissingCompositionData(f"right unitor at {f} names unknown 2-cell {right!r}")
                    src = bi.c1(x, x, y, f, bi.id1(x))
                    if hom.src(right) != src or hom.dst(right) != f or hom.inverse_of(right) is None:
                        raise MissingCompositionData(f"right unitor at {f} has a bad frame")


def similarity_matrix_cg(g: CatGraph) -> QMatrix:
    """ζ over the object set with chi(hom(i,j)) entries; empty homs contribute 0.

    Each distinct hom object is solved once: the graph keeps every hom
    alive for the call, so `id(hom)` names it.
    """
    chi = {}
    by_hom: dict[int, Rational] = {}
    for i in g.objects:
        for j in g.objects:
            hom = g.hom_at(i, j)
            if id(hom) not in by_hom:
                by_hom[id(hom)] = require_euler(euler_char_cat(hom), f"hom({i},{j})")
            chi[(i, j)] = by_hom[id(hom)]
    return QMatrix.build(g.objects, g.objects, lambda i, j: chi[(i, j)])


def euler_char_cg(g: CatGraph) -> MatrixEuler:
    return matrix_euler(similarity_matrix_cg(g))


def _hom_equivalent_to_point(hom: FinCategory) -> bool:
    """Equivalent to the point: nonempty, with exactly one morphism x -> y for all objects x, y."""
    return bool(hom.objects) and all(len(hom.hom(x, y)) == 1 for x in hom.objects for y in hom.objects)


def acyclic_bicat_witness(b: Bicategory) -> dict[str, tuple[str, ...]]:
    """{} for an acyclic bicategory, else the first failure, in object order.

    A hom category that is not acyclic gives its `fincat.acyclic_witness`
    after (x, y); 1-cells f: x -> y and g: y -> x with x != y give
    "opposed_1cells": (x, y, f, g); an endo-hom not equivalent to the point
    gives "endo_hom_not_point": (x,).
    """
    g = b.graph
    for x in g.objects:
        for y in g.objects:
            witness = cat_acyclic_witness(g.hom_at(x, y))
            if witness:
                return {key: (x, y, *cells) for key, cells in witness.items()}
            if x != y and g.onecells(x, y) and g.onecells(y, x):
                return {"opposed_1cells": (x, y, g.onecells(x, y)[0], g.onecells(y, x)[0])}
    for x in g.objects:
        if not _hom_equivalent_to_point(g.hom_at(x, x)):
            return {"endo_hom_not_point": (x,)}
    return {}


def is_equivalence_1cell(b: Bicategory, x: str, y: str, f: str) -> bool:
    for g in b.onecells(y, x):
        gf = b.c1(x, y, x, g, f)
        fg = b.c1(y, x, y, f, g)
        if b.hom_at(x, x).objects_isomorphic(gf, b.id1(x)) and b.hom_at(y, y).objects_isomorphic(fg, b.id1(y)):
            return True
    return False


def equivalence_classes(b: Bicategory) -> dict[str, tuple[str, ...]]:
    """Each object's class under 1-equivalence (exhaustive quasi-inverse search), sorted.

    Validation checks only the frames of compose1, so a lawless compose1 can
    relate x to y and y to z but not x to z; that raises
    MissingCompositionData naming x, y and z.
    """
    objs = b.objects
    related = {(x, y): False for x in objs for y in objs}
    for x in objs:
        related[(x, x)] = True
        for y in objs:
            if x != y and any(is_equivalence_1cell(b, x, y, f) for f in b.onecells(x, y)):
                related[(x, y)] = True
    for x in objs:
        for y in objs:
            assert related[(x, y)] == related[(y, x)], "equivalence relation not symmetric"
            for z in objs:
                if related[(x, y)] and related[(y, z)] and not related[(x, z)]:
                    raise MissingCompositionData(
                        f"compose1 breaks 1-equivalence: {x} ~ {y} and {y} ~ {z}, but not {x} ~ {z}"
                    )
    adj = {x: {y for y in objs if related[(x, y)]} for x in objs}
    return {x: cls for cls in zigzag_components(objs, adj) for x in cls}


def pseudogroupoid_witness(b: Bicategory) -> dict[str, tuple[str, str, str]]:
    """{} for a pseudogroupoid, else the first 2-cell that is no isomorphism or 1-cell that is no equivalence."""
    for x in b.objects:
        for y in b.objects:
            hom = b.hom_at(x, y)
            for m in hom.morphisms:
                if hom.inverse_of(m.name) is None:
                    return {"non_invertible_2cell": (x, y, m.name)}
            for f in hom.objects:
                if not is_equivalence_1cell(b, x, y, f):
                    return {"non_equivalence_1cell": (x, y, f)}
    return {}


def graph_components(g: CatGraph) -> tuple[tuple[str, ...], ...]:
    adj = {x: set() for x in g.objects}
    for x in g.objects:
        for y in g.objects:
            if g.onecells(x, y):
                adj[x].add(y)
                adj[y].add(x)
    return zigzag_components(g.objects, adj)


class LaxFunctorBicat(Record):
    """Object map plus one functor per hom category; phi/psi optional."""

    source: Bicategory
    target: Bicategory
    object_map: Mapping[str, str]
    hom_functors: Mapping[tuple[str, str], Functor]
    phi: Optional[Mapping] = None
    psi: Optional[Mapping[str, str]] = None

    def ob(self, x: str) -> str:
        return self.object_map[x]

    def cell1(self, x: str, y: str, f: str) -> str:
        return self.hom_functors[(x, y)].ob(f)

    def cell2(self, x: str, y: str, alpha: str) -> str:
        return self.hom_functors[(x, y)].mor(alpha)


def validate_lax_functor(
    source: Bicategory,
    target: Bicategory,
    object_map: Mapping[str, str],
    hom_functors: Mapping[tuple[str, str], Functor],
    phi=None,
    psi=None,
) -> LaxFunctorBicat:
    for x in source.objects:
        if object_map.get(x) not in target.objects:
            raise MissingCompositionData(f"object {x} has no valid image")
    for x in source.objects:
        for y in source.objects:
            fun = hom_functors.get((x, y))
            if fun is None:
                raise MissingCompositionData(f"missing hom functor at ({x},{y})")
            if fun.source != source.hom_at(x, y) or fun.target != target.hom_at(object_map[x], object_map[y]):
                raise MissingCompositionData(f"hom functor at ({x},{y}) has wrong endpoints")
    if psi is not None:
        psi = {x: psi.get(x) for x in source.objects}  # keys that name no source object are no part of it
    lax = LaxFunctorBicat(source, target, {x: object_map[x] for x in source.objects}, dict(hom_functors), phi, psi)
    if psi is not None:
        for x, cell in psi.items():
            lx = object_map[x]
            if cell not in target.hom_at(lx, lx).hom(target.id1(lx), lax.cell1(x, x, source.id1(x))):
                raise MissingCompositionData(f"psi at {x} has a bad frame")
    if phi is not None:
        for ((x, y, z), g, f), cell in phi.items():
            if f not in source.onecells(x, y) or g not in source.onecells(y, z):
                raise MissingCompositionData(f"phi at (({x},{y},{z}), {g}, {f}) names no composable source 1-cells")
            lx, ly, lz = object_map[x], object_map[y], object_map[z]
            src = target.c1(lx, ly, lz, lax.cell1(y, z, g), lax.cell1(x, y, f))
            dst = lax.cell1(x, z, source.c1(x, y, z, g, f))
            if cell not in target.hom_at(lx, lz).hom(src, dst):
                raise MissingCompositionData(f"phi at (({x},{y},{z}), {g}, {f}) has a bad frame")
        for key in source.graph.composable_pairs():
            if key not in phi:
                (x, y, z), g, f = key
                raise MissingCompositionData(f"phi at (({x},{y},{z}), {g}, {f}) is missing")
    return lax


def identity_lax_functor(b: Bicategory) -> LaxFunctorBicat:
    hom_functors = {
        (x, y): Functor(
            b.hom_at(x, y),
            b.hom_at(x, y),
            {f: f for f in b.onecells(x, y)},
            {m.name: m.name for m in b.hom_at(x, y).morphisms},
        )
        for x in b.objects
        for y in b.objects
    }
    return LaxFunctorBicat(b, b, {x: x for x in b.objects}, hom_functors)


def biequivalence_witness(l: LaxFunctorBicat) -> dict[str, tuple[str, ...]]:
    """{} for a biequivalence, else the first hom functor that is no equivalence or target object not reached.

    "non_equivalence_hom": (x, y) names the source hom whose functor fails
    local equivalence; "unreached_object": (b,) a target object equivalent
    to no image of a source object.
    """
    for x in l.source.objects:
        for y in l.source.objects:
            if not check_equivalence_functor(l.hom_functors[(x, y)]):
                return {"non_equivalence_hom": (x, y)}
    classes = equivalence_classes(l.target)
    images = {l.ob(a) for a in l.source.objects}
    for b in l.target.objects:
        if images.isdisjoint(classes[b]):
            return {"unreached_object": (b,)}
    return {}


class BiequivalenceReport(Record):
    chi_source: Rational
    chi_target: Rational
    equal: bool
    transported_weighting: QVector
    transported_valid: bool


def verify_biequivalence_invariance(l: LaxFunctorBicat) -> BiequivalenceReport:
    """chi equality plus the transported-weighting identity from the invariance proof."""
    if biequivalence_witness(l):
        raise NotBiequivalence("lax functor is not a biequivalence")
    zeta = similarity_matrix_cg(l.source.graph)
    source_euler = matrix_euler(zeta)
    target_euler = euler_char_cg(l.target.graph)
    chi_source = require_euler(source_euler, "source bicategory")
    chi_target = require_euler(target_euler, "target bicategory")
    source_classes = equivalence_classes(l.source)
    target_classes = equivalence_classes(l.target)
    lw = target_euler.weighting
    entries = []
    for a in l.source.objects:
        total = sum((lw[b] for b in target_classes[l.ob(a)]), rational())
        entries.append(total / len(source_classes[a]))
    transported = QVector(l.source.objects, tuple(entries))
    # ζ's rows and columns are the source objects, in the order of `entries`.
    valid = all(sum(map(mul, row, entries), rational()) == 1 for row in zeta.entries)
    return BiequivalenceReport(chi_source, chi_target, chi_source == chi_target, transported, valid)


def restrict_catgraph(g: CatGraph, objects: Sequence[str]) -> CatGraph:
    keep = sorted(set(objects))
    return make_catgraph(keep, {(x, y): g.hom_at(x, y) for x in keep for y in keep})


def coop_lax_functor(p: LaxFunctorBicat) -> LaxFunctorBicat:
    """Reverse 1- and 2-cells on both sides of a lax functor, sharing p's maps and tables; phi and psi are dropped."""
    source = coop_bicategory(p.source)
    target = coop_bicategory(p.target)
    hom_functors = {}
    for x in source.objects:
        for y in source.objects:
            orig = p.hom_functors[(y, x)]
            hom_functors[(x, y)] = Functor(
                source.hom_at(x, y),
                target.hom_at(p.ob(x), p.ob(y)),
                orig.object_map,
                orig.morphism_map,
            )
    return LaxFunctorBicat(source, target, p.object_map, hom_functors)


class _Reversed(Mapping):
    """A read-only view of a compose1 or hcompose2 table that reads ((x, y, z), g, f) at ((z, y, x), f, g)."""

    def __init__(self, table: Mapping):
        self._table = table

    def __getitem__(self, key):
        (x, y, z), g, f = key
        return self._table[((z, y, x), f, g)]

    def __iter__(self):
        for (z, y, x), f, g in self._table:
            yield (x, y, z), g, f

    def __len__(self):
        return len(self._table)


def coop_bicategory(b: Bicategory) -> Bicategory:
    """Reverse 1- and 2-cells: hom'(x,y) = hom(y,x)ᵒᵖ; associators and unitors are dropped.

    b's identity1 is shared, and compose1 and hcompose2 are views of b's
    tables that reorder each key on lookup, equal to the dicts they stand for.
    """
    graph = make_catgraph(b.objects, {(x, y): b.hom_at(y, x).opposite() for x in b.objects for y in b.objects})
    hcompose2 = None if b.hcompose2 is None else _Reversed(b.hcompose2)
    return Bicategory(graph, b.identity1, _Reversed(b.compose1), hcompose2)
