"""Cat-graphs and bicategories with exact Euler characteristics.

The similarity matrix of a cat-graph has chi(hom(i,j)) entries; all the
bicategorical predicates (acyclicity, pseudogroupoid, biequivalence) are
decided by exhaustive search in the finite hom categories.
"""

from __future__ import annotations

from fractions import Fraction
TYPE_CHECKING = False  # typing is imported for annotations only, never at run time
if TYPE_CHECKING:
    from typing import Mapping, Optional, Sequence

from .exactq import MatrixEuler, QMatrix, QVector, Record, entry_sum, invert, matrix_euler
from .fincat import (
    EMPTY_CATEGORY,
    PT,
    FinCategory,
    Functor,
    InvalidInput,
    MissingEulerCharacteristic,
    NotAcyclic,
    check_equivalence_functor,
    euler_char_cat,
    pair_label,
    product_cat,
    validate_functor,
    zigzag_components,
)
from .fincat import acyclic_witness as cat_acyclic_witness


class HomWithoutEuler(InvalidInput):
    pass


class MissingCompositionData(InvalidInput):
    pass


class NotPseudogroupoid(InvalidInput):
    pass


class NotBiequivalence(InvalidInput):
    pass


class CatGraph(Record):
    """Finite object set with a finite category of morphisms per ordered pair."""

    objects: tuple[str, ...]
    hom: Mapping[tuple[str, str], FinCategory]

    def hom_at(self, x: str, y: str) -> FinCategory:
        return self.hom.get((x, y), EMPTY_CATEGORY)

    def onecells(self, x: str, y: str) -> tuple[str, ...]:
        return self.hom_at(x, y).objects


def make_catgraph(objects: Sequence[str], hom: Mapping[tuple[str, str], FinCategory]) -> CatGraph:
    """Normalize: sorted objects, every pair present (empty category default)."""
    objs = tuple(sorted(objects))
    table = {}
    for x in objs:
        for y in objs:
            table[(x, y)] = hom.get((x, y), EMPTY_CATEGORY)
    return CatGraph(objs, table)


class Bicategory(Record):
    """Cat-graph plus 1-cell composition data.

    compose1 is keyed ((x, y, z), g, f) with f: x -> y and g: y -> z;
    hcompose2, associators and unitors are optional and only ever
    frame-checked (no implemented computation reads them).
    """

    graph: CatGraph
    identity1: Optional[Mapping[str, str]]
    compose1: Optional[Mapping[tuple[tuple[str, str, str], str, str], str]]
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

    def require_composition(self):
        if self.identity1 is None or self.compose1 is None:
            raise MissingCompositionData("bicategory carries no compose1/identity1 data")

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
    """Endpoint/totality validation of the composition data (frames only)."""
    graph = make_catgraph(objects, hom)
    for x in graph.objects:
        ident = identity1.get(x)
        if ident is None or ident not in graph.onecells(x, x):
            raise MissingCompositionData(f"identity 1-cell of {x} missing or not in hom({x},{x})")
    for x in graph.objects:
        for y in graph.objects:
            for z in graph.objects:
                xz = set(graph.onecells(x, z))
                for f in graph.onecells(x, y):
                    for g in graph.onecells(y, z):
                        h = compose1.get(((x, y, z), g, f))
                        if h is None:
                            raise MissingCompositionData(f"compose1 missing at (({x},{y},{z}), {g}, {f})")
                        if h not in xz:
                            raise MissingCompositionData(f"compose1 at (({x},{y},{z}), {g}, {f}) leaves hom({x},{z})")
    bi = Bicategory(graph, dict(identity1), dict(compose1), hcompose2, associator, unitor_l, unitor_r)
    if hcompose2 is not None:
        for x in graph.objects:
            for y in graph.objects:
                for z in graph.objects:
                    hx, hy, hz = graph.hom_at(x, y), graph.hom_at(y, z), graph.hom_at(x, z)
                    for alpha in hx.morphisms:
                        for beta in hy.morphisms:
                            res = hcompose2.get(((x, y, z), beta.name, alpha.name))
                            if res is None:
                                raise MissingCompositionData(
                                    f"hcompose2 missing at (({x},{y},{z}), {beta.name}, {alpha.name})"
                                )
                            if res not in hz._by_name:
                                raise MissingCompositionData(
                                    f"hcompose2 at (({x},{y},{z}), {beta.name}, {alpha.name}) "
                                    f"names unknown 2-cell {res!r}"
                                )
                            want_src = bi.c1(x, y, z, beta.src, alpha.src)
                            want_dst = bi.c1(x, y, z, beta.dst, alpha.dst)
                            if hz.src(res) != want_src or hz.dst(res) != want_dst:
                                raise MissingCompositionData(
                                    f"hcompose2 at (({x},{y},{z}), {beta.name}, {alpha.name}) has wrong frame"
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
    by_hom: dict[int, Optional[Fraction]] = {}
    for i in g.objects:
        for j in g.objects:
            hom = g.hom_at(i, j)
            if id(hom) not in by_hom:
                by_hom[id(hom)] = euler_char_cat(hom).chi
            chi[(i, j)] = by_hom[id(hom)]
            if chi[(i, j)] is None:
                raise HomWithoutEuler(f"hom({i},{j}) has no Euler characteristic")
    return QMatrix.build(g.objects, g.objects, lambda i, j: chi[(i, j)])


def euler_char_cg(g: CatGraph) -> MatrixEuler:
    return matrix_euler(similarity_matrix_cg(g))


def coproduct_cg(parts: Sequence[CatGraph]) -> CatGraph:
    objects = []
    hom = {}
    for i, part in enumerate(parts):
        tag = f"{i}:"
        objects += [tag + x for x in part.objects]
        for (x, y), cat in part.hom.items():
            hom[(tag + x, tag + y)] = cat
    return make_catgraph(objects, hom)


def product_cg(parts: Sequence[CatGraph]) -> CatGraph:
    if not parts:
        return make_catgraph(("*",), {("*", "*"): PT})
    result = parts[0]
    for other in parts[1:]:
        objects = [pair_label(x, y) for x in result.objects for y in other.objects]
        hom = {}
        for x1 in result.objects:
            for y1 in other.objects:
                for x2 in result.objects:
                    for y2 in other.objects:
                        hom[(pair_label(x1, y1), pair_label(x2, y2))] = product_cat(
                            result.hom_at(x1, x2), other.hom_at(y1, y2)
                        )
        result = make_catgraph(objects, hom)
    return result


def _hom_equivalent_to_point(hom: FinCategory) -> bool:
    if not hom.objects:
        return False
    to_point = validate_functor(
        hom,
        PT,
        {x: "*" for x in hom.objects},
        {m.name: "id*" for m in hom.morphisms},
    )
    return check_equivalence_functor(to_point)


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


def is_acyclic_bicat(b: Bicategory) -> bool:
    return not acyclic_bicat_witness(b)


def _toposort(g: CatGraph) -> list[str]:
    indeg = {x: 0 for x in g.objects}
    for x in g.objects:
        for y in g.objects:
            if x != y and g.onecells(x, y):
                indeg[y] += 1
    order = []
    ready = sorted(x for x in g.objects if indeg[x] == 0)
    while ready:
        x = ready.pop(0)
        order.append(x)
        for y in g.objects:
            if y != x and g.onecells(x, y):
                indeg[y] -= 1
                if indeg[y] == 0:
                    ready.append(y)
        ready.sort()
    if len(order) != len(g.objects):
        raise NotAcyclic("object reachability has a circuit")
    return order


def euler_acyclic_bicat(b: Bicategory) -> Fraction:
    """chi of an acyclic bicategory via the triangular similarity matrix."""
    if not is_acyclic_bicat(b):
        raise NotAcyclic("bicategory is not acyclic")
    order = _toposort(b.graph)
    zeta = similarity_matrix_cg(b.graph)
    reordered = QMatrix.build(order, order, zeta.at)
    n = len(order)
    for i in range(n):
        assert reordered.entries[i][i] == 1, "diagonal hom not chi 1"
        for j in range(i):
            assert reordered.entries[i][j] == 0, "zeta not triangular in topological order"
    inverse = invert(reordered)
    chi = entry_sum(inverse)
    graph_chi = euler_char_cg(b.graph).chi
    assert chi == graph_chi, "triangular chi disagrees with the weighting computation"
    return chi


def is_equivalence_1cell(b: Bicategory, x: str, y: str, f: str) -> bool:
    b.require_composition()
    for g in b.onecells(y, x):
        gf = b.c1(x, y, x, g, f)
        fg = b.c1(y, x, y, f, g)
        if b.hom_at(x, x).objects_isomorphic(gf, b.id1(x)) and b.hom_at(y, y).objects_isomorphic(fg, b.id1(y)):
            return True
    return False


class EquivalenceClasses(Record):
    classes: tuple[tuple[str, ...], ...]

    def class_of(self, x: str) -> tuple[str, ...]:
        for cls in self.classes:
            if x in cls:
                return cls
        raise KeyError(x)

    def size_of(self, x: str) -> int:
        return len(self.class_of(x))


def equivalence_classes(b: Bicategory) -> EquivalenceClasses:
    """Partition objects by 1-equivalence (exhaustive quasi-inverse search)."""
    b.require_composition()
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
                if related[(x, y)] and related[(y, z)]:
                    assert related[(x, z)], "equivalence relation not transitive"
    adj = {x: {y for y in objs if related[(x, y)]} for x in objs}
    return EquivalenceClasses(zigzag_components(objs, adj))


def pseudogroupoid_witness(b: Bicategory) -> dict[str, tuple[str, str, str]]:
    """{} for a pseudogroupoid, else the first 2-cell that is no isomorphism or 1-cell that is no equivalence."""
    b.require_composition()
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


def pseudogroupoid_check(b: Bicategory) -> bool:
    """Every 1-cell an equivalence and every 2-cell an isomorphism."""
    return not pseudogroupoid_witness(b)


def graph_components(g: CatGraph) -> tuple[tuple[str, ...], ...]:
    adj = {x: set() for x in g.objects}
    for x in g.objects:
        for y in g.objects:
            if g.onecells(x, y):
                adj[x].add(y)
                adj[y].add(x)
    return zigzag_components(g.objects, adj)


def pseudogroupoid_euler(b: Bicategory) -> Fraction:
    """Per connected component: 1/chi(hom(g,g)); summed, and checked against ζ."""
    if not pseudogroupoid_check(b):
        raise NotPseudogroupoid("some 1-cell is not an equivalence or some 2-cell not invertible")
    total = Fraction(0)
    for comp in graph_components(b.graph):
        base = comp[0]
        chi_end = euler_char_cat(b.hom_at(base, base)).chi
        if chi_end is None or chi_end == 0:
            raise NotPseudogroupoid(f"hom({base},{base}) has no usable Euler characteristic")
        total += 1 / chi_end
    graph_chi = euler_char_cg(b.graph).chi
    assert total == graph_chi, "pseudogroupoid chi disagrees with the weighting computation"
    return total


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
    lax = LaxFunctorBicat(source, target, {x: object_map[x] for x in source.objects}, dict(hom_functors), phi, psi)
    if psi is not None:
        target.require_composition()
        for x in source.objects:
            cell = psi.get(x)
            hom = target.hom_at(object_map[x], object_map[x])
            if cell is None or cell not in hom._by_name or hom.src(cell) != target.id1(object_map[x]):
                raise MissingCompositionData(f"psi at {x} has a bad frame")
            if source.identity1 is not None and hom.dst(cell) != lax.cell1(x, x, source.id1(x)):
                raise MissingCompositionData(f"psi at {x} has a bad frame")
    if phi is not None:
        source.require_composition()
        target.require_composition()
        for ((x, y, z), g, f), cell in phi.items():
            if f not in source.onecells(x, y) or g not in source.onecells(y, z):
                raise MissingCompositionData(f"phi at (({x},{y},{z}), {g}, {f}) names no composable source 1-cells")
            lx, ly, lz = object_map[x], object_map[y], object_map[z]
            hom = target.hom_at(lx, lz)
            src = target.c1(lx, ly, lz, lax.cell1(y, z, g), lax.cell1(x, y, f))
            dst = lax.cell1(x, z, source.c1(x, y, z, g, f))
            if cell not in hom._by_name or hom.src(cell) != src or hom.dst(cell) != dst:
                raise MissingCompositionData(f"phi at (({x},{y},{z}), {g}, {f}) has a bad frame")
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
    l.target.require_composition()
    classes = equivalence_classes(l.target)
    images = {l.ob(a) for a in l.source.objects}
    for b in l.target.objects:
        if images.isdisjoint(classes.class_of(b)):
            return {"unreached_object": (b,)}
    return {}


def check_biequivalence(l: LaxFunctorBicat) -> bool:
    """Local equivalence on every hom plus biessential surjectivity."""
    return not biequivalence_witness(l)


class BiequivalenceReport(Record):
    chi_source: Fraction
    chi_target: Fraction
    equal: bool
    transported_weighting: QVector
    transported_valid: bool


def verify_biequivalence_invariance(l: LaxFunctorBicat) -> BiequivalenceReport:
    """chi equality plus the transported-weighting identity from the invariance proof."""
    if not check_biequivalence(l):
        raise NotBiequivalence("lax functor is not a biequivalence")
    source_euler = euler_char_cg(l.source.graph)
    target_euler = euler_char_cg(l.target.graph)
    if source_euler.chi is None:
        raise MissingEulerCharacteristic("source bicategory has no Euler characteristic")
    if target_euler.chi is None:
        raise MissingEulerCharacteristic("target bicategory has no Euler characteristic")
    l.source.require_composition()
    source_classes = equivalence_classes(l.source)
    target_classes = equivalence_classes(l.target)
    lw = target_euler.weighting
    entries = []
    for a in l.source.objects:
        image_class = target_classes.class_of(l.ob(a))
        total = sum((lw[b] for b in image_class), Fraction(0))
        entries.append(total / source_classes.size_of(a))
    transported = QVector(l.source.objects, tuple(entries))
    zeta = similarity_matrix_cg(l.source.graph)
    valid = all(
        sum((zeta.at(a, b) * transported[b] for b in l.source.objects), Fraction(0)) == 1
        for a in l.source.objects
    )
    return BiequivalenceReport(
        source_euler.chi, target_euler.chi, source_euler.chi == target_euler.chi, transported, valid
    )


def restrict_catgraph(g: CatGraph, objects: Sequence[str]) -> CatGraph:
    keep = sorted(set(objects))
    return make_catgraph(keep, {(x, y): g.hom_at(x, y) for x in keep for y in keep})


def product_bicategory(a: Bicategory, b: Bicategory) -> Bicategory:
    """Componentwise product; strict data (compose1/hcompose2) stays strict."""
    a.require_composition()
    b.require_composition()
    identity1 = {
        pair_label(x, y): pair_label(a.id1(x), b.id1(y)) for x in a.objects for y in b.objects
    }
    compose1 = {}
    for ((xa, ya, za), ga, fa), ha in a.compose1.items():
        for ((xb, yb, zb), gb, fb), hb in b.compose1.items():
            key = (
                (pair_label(xa, xb), pair_label(ya, yb), pair_label(za, zb)),
                pair_label(ga, gb),
                pair_label(fa, fb),
            )
            compose1[key] = pair_label(ha, hb)
    hcompose2 = None
    if a.hcompose2 is not None and b.hcompose2 is not None:
        hcompose2 = {}
        for ((xa, ya, za), ba, aa), ra in a.hcompose2.items():
            for ((xb, yb, zb), bb, ab), rb in b.hcompose2.items():
                key = (
                    (pair_label(xa, xb), pair_label(ya, yb), pair_label(za, zb)),
                    pair_label(ba, bb),
                    pair_label(aa, ab),
                )
                hcompose2[key] = pair_label(ra, rb)
    return Bicategory(product_cg([a.graph, b.graph]), identity1, compose1, hcompose2)


def product_projection(a: Bicategory, b: Bicategory) -> LaxFunctorBicat:
    """The strict projection a x b -> a."""
    e = product_bicategory(a, b)
    object_map = {pair_label(x, y): x for x in a.objects for y in b.objects}
    hom_functors = {}
    for x1 in a.objects:
        for y1 in b.objects:
            for x2 in a.objects:
                for y2 in b.objects:
                    src = e.hom_at(pair_label(x1, y1), pair_label(x2, y2))
                    tgt = a.hom_at(x1, x2)
                    obj_map = {}
                    mor_map = {}
                    for fa in a.onecells(x1, x2):
                        for fb in b.onecells(y1, y2):
                            obj_map[pair_label(fa, fb)] = fa
                    for ma in a.hom_at(x1, x2).morphisms:
                        for mb in b.hom_at(y1, y2).morphisms:
                            mor_map[pair_label(ma.name, mb.name)] = ma.name
                    hom_functors[(pair_label(x1, y1), pair_label(x2, y2))] = validate_functor(
                        src, tgt, obj_map, mor_map
                    )
    return LaxFunctorBicat(e, a, object_map, hom_functors)


def disjoint_union_bicategory(a: Bicategory, b: Bicategory) -> Bicategory:
    """Coproduct with `0:`/`1:` object tags; homs across the summands are empty."""

    def tag_keyed(table, tag):
        out = {}
        for ((x, y, z), g, f), h in table.items():
            out[((tag + x, tag + y, tag + z), g, f)] = h
        return out

    identity1 = {f"0:{x}": a.id1(x) for x in a.objects}
    identity1.update({f"1:{x}": b.id1(x) for x in b.objects})
    compose1 = tag_keyed(a.compose1, "0:")
    compose1.update(tag_keyed(b.compose1, "1:"))
    hcompose2 = None
    if a.hcompose2 is not None and b.hcompose2 is not None:
        hcompose2 = tag_keyed(a.hcompose2, "0:")
        hcompose2.update(tag_keyed(b.hcompose2, "1:"))
    return Bicategory(coproduct_cg([a.graph, b.graph]), identity1, compose1, hcompose2)


def disjoint_union_lax_functor(p: LaxFunctorBicat, q: LaxFunctorBicat) -> LaxFunctorBicat:
    source = disjoint_union_bicategory(p.source, q.source)
    target = disjoint_union_bicategory(p.target, q.target)
    object_map = {f"0:{x}": f"0:{p.ob(x)}" for x in p.source.objects}
    object_map.update({f"1:{x}": f"1:{q.ob(x)}" for x in q.source.objects})
    hom_functors = {}
    for x in source.objects:
        for y in source.objects:
            src = source.hom_at(x, y)
            tgt = target.hom_at(object_map[x], object_map[y])
            if x.startswith("0:") and y.startswith("0:"):
                base = p.hom_functors[(x[2:], y[2:])]
                hom_functors[(x, y)] = Functor(src, tgt, dict(base.object_map), dict(base.morphism_map))
            elif x.startswith("1:") and y.startswith("1:"):
                base = q.hom_functors[(x[2:], y[2:])]
                hom_functors[(x, y)] = Functor(src, tgt, dict(base.object_map), dict(base.morphism_map))
            else:
                hom_functors[(x, y)] = Functor(src, tgt, {}, {})
    return LaxFunctorBicat(source, target, object_map, hom_functors)


def coop_lax_functor(p: LaxFunctorBicat) -> LaxFunctorBicat:
    """Formally reverse 1- and 2-cells on both sides of a lax functor."""
    source = op1_bicategory(op2_bicategory(p.source))
    target = op1_bicategory(op2_bicategory(p.target))
    hom_functors = {}
    for x in source.objects:
        for y in source.objects:
            orig = p.hom_functors[(y, x)]
            hom_functors[(x, y)] = Functor(
                source.hom_at(x, y),
                target.hom_at(p.ob(x), p.ob(y)),
                dict(orig.object_map),
                dict(orig.morphism_map),
            )
    return LaxFunctorBicat(source, target, dict(p.object_map), hom_functors)


def op1_bicategory(b: Bicategory) -> Bicategory:
    """Reverse 1-cells: hom'(x,y) = hom(y,x); 2-cells untouched."""
    graph = make_catgraph(b.objects, {(x, y): b.hom_at(y, x) for x in b.objects for y in b.objects})
    compose1 = None
    if b.compose1 is not None:
        compose1 = {((x, y, z), g, f): b.compose1[((z, y, x), f, g)] for ((z, y, x), f, g) in b.compose1}
    hcompose2 = None
    if b.hcompose2 is not None:
        hcompose2 = {((x, y, z), bb, aa): b.hcompose2[((z, y, x), aa, bb)] for ((z, y, x), aa, bb) in b.hcompose2}
    return Bicategory(graph, dict(b.identity1) if b.identity1 is not None else None, compose1, hcompose2)


def op2_bicategory(b: Bicategory) -> Bicategory:
    """Reverse 2-cells: every hom category is replaced by its opposite."""
    graph = make_catgraph(
        b.objects, {(x, y): b.hom_at(x, y).opposite() for x in b.objects for y in b.objects}
    )
    return Bicategory(
        graph,
        dict(b.identity1) if b.identity1 is not None else None,
        dict(b.compose1) if b.compose1 is not None else None,
        dict(b.hcompose2) if b.hcompose2 is not None else None,
    )
