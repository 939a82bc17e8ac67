"""Seeded inputs for the test suite, built from the library's validated constructors.

Products, coproducts and disjoint unions, inflations (objects duplicated
into equivalence classes, so the inclusion is an equivalence or a
biequivalence), random groupoids, fibrations, functors as strict
homomorphisms of locally discrete bicategories, group actions reduced
through quotients, and rational matrices with the properties the tests
need.  No command runs any of this; each builder is deterministic in its
arguments.  The named values and the seeded draws from them are in
catalog.py.
"""

import math
import random
from fractions import Fraction
from typing import Sequence

from bicat_euler import fixtures as fx
from bicat_euler.bicat import (
    Bicategory,
    CatGraph,
    LaxFunctorBicat,
    make_catgraph,
    validate_bicategory,
    validate_lax_functor,
)
from bicat_euler.exactq import QMatrix
from bicat_euler.fincat import (
    PT,
    FinCategory,
    Functor,
    Morphism,
    validate_category,
    validate_functor,
)
from bicat_euler.generators import _GROUP_HOMS, gen_pseudogroupoid


def pair_label(x: str, y: str) -> str:
    """The label of the pair (x, y) in a product; products of labels with commas may collide."""
    return f"({x},{y})"


def product_cat(a: FinCategory, b: FinCategory) -> FinCategory:
    objects = [pair_label(x, y) for x in a.objects for y in b.objects]
    morphisms = [
        Morphism(pair_label(m.name, n.name), pair_label(m.src, n.src), pair_label(m.dst, n.dst))
        for m in a.morphisms
        for n in b.morphisms
    ]
    identity = {
        pair_label(x, y): pair_label(a.identity[x], b.identity[y]) for x in a.objects for y in b.objects
    }
    compose = {}
    for (g1, f1), h1 in a.compose.items():
        for (g2, f2), h2 in b.compose.items():
            compose[(pair_label(g1, g2), pair_label(f1, f2))] = pair_label(h1, h2)
    return validate_category(objects, morphisms, identity, compose)



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



def product_bicategory(a: Bicategory, b: Bicategory) -> Bicategory:
    """Componentwise product; strict data (compose1/hcompose2) stays strict."""
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



def coproduct_cat(parts: Sequence[FinCategory]) -> FinCategory:
    """Disjoint union; summands are tagged `<i>:` to keep labels unique."""
    objects: list[str] = []
    morphisms: list[Morphism] = []
    identity: dict[str, str] = {}
    compose: dict[tuple[str, str], str] = {}
    for i, part in enumerate(parts):
        tag = f"{i}:"
        objects += [tag + x for x in part.objects]
        morphisms += [Morphism(tag + m.name, tag + m.src, tag + m.dst) for m in part.morphisms]
        identity.update({tag + x: tag + m for x, m in part.identity.items()})
        compose.update({(tag + g, tag + f): tag + h for (g, f), h in part.compose.items()})
    return validate_category(objects, morphisms, identity, compose)


def coproduct_cg(parts: Sequence[CatGraph]) -> CatGraph:
    objects = []
    hom = {}
    for i, part in enumerate(parts):
        tag = f"{i}:"
        objects += [tag + x for x in part.objects]
        for (x, y), cat in part.hom.items():
            hom[(tag + x, tag + y)] = cat
    return make_catgraph(objects, hom)


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


def gen_groupoid(seed: int, size: int) -> FinCategory:
    """Disjoint union of indiscrete groupoids (every morphism invertible)."""
    rng = random.Random(f"groupoid:{seed}")
    components = rng.randint(1, max(1, size))
    parts = []
    for c in range(components):
        width = rng.randint(1, 3)
        parts.append(fx.indiscrete_category([f"{c}o{i}" for i in range(width)]))
    return coproduct_cat(parts) if len(parts) > 1 else parts[0]


def action_groupoid_total(elts_g, mult_g, elts_h, mult_h, rho) -> Bicategory:
    """One-object bicategory with 1-cells H and 2-cells u => v the alpha with u = rho(alpha)v.

    Needs both groups abelian (horizontal composition is the componentwise
    product, and interchange requires commutativity).
    """

    def mname(a, v):
        return f"{a}.{v}"

    morphs = []
    compose = {}
    for a in elts_g:
        for v in elts_h:
            morphs.append((mname(a, v), mult_h[(rho[a], v)], v))
    for a1 in elts_g:
        for v1 in elts_h:
            for a2 in elts_g:
                for w in elts_h:
                    if mult_h[(rho[a2], w)] != v1:
                        continue
                    compose[(mname(a2, w), mname(a1, v1))] = mname(mult_g[(a1, a2)], w)
    hom = validate_category(list(elts_h), morphs, {u: mname(elts_g[0], u) for u in elts_h}, compose)
    compose1 = {(("*", "*", "*"), h2, h1): mult_h[(h2, h1)] for h2 in elts_h for h1 in elts_h}
    hcompose2 = {}
    for a2 in elts_g:
        for v2 in elts_h:
            for a1 in elts_g:
                for v1 in elts_h:
                    hcompose2[(("*", "*", "*"), mname(a2, v2), mname(a1, v1))] = mname(
                        mult_g[(a2, a1)], mult_h[(v2, v1)]
                    )
    return validate_bicategory(["*"], {("*", "*"): hom}, {"*": elts_h[0]}, compose1, hcompose2)


def gen_fib_pseudogroupoids_laxfunctor(seed: int, size: int) -> LaxFunctorBicat:
    """Lax functors fibered+cofibered in pseudogroupoids, four construction families."""
    family = seed % 4
    rng = random.Random(f"fibps:{seed}")
    if family == 0:
        base = rng.choice([fx.bpt, fx.arrow_bicat, fx.ez2_bicat])()
        return product_projection(base, gen_pseudogroupoid(seed, max(1, min(size, 2))))
    if family == 1:
        return fx.collapse_to_point(gen_pseudogroupoid(seed, max(1, min(size, 3))))
    if family == 2:
        n = rng.choice([2, 3])
        total = rng.choice([2]) * n
        elts_g, mult_g, unit_g = fx.cyclic_group(total)
        elts_q, mult_q, unit_q = fx.cyclic_group(n)
        e = fx.suspension_two_group([str(i) for i in range(max(1, min(size, 2)))], elts_g, mult_g, unit_g)
        b = fx.suspension_two_group(["*"], elts_q, mult_q, unit_q)
        pi = {f"g{k}": f"g{k % n}" for k in range(total)}
        hom_functors = {}
        for x in e.objects:
            for y in e.objects:
                hom_functors[(x, y)] = validate_functor(
                    e.hom_at(x, y),
                    b.hom_at("*", "*"),
                    {f"m{x}{y}": "m**"},
                    {g: pi[g] for g in elts_g},
                )
        return validate_lax_functor(e, b, {x: "*" for x in e.objects}, hom_functors)
    if family == 3 and size >= 2:
        left = gen_fib_pseudogroupoids_laxfunctor(seed + 1, size - 1)
        right = gen_fib_pseudogroupoids_laxfunctor(seed + 2, size - 1)
        return disjoint_union_lax_functor(left, right)
    n, m, t = _GROUP_HOMS[rng.randrange(len(_GROUP_HOMS))]
    elts_g, mult_g, unit_g = fx.cyclic_group(n)
    elts_h, mult_h, unit_h = fx.cyclic_group(m)
    rho = {f"g{k}": f"g{(k * t) % m}" for k in range(n)}
    e = action_groupoid_total(elts_g, mult_g, elts_h, mult_h, rho)
    b = fx.suspension_two_group(["*"], elts_g, mult_g, unit_g)
    hom_functors = {
        ("*", "*"): validate_functor(
            e.hom_at("*", "*"),
            b.hom_at("*", "*"),
            {u: "m**" for u in elts_h},
            {f"{a}.{v}": a for a in elts_g for v in elts_h},
        )
    }
    return validate_lax_functor(e, b, {"*": "*"}, hom_functors)


def locally_discrete(p: Functor) -> LaxFunctorBicat:
    """p as a strict homomorphism of locally discrete bicategories: each hom discrete, hcompose2 identities only."""
    e, b = fx._locally_discrete(p.source), fx._locally_discrete(p.target)
    hom_functors = {}
    for x in e.objects:
        for y in e.objects:
            src, tgt = e.hom_at(x, y), b.hom_at(p.ob(x), p.ob(y))
            hom_functors[(x, y)] = validate_functor(
                src,
                tgt,
                {f: p.mor(f) for f in src.objects},
                {src.identity[f]: tgt.identity[p.mor(f)] for f in src.objects},
            )
    return validate_lax_functor(e, b, p.object_map, hom_functors)


def _action_category(objects: Sequence[str], n: int, m: int, d: int) -> FinCategory:
    """Z/n = {s_k} on x and Z/m = {t_i} on y acting on d arrows a_j: x -> y by t_i∘a_j∘s_k = a_(i+j+k mod d).

    d divides n and m; there is no arrow y -> x.
    """
    x, y = objects
    s, t, a = ([f"{c}{k}" for k in range(order)] for c, order in (("s", n), ("t", m), ("a", d)))
    compose = {(s[i], s[k]): s[(i + k) % n] for i in range(n) for k in range(n)}
    compose.update({(t[i], t[k]): t[(i + k) % m] for i in range(m) for k in range(m)})
    compose.update({(a[j], s[k]): a[(j + k) % d] for j in range(d) for k in range(n)})
    compose.update({(t[i], a[j]): a[(i + j) % d] for i in range(m) for j in range(d)})
    morphisms = [(u, x, x) for u in s] + [(u, y, y) for u in t] + [(u, x, y) for u in a]
    return validate_category([x, y], morphisms, {x: s[0], y: t[0]}, compose)


def quotient_action_functor(orders: Sequence[int], base_orders: Sequence[int]) -> Functor:
    """The action of orders (n, m, d) on objects x, y reduced onto base_orders on objects 0, 1, index by index.

    Each base order divides its total order.  For n' = m' = d' = 1 the base is
    the arrow 0 -> 1; then a_0 is cartesian only when s_k ↦ a_k mod d is one
    to one, that is when d = n, since otherwise a_0∘s_d = a_0 is a second
    lift of a_0.
    """
    e, b = _action_category(("x", "y"), *orders), _action_category(("0", "1"), *base_orders)
    mor = {
        f"{c}{k}": f"{c}{k % base}" for c, order, base in zip("sta", orders, base_orders) for k in range(order)
    }
    return validate_functor(e, b, {"x": "0", "y": "1"}, mor)


def gen_quotient_action_functor(seed: int) -> Functor:
    """A seeded `quotient_action_functor`: some draws are fibrations, others have non-unique lifts, on either side."""
    rng = random.Random(f"quotient:{seed}")
    d_base = rng.choice((1, 2))
    d = d_base * rng.choice((1, 2, 3))
    n_base, m_base = (d_base * rng.choice((1, 2)) for _ in range(2))
    n, m = (math.lcm(base, d) * rng.choice((1, 2)) for base in (n_base, m_base))
    return quotient_action_functor((n, m, d), (n_base, m_base, d_base))


def inflate_category(cat: FinCategory, multiplicities: Sequence[int]) -> tuple[FinCategory, Functor]:
    """Duplicate each object into an isomorphism class; inclusion is an equivalence."""
    mult = {x: max(1, m) for x, m in zip(cat.objects, multiplicities)}

    def olabel(x, i):
        return f"{x}.{i}"

    objects = [olabel(x, i) for x in cat.objects for i in range(mult[x])]
    morphisms = []
    identity = {}
    compose = {}

    def mlabel(m, i, j):
        return f"{m}.{i}.{j}"

    for m in cat.morphisms:
        for i in range(mult[m.src]):
            for j in range(mult[m.dst]):
                morphisms.append(Morphism(mlabel(m.name, i, j), olabel(m.src, i), olabel(m.dst, j)))
    for x in cat.objects:
        for i in range(mult[x]):
            identity[olabel(x, i)] = mlabel(cat.identity[x], i, i)
    for (g, f), h in cat.compose.items():
        gm, fm = cat.morphism(g), cat.morphism(f)
        for i in range(mult[fm.src]):
            for j in range(mult[fm.dst]):
                for k in range(mult[gm.dst]):
                    compose[(mlabel(g, j, k), mlabel(f, i, j))] = mlabel(h, i, k)
    inflated = validate_category(objects, morphisms, identity, compose)
    inclusion = validate_functor(
        cat,
        inflated,
        {x: olabel(x, 0) for x in cat.objects},
        {m.name: mlabel(m.name, 0, 0) for m in cat.morphisms},
    )
    return inflated, inclusion


def inflate_bicategory(b: Bicategory, multiplicities: Sequence[int]) -> tuple[Bicategory, LaxFunctorBicat]:
    """Duplicate objects into 1-equivalence classes; inclusion is a biequivalence."""
    mult = {x: max(1, m) for x, m in zip(b.objects, multiplicities)}

    def olabel(x, i):
        return f"{x}.{i}"

    objects = [olabel(x, i) for x in b.objects for i in range(mult[x])]
    hom = {}
    identity1 = {}
    compose1 = {}
    hcompose2 = {} if b.hcompose2 is not None else None
    for x in b.objects:
        for i in range(mult[x]):
            identity1[olabel(x, i)] = b.id1(x)
            for y in b.objects:
                for j in range(mult[y]):
                    hom[(olabel(x, i), olabel(y, j))] = b.hom_at(x, y)
    for ((x, y, z), g, f), h in b.compose1.items():
        for i in range(mult[x]):
            for j in range(mult[y]):
                for k in range(mult[z]):
                    compose1[((olabel(x, i), olabel(y, j), olabel(z, k)), g, f)] = h
    if hcompose2 is not None:
        for ((x, y, z), beta, alpha), res in b.hcompose2.items():
            for i in range(mult[x]):
                for j in range(mult[y]):
                    for k in range(mult[z]):
                        hcompose2[((olabel(x, i), olabel(y, j), olabel(z, k)), beta, alpha)] = res
    inflated = validate_bicategory(objects, hom, identity1, compose1, hcompose2)
    hom_functors = {}
    for x in b.objects:
        for y in b.objects:
            src = b.hom_at(x, y)
            hom_functors[(x, y)] = validate_functor(
                src,
                inflated.hom_at(olabel(x, 0), olabel(y, 0)),
                {f: f for f in src.objects},
                {m.name: m.name for m in src.morphisms},
            )
    inclusion = validate_lax_functor(b, inflated, {x: olabel(x, 0) for x in b.objects}, hom_functors)
    return inflated, inclusion


def catgraph_of_category(cat: FinCategory) -> CatGraph:
    """Trivial-2-cell cat-graph: hom(x,y) is the discrete category on hom-set names."""
    hom = {}
    for x in cat.objects:
        for y in cat.objects:
            cells = cat.hom(x, y)
            if cells:
                hom[(x, y)] = fx.discrete_category(cells)
    return make_catgraph(cat.objects, hom)


def random_rational_matrix(seed: int, max_size: int = 5) -> QMatrix:
    """Seeded square matrix over small rationals; singular cases arise on purpose.

    A slice of the stream is symmetric rank-deficient (all-ones style), so
    underdetermined systems with both a weighting and a coweighting occur.
    """
    rng = random.Random(f"matrix:{seed}")
    n = rng.randint(1, max_size)
    labels = tuple(str(i) for i in range(n))
    roll = rng.random()
    if n >= 2 and roll < 0.12:
        rows = [[Fraction(1)] * n for _ in range(n)]
        return QMatrix(labels, labels, tuple(tuple(r) for r in rows))
    if n >= 2 and roll < 0.2:
        # duplicate both a row and the matching column of a random symmetric matrix
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        for j in range(n):
            rows[-1][j] = rows[0][j]
        for i in range(n):
            rows[i][-1] = rows[i][0]
        return QMatrix(labels, labels, tuple(tuple(r) for r in rows))
    rows = [
        [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n)]
        for _ in range(n)
    ]
    if n >= 2 and rng.random() < 0.3:
        rows[-1] = list(rows[0])  # force rank deficiency
    if n >= 2 and rng.random() < 0.15:
        rows[0] = [Fraction(0)] * n
    return QMatrix(labels, labels, tuple(tuple(r) for r in rows))
