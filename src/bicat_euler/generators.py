"""Seeded instance generators.

Every generator is deterministic in (seed, size) and produces instances
that satisfy their defining predicate by construction: path categories of
DAGs are acyclic, Grothendieck projections of groupoid-valued strict
functors are fibered in groupoids, suspensions of abelian groups are
pseudogroupoids, and so on.  The CLI re-asserts the predicates before
writing anything.
"""

from __future__ import annotations

import random
from fractions import Fraction
TYPE_CHECKING = False  # typing is imported for annotations only, never at run time
if TYPE_CHECKING:
    from typing import Sequence

from .bicat import (
    Bicategory,
    CatGraph,
    LaxFunctorBicat,
    disjoint_union_lax_functor,
    identity_lax_functor,
    make_catgraph,
    product_projection,
    validate_bicategory,
    validate_lax_functor,
)
from .bifib import Trihomomorphism, induced_trihomomorphism, validate_trihomomorphism
from .exactq import QMatrix
from .fib1 import LaxFunctorToCat, grothendieck_cat, validate_laxcat
from .fincat import (
    FinCategory,
    Functor,
    Morphism,
    coproduct_cat,
    product_cat,
    validate_category,
    validate_functor,
)
from . import fixtures as fx


def _compose_functors(outer: Functor, inner: Functor) -> Functor:
    return validate_functor(
        inner.source,
        outer.target,
        {x: outer.ob(inner.ob(x)) for x in inner.source.objects},
        {m.name: outer.mor(inner.mor(m.name)) for m in inner.source.morphisms},
    )


def gen_acyclic_category(seed: int, size: int) -> FinCategory:
    """Path category of a random DAG on `size` objects; size 1 is PT exactly."""
    if size <= 1:
        return fx.PT
    rng = random.Random(f"acyclic:{seed}")
    objects = [str(i) for i in range(size)]
    edges = []
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < 0.45:
                edges.append((f"e{i}_{j}", str(i), str(j)))
    # paths from each object, composable left to right
    paths = {(): None}
    all_paths: list[tuple[tuple[str, ...], str, str]] = []
    by_src = {}
    for name, src, dst in edges:
        by_src.setdefault(src, []).append((name, src, dst))

    def extend(prefix, at, start):
        for name, src, dst in by_src.get(at, []):
            path = prefix + (name,)
            all_paths.append((path, start, dst))
            extend(path, dst, start)

    for x in objects:
        extend((), x, x)
    if len(all_paths) > 40:
        # too many composites for desk scale; thin the DAG and retry
        return gen_acyclic_category(seed + 1000, size)
    morphisms = [(f"id{x}", x, x) for x in objects]
    path_name = {path: "+".join(path) for path, _, _ in all_paths}
    for path, src, dst in all_paths:
        morphisms.append((path_name[path], src, dst))
    identity = {x: f"id{x}" for x in objects}
    compose = {}
    for path, src, dst in all_paths:
        compose[(path_name[path], f"id{src}")] = path_name[path]
        compose[(f"id{dst}", path_name[path])] = path_name[path]
    for x in objects:
        compose[(f"id{x}", f"id{x}")] = f"id{x}"
    for p1, s1, d1 in all_paths:
        for p2, s2, d2 in all_paths:
            if s2 == d1:
                compose[(path_name[p2], path_name[p1])] = path_name[p1 + p2]
    return validate_category(objects, morphisms, identity, compose)


def gen_groupoid(seed: int, size: int) -> FinCategory:
    """Disjoint union of indiscrete groupoids (every morphism invertible)."""
    rng = random.Random(f"groupoid:{seed}")
    components = rng.randint(1, max(1, size))
    parts = []
    for c in range(components):
        width = rng.randint(1, 3)
        parts.append(fx.indiscrete_category([f"{c}o{i}" for i in range(width)]))
    return coproduct_cat(parts) if len(parts) > 1 else parts[0]


def _groupoid_union(widths: Sequence[int]) -> tuple[FinCategory, dict[str, int]]:
    """Disjoint union of indiscrete groupoids, with the component of each object."""
    objects = [f"c{k}n{i}" for k, w in enumerate(widths) for i in range(w)]
    comp = {o: int(o[1 : o.index("n")]) for o in objects}

    def name(x, y):
        return f"id{x}" if x == y else f"{x}>{y}"

    morphisms = [(name(x, y), x, y) for x in objects for y in objects if comp[x] == comp[y]]
    compose = {}
    for x in objects:
        for y in objects:
            if comp[x] != comp[y]:
                continue
            for z in objects:
                if comp[y] == comp[z]:
                    compose[(name(y, z), name(x, y))] = name(x, z)
    cat = validate_category(objects, morphisms, {x: f"id{x}" for x in objects}, compose)
    return cat, comp


def gen_groupoid_valued_laxcat(seed: int, size: int) -> LaxFunctorToCat:
    """Strict groupoid-valued functor whose pullbacks are equivalences.

    Family alternates between a DAG-path base with indiscrete-union fibers
    (component-bijective edge functors) and a one-object group base acting
    on a discrete fiber by permutations.
    """
    rng = random.Random(f"laxcat:{seed}")
    if seed % 2 == 0:
        base = gen_acyclic_category(seed, max(2, min(size, 3)))
        components = rng.randint(1, 2)
        widths = [rng.randint(1, 2) for _ in range(components)]
        fiber, comp_of = _groupoid_union(widths)
        fibers = {b: fiber for b in base.objects}
        by_comp = {k: [o for o in fiber.objects if comp_of[o] == k] for k in range(components)}
        edge_functor = {}
        for m in base.morphisms:
            if base.is_identity(m.name) or "+" in m.name:
                continue
            perm = list(range(components))
            rng.shuffle(perm)
            object_map = {}
            for o in fiber.objects:
                targets = by_comp[perm[comp_of[o]]]
                object_map[o] = targets[rng.randrange(len(targets))]
            morphism_map = {}
            for mm in fiber.morphisms:
                morphism_map[mm.name] = fiber.hom(object_map[mm.src], object_map[mm.dst])[0]
            edge_functor[m.name] = validate_functor(fiber, fiber, object_map, morphism_map)
        pullbacks = {}
        for m in base.morphisms:
            if base.is_identity(m.name):
                pullbacks[m.name] = fx.identity_functor(fiber)
            else:
                fun = None
                for part in m.name.split("+")[::-1]:
                    fun = edge_functor[part] if fun is None else _compose_functors(edge_functor[part], fun)
                pullbacks[m.name] = fun
        return validate_laxcat(LaxFunctorToCat(base, fibers, pullbacks))
    from math import gcd

    order = rng.choice([2, 3, 4])
    elements, mult, unit = fx.cyclic_group(order)
    base = fx.group_category("*", elements, mult, unit)
    width = rng.randint(1, max(2, min(size, 4)))
    fiber = fx.discrete_category([f"s{i}" for i in range(width)])
    g = gcd(order, width)
    shift = (width // g) * rng.randrange(g)  # guarantees shift·order ≡ 0 mod width

    pullbacks = {}
    for k, elt in enumerate(elements):
        pullbacks[elt] = validate_functor(
            fiber,
            fiber,
            {f"s{i}": f"s{(i + k * shift) % width}" for i in range(width)},
            {f"ids{i}": f"ids{(i + k * shift) % width}" for i in range(width)},
        )
    return validate_laxcat(LaxFunctorToCat(base, {"*": fiber}, pullbacks))


def gen_fib_groupoids_functor(seed: int, size: int) -> Functor:
    """Grothendieck projection of a generated groupoid-valued strict functor."""
    return grothendieck_cat(gen_groupoid_valued_laxcat(seed, size)).projection


def _abelian_group(rng: random.Random):
    kind = rng.choice(["z1", "z2", "z3", "z4", "klein"])
    if kind == "klein":
        return fx.klein_group()
    return fx.cyclic_group(int(kind[1:]))


def gen_pseudogroupoid(seed: int, size: int) -> Bicategory:
    """Connected pseudogroupoid: suspension of a seeded abelian group."""
    rng = random.Random(f"psgrpd:{seed}")
    elements, mult, unit = _abelian_group(rng)
    objects = [str(i) for i in range(max(1, size))]
    return fx.suspension_two_group(objects, elements, mult, unit)


_GROUP_HOMS = [
    (2, 2, 1),
    (2, 2, 0),
    (4, 2, 1),
    (2, 4, 2),
    (3, 3, 1),
    (3, 3, 2),
    (4, 4, 1),
]


def gen_trihom(seed: int, size: int) -> Trihomomorphism:
    """Pseudogroupoid-valued trihomomorphisms: constant, 2-group, collapse families."""
    family = seed % 3
    rng = random.Random(f"trihom:{seed}")
    if family == 0:
        base = rng.choice([fx.BPT, fx.ARROW_BICAT, fx.EZ2_BICAT, fx.BZ2_TWOGROUP])
        fiber = gen_pseudogroupoid(seed, max(1, min(size, 2)))
        return fx.constant_trihomomorphism(base, fiber)
    if family == 1:
        n, m, t = _GROUP_HOMS[rng.randrange(len(_GROUP_HOMS))]
        elts_g, mult_g, unit_g = fx.cyclic_group(n)
        elts_h, mult_h, unit_h = fx.cyclic_group(m)
        base = fx.suspension_two_group(["*"], elts_g, unit=unit_g, mult=mult_g)
        fiber = fx.discrete_suspension(elts_h, mult_h, unit_h)
        rho = {f"g{k}": f"g{(k * t) % m}" for k in range(n)}
        pullback1 = {("*", "*", "m**"): identity_lax_functor(fiber)}
        pullback2 = {("*", "*", a): {"*": rho[a]} for a in elts_g}
        return validate_trihomomorphism(
            Trihomomorphism(base, {"*": fiber}, pullback1, pullback2)
        )
    p = fx.collapse_to_point(gen_pseudogroupoid(seed, max(1, min(size, 2))))
    return induced_trihomomorphism(p)


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
        base = rng.choice([fx.BPT, fx.ARROW_BICAT, fx.EZ2_BICAT])
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


def gen_equivalence(seed: int, size: int) -> Functor:
    """An equivalence functor: inclusion of a category into its inflation."""
    rng = random.Random(f"equiv:{seed}")
    base = gen_category_with_chi(seed, size)
    _, inclusion = inflate_category(base, [rng.randint(1, 3) for _ in base.objects])
    return inclusion


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


def gen_biequivalence(seed: int, size: int) -> LaxFunctorBicat:
    rng = random.Random(f"biequiv:{seed}")
    base = rng.choice(
        [fx.PSG, fx.BPT, fx.EZ2_BICAT, fx.ARROW_BICAT, fx.BZ2_TWOGROUP, gen_pseudogroupoid(seed, 2)]
    )
    _, inclusion = inflate_bicategory(base, [rng.randint(1, 3) for _ in base.objects])
    return inclusion


_FIXTURE_CATS = None


def gen_category_with_chi(seed: int, size: int) -> FinCategory:
    """Random category guaranteed to have an Euler characteristic."""
    global _FIXTURE_CATS
    if _FIXTURE_CATS is None:
        _FIXTURE_CATS = [fx.PT, fx.D2, fx.ARROW, fx.PAIR, fx.SPAN, fx.BZ2, fx.EZ2]
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


def catgraph_of_category(cat: FinCategory) -> CatGraph:
    """Trivial-2-cell cat-graph: hom(x,y) is the discrete category on hom-set names."""
    hom = {}
    for x in cat.objects:
        for y in cat.objects:
            cells = cat.hom(x, y)
            if cells:
                hom[(x, y)] = fx.discrete_category(cells)
    return make_catgraph(cat.objects, hom)


def gen_catgraph_with_chi(seed: int, size: int) -> CatGraph:
    rng = random.Random(f"cg:{seed}")
    roll = rng.random()
    if roll < 0.4:
        return gen_pseudogroupoid(seed, rng.randint(1, max(1, min(size, 3)))).graph
    if roll < 0.8:
        return catgraph_of_category(gen_category_with_chi(seed, size))
    return rng.choice([fx.PSG.graph, fx.ACYCLIC2.graph, fx.BPT.graph, fx.EZ2_BICAT.graph])


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
