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
TYPE_CHECKING = False  # typing is imported for annotations only, never at run time
if TYPE_CHECKING:
    from typing import Sequence

from .bicat import Bicategory, identity_lax_functor
from .bifib import Trihomomorphism, induced_trihomomorphism, validate_trihomomorphism
from .fib1 import LaxFunctorToCat, grothendieck_cat, validate_laxcat
from .fincat import PT, FinCategory, Functor, validate_category, validate_functor
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
        return PT
    rng = random.Random(f"acyclic:{seed}")
    objects = [str(i) for i in range(size)]
    edges = []
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < 0.45:
                edges.append((f"e{i}_{j}", str(i), str(j)))
    # paths from each object, composable left to right
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
    """Grothendieck projection of a generated groupoid-valued strict functor.

    Its objects (b, x) and morphisms (f, u, y) are written as the labels
    "(b,x)" and "(f,u,y)"; validating again rejects any two that coincide.
    """
    p = grothendieck_cat(gen_groupoid_valued_laxcat(seed, size)).projection
    e = p.source

    def label(t: tuple) -> str:
        return "(" + ",".join(t) + ")"

    total = validate_category(
        [label(x) for x in e.objects],
        [(label(m.name), label(m.src), label(m.dst)) for m in e.morphisms],
        {label(x): label(m) for x, m in e.identity.items()},
        {(label(g), label(f)): label(h) for (g, f), h in e.compose.items()},
    )
    return validate_functor(
        total,
        p.target,
        {label(x): b for x, b in p.object_map.items()},
        {label(m): f for m, f in p.morphism_map.items()},
    )


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
        base = rng.choice([fx.bpt, fx.arrow_bicat, fx.ez2_bicat, fx.bz2_twogroup])()
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
