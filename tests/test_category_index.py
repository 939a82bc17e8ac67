"""The indexed category layer against the scans it replaced.

`FinCategory.hom` must return what a scan of every morphism returns, in the
same order, and `inverse_of`, `isos` and `objects_isomorphic` what an
exhaustive inverse search gives, `isos` in name order.  `validate_category`
must accept what the exhaustive law loops accept, and report the same
violations in the same order on seeded mutants of composition tables; its
full triple scan runs only when the generator check fails or an identity
law does.  `is_cartesian_morphism` and `classify_fibration` must agree
with the lift-by-lift search on seeded functors that include
non-cartesian morphisms and groupoid projections, whose isomorphisms skip
the count.
"""

import random

import pytest

import builders
import catalog
import category_oracle as oracle
from bicat_euler import catdsl, fib1, fincat
from bicat_euler import fixtures as fx
from bicat_euler import generators as gen
from bicat_euler.exactq import Record
from bicat_euler.fib1 import classify_fibration, is_cartesian_morphism, reverse_functor
from bicat_euler.fincat import (
    FinCategory,
    InvalidCategory,
    validate_category,
    validate_functor,
)
from builders import pair_label, product_cat
from conftest import FIXTURE_DIR



def _group(n):
    return fx.group_category("*", *fx.cyclic_group(n))


# Two parallel arrows t1, t2: z -> x with f∘t1 = f∘t2 = g: z -> y.  Over
# ARROW, g has two lifts through f, so f is not cartesian at z.
FORK = validate_category(
    ["x", "y", "z"],
    [("idx", "x", "x"), ("idy", "y", "y"), ("idz", "z", "z"), ("t1", "z", "x"), ("t2", "z", "x"),
     ("f", "x", "y"), ("g", "z", "y")],
    {"x": "idx", "y": "idy", "z": "idz"},
    {("idx", "idx"): "idx", ("idy", "idy"): "idy", ("idz", "idz"): "idz", ("t1", "idz"): "t1",
     ("t2", "idz"): "t2", ("idx", "t1"): "t1", ("idx", "t2"): "t2", ("f", "idx"): "f", ("idy", "f"): "f",
     ("g", "idz"): "g", ("idy", "g"): "g", ("f", "t1"): "g", ("f", "t2"): "g"},
)
FORK_TO_ARROW = validate_functor(
    FORK, catalog.ARROW, {"x": "0", "y": "1", "z": "0"},
    {"idx": "id0", "idy": "id1", "idz": "id0", "t1": "id0", "t2": "id0", "f": "a", "g": "a"},
)
# FORK without t2, included in FORK: g lies over f∘t1 and f∘t2 but lifts only
# through t1, so f is not cartesian at z.
CHAIN_INTO_FORK = validate_functor(
    validate_category(
        FORK.objects,
        [m for m in FORK.morphisms if m.name != "t2"],
        FORK.identity,
        {k: v for k, v in FORK.compose.items() if "t2" not in k},
    ),
    FORK,
    {x: x for x in FORK.objects},
    {m.name: m.name for m in FORK.morphisms if m.name != "t2"},
)
# FORK with a second g2: z -> y over a that nothing composes to.  Over z there are two pairs (id0, g) and
# (id0, g2), as many as the lifts t1, t2, but both lifts hit (id0, g): counting alone would take f as cartesian.
FORK_G2 = validate_category(
    FORK.objects,
    FORK.morphisms + (("g2", "z", "y"),),
    FORK.identity,
    {**FORK.compose, ("g2", "idz"): "g2", ("idy", "g2"): "g2"},
)
FORK_G2_TO_ARROW = validate_functor(
    FORK_G2, catalog.ARROW, FORK_TO_ARROW.object_map, {**FORK_TO_ARROW.morphism_map, "g2": "a"}
)
SMALL = {
    "PT": catalog.PT, "D2": catalog.D2, "ARROW": catalog.ARROW, "PAIR": catalog.PAIR, "SPAN": catalog.SPAN,
    "BZ2": catalog.BZ2, "EZ2": catalog.EZ2, "Z3": _group(3), "V4": fx.group_category("*", *fx.klein_group()),
    "E3": fx.indiscrete_category(["a", "b", "c"]), "FORK": FORK,
}
E2 = fx.indiscrete_category(["a", "b"])
# Groupoids shaped like the big-category benchmark inputs: every morphism is an isomorphism, and greedy
# generator choice picks several generators per product.
GROUPOID_PRODUCTS = [
    product_cat(_group(3), E2), product_cat(E2, _group(4)), product_cat(SMALL["E3"], catalog.BZ2),
    product_cat(E2, SMALL["E3"]),
]


def _categories() -> list[FinCategory]:
    cats = list(SMALL.values())
    cats += [product_cat(catalog.ARROW, catalog.BZ2), product_cat(catalog.SPAN, catalog.EZ2)]
    cats += [product_cat(_group(3), catalog.PAIR)]
    for seed in range(4):
        cats += [
            gen.gen_acyclic_category(seed, 5),
            builders.gen_groupoid(seed, 3),
            catalog.gen_category_with_chi(seed, 3),
            builders.inflate_category(catalog.gen_category_with_chi(seed, 2), [2, 1, 3])[0],
        ]
        bicat = gen.gen_pseudogroupoid(seed, 2)
        cats += [bicat.hom_at(x, y) for x in bicat.objects for y in bicat.objects]
    return cats + [c.opposite() for c in cats]


def test_hom_matches_scan():
    for cat in _categories():
        for x in cat.objects:
            for y in cat.objects:
                assert cat.hom(x, y) == oracle.hom(cat, x, y)
        assert cat.hom("no such object", cat.objects[0] if cat.objects else "") == ()


def _categories_in(value, found: dict) -> dict:
    """Every FinCategory reachable from value through record fields, dicts, tuples and lists, by id."""
    if isinstance(value, FinCategory):
        found[id(value)] = value
    elif isinstance(value, Record):
        for name in value._fields:
            _categories_in(getattr(value, name), found)
    elif isinstance(value, dict):
        for item in value.values():
            _categories_in(item, found)
    elif isinstance(value, (tuple, list)):
        for item in value:
            _categories_in(item, found)
    return found


def _iso_index_categories() -> list[FinCategory]:
    """Every catalog and fixture category, hom categories included, their opposites, and three more.

    The last is built directly with its morphisms in reverse name order, so hom order is not name order.
    """
    found: dict = {}
    for value in vars(catalog).values():
        _categories_in(value, found)
    for path in sorted(FIXTURE_DIR.glob("*.catj")):
        _categories_in(catdsl.parse(path.read_text(encoding="utf-8")).document.value, found)
    cats = list(found.values())
    reversed_names = product_cat(catalog.BZ2, E2)
    reversed_names = FinCategory(
        reversed_names.objects,
        tuple(reversed(reversed_names.morphisms)),
        reversed_names.identity,
        reversed_names.compose,
    )
    return cats + [c.opposite() for c in cats] + [fincat.EMPTY_CATEGORY, fincat.PT, reversed_names]


def test_iso_index_matches_exhaustive_search():
    cats = _iso_index_categories()
    for cat in cats:
        for m in cat.morphisms:
            assert cat.inverse_of(m.name) == oracle.inverse_of(cat, m.name)
        for x in cat.objects:
            for y in cat.objects:
                assert cat.isos(x, y) == oracle.isos(cat, x, y)
                assert cat.objects_isomorphic(x, y) == oracle.objects_isomorphic(cat, x, y)
    scrambled = cats[-1]
    assert any(
        scrambled.isos(x, y) == tuple(reversed(scrambled.hom(x, y))) != scrambled.hom(x, y)
        for x in scrambled.objects
        for y in scrambled.objects
    )


def _mutant(rng: random.Random, cat: FinCategory):
    """Raw composition data of cat, shuffled, with one to three seeded defects."""
    objects = list(cat.objects)
    morphisms = [(m.name, m.src, m.dst) for m in cat.morphisms]
    rng.shuffle(morphisms)
    identity = dict(cat.identity)
    entries = list(cat.compose.items())
    rng.shuffle(entries)
    compose = dict(entries)
    names = [m[0] for m in morphisms]
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(5)
        key = rng.choice(list(compose)) if compose else None
        if kind == 0 and key is not None:  # dropped entry
            del compose[key]
        elif kind == 1 and key is not None:  # redirected within the right hom-set
            g, f = key
            compose[key] = rng.choice(cat.hom(cat.src(f), cat.dst(g)))
        elif kind == 2 and key is not None:  # redirected anywhere
            compose[key] = rng.choice(names)
        elif kind == 3:  # identity swapped for another endomorphism
            x = rng.choice(objects)
            identity[x] = rng.choice(cat.hom(x, x))
        else:  # identity pointed at any morphism
            identity[rng.choice(objects)] = rng.choice(names)
    return objects, morphisms, identity, compose


def _outcome(validate, data):
    try:
        cat = validate(*data)
    except InvalidCategory as exc:
        return "invalid", exc.violations
    return "valid", (cat.objects, cat.morphisms, dict(cat.identity), dict(cat.compose))


def test_validator_matches_exhaustive_loops_on_mutants():
    rng = random.Random(4)
    cats = list(SMALL.values()) + [_group(4), product_cat(catalog.ARROW, catalog.BZ2)]
    cats += [product_cat(catalog.EZ2, _group(3))]
    cats += [product_cat(SMALL["E3"], catalog.BZ2), product_cat(SMALL["V4"], catalog.ARROW)]
    cats += [catalog.gen_category_with_chi(seed, 3) for seed in range(3)] + GROUPOID_PRODUCTS
    codes = set()
    for i in range(1000):
        data = _mutant(rng, cats[i % len(cats)])
        got = _outcome(validate_category, data)
        assert got == _outcome(oracle.validate_category, data), i
        if got[0] == "invalid":
            codes.update(v.code for v in got[1])
    assert codes >= {"DanglingEndpoint", "MissingComposite", "IdentityLawViolation", "AssociativityViolation"}


def _associativity_mutant(cat: FinCategory):
    """Raw data of cat with g∘f redirected within its hom-set for the first non-identity pair that breaks only
    associativity."""
    data = (list(cat.objects), list(cat.morphisms), dict(cat.identity), dict(cat.compose))
    for (g, f), h in cat.compose.items():
        if cat.is_identity(g) or cat.is_identity(f):
            continue
        for other in cat.hom(cat.src(f), cat.dst(g)):
            compose = {**cat.compose, (g, f): other}
            if other != h and _outcome(oracle.validate_category, data[:3] + (compose,))[0] == "invalid":
                return data[:3] + (compose,)
    raise AssertionError("no associativity mutant")


def test_triple_scan_runs_only_when_associativity_fails(monkeypatch):
    scans = []
    scan = fincat._triple_scan
    monkeypatch.setattr(fincat, "_triple_scan", lambda *args: scans.append(1) or scan(*args))
    for cat in list(SMALL.values()) + GROUPOID_PRODUCTS + [product_cat(catalog.ARROW, catalog.BZ2)]:
        data = (cat.objects, cat.morphisms, cat.identity, cat.compose)
        assert _outcome(validate_category, data) == _outcome(oracle.validate_category, data)
    assert scans == []
    for cat in [_group(4), product_cat(catalog.ARROW, catalog.BZ2)] + GROUPOID_PRODUCTS[:3]:  # E2 × E3 has no room
        data = _associativity_mutant(cat)
        got = _outcome(validate_category, data)
        assert scans == [1]
        assert got == _outcome(oracle.validate_category, data)
        assert {v.code for v in got[1]} == {"AssociativityViolation"}
        scans.clear()


def _projection(a: FinCategory, b: FinCategory, first: bool):
    total = product_cat(a, b)
    pick = (lambda u, v: u) if first else (lambda u, v: v)
    return validate_functor(
        total,
        a if first else b,
        {pair_label(x, y): pick(x, y) for x in a.objects for y in b.objects},
        {pair_label(m.name, n.name): pick(m.name, n.name) for m in a.morphisms for n in b.morphisms},
    )


def _collapse(cat: FinCategory):
    return validate_functor(cat, catalog.PT, {x: "*" for x in cat.objects}, {m.name: "id*" for m in cat.morphisms})


def _functors():
    functors = [catalog.EZ2_TO_BZ2, catalog.D2_TO_PT, FORK_TO_ARROW, CHAIN_INTO_FORK, FORK_G2_TO_ARROW]
    functors += [_projection(catalog.ARROW, catalog.BZ2, True), _projection(catalog.ARROW, catalog.BZ2, False)]
    functors += [_projection(catalog.SPAN, catalog.EZ2, True), _projection(_group(3), catalog.PAIR, False)]
    functors += [_projection(SMALL["E3"], _group(4), True), _projection(SMALL["V4"], catalog.SPAN, False)]
    functors += [_projection(_group(3), E2, True), _projection(E2, catalog.BZ2, False)]  # every morphism invertible
    functors += [_collapse(cat) for cat in SMALL.values()]
    for seed in range(3):
        functors += [
            _collapse(gen.gen_acyclic_category(seed, 4)),
            builders.inflate_category(catalog.gen_category_with_chi(seed, 2), [2, 3, 1])[1],
            catalog.gen_equivalence(seed, 2),
            gen.gen_fib_groupoids_functor(seed, 3),
        ]
        lax = builders.gen_fib_pseudogroupoids_laxfunctor(seed, 2)
        functors += list(lax.hom_functors.values())
    return functors + [reverse_functor(p) for p in functors]


@pytest.fixture(scope="module")
def functors():
    return _functors()


def test_cartesian_test_matches_lift_search(functors):
    verdicts = set()
    for p in functors:
        for m in p.source.morphisms:
            invertible = p.source.inverse_of(m.name) is not None
            got = is_cartesian_morphism(p, m.name)
            assert got == oracle.is_cartesian_morphism(p, m.name), m.name
            verdicts.add((invertible, got))
    # isomorphisms take the early return, the rest are counted, and both verdicts occur
    assert {(True, True), (False, True), (False, False)} <= verdicts


def test_classify_fibration_matches_oracle(functors):
    flags = set()
    for p in functors:
        report = classify_fibration(p)
        assert report == oracle.classify_fibration(p)
        flags.add((report.fibered, report.fibered_in_groupoids))
    assert len(flags) > 1


def test_classify_fibration_tests_each_morphism_once(functors, monkeypatch):
    seen = []

    def counted(p, f):
        seen.append((id(p), f))
        return is_cartesian_morphism(p, f)

    monkeypatch.setattr(fib1, "is_cartesian_morphism", counted)
    for p in functors:
        seen.clear()
        classify_fibration(p)
        assert len(seen) == len(set(seen))
