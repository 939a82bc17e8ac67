"""The indexed category layer against the scans it replaced.

`FinCategory.hom` must return what a scan of every morphism returns, in the
same order.  `validate_category` must accept what the exhaustive law loops
accept, and report the same violations in the same order on seeded mutants
of composition tables.  `is_cartesian_morphism`, in both conventions, and
`classify_fibration` and `choose_cleavage` must agree with the
lift-by-lift search on seeded functors that include non-cartesian
morphisms.
"""

import random

import pytest

import category_oracle as oracle
from bicat_euler import fib1
from bicat_euler import fixtures as fx
from bicat_euler import generators as gen
from bicat_euler.fib1 import NotFibered, choose_cleavage, classify_fibration, is_cartesian_morphism, reverse_functor
from bicat_euler.fincat import (
    FinCategory,
    InvalidCategory,
    pair_label,
    product_cat,
    validate_category,
    validate_functor,
)

CONVENTIONS = ("standard", "paper")


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
    FORK, fx.ARROW, {"x": "0", "y": "1", "z": "0"},
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
SMALL = {
    "PT": fx.PT, "D2": fx.D2, "ARROW": fx.ARROW, "PAIR": fx.PAIR, "SPAN": fx.SPAN, "BZ2": fx.BZ2,
    "EZ2": fx.EZ2, "Z3": _group(3), "V4": fx.group_category("*", *fx.klein_group()),
    "E3": fx.indiscrete_category(["a", "b", "c"]), "FORK": FORK,
}


def _categories() -> list[FinCategory]:
    cats = list(SMALL.values())
    cats += [product_cat(fx.ARROW, fx.BZ2), product_cat(fx.SPAN, fx.EZ2), product_cat(_group(3), fx.PAIR)]
    for seed in range(4):
        cats += [
            gen.gen_acyclic_category(seed, 5),
            gen.gen_groupoid(seed, 3),
            gen.gen_category_with_chi(seed, 3),
            gen.inflate_category(gen.gen_category_with_chi(seed, 2), [2, 1, 3])[0],
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
    cats = list(SMALL.values()) + [_group(4), product_cat(fx.ARROW, fx.BZ2), product_cat(fx.EZ2, _group(3))]
    cats += [product_cat(SMALL["E3"], fx.BZ2), product_cat(SMALL["V4"], fx.ARROW)]
    cats += [gen.gen_category_with_chi(seed, 3) for seed in range(3)]
    codes = set()
    for i in range(1000):
        data = _mutant(rng, cats[i % len(cats)])
        got = _outcome(validate_category, data)
        assert got == _outcome(oracle.validate_category, data), i
        if got[0] == "invalid":
            codes.update(v.code for v in got[1])
    assert codes >= {"DanglingEndpoint", "MissingComposite", "IdentityLawViolation", "AssociativityViolation"}


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
    return validate_functor(cat, fx.PT, {x: "*" for x in cat.objects}, {m.name: "id*" for m in cat.morphisms})


def _functors():
    functors = [fx.EZ2_TO_BZ2, fx.D2_TO_PT, FORK_TO_ARROW, CHAIN_INTO_FORK]
    functors += [_projection(fx.ARROW, fx.BZ2, True), _projection(fx.ARROW, fx.BZ2, False)]
    functors += [_projection(fx.SPAN, fx.EZ2, True), _projection(_group(3), fx.PAIR, False)]
    functors += [_projection(SMALL["E3"], _group(4), True), _projection(SMALL["V4"], fx.SPAN, False)]
    functors += [_collapse(cat) for cat in SMALL.values()]
    for seed in range(3):
        functors += [
            _collapse(gen.gen_acyclic_category(seed, 4)),
            gen.inflate_category(gen.gen_category_with_chi(seed, 2), [2, 3, 1])[1],
            gen.gen_equivalence(seed, 2),
            gen.gen_fib_groupoids_functor(seed, 3),
        ]
        lax = gen.gen_fib_pseudogroupoids_laxfunctor(seed, 2)
        functors += list(lax.hom_functors.values())
    return functors + [reverse_functor(p) for p in functors]


@pytest.fixture(scope="module")
def functors():
    return _functors()


def test_cartesian_test_matches_lift_search(functors):
    verdicts = []
    for p in functors:
        for m in p.source.morphisms:
            for convention in CONVENTIONS:
                got = is_cartesian_morphism(p, m.name, convention)
                assert got == oracle.is_cartesian_morphism(p, m.name, convention), (m.name, convention)
                verdicts.append(got)
    assert True in verdicts and False in verdicts


def test_classify_fibration_matches_oracle(functors):
    flags = set()
    for p in functors:
        for convention in CONVENTIONS:
            report = classify_fibration(p, convention)
            assert report == oracle.classify_fibration(p, convention)
            flags.add((report.fibered, report.fibered_in_groupoids))
    assert len(flags) > 1


def _cleavage_outcome(choose, p, policy, convention):
    try:
        return "cleavage", choose(p, policy, convention).lifts
    except NotFibered as exc:
        return "not fibered", str(exc)


def test_choose_cleavage_matches_scan(functors):
    kinds = set()
    for p in functors:
        for policy in ("min", "max"):
            for convention in CONVENTIONS:
                got = _cleavage_outcome(choose_cleavage, p, policy, convention)
                assert got == _cleavage_outcome(oracle.choose_cleavage, p, policy, convention)
                kinds.add(got[0])
    assert kinds == {"cleavage", "not fibered"}


def test_classify_fibration_tests_each_morphism_once(functors, monkeypatch):
    seen = []

    def counted(p, f, convention="standard"):
        seen.append((id(p), f, convention))
        return is_cartesian_morphism(p, f, convention)

    monkeypatch.setattr(fib1, "is_cartesian_morphism", counted)
    for p in functors:
        seen.clear()
        classify_fibration(p)
        assert len(seen) == len(set(seen))
