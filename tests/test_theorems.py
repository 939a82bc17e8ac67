"""The paper's two formulas hold on every functor and lax functor the suite builds.

The Grothendieck formula chi(Gr F) = Σ_b k_b·chi(F_b) holds for every
Cat-valued lax functor F and every trihomomorphism, so `verify_gr_formula`
and `verify_gr_formula_bicat` must report `equal` on each.  The product
formula chi(E) = Σ_i chi(B_i)·chi(F_i) holds for a functor fibered and
cofibered in groupoids, and for a lax functor fibered and cofibered in
pseudogroupoids, whose Grothendieck construction also has the chi of its
total bicategory.  So wherever `classify_fibration` or `classify_bifibration`
holds on both sides, the product formula must report `equal` (and
`grothendieck_matches_total`); a failure is a bug in the classifier or in the
formula code.  A lax functor fibered in pseudogroupoids also induces a
trihomomorphism, so the Grothendieck formula is checked on it too.  The
bicategorical Grothendieck reports must also find the product of the base's
and the fibers' coweightings a coweighting of Gr, as `verify gr-bicat` does.

The values are every functor, lax functor, Cat-valued lax functor and
trihomomorphism that `catalog.py`, `builders.py` and `bicat_euler.generators`
make, at small sizes, each functor also reversed.  The functor families of
`test_locally_discrete.py` (`gen_fib_groupoids_functor`,
`catalog.gen_equivalence`, `gen_quotient_action_functor` and the functor
fixtures, with their reverses) are checked there, in both dimensions.
"""

import catalog
from bicat_euler import fixtures as fx
from bicat_euler.bicat import identity_lax_functor
from bicat_euler.bifib import classify_bifibration, verify_gr_formula_bicat, verify_product_formula_bicat
from bicat_euler.fib1 import (
    classify_fibration,
    grothendieck_cat,
    reverse_functor,
    verify_gr_formula,
    verify_product_formula_cat,
)
from bicat_euler.generators import gen_groupoid_valued_laxcat, gen_trihom
from builders import (
    disjoint_union_lax_functor,
    gen_fib_pseudogroupoids_laxfunctor,
    inflate_category,
    locally_discrete,
    product_projection,
)

CATEGORIES = [catalog.PT, catalog.D2, catalog.ARROW, catalog.PAIR, catalog.SPAN, catalog.BZ2, catalog.EZ2]
BICATEGORIES = [
    catalog.BPT,
    catalog.ARROW_BICAT,
    catalog.EZ2_BICAT,
    catalog.BZ2_TWOGROUP,
    catalog.PSG,
    catalog.ACYCLIC2,
]


def _laxcats():
    yield catalog.ARROW_BASE_LAXCAT
    yield catalog.BZ2_BASE_LAXCAT
    for seed in range(20):
        for size in range(1, 5):
            yield gen_groupoid_valued_laxcat(seed, size)


def _functors():
    """The functors not covered by test_locally_discrete.py: pullbacks, projections, identities, inclusions."""
    for laxcat in _laxcats():
        yield from laxcat.pullback.values()
        yield grothendieck_cat(laxcat).projection
    for cat in CATEGORIES:
        yield fx.identity_functor(cat)
        yield inflate_category(cat, [2] * len(cat.objects))[1]


def _trihoms():
    for seed in range(12):
        for size in (1, 2):
            yield gen_trihom(seed, size)
    for base in BICATEGORIES:
        for fiber in BICATEGORIES:
            yield fx.constant_trihomomorphism(base, fiber)


def _lax_functors():
    yield catalog.PSG_COLLAPSE
    yield catalog.GR_PSG_OVER_ARROW
    yield catalog.TWO_LIFTS_OVER_ARROW
    for seed in range(10):
        yield catalog.gen_biequivalence(seed, 2)
        yield gen_fib_pseudogroupoids_laxfunctor(seed, 2)
    for b in BICATEGORIES:
        yield identity_lax_functor(b)
        yield fx.collapse_to_point(b)
    for a in BICATEGORIES:
        for b in BICATEGORIES:
            yield product_projection(a, b)
    yield disjoint_union_lax_functor(catalog.PSG_COLLAPSE, fx.collapse_to_point(catalog.BZ2_TWOGROUP))
    for t in _trihoms():
        yield from t.pullback1.values()
    for p in _functors():
        yield locally_discrete(p)


def test_grothendieck_formula_on_every_laxcat():
    for laxcat in _laxcats():
        assert verify_gr_formula(laxcat).equal


def test_grothendieck_formula_on_every_trihomomorphism():
    for t in _trihoms():
        rep = verify_gr_formula_bicat(t)
        assert rep.equal and rep.product_coweighting_valid


def test_product_formula_wherever_a_functor_is_fibered_and_cofibered_in_groupoids():
    checked = 0
    for p in _functors():
        for q in (p, reverse_functor(p)):
            rep = classify_fibration(q)
            if rep.fibered_in_groupoids and rep.cofibered_in_groupoids:
                assert verify_product_formula_cat(q).equal
                checked += 1
    assert checked


def test_both_formulas_wherever_a_lax_functor_is_fibered_in_pseudogroupoids():
    checked = 0
    for p in _lax_functors():
        rep = classify_bifibration(p)
        if rep.fibered_in_pseudogroupoids:
            gr = verify_gr_formula_bicat(p)
            assert gr.equal and gr.product_coweighting_valid
            checked += 1
        if rep.fibered_in_pseudogroupoids and rep.cofibered_in_pseudogroupoids:
            out = verify_product_formula_bicat(p)
            assert out.equal and out.grothendieck_matches_total
    assert checked
