"""Generators and test-input builders: determinism and by-construction predicates."""

import catalog
from bicat_euler import generators as gen
from builders import gen_fib_pseudogroupoids_laxfunctor, gen_groupoid
from catalog import gen_category_with_chi, gen_equivalence
from bicat_euler.bicat import pseudogroupoid_witness
from bicat_euler.catdsl import serialize
from bicat_euler.fib1 import classify_fibration
from bicat_euler.fincat import check_equivalence_functor, euler_char_cat, acyclic_witness


def test_deterministic_for_fixed_seed():
    builders = [
        lambda s: gen.gen_acyclic_category(s, 4),
        lambda s: gen.gen_groupoid_valued_laxcat(s, 3),
        lambda s: gen.gen_fib_groupoids_functor(s, 3),
        lambda s: gen.gen_pseudogroupoid(s, 2),
        lambda s: gen.gen_trihom(s, 2),
        lambda s: gen_fib_pseudogroupoids_laxfunctor(s, 2),
    ]
    for builder in builders:
        assert serialize(builder(7)) == serialize(builder(7))


def test_different_seeds_vary():
    outputs = {serialize(gen.gen_acyclic_category(seed, 4)) for seed in range(8)}
    assert len(outputs) > 1


def test_acyclic_smallest_case_is_point():
    assert gen.gen_acyclic_category(0, 1) == catalog.PT


def test_acyclic_with_too_many_composites_retries_with_a_thinner_seed():
    # Seed 0 at size 7 has more than 40 composable paths, so the generator retries at seed 1000.
    assert gen.gen_acyclic_category(0, 7) == gen.gen_acyclic_category(1000, 7)


def test_acyclic_predicate():
    for seed in range(20):
        assert not acyclic_witness(gen.gen_acyclic_category(seed, 5))


def test_groupoid_predicate():
    for seed in range(10):
        g = gen_groupoid(seed, 3)
        assert all(g.inverse_of(m.name) is not None for m in g.morphisms)


def test_fib_groupoids_predicate():
    for seed in range(6):
        p = gen.gen_fib_groupoids_functor(seed, 3)
        assert classify_fibration(p).fibered_in_groupoids


def test_pseudogroupoid_predicate():
    for seed in range(10):
        assert not pseudogroupoid_witness(gen.gen_pseudogroupoid(seed, 3))


def test_trihom_fibers_are_pseudogroupoids():
    for seed in range(6):
        t = gen.gen_trihom(seed, 2)
        assert all(not pseudogroupoid_witness(f) for f in t.fiber.values())


def test_equivalences_are_equivalences():
    for seed in range(10):
        f = gen_equivalence(seed, 3)
        assert check_equivalence_functor(f)
        assert euler_char_cat(f.source).chi == euler_char_cat(f.target).chi


def test_categories_with_chi_have_chi():
    for seed in range(20):
        assert euler_char_cat(gen_category_with_chi(seed, 3)).chi is not None
