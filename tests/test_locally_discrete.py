"""A category is a locally discrete bicategory, and its fibrations are the same either way.

`builders.locally_discrete` makes a functor P a strict homomorphism of
locally discrete bicategories.  There Buckley's cartesian 1-cells are the
cartesian morphisms of `fib1`, decided by separate code, so
`classify_bifibration` must agree with `classify_fibration` on being fibered
and cofibered in (pseudo)groupoids, and the chi of a category is that of its
cat-graph.  Where both sides hold, the paper's product formula holds in both
dimensions with the same values.  `gen_quotient_action_functor` reaches
morphisms with more than one lift, which the other families never do.
"""

import contextlib
import io
import json

import pytest

import catalog
from bicat_euler import bifib, cli, fib1
from bicat_euler.bicat import euler_char_cg
from bicat_euler.fincat import Functor, euler_char_cat
from bicat_euler.generators import gen_fib_groupoids_functor
from builders import gen_quotient_action_functor, locally_discrete, quotient_action_functor
from conftest import FIXTURE_DIR


def _assert_agrees(p: Functor):
    """p and its reverse against their locally discrete forms."""
    for q in (p, fib1.reverse_functor(p)):
        ld = locally_discrete(q)
        cat, bicat = fib1.classify_fibration(q), bifib.classify_bifibration(ld)
        assert (cat.fibered_in_groupoids, cat.cofibered_in_groupoids) == (
            bicat.fibered_in_pseudogroupoids,
            bicat.cofibered_in_pseudogroupoids,
        ), (cat.witnesses, bicat.witnesses)
        assert euler_char_cat(q.source).chi == euler_char_cg(ld.source.graph).chi
        if cat.fibered_in_groupoids and cat.cofibered_in_groupoids:
            one, two = fib1.verify_product_formula_cat(q), bifib.verify_product_formula_bicat(ld)
            assert one.equal and two.equal and two.grothendieck_matches_total
            assert (one.chi_total, one.sum_of_products) == (two.chi_total, two.sum_of_products)


@pytest.mark.parametrize("seed", range(40))
def test_agrees_on_quotient_actions(seed):
    _assert_agrees(gen_quotient_action_functor(seed))


def test_quotient_actions_reach_every_verdict():
    verdicts = set()
    for seed in range(40):
        rep = fib1.classify_fibration(gen_quotient_action_functor(seed))
        verdicts.add((rep.fibered_in_groupoids, rep.cofibered_in_groupoids))
    assert verdicts == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("seed", range(40))
def test_agrees_on_generated_fibrations(seed):
    for size in range(1, 5):
        _assert_agrees(gen_fib_groupoids_functor(seed, size))


@pytest.mark.parametrize("seed", range(20))
def test_agrees_on_equivalences(seed):
    _assert_agrees(catalog.gen_equivalence(seed, 3))


@pytest.mark.parametrize("p", [catalog.EZ2_TO_BZ2, catalog.D2_TO_PT], ids=["ez2-to-bz2", "d2-to-pt"])
def test_agrees_on_functor_fixtures(p):
    _assert_agrees(p)


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def test_two_lifts_over_arrow_is_no_fibration():
    # Z/4 acts on the two arrows x -> y through Z/2, so a0∘s2 = a0: a0 has two lifts of itself.
    path = str(FIXTURE_DIR / "two-lifts-over-arrow.catj")
    code, out = _run(["check", path, "fib-pseudogroupoids", "--json"])
    assert code == 1
    witnesses = json.loads(out)["results"]["witnesses"]
    assert witnesses["non_cartesian_1cell"] == [["x", "y", "a0"], ["not_full", "x", "s0", "s2", "ids0", 1, 0]]
    assert _run(["verify", "product-bicat", path])[0] == 2
    # The Grothendieck formula needs only a strict homomorphism.
    assert _run(["verify", "gr-bicat", path])[0] == 0
    underlying = quotient_action_functor((4, 4, 2), (1, 1, 1))
    assert locally_discrete(underlying) == catalog.TWO_LIFTS_OVER_ARROW
    assert not fib1.classify_fibration(underlying).fibered
