"""Acceptance criteria, one test per criterion, at the stated scales.

Every check is an exact rational identity (no tolerances anywhere); each
test prints a single PASS line once all of its assertions hold.
"""

from fractions import Fraction

import builders
import catalog
from bicat_euler import generators as gen
from bicat_euler.bicat import (
    euler_char_cg,
    pseudogroupoid_witness,
    similarity_matrix_cg,
    verify_biequivalence_invariance,
)
from bicat_euler.bifib import (
    classify_bifibration,
    grothendieck_cg,
    verify_gr_formula_bicat,
    verify_product_formula_bicat,
)
from bicat_euler.catdsl import parse, serialize
from bicat_euler.cli import main
from bicat_euler.exactq import matrix_euler
from bicat_euler.fib1 import classify_fibration, verify_gr_formula, verify_product_formula_cat
from bicat_euler.fincat import (
    check_equivalence_functor,
    euler_char_cat,
    similarity_matrix,
)
from bifib_oracle import gr_hom_coweighting, pseudogroupoid_euler
from builders import coproduct_cat, coproduct_cg, product_cat, product_cg
from category_oracle import nerve_euler
from tests.conftest import FIXTURE_DIR, NEGATIVE_DIR


def _ones_product(rows, k):
    return [sum((a * b for a, b in zip(row, k.entries)), Fraction(0)) for row in rows]


def test_criterion_1_exact_weighting_identities():
    matrices = [builders.random_rational_matrix(seed) for seed in range(200)]
    cats = (catalog.PT, catalog.D2, catalog.ARROW, catalog.PAIR, catalog.SPAN, catalog.BZ2, catalog.EZ2)
    matrices += [similarity_matrix(c) for c in cats]
    matrices += [similarity_matrix_cg(g) for g in (catalog.PSG.graph, catalog.ACYCLIC2.graph, catalog.EZ2_BICAT.graph)]
    checked = 0
    both = 0
    for m in matrices:
        e = matrix_euler(m)
        k, kc = e.weighting, e.coweighting
        if k is not None:
            checked += 1
            assert all(v == 1 for v in _ones_product(m.entries, k))
        if kc is not None:
            assert all(v == 1 for v in _ones_product(zip(*m.entries), kc))
        if k is not None and kc is not None:
            both += 1
            assert k.total() == kc.total()
    assert checked >= 100 and both >= 100
    print(f"\nACCEPTANCE 1: PASS - zeta·k = 1 entrywise on {checked} weightings; "
          f"sum k* = sum k_* on {both} matrices")


def test_criterion_2_fixture_chi_values():
    expected = {
        "PT": Fraction(1), "D2": Fraction(2), "ARROW": Fraction(1), "PAIR": Fraction(0),
        "SPAN": Fraction(1), "BZ2": Fraction(1, 2), "EZ2": Fraction(1),
    }
    for name, chi in expected.items():
        assert euler_char_cat(getattr(catalog, name)).chi == chi, name
    assert euler_char_cg(catalog.PSG.graph).chi == 2
    print("ACCEPTANCE 2: PASS - all 8 fixture chi values match their hand-derived oracles")


def test_criterion_3_nerve_oracle_equivalence():
    for seed in range(100):
        cat = gen.gen_acyclic_category(seed, 4)
        assert euler_char_cat(cat).chi == nerve_euler(cat).euler, seed
    print("ACCEPTANCE 3: PASS - chi = alternating chain count on 100 random acyclic categories")


def _small_cat(seed):
    for offset in range(0, 5000, 1000):
        cat = catalog.gen_category_with_chi(seed + offset, 2)
        if len(cat.objects) <= 4 and len(cat.morphisms) <= 14:
            return cat
    return catalog.ARROW


def _small_cg(seed):
    for offset in range(0, 5000, 1000):
        g = catalog.gen_catgraph_with_chi(seed + offset, 2)
        cells = sum(len(g.hom_at(x, y).morphisms) for x in g.objects for y in g.objects)
        if len(g.objects) <= 3 and cells <= 12:
            return g
    return catalog.BPT.graph


def test_criterion_4_coproduct_product_identities():
    for seed in range(100):
        a, b = _small_cat(seed), _small_cat(seed + 7000)
        chi_a, chi_b = euler_char_cat(a).chi, euler_char_cat(b).chi
        assert euler_char_cat(coproduct_cat([a, b])).chi == chi_a + chi_b, seed
        assert euler_char_cat(product_cat(a, b)).chi == chi_a * chi_b, seed
    for seed in range(100):
        a, b = _small_cg(seed), _small_cg(seed + 9000)
        chi_a, chi_b = euler_char_cg(a).chi, euler_char_cg(b).chi
        assert euler_char_cg(coproduct_cg([a, b])).chi == chi_a + chi_b, seed
        assert euler_char_cg(product_cg([a, b])).chi == chi_a * chi_b, seed
    print("ACCEPTANCE 4: PASS - chi adds under coproducts and multiplies under products "
          "on 100 category pairs and 100 cat-graph pairs")


def test_criterion_5_equivalence_invariance():
    for seed in range(50):
        fun = catalog.gen_equivalence(seed, 2)
        assert check_equivalence_functor(fun), seed
        assert euler_char_cat(fun.source).chi == euler_char_cat(fun.target).chi, seed
    for seed in range(20):
        lax = catalog.gen_biequivalence(seed, 2)
        rep = verify_biequivalence_invariance(lax)
        assert rep.equal and rep.transported_valid, seed
    print("ACCEPTANCE 5: PASS - chi equal on 50 equivalences and 20 biequivalences; "
          "transported weightings solve their systems exactly")


def test_criterion_6_grothendieck_and_product_formula_cat():
    for seed in range(50):
        lax = gen.gen_groupoid_valued_laxcat(seed, 3)
        assert verify_gr_formula(lax).equal, seed
        p = gen.gen_fib_groupoids_functor(seed, 3)
        rep = classify_fibration(p)
        assert rep.fibered_in_groupoids, seed
        assert verify_product_formula_cat(p).equal, seed
    print("ACCEPTANCE 6: PASS - Grothendieck sum formula, fibered-in-groupoids classification "
          "and the product formula hold on 50 generated lax functors")


def test_criterion_7_pseudogroupoid_euler():
    for seed in range(20):
        b = gen.gen_pseudogroupoid(seed, 3)
        chi = pseudogroupoid_euler(b)  # asserts agreement with the weighting computation
        assert chi == euler_char_cg(b.graph).chi, seed
        for g in b.objects:
            assert chi == 1 / euler_char_cat(b.hom_at(g, g)).chi, (seed, g)
    print("ACCEPTANCE 7: PASS - chi = 1/chi(hom(g,g)) for every base object of "
          "20 connected pseudogroupoids")


def test_criterion_8_bicategorical_formulas():
    for seed in range(20):
        t = gen.gen_trihom(seed, 2)
        rep = verify_gr_formula_bicat(t)  # checks chi(Gr) = sum k_b chi(Fb) and Lemma-style k_b·k_x
        assert rep.equal and rep.product_coweighting_valid, seed
        for b in t.base.objects:
            assert not pseudogroupoid_witness(t.fiber[b]), (seed, b)
            gr = grothendieck_cg(t)
            source = gr.objects[0]
            gr_hom_coweighting(t, source, source)  # hom-level product coweighting, asserted inside
            break
    for seed in range(20):
        p = builders.gen_fib_pseudogroupoids_laxfunctor(seed, 2)
        rep = classify_bifibration(p)
        assert rep.fibered_in_pseudogroupoids and rep.cofibered_in_pseudogroupoids, seed
        out = verify_product_formula_bicat(p)  # fiber pseudogroupoid + constancy asserted inside
        assert out.equal and out.grothendieck_matches_total, seed
    print("ACCEPTANCE 8: PASS - product coweightings, chi(Gr) = sum k_b chi(Fb) and "
          "chi(E) = sum chi(B_i)chi(F_i) hold exactly on 20 trihomomorphisms and 20 bifibrations")


def test_criterion_9_parser_and_cli_contract(capsys, tmp_path):
    for path in sorted(FIXTURE_DIR.glob("*.catj")):
        text = path.read_text(encoding="utf-8")
        result = parse(text)
        assert result.ok, path.name
        assert serialize(result.document.value) == text, path.name
    codes_needed = {
        "E001", "E002", "E003", "E004", "E005", "E006", "E010", "E012", "E013", "E014",
        "MissingComposite", "IdentityLawViolation", "AssociativityViolation", "DanglingEndpoint",
        "MissingCompositionData", "IncoherentData", "IllTypedComponent",
    }
    seen = set()
    for path in sorted(NEGATIVE_DIR.glob("*.catj")):
        result = parse(path.read_text(encoding="utf-8"))
        assert result.document is None, path.name
        seen |= {d.code for d in result.diagnostics}
    assert codes_needed <= seen, codes_needed - seen

    assert main(["chi", str(FIXTURE_DIR / "pt.catj")]) == 0
    assert main(["check", str(FIXTURE_DIR / "acyclic2.catj"), "pseudogroupoid"]) == 1
    assert main(["chi", str(NEGATIVE_DIR / "e005-syntax.catj")]) == 2
    assert main(["verify", "gr", str(FIXTURE_DIR / "bz2.catj")]) == 2

    # exit 3: a generator whose output fails its own predicate is an internal failure
    import bicat_euler.cli as cli_module

    original = cli_module._GEN_KINDS["pseudogroupoid"]
    cli_module._GEN_KINDS["pseudogroupoid"] = (original[0], lambda v: False)
    try:
        assert main(["gen", "pseudogroupoid", "--seed", "0", "--size", "1"]) == 3
    finally:
        cli_module._GEN_KINDS["pseudogroupoid"] = original
    capsys.readouterr()
    print("ACCEPTANCE 9: PASS - byte-identical round trips on the corpus, every diagnostic code "
          "triggered, CLI exit codes 0/1/2/3 verified end-to-end")
