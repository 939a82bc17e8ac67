"""Fibrations, fiber categories and the Grothendieck construction."""

from fractions import Fraction

import pytest

import catalog
import category_oracle
from bicat_euler import fixtures as fx
from bicat_euler.bifib import fiber_bicategory
from bicat_euler.catdsl import parse, serialize
from bicat_euler.fib1 import (
    GrothendieckCat,
    IncoherentData,
    LaxFunctorToCat,
    NotBiFibered,
    classify_fibration,
    fiber_category,
    grothendieck_cat,
    is_cartesian_morphism,
    is_strict,
    reverse_functor,
    validate_laxcat,
    verify_gr_formula,
    verify_product_formula_cat,
)
from bicat_euler.fincat import (
    InvalidInput,
    category_components,
    euler_char_cat,
    subcategory,
    validate_category,
    validate_functor,
)
from bicat_euler.generators import gen_fib_groupoids_functor, gen_groupoid_valued_laxcat
from builders import coproduct_cat


ARROW_TO_PT = validate_functor(
    catalog.ARROW, catalog.PT, {"0": "*", "1": "*"}, {"id0": "id*", "id1": "id*", "a": "id*"}
)


def test_identity_functor_everything_cartesian():
    ident = fx.identity_functor(catalog.BZ2)
    for m in catalog.BZ2.morphisms:
        assert is_cartesian_morphism(ident, m.name)


def test_arrow_over_point_not_cartesian():
    assert not is_cartesian_morphism(ARROW_TO_PT, "a")


def test_unknown_morphism_raises():
    with pytest.raises(InvalidInput, match=r"^'nope' is no morphism of the total category$"):
        is_cartesian_morphism(ARROW_TO_PT, "nope")


def test_grothendieck_projection_morphisms_cartesian():
    gr = grothendieck_cat(catalog.BZ2_BASE_LAXCAT)
    for m in gr.total.morphisms:
        assert is_cartesian_morphism(gr.projection, m.name)


def test_classify_ez2_to_bz2_all_flags():
    rep = classify_fibration(catalog.EZ2_TO_BZ2)
    assert rep.fibered and rep.cofibered
    assert rep.fibered_in_groupoids and rep.cofibered_in_groupoids


def test_classify_identity_on_bz2():
    rep = classify_fibration(fx.identity_functor(catalog.BZ2))
    assert rep.fibered and rep.cofibered and rep.fibered_in_groupoids and rep.cofibered_in_groupoids


def test_classify_d2_into_arrow_not_fibered():
    p = validate_functor(catalog.D2, catalog.ARROW, {"x": "0", "y": "1"}, {"idx": "id0", "idy": "id1"})
    rep = classify_fibration(p)
    assert not rep.fibered
    assert rep.witnesses.get("no_lift") == ("a", "y") or rep.witnesses.get("no_cartesian_lift")


def test_dualization_involution():
    for p in (catalog.EZ2_TO_BZ2, ARROW_TO_PT, fx.identity_functor(catalog.SPAN)):
        rep = classify_fibration(p)
        rev = classify_fibration(reverse_functor(p))
        assert rep.cofibered == rev.fibered
        assert rep.cofibered_in_groupoids == rev.fibered_in_groupoids


def test_fiber_of_quotient_is_discrete():
    fib = fiber_category(catalog.EZ2_TO_BZ2, "*")
    assert fib.objects == ("0", "1")
    assert all(fib.is_identity(m.name) for m in fib.morphisms)


def test_fiber_of_identity_is_point_shaped():
    fib = fiber_category(fx.identity_functor(catalog.SPAN), "c")
    assert fib.objects == ("c",)
    assert len(fib.morphisms) == 1


def test_fiber_unknown_object():
    with pytest.raises(InvalidInput, match=r"^'nope' is no object of the base$"):
        fiber_category(catalog.EZ2_TO_BZ2, "nope")


def test_grothendieck_fiber_matches_fiber_functor():
    gr = grothendieck_cat(catalog.ARROW_BASE_LAXCAT)
    fib0 = fiber_category(gr.projection, "0")
    assert euler_char_cat(fib0).chi == euler_char_cat(catalog.ARROW_BASE_LAXCAT.fiber["0"]).chi
    fib1_ = fiber_category(gr.projection, "1")
    assert euler_char_cat(fib1_).chi == euler_char_cat(catalog.ARROW_BASE_LAXCAT.fiber["1"]).chi


def test_grothendieck_point_base_recovers_fiber():
    lax = validate_laxcat(
        LaxFunctorToCat(catalog.PT, {"*": catalog.BZ2}, {"id*": fx.identity_functor(catalog.BZ2)})
    )
    gr = grothendieck_cat(lax)
    assert gr.euler().chi == euler_char_cat(catalog.BZ2).chi


def test_grothendieck_arrow_base_zeta():
    gr = grothendieck_cat(catalog.ARROW_BASE_LAXCAT)
    assert gr.objects == (("0", "x"), ("0", "y"), ("1", "*"))
    assert [[str(v) for v in row] for row in gr.zeta().entries] == [
        ["1", "0", "1"],
        ["0", "1", "0"],
        ["0", "0", "1"],
    ]
    assert gr.euler().chi == 2


def test_grothendieck_bz2_base_is_indiscrete():
    gr = grothendieck_cat(catalog.BZ2_BASE_LAXCAT)
    zeta = gr.zeta()
    assert all(v == 1 for row in zeta.entries for v in row)
    assert gr.euler().chi == 1


def _nonstrict_chain_laxcat(with_coherence: bool) -> LaxFunctorToCat:
    # base 0 -> 1 -> 2 with composite; fibers indiscrete on two objects;
    # F(chain) deliberately differs from F(step)∘F(step) by a natural iso
    from bicat_euler.fincat import validate_category

    base = validate_category(
        ["0", "1", "2"],
        [("id0", "0", "0"), ("id1", "1", "1"), ("id2", "2", "2"),
         ("c01", "0", "1"), ("c12", "1", "2"), ("c02", "0", "2")],
        {"0": "id0", "1": "id1", "2": "id2"},
        {
            ("id0", "id0"): "id0", ("id1", "id1"): "id1", ("id2", "id2"): "id2",
            ("c01", "id0"): "c01", ("id1", "c01"): "c01",
            ("c12", "id1"): "c12", ("id2", "c12"): "c12",
            ("c02", "id0"): "c02", ("id2", "c02"): "c02",
            ("c12", "c01"): "c02",
        },
    )
    ez = catalog.EZ2
    swap = validate_functor(ez, ez, {"0": "1", "1": "0"},
                            {"id0": "id1", "id1": "id0", "m01": "m10", "m10": "m01"})
    const0 = validate_functor(ez, ez, {"0": "0", "1": "0"},
                              {"id0": "id0", "id1": "id0", "m01": "id0", "m10": "id0"})
    pullback = {
        "id0": fx.identity_functor(ez),
        "id1": fx.identity_functor(ez),
        "id2": fx.identity_functor(ez),
        "c01": swap,
        "c12": swap,
        "c02": const0,  # swap∘swap = Id != const0, so the functor is not strict
    }
    coherence = None
    unit = None
    if with_coherence:
        # indiscrete fibers: there is a unique 2-cell component everywhere
        def iso(src_obj, dst_obj):
            return "id0" if src_obj == dst_obj == "0" else ("id1" if src_obj == dst_obj == "1" else f"m{src_obj}{dst_obj}")

        coherence = {}
        for g in ("id0", "id1", "id2", "c01", "c12", "c02"):
            for f in ("id0", "id1", "id2", "c01", "c12", "c02"):
                gm, fm = base.morphism(g), base.morphism(f)
                if gm.src != fm.dst:
                    continue
                ff, fg = pullback[f], pullback[g]
                fgf = pullback[base.compose2(g, f)]
                coherence[(g, f)] = {z: iso(ff.ob(fg.ob(z)), fgf.ob(z)) for z in ez.objects}
        unit = {b: {x: f"id{x}" for x in ez.objects} for b in base.objects}
    return LaxFunctorToCat(base, {b: ez for b in base.objects}, pullback, coherence, unit)


def test_nonstrict_without_coherence_is_counting_mode():
    lax = validate_laxcat(_nonstrict_chain_laxcat(with_coherence=False))
    assert not is_strict(lax)
    gr = grothendieck_cat(lax)
    assert gr.total is None and gr.projection is None
    assert gr.euler().chi is not None


# BZ/2 -> BZ/2 sending g to e: it fixes the one object and moves a morphism.
_BZ2_TRIVIAL = validate_functor(catalog.BZ2, catalog.BZ2, {"*": "*"}, {"e": "e", "g": "e"})
_EZ2_SWAP = validate_functor(
    catalog.EZ2, catalog.EZ2, {"0": "1", "1": "0"}, {"id0": "id1", "id1": "id0", "m01": "m10", "m10": "m01"}
)
# Lax functors with no coherence data, each failing `is_strict` at one of its checks, and
# the chi of its Grothendieck construction, counted by hand from the hom-sets.
NONSTRICT = {
    # over a point, the identity pulls back to the swap of EZ2's objects: every hom has one
    # morphism, so ζ is all ones
    "identity moves an object": (LaxFunctorToCat(catalog.PT, {"*": catalog.EZ2}, {"id*": _EZ2_SWAP}), Fraction(1)),
    # over a point, the identity pulls back to the trivial endofunctor of BZ/2: ζ = (2)
    "identity moves a morphism": (
        LaxFunctorToCat(catalog.PT, {"*": catalog.BZ2}, {"id*": _BZ2_TRIVIAL}), Fraction(1, 2)
    ),
    # over BZ/2, e pulls back to the identity and g to the trivial endofunctor, whose square
    # agrees with the pullback of g∘g = e on the one object but not on g: ζ = (4)
    "composite differs on morphisms only": (
        LaxFunctorToCat(
            catalog.BZ2, {"*": catalog.BZ2}, {"e": fx.identity_functor(catalog.BZ2), "g": _BZ2_TRIVIAL}
        ),
        Fraction(1, 4),
    ),
}


@pytest.mark.parametrize("case", sorted(NONSTRICT))
def test_each_failure_of_strictness_is_counting_mode(case):
    lax, chi = NONSTRICT[case]
    lax = validate_laxcat(lax)
    assert not is_strict(lax)
    gr = grothendieck_cat(lax)
    assert gr.total is None and gr.projection is None
    assert gr.euler().chi == chi


def test_nonstrict_with_coherence_builds_full_category():
    lax = validate_laxcat(_nonstrict_chain_laxcat(with_coherence=True))
    gr = grothendieck_cat(lax)
    assert gr.total is not None and gr.projection is not None
    counting = grothendieck_cat(LaxFunctorToCat(lax.base, lax.fiber, lax.pullback))
    assert counting.euler().chi == gr.euler().chi


def test_bad_coherence_raises():
    lax = _nonstrict_chain_laxcat(with_coherence=True)
    broken = dict(lax.unit_iso)
    broken["0"] = {x: "m01" for x in ("0", "1")}  # wrong frames
    with pytest.raises(IncoherentData):
        validate_laxcat(LaxFunctorToCat(lax.base, lax.fiber, lax.pullback, lax.comp_iso, broken))


def test_laxcat_without_a_fiber_or_a_pullback_is_rejected():
    # The parser reports each of these as a diagnostic first; a direct call reaches the validator.
    lax = catalog.ARROW_BASE_LAXCAT
    cases = [
        ({"1": lax.fiber["1"]}, lax.pullback, "missing fiber for base object 0"),
        (lax.fiber, {m: lax.pullback[m] for m in ("id0", "id1")}, "missing pullback functor for base morphism a"),
        (lax.fiber, {**lax.pullback, "a": lax.pullback["id0"]}, "pullback along a has wrong endpoints"),
    ]
    for fiber, pullback, message in cases:
        with pytest.raises(IncoherentData, match=f"^{message}$"):
            validate_laxcat(LaxFunctorToCat(lax.base, fiber, pullback))


def _non_cocycle_laxcat() -> LaxFunctorToCat:
    # BZ/3 acting trivially on a one-object BZ/3 fiber, with comp_iso h1 at (g1, g1) and h0
    # elsewhere: natural and well framed, but not a 2-cocycle, so composition is not associative.
    base = fx.group_category("*", *fx.cyclic_group(3))
    elements, mult, _ = fx.cyclic_group(3)
    h = {g: g.replace("g", "h") for g in elements}
    fiber = fx.group_category("x", list(h.values()), {(h[a], h[b]): h[c] for (a, b), c in mult.items()}, "h0")
    pullback = {g: fx.identity_functor(fiber) for g in elements}
    comp_iso = {(g, f): {"x": "h0"} for g in elements for f in elements}
    comp_iso[("g1", "g1")] = {"x": "h1"}
    return LaxFunctorToCat(base, {"*": fiber}, pullback, comp_iso, {"*": {"x": "h0"}})


def test_coherence_that_is_no_cocycle_does_not_assemble_a_category(capsys, tmp_path):
    from bicat_euler.cli import main

    lax = validate_laxcat(_non_cocycle_laxcat())
    result = parse(serialize(lax))
    assert not result.diagnostics and result.document.value == lax
    with pytest.raises(IncoherentData) as exc:
        grothendieck_cat(lax)
    assert str(exc.value).startswith("supplied coherence does not assemble a category: AssociativityViolation:")
    path = tmp_path / "non-cocycle.catj"
    path.write_text(serialize(lax), encoding="utf-8")
    code = main(["verify", "gr", str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and err == f"input error: {exc.value}\n"


def test_validated_laxcat_keeps_only_declared_keys(negative_dir):
    # The one-object laxcat of stray-unit-iso-key.catj without its stray key, then given
    # stray keys in every table the validator reads: a fiber, a pullback, a comp_iso
    # component and unit_iso components, over labels no base or fiber declares.
    text = (negative_dir / "stray-unit-iso-key.catj").read_text(encoding="utf-8")
    f = parse(text.replace(', "zz": {"x": "idx"}', "")).document.value
    fiber = f.fiber["*"]
    stray = LaxFunctorToCat(
        f.base,
        {**f.fiber, "zz": fiber},
        {**f.pullback, "zz": f.pullback["id*"]},
        {("id*", "id*"): {"x": "idx", "ghost": "idx"}},
        {"*": {"x": "idx", "ghost": "idx"}, "zz": {}},
    )
    lax = validate_laxcat(stray)
    assert lax == f
    result = parse(serialize(lax))
    assert not result.diagnostics and result.document.value == f


def test_gr_formula_examples():
    rep = verify_gr_formula(catalog.ARROW_BASE_LAXCAT)
    assert rep.equal and rep.chi_grothendieck == 2
    assert rep.base_coweighting.to_json() == {"0": "1", "1": "0"}
    point = validate_laxcat(
        LaxFunctorToCat(catalog.PT, {"*": catalog.PAIR}, {"id*": fx.identity_functor(catalog.PAIR)})
    )
    rep2 = verify_gr_formula(point)
    assert rep2.equal and rep2.chi_grothendieck == euler_char_cat(catalog.PAIR).chi
    rep3 = verify_gr_formula(catalog.BZ2_BASE_LAXCAT)
    assert rep3.equal and rep3.chi_grothendieck == 1 and rep3.sum_k_b_chi_fiber == Fraction(1, 2) * 2


def _discrete_laxcat(base_objects, fiber_objects) -> LaxFunctorToCat:
    """A discrete base with the same discrete fiber over each object, pulled back by identities."""
    base, fiber = fx.discrete_category(base_objects), fx.discrete_category(fiber_objects)
    pullback = {m.name: fx.identity_functor(fiber) for m in base.morphisms}
    return validate_laxcat(LaxFunctorToCat(base, {b: fiber for b in base.objects}, pullback))


def test_comma_object_labels_keep_every_pair():
    # ("a", ",b") and ("a,", "b") would both be written "(a,,b)"; as pairs they stay apart.
    lax = _discrete_laxcat(["a", "a,"], ["b", ",b"])
    gr = grothendieck_cat(lax)
    assert gr.objects == (("a", ",b"), ("a", "b"), ("a,", ",b"), ("a,", "b"))
    assert len(gr.total.morphisms) == 4
    rep = verify_gr_formula(lax)
    plain = verify_gr_formula(_discrete_laxcat(["a", "a2"], ["b", "b2"]))
    assert rep.equal and rep.chi_grothendieck == plain.chi_grothendieck == 4


def _comma_laxcat(fg: str = "f,g", gh: str = "g,h") -> LaxFunctorToCat:
    """Parallel base morphisms f and fg; fiber morphisms gh and h: x -> t; both pullbacks send y to t."""
    base = validate_category(
        ["0", "1"],
        [("id0", "0", "0"), ("id1", "1", "1"), ("f", "0", "1"), (fg, "0", "1")],
        {"0": "id0", "1": "id1"},
        {("id0", "id0"): "id0", ("id1", "id1"): "id1", ("f", "id0"): "f", ("id1", "f"): "f",
         (fg, "id0"): fg, ("id1", fg): fg},
    )
    over0 = validate_category(
        ["x", "t"],
        [("idx", "x", "x"), ("idt", "t", "t"), (gh, "x", "t"), ("h", "x", "t")],
        {"x": "idx", "t": "idt"},
        {("idx", "idx"): "idx", ("idt", "idt"): "idt", (gh, "idx"): gh, ("idt", gh): gh,
         ("h", "idx"): "h", ("idt", "h"): "h"},
    )
    over1 = fx.discrete_category(["y"])
    to_t = validate_functor(over1, over0, {"y": "t"}, {"idy": "idt"})
    pullback = {"id0": fx.identity_functor(over0), "id1": fx.identity_functor(over1), "f": to_t, fg: to_t}
    return validate_laxcat(LaxFunctorToCat(base, {"0": over0, "1": over1}, pullback))


def test_comma_morphism_labels_keep_every_triple():
    # (f, "g,h", y) and ("f,g", h, y) would both be written "(f,g,h,y)"; as triples they stay apart.
    gr = grothendieck_cat(_comma_laxcat())
    assert gr.hom[(("0", "x"), ("1", "y"))] == (
        ("f", "g,h", "y"), ("f", "h", "y"), ("f,g", "g,h", "y"), ("f,g", "h", "y")
    )
    assert gr.total is not None
    rep, plain = verify_gr_formula(_comma_laxcat()), verify_gr_formula(_comma_laxcat("fg", "gh"))
    assert rep.equal and rep.chi_grothendieck == plain.chi_grothendieck


def test_serialize_rejects_a_tuple_label():
    # Grothendieck objects and morphisms are tuples; only `gen fib-groupoids-functor` writes them as text.
    with pytest.raises(TypeError):
        serialize(grothendieck_cat(catalog.ARROW_BASE_LAXCAT).projection)


def _assert_assembled_as_the_oracle(lax: LaxFunctorToCat) -> GrothendieckCat:
    """grothendieck_cat(lax) equals the all-pairs assembly, and its projection's maps iterate in total's order."""
    gr = grothendieck_cat(lax)
    assert gr == category_oracle.grothendieck_total(lax)
    if gr.projection is not None:
        assert list(gr.projection.object_map) == list(gr.total.objects)
        assert list(gr.projection.morphism_map) == [m.name for m in gr.total.morphisms]
    return gr


def test_grothendieck_assembly_matches_the_oracle_on_the_catalog_and_fixtures(fixture_dir):
    docs = [parse(path.read_text(encoding="utf-8")).document for path in sorted(fixture_dir.glob("*.catj"))]
    laxcats = [d.value for d in docs if d.kind == "laxcat"]
    laxcats += [v for v in vars(catalog).values() if isinstance(v, LaxFunctorToCat)]
    assert len(laxcats) == 4
    for lax in laxcats:
        assert _assert_assembled_as_the_oracle(lax).total is not None


@pytest.mark.parametrize("seed", range(20))
def test_grothendieck_assembly_matches_the_oracle_on_generated_laxcats(seed):
    for size in range(1, 5):
        assert _assert_assembled_as_the_oracle(gen_groupoid_valued_laxcat(seed, size)).total is not None


def test_grothendieck_assembly_matches_the_oracle_on_built_laxcats():
    full = [
        validate_laxcat(_nonstrict_chain_laxcat(with_coherence=True)),
        _comma_laxcat(),
        _discrete_laxcat(["a", "a,"], ["b", ",b"]),
    ]
    for lax in full:
        assert _assert_assembled_as_the_oracle(lax).total is not None
    for lax, _ in NONSTRICT.values():
        assert _assert_assembled_as_the_oracle(validate_laxcat(lax)).total is None


def test_non_cocycle_coherence_fails_as_in_the_oracle():
    lax = validate_laxcat(_non_cocycle_laxcat())
    with pytest.raises(IncoherentData) as exc:
        grothendieck_cat(lax)
    with pytest.raises(IncoherentData) as oracle_exc:
        category_oracle.grothendieck_total(lax)
    assert str(exc.value) == str(oracle_exc.value)


def test_product_formula_quotient():
    rep = verify_product_formula_cat(catalog.EZ2_TO_BZ2)
    assert rep.equal
    assert rep.chi_total == 1
    assert rep.components[0][1] == Fraction(1, 2) and rep.components[0][2] == 2


def test_product_formula_identity():
    rep = verify_product_formula_cat(fx.identity_functor(catalog.SPAN))
    assert rep.equal and rep.chi_total == 1


def test_product_formula_disjoint_union():
    total = coproduct_cat([catalog.EZ2, catalog.SPAN])
    base = coproduct_cat([catalog.BZ2, catalog.SPAN])
    object_map = {"0:0": "0:*", "0:1": "0:*", "1:c": "1:c", "1:l": "1:l", "1:r": "1:r"}
    morphism_map = {"0:id0": "0:e", "0:id1": "0:e", "0:m01": "0:g", "0:m10": "0:g"}
    morphism_map.update({f"1:{m.name}": f"1:{m.name}" for m in catalog.SPAN.morphisms})
    p = validate_functor(total, base, object_map, morphism_map)
    rep = verify_product_formula_cat(p)
    assert rep.equal
    assert rep.chi_total == 2  # 1 (EZ2 over BZ2) + 1 (SPAN over itself)
    assert len(rep.components) == 2


def test_product_formula_rejects_non_bifibered():
    gr = grothendieck_cat(catalog.ARROW_BASE_LAXCAT)
    with pytest.raises(NotBiFibered):
        verify_product_formula_cat(gr.projection)


def test_generated_instances_fully_verify():
    for seed in range(10):
        lax = gen_groupoid_valued_laxcat(seed, 3)
        assert verify_gr_formula(lax).equal
        p = gen_fib_groupoids_functor(seed, 3)
        rep = classify_fibration(p)
        assert rep.fibered_in_groupoids and rep.cofibered_in_groupoids
        assert verify_product_formula_cat(p).equal
        # fibers of a functor fibered in groupoids are groupoids
        for b in p.target.objects:
            fib = fiber_category(p, b)
            assert all(fib.inverse_of(m.name) is not None for m in fib.morphisms)


def _is_lawful(cat) -> bool:
    """`cat` passes the exhaustive validator, which gives back an equal value."""
    return category_oracle.validate_category(cat.objects, cat.morphisms, cat.identity, cat.compose) == cat


def test_derived_subcategories_of_the_corpus_are_lawful(fixture_dir):
    docs = [parse(path.read_text(encoding="utf-8")).document for path in sorted(fixture_dir.glob("*.catj"))]
    functors = [d.value for d in docs if d.kind == "functor"]
    functors += [g.projection for g in (grothendieck_cat(d.value) for d in docs if d.kind == "laxcat") if g.projection]
    for p in functors:
        base = p.target
        for b in base.objects:
            assert _is_lawful(fiber_category(p, b)), b
        for comp in category_components(base):
            assert _is_lawful(subcategory(base, comp, [m for m in base.morphisms if m.src in comp])), comp
    homs = 0
    for lax in [d.value for d in docs if d.kind == "laxfunctor"]:
        for b in lax.target.objects:
            try:
                fiber = fiber_bicategory(lax, b)
            except InvalidInput:
                continue
            for hom in fiber.graph.hom.values():
                assert _is_lawful(hom), b
                homs += 1
    assert len(functors) >= 4 and homs
