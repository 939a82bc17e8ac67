"""Bicategorical fibrations, fiber bicategories and the Grothendieck cat-graph."""

from fractions import Fraction

import pytest

import bifib_oracle as oracle
import catalog
from bicat_euler import fixtures as fx
from bicat_euler.bicat import (
    biequivalence_witness,
    euler_char_cg,
    identity_lax_functor,
    pseudogroupoid_witness,
    validate_bicategory,
    validate_lax_functor,
)
from bicat_euler.bifib import (
    IllTypedComponent,
    Trihomomorphism,
    _check_cartesian_1cell,
    classify_bifibration,
    fiber_bicategory,
    grothendieck_cg,
    induced_trihomomorphism,
    strict_witness,
    validate_trihomomorphism,
    verify_gr_formula_bicat,
    verify_product_formula_bicat,
)
from bicat_euler.fib1 import NotBiFibered
from bicat_euler.fincat import validate_category, validate_functor
from bicat_euler.generators import gen_trihom
from bifib_oracle import gr_hom_coweighting
from builders import disjoint_union_lax_functor, gen_fib_pseudogroupoids_laxfunctor, product_projection


def _cartesian(p, x, y, f) -> bool:
    """Buckley cartesianness of the 1-cell f: x -> y; only a strict homomorphism has cartesian 1-cells."""
    return not strict_witness(p) and _check_cartesian_1cell(p, x, y, f) is None


def test_identity_lax_functor_1cells_cartesian():
    ident = identity_lax_functor(catalog.PSG)
    for x in catalog.PSG.objects:
        for y in catalog.PSG.objects:
            for f in catalog.PSG.onecells(x, y):
                assert _cartesian(ident, x, y, f)


def test_grothendieck_projection_1cells_cartesian():
    p = catalog.GR_PSG_OVER_ARROW
    for x in p.source.objects:
        for y in p.source.objects:
            for f in p.source.onecells(x, y):
                assert _cartesian(p, x, y, f)


def test_acyclic2_collapse_1cell_not_cartesian():
    p = fx.collapse_to_point(catalog.ACYCLIC2)
    assert not _cartesian(p, "0", "1", "s")


def test_classify_identity_on_psg():
    rep = classify_bifibration(identity_lax_functor(catalog.PSG))
    assert rep.locally_fibered_in_groupoids and rep.one_lifts and rep.all_1cells_cartesian
    assert rep.fibered_in_pseudogroupoids and rep.cofibered_in_pseudogroupoids


def test_classify_psg_collapse():
    rep = classify_bifibration(catalog.PSG_COLLAPSE)
    assert rep.fibered_in_pseudogroupoids and rep.cofibered_in_pseudogroupoids


def test_classify_missing_preimage():
    # point into the arrow bicategory at object 1: the base 1-cell a has no lift
    hom_functors = {
        ("*", "*"): validate_functor(
            catalog.BPT.hom_at("*", "*"),
            catalog.ARROW_BICAT.hom_at("1", "1"),
            {"I": "id1"},
            {"idI": "idid1"},
        )
    }
    p = validate_lax_functor(catalog.BPT, catalog.ARROW_BICAT, {"*": "1"}, hom_functors)
    rep = classify_bifibration(p)
    assert not rep.one_lifts
    assert rep.witnesses.get("no_1cell_lift") == ("a", "*")
    assert not rep.fibered_in_pseudogroupoids


def test_fiber_of_identity_is_point_shaped():
    # cells strictly over (p, id_p, id_{id_p}): the point, so chi(fiber) = 1
    fib = fiber_bicategory(identity_lax_functor(catalog.PSG), "p")
    assert fib.objects == ("p",)
    assert euler_char_cg(fib.graph).chi == 1
    assert not pseudogroupoid_witness(fib)


def test_product_formula_identity_on_psg():
    # the identity decomposes as chi(PSG) = chi(PSG)·chi(point): 2 = 2·1
    rep = verify_product_formula_bicat(identity_lax_functor(catalog.PSG))
    assert rep.equal and rep.chi_total == 2
    assert rep.components[0][1] == 2 and rep.components[0][2] == 1


def test_fiber_of_collapse_is_whole_pseudogroupoid():
    fib = fiber_bicategory(catalog.PSG_COLLAPSE, "*")
    assert fib.objects == ("p", "q")
    assert euler_char_cg(fib.graph).chi == 2
    assert not pseudogroupoid_witness(fib)


def test_fiber_of_product_projection():
    p = catalog.GR_PSG_OVER_ARROW
    for b in ("0", "1"):
        fib = fiber_bicategory(p, b)
        assert euler_char_cg(fib.graph).chi == 2
        assert not pseudogroupoid_witness(fib)


def test_fiber_unknown_object():
    from bicat_euler.fincat import InvalidInput

    with pytest.raises(InvalidInput, match=r"^'nope' is no object of the base$"):
        fiber_bicategory(catalog.PSG_COLLAPSE, "nope")


def test_fiber_over_an_object_whose_identity_1cell_maps_elsewhere():
    # p maps the identity I of BPT to J in a one-object target: a lax functor no command sends here,
    # since a strict homomorphism preserves identity 1-cells.
    hom = fx.discrete_category(["I", "J"])
    target = validate_bicategory(
        ["*"], {("*", "*"): hom}, {"*": "I"}, {(("*", "*", "*"), g, f): "J" for g in "IJ" for f in "IJ"}
    )
    fun = validate_functor(catalog.BPT.hom_at("*", "*"), hom, {"I": "J"}, {"idI": "idJ"})
    p = validate_lax_functor(catalog.BPT, target, {"*": "*"}, {("*", "*"): fun})
    with pytest.raises(NotBiFibered, match=r"^identity 1-cell of \* does not sit over id_\*$"):
        fiber_bicategory(p, "*")


def _thin_bicategory(obj, hom, identity, compose):
    """One object whose hom is the thin category `hom`, with compose1 given by compose(g, f) and hcompose2 forced."""
    cells = hom.objects
    compose1 = {((obj, obj, obj), g, f): compose(g, f) for g in cells for f in cells}
    hcompose2 = {
        ((obj, obj, obj), b.name, a.name): hom.hom(compose(b.src, a.src), compose(b.dst, a.dst))[0]
        for b in hom.morphisms
        for a in hom.morphisms
    }
    return validate_bicategory([obj], {(obj, obj): hom}, {obj: identity}, compose1, hcompose2)


def _no_component_homomorphism():
    """A strict homomorphism onto the thin base I => J with a cartesian lift s: e => j of I => J, but no component.

    Over I lie the idempotent a and the identity e, with a 2-cell r: a => e; over J lies j, which absorbs
    every composite.  The least lift of I is a, and a∘u = a for each u over I, which is not isomorphic to e.
    """
    base_hom = validate_category(
        ["I", "J"],
        [("idI", "I", "I"), ("idJ", "J", "J"), ("alpha", "I", "J")],
        {"I": "idI", "J": "idJ"},
        {("idI", "idI"): "idI", ("idJ", "idJ"): "idJ", ("alpha", "idI"): "alpha", ("idJ", "alpha"): "alpha"},
    )
    base = _thin_bicategory("*", base_hom, "I", lambda g, f: "J" if "J" in (g, f) else "I")
    morphisms = [("ida", "a", "a"), ("ide", "e", "e"), ("idj", "j", "j")]
    morphisms += [("r", "a", "e"), ("s", "e", "j"), ("t", "a", "j")]
    compose = {("s", "r"): "t"}
    for name, src, dst in morphisms:
        compose[(f"id{dst}", name)] = compose[(name, f"id{src}")] = name
    total_hom = validate_category(["a", "e", "j"], morphisms, {x: f"id{x}" for x in "aej"}, compose)

    def compose1(g, f):
        if "j" in (g, f):
            return "j"
        return f if g == "e" else g if f == "e" else "a"

    total = _thin_bicategory("y", total_hom, "e", compose1)
    images = {"ida": "idI", "ide": "idI", "idj": "idJ", "r": "idI", "s": "alpha", "t": "alpha"}
    fun = validate_functor(total_hom, base_hom, {"a": "I", "e": "I", "j": "J"}, images)
    return validate_lax_functor(total, base, {"y": "*"}, {("y", "y"): fun})


def test_a_strict_homomorphism_without_a_2cell_component(capsys, tmp_path):
    from bicat_euler.catdsl import serialize
    from bicat_euler.cli import main

    p = _no_component_homomorphism()
    assert strict_witness(p) == {}
    with pytest.raises(NotBiFibered, match=r"^no component 1-cell for alpha at y$"):
        induced_trihomomorphism(p)
    path = tmp_path / "no-component.catj"
    path.write_text(serialize(p), encoding="utf-8")
    assert main(["verify", "gr-bicat", str(path)]) == 2
    assert capsys.readouterr() == ("", "input error: no component 1-cell for alpha at y\n")


def _fiber_chis(p, b, c, f):
    """chi of fiber(c) and of fiber(b), once the pullback f*: fiber(c) -> fiber(b) is checked to be a biequivalence."""
    pullback = induced_trihomomorphism(p).pullback1[(b, c, f)]
    assert not biequivalence_witness(pullback)
    return euler_char_cg(pullback.source.graph).chi, euler_char_cg(pullback.target.graph).chi


def test_fiber_pullback_identity_cell():
    chi_c, chi_b = _fiber_chis(catalog.GR_PSG_OVER_ARROW, "0", "0", "id0")
    assert chi_c == chi_b


def test_fiber_biequivalence_along_arrow():
    assert _fiber_chis(catalog.GR_PSG_OVER_ARROW, "0", "1", "a") == (2, 2)


def test_fiber_chi_constant_across_one_cells():
    p = catalog.GR_PSG_OVER_ARROW
    for (b, c, f) in [("0", "0", "id0"), ("1", "1", "id1"), ("0", "1", "a")]:
        chi_c, chi_b = _fiber_chis(p, b, c, f)
        assert chi_c == chi_b


def test_fiber_chi_cleavage_independent():
    # The oracle's "max" cleavage takes the greatest 1-cell lift where the sweep takes the least.
    cases = [
        catalog.GR_PSG_OVER_ARROW,
        catalog.PSG_COLLAPSE,
        product_projection(catalog.EZ2_BICAT, catalog.PSG),
        fx.collapse_to_point(fx.suspension_two_group(["p", "q"], *fx.cyclic_group(3))),
    ]
    for p in cases:
        lo, hi = oracle.induced_trihomomorphism(p, "min"), oracle.induced_trihomomorphism(p, "max")
        assert lo != hi
        rep_lo, rep_hi = verify_gr_formula_bicat(lo), verify_gr_formula_bicat(hi)
        assert rep_lo.chi_grothendieck == rep_hi.chi_grothendieck
        assert rep_lo.sum_k_b_chi_fiber == rep_hi.sum_k_b_chi_fiber


def test_grothendieck_cg_point_base():
    t = fx.constant_trihomomorphism(catalog.BPT, catalog.PSG)
    gr = grothendieck_cg(t)
    assert gr.objects == (("*", "p"), ("*", "q"))
    zeta = gr.zeta()
    assert all(v == Fraction(1, 2) for row in zeta.entries for v in row)
    assert gr.euler().chi == 2


def test_grothendieck_cg_arrow_base():
    t = fx.constant_trihomomorphism(catalog.ARROW_BICAT, catalog.PSG)
    gr = grothendieck_cg(t)
    assert gr.euler().chi == 2


def test_grothendieck_cg_two_group_hand_count():
    # base ΣZ2, fiber the discrete suspension of Z4, rho sending the flip to g2:
    # 1-cells (f,u) with u in Z4; 2-cells (alpha, beta): beta exists iff u = rho(alpha)v
    elts_g, mult_g, unit_g = fx.cyclic_group(2)
    elts_h, mult_h, unit_h = fx.cyclic_group(4)
    base = fx.suspension_two_group(["*"], elts_g, mult_g, unit_g)
    fiber = fx.discrete_suspension(elts_h, mult_h, unit_h)
    rho = {"g0": "g0", "g1": "g2"}
    t = validate_trihomomorphism(
        Trihomomorphism(
            base,
            {"*": fiber},
            {("*", "*", "m**"): identity_lax_functor(fiber)},
            {("*", "*", a): {"*": rho[a]} for a in elts_g},
        )
    )
    gr = grothendieck_cg(t)
    hom = gr.homs[(("*", "*"), ("*", "*"))]
    assert len(hom.onecells) == 4
    counts = hom.count_matrix()
    at = {label: i for i, label in enumerate(counts.rows)}
    for u in range(4):
        for v in range(4):
            expected = sum(1 for a in (0, 1) if (2 * a + v) % 4 == u)
            assert counts.entries[at[("m**", f"g{u}")]][at[("m**", f"g{v}")]] == expected
    assert gr.euler().chi == Fraction(1, 2)  # |G|/|H|


def test_gr_hom_coweighting_cases():
    t0 = fx.constant_trihomomorphism(catalog.BPT, catalog.PSG)
    cw = gr_hom_coweighting(t0, ("*", "p"), ("*", "q"))
    assert cw.to_json() == {("I", "mpq"): "1/2"}
    t1 = fx.constant_trihomomorphism(catalog.ARROW_BICAT, catalog.PSG)
    cw1 = gr_hom_coweighting(t1, ("0", "p"), ("1", "q"))
    assert sum(cw1.entries, Fraction(0)) == Fraction(1, 2)
    t2 = gen_trihom(1, 2)  # 2-group family
    source = ("*", t2.fiber["*"].objects[0])
    gr_hom_coweighting(t2, source, source)  # the defining identity is asserted inside


def test_verify_gr_formula_bicat_cases():
    rep0 = verify_gr_formula_bicat(fx.constant_trihomomorphism(catalog.BPT, catalog.PSG))
    assert rep0.equal and rep0.chi_grothendieck == 2
    rep1 = verify_gr_formula_bicat(fx.constant_trihomomorphism(catalog.ARROW_BICAT, catalog.PSG))
    assert rep1.equal and rep1.chi_grothendieck == 2
    assert rep1.base_coweighting.to_json() == {"0": "1", "1": "0"}
    rep2 = verify_gr_formula_bicat(fx.constant_trihomomorphism(catalog.BZ2_TWOGROUP, catalog.PSG))
    assert rep2.equal and rep2.chi_grothendieck == 4  # 2 · 2
    assert rep2.product_coweighting_valid


def _renamed_z2_suspension(unit: str, other: str):
    """The one-object suspension of Z/2, with its 1-cells named unit and other."""
    elements, mult, e = fx.cyclic_group(2)
    name = {e: unit, next(g for g in elements if g != e): other}
    return fx.discrete_suspension(
        [name[g] for g in elements], {(name[a], name[b]): name[c] for (a, b), c in mult.items()}, unit
    )


def test_comma_onecell_labels_keep_every_pair():
    # In the one hom of the Grothendieck construction, ("f", "g,h") and ("f,g", "h") would both be
    # written "(f,g,h)"; as pairs they stay apart: four 1-cells, none lost.
    t = fx.constant_trihomomorphism(_renamed_z2_suspension("f", "f,g"), _renamed_z2_suspension("h", "g,h"))
    assert grothendieck_cg(t).homs[(("*", "*"), ("*", "*"))].onecells == (
        ("f", "g,h"), ("f", "h"), ("f,g", "g,h"), ("f,g", "h")
    )
    plain = fx.constant_trihomomorphism(_renamed_z2_suspension("f", "fg"), _renamed_z2_suspension("h", "gh"))
    rep, plain_rep = verify_gr_formula_bicat(t), verify_gr_formula_bicat(plain)
    assert rep.equal and rep.product_coweighting_valid
    assert rep.chi_grothendieck == plain_rep.chi_grothendieck


def test_verify_gr_formula_bicat_accepts_lax_functor():
    # the induced trihomomorphism of the collapse realizes chi(Gr) = chi(E) = 2
    rep = verify_gr_formula_bicat(catalog.PSG_COLLAPSE)
    assert rep.equal and rep.chi_grothendieck == 2 and rep.product_coweighting_valid


def test_verify_product_formula_collapse():
    rep = verify_product_formula_bicat(catalog.PSG_COLLAPSE)
    assert rep.equal and rep.grothendieck_matches_total
    assert rep.chi_total == 2 and rep.components[0][1] == 1 and rep.components[0][2] == 2


def test_verify_product_formula_connected_two_object_base():
    rep = verify_product_formula_bicat(catalog.GR_PSG_OVER_ARROW)
    assert rep.equal and rep.chi_total == 2
    assert len(rep.components) == 1 and rep.components[0][1] == 1 and rep.components[0][2] == 2


def test_verify_product_formula_disjoint_base():
    # components (chi 1, fiber 2) and (chi 2, fiber 2): total 1·2 + 2·2 = 6
    left = catalog.GR_PSG_OVER_ARROW
    right = product_projection(catalog.BZ2_TWOGROUP, catalog.PSG)
    union = disjoint_union_lax_functor(left, right)
    rep = verify_product_formula_bicat(union)
    assert rep.equal and rep.chi_total == 6
    assert sorted((cb, cf) for _, cb, cf in rep.components) == [(1, 2), (2, 2)]


def test_verify_product_formula_rejects_non_fibered():
    p = fx.collapse_to_point(catalog.ACYCLIC2)
    with pytest.raises(NotBiFibered):
        verify_product_formula_bicat(p)


def test_trihom_illtyped_component():
    t = fx.constant_trihomomorphism(catalog.BPT, catalog.PSG)
    broken = dict(t.pullback2)
    key = ("*", "*", "idI")
    broken[key] = {"p": "mqq", "q": t.pullback2[key]["q"]}
    with pytest.raises(IllTypedComponent):
        validate_trihomomorphism(Trihomomorphism(t.base, t.fiber, t.pullback1, broken))


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"fiber": {}}, "missing fiber over *"),
        ({"pullback1": {}}, "missing pullback lax functor along I: * -> *"),
        ({"pullback1": {("*", "*", "I"): fx.collapse_to_point(catalog.PSG)}}, "pullback along I has wrong target"),
        ({"pullback2": {}}, "missing components for base 2-cell idI"),
    ],
    ids=["fiber", "pullback1", "pullback1-target", "pullback2"],
)
def test_trihom_missing_or_mistyped_data(fields, message):
    t = fx.constant_trihomomorphism(catalog.BPT, catalog.PSG)
    parts = {"base": t.base, "fiber": t.fiber, "pullback1": t.pullback1, "pullback2": t.pullback2}
    with pytest.raises(IllTypedComponent) as exc:
        validate_trihomomorphism(Trihomomorphism(**{**parts, **fields}))
    assert str(exc.value) == message


def test_trihom_pullback_with_wrong_source():
    # The parser builds each pullback on its fiber, so no document reaches this check.
    t = fx.constant_trihomomorphism(catalog.ARROW_BICAT, catalog.PSG)
    bz2 = fx.bz2_twogroup()
    pullback1 = {
        **t.pullback1,
        ("1", "1", catalog.ARROW_BICAT.id1("1")): identity_lax_functor(bz2),
        ("0", "1", "a"): identity_lax_functor(catalog.PSG),
    }
    broken = Trihomomorphism(t.base, {**t.fiber, "1": bz2}, pullback1, t.pullback2)
    with pytest.raises(IllTypedComponent, match="^pullback along a has wrong source$"):
        validate_trihomomorphism(broken)


def test_strict_witness_names_each_failure():
    z3 = fx.discrete_suspension(*fx.cyclic_group(3))
    hom = z3.hom_at("*", "*")

    def z3_self_map(image):
        cells = {g: image.get(g, g) for g in hom.objects}
        functor = validate_functor(hom, hom, cells, {f"id{g}": f"id{h}" for g, h in cells.items()})
        return validate_lax_functor(z3, z3, {"*": "*"}, {("*", "*"): functor})

    source, target = fx.suspension_two_group(["0", "1"], *fx.cyclic_group(2)), fx.bz2_twogroup()
    hom_functors = {}
    for x in source.objects:
        for y in source.objects:
            src = source.hom_at(x, y)
            twocells = {m.name: m.name if (x, y) == ("0", "1") else "g0" for m in src.morphisms}
            hom_functors[(x, y)] = validate_functor(src, target.hom_at("*", "*"), {f"m{x}{y}": "m**"}, twocells)
    object_map = {"0": "*", "1": "*"}

    def bare(bi):
        return validate_bicategory(bi.objects, bi.graph.hom, bi.identity1, bi.compose1)

    ident = identity_lax_functor(target)

    def coherent(phi=None, psi=None):
        return validate_lax_functor(target, target, ident.object_map, ident.hom_functors, phi, psi)

    cases = [
        # hcompose2 is required on both sides, whatever else holds.
        (validate_lax_functor(bare(source), target, object_map, hom_functors), ("hcompose2", "source")),
        (validate_lax_functor(source, bare(target), object_map, hom_functors), ("hcompose2", "target")),
        # The identity 1-cell g0 goes to g1.
        (z3_self_map({"g0": "g1", "g1": "g0"}), ("identity1", "*")),
        # g1∘g1 = g2 goes to g1, and the images compose to g2.
        (z3_self_map({"g2": "g1"}), ("compose1", ("*", "*", "*"), "g1", "g1")),
        # Strict on 1-cells, but hom(0, 1) keeps its 2-cells while hom(0, 0) sends them to the unit,
        # so a horizontal composite β∘α in hom(0, 1) goes to β, not to β∘α.
        (validate_lax_functor(source, target, object_map, hom_functors), ("hcompose2", ("0", "0", "1"), "g0", "g1")),
        # The identity of a strict 2-group with a coherence cell that is no identity.
        (coherent({(("*",) * 3, "m**", "m**"): "g1"}), ("phi", ("*", "*", "*"), "m**", "m**")),
        (coherent(psi={"*": "g1"}), ("psi", "*")),
    ]
    for p, witness in cases:
        assert strict_witness(p) == oracle.strict_witness(p) == {"not_strict": witness}, witness
        rep = classify_bifibration(p)
        assert rep == oracle.classify_bifibration(p)
        assert rep.witnesses["not_strict"] == rep.witnesses["co_not_strict"] == witness
        assert not (rep.all_1cells_cartesian or rep.fibered_in_pseudogroupoids or rep.cofibered_in_pseudogroupoids)
    # An all-identity phi and psi count as absent.
    identities = coherent({(("*",) * 3, "m**", "m**"): "g0"}, {"*": "g0"})
    assert strict_witness(identities) == oracle.strict_witness(identities) == strict_witness(ident) == {}


def test_fiber_refuses_a_composite_that_leaves_it():
    # g1 sits over the identity g0, but g1∘g1 = g2 goes to g2: no strict lax functor does this.
    z3 = fx.discrete_suspension(*fx.cyclic_group(3))
    hom = z3.hom_at("*", "*")
    cells = {"g0": "g0", "g1": "g0", "g2": "g2"}
    functor = validate_functor(hom, hom, cells, {f"id{g}": f"id{h}" for g, h in cells.items()})
    p = validate_lax_functor(z3, z3, {"*": "*"}, {("*", "*"): functor})
    assert strict_witness(p) == {"not_strict": ("compose1", ("*", "*", "*"), "g1", "g1")}
    for build in (fiber_bicategory, oracle.fiber_bicategory):
        with pytest.raises(NotBiFibered, match="^composite g1∘g1 leaves the fiber$"):
            build(p, "*")


def test_induced_trihomomorphism_of_projection():
    t = induced_trihomomorphism(catalog.GR_PSG_OVER_ARROW)
    assert set(t.fiber) == {"0", "1"}
    for b in t.fiber:
        assert not pseudogroupoid_witness(t.fiber[b])
    gr = grothendieck_cg(t)
    assert gr.euler().chi == euler_char_cg(catalog.GR_PSG_OVER_ARROW.source.graph).chi


def test_generated_instances_pass_everything():
    for seed in range(8):
        p = gen_fib_pseudogroupoids_laxfunctor(seed, 2)
        rep = classify_bifibration(p)
        assert rep.fibered_in_pseudogroupoids and rep.cofibered_in_pseudogroupoids, seed
        out = verify_product_formula_bicat(p)
        assert out.equal and out.grothendieck_matches_total, seed


def test_generated_trihoms_pass_everything():
    for seed in range(6):
        t = gen_trihom(seed, 2)
        for b in t.base.objects:
            assert not pseudogroupoid_witness(t.fiber[b])
        rep = verify_gr_formula_bicat(t)
        assert rep.equal and rep.product_coweighting_valid, seed
