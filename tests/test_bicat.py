"""Cat-graphs and bicategories: chi, acyclicity, pseudogroupoids, biequivalence."""

from fractions import Fraction

import pytest

from bicat_euler import fixtures as fx
from bicat_euler.bicat import (
    MissingCompositionData,
    NotAcyclic,
    NotBiequivalence,
    NotPseudogroupoid,
    acyclic_bicat_witness,
    biequivalence_witness,
    check_biequivalence,
    coop_lax_functor,
    coproduct_cg,
    equivalence_classes,
    euler_acyclic_bicat,
    euler_char_cg,
    identity_lax_functor,
    is_acyclic_bicat,
    make_catgraph,
    op1_bicategory,
    op2_bicategory,
    product_cg,
    pseudogroupoid_check,
    pseudogroupoid_witness,
    pseudogroupoid_euler,
    similarity_matrix_cg,
    validate_bicategory,
    validate_lax_functor,
    verify_biequivalence_invariance,
)
from bicat_euler.exactq import QMatrix, matrix_euler
from bicat_euler.generators import (
    gen_biequivalence,
    gen_catgraph_with_chi,
    gen_pseudogroupoid,
    inflate_bicategory,
)


def test_similarity_matrix_trivial_ez2():
    zeta = similarity_matrix_cg(fx.EZ2_BICAT.graph)
    assert all(v == 1 for row in zeta.entries for v in row)


def test_similarity_matrix_bz2_hom():
    graph = make_catgraph(["x"], {("x", "x"): fx.BZ2})
    assert similarity_matrix_cg(graph).entries == ((Fraction(1, 2),),)
    assert euler_char_cg(graph).chi == 2


def test_similarity_matrix_acyclic_example():
    g = make_catgraph(
        ["0", "1"],
        {("0", "0"): fx.one_object_cat("id0"), ("1", "1"): fx.one_object_cat("id1"), ("0", "1"): fx.ARROW},
    )
    zeta = similarity_matrix_cg(g)
    assert zeta.entries == ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1)))
    assert euler_char_cg(g).chi == 1


def test_euler_trivial_ez2_graph():
    assert euler_char_cg(fx.EZ2_BICAT.graph).chi == 1


def test_nochi_catgraph_has_no_weighting():
    # zeta = [[1,1],[2,2]]: the rows are proportional with ratio 2, so no weighting
    e = euler_char_cg(fx.NOCHI_CATGRAPH)
    assert e.chi is None
    assert e.missing() == ("weighting",)
    assert e.coweighting is not None


def test_coproduct_product_cg():
    one = make_catgraph(["x"], {("x", "x"): fx.BZ2})
    # each summand has chi 2 (the 1x1 solve of [1/2]), so the coproduct adds to 4
    co = coproduct_cg([one, one])
    assert euler_char_cg(co).chi == 4
    prod = product_cg([one, one])
    assert euler_char_cg(prod).chi == 4  # hom BZ2 x BZ2 has chi 1/4
    assert euler_char_cg(coproduct_cg([one])).chi == Fraction(2)


def test_coproduct_with_empty_graph_unchanged():
    empty = make_catgraph([], {})
    co = coproduct_cg([fx.PSG.graph, empty])
    assert euler_char_cg(co).chi == euler_char_cg(fx.PSG.graph).chi


def test_is_acyclic_bicat():
    assert is_acyclic_bicat(fx.ACYCLIC2)
    assert not is_acyclic_bicat(fx.EZ2_BICAT)  # two-way 1-cells
    assert not is_acyclic_bicat(fx.BZ2_TWOGROUP)  # endo-hom not equivalent to the point


def test_acyclic_bicat_witness():
    assert acyclic_bicat_witness(fx.ACYCLIC2) == {}
    assert acyclic_bicat_witness(fx.EZ2_BICAT) == {"opposed_1cells": ("0", "1", "m01", "m10")}
    assert acyclic_bicat_witness(fx.BZ2_TWOGROUP) == {"non_identity_endomorphism": ("*", "*", "g1")}
    assert acyclic_bicat_witness(fx.PSG) == {"non_identity_endomorphism": ("p", "p", "g1")}
    z2 = fx.discrete_suspension(*fx.cyclic_group(2))  # acyclic homs, but two 1-cells * -> *
    assert acyclic_bicat_witness(z2) == {"endo_hom_not_point": ("*",)}


def test_euler_acyclic_bicat():
    assert euler_acyclic_bicat(fx.ACYCLIC2) == 1
    discrete = validate_bicategory(
        ["0", "1", "2"],
        {(str(i), str(i)): fx.one_object_cat(f"id{i}") for i in range(3)},
        {str(i): f"id{i}" for i in range(3)},
        {((str(i), str(i), str(i)), f"id{i}", f"id{i}"): f"id{i}" for i in range(3)},
    )
    assert euler_acyclic_bicat(discrete) == 3
    with pytest.raises(NotAcyclic):
        euler_acyclic_bicat(fx.PSG)


def test_euler_acyclic_three_object_chain():
    # hom(0,1) = hom(1,2) = PAIR-shaped, hom(0,2) richer; chi via inverse entry sum
    pair_hom = fx.discrete_category(["u", "v"])
    span_hom = fx.discrete_category(["s1", "s2", "s3"])
    compose1 = {}
    for i in range(3):
        compose1[((str(i), str(i), str(i)), f"id{i}", f"id{i}")] = f"id{i}"
    for f in ("u", "v"):
        compose1[(("0", "0", "1"), f, "id0")] = f
        compose1[(("0", "1", "1"), "id1", f)] = f
        compose1[(("1", "1", "2"), f, "id1")] = f
        compose1[(("1", "2", "2"), "id2", f)] = f
    for s in ("s1", "s2", "s3"):
        compose1[(("0", "0", "2"), s, "id0")] = s
        compose1[(("0", "2", "2"), "id2", s)] = s
    compose1[(("0", "1", "2"), "u", "u")] = "s1"
    compose1[(("0", "1", "2"), "u", "v")] = "s2"
    compose1[(("0", "1", "2"), "v", "u")] = "s2"
    compose1[(("0", "1", "2"), "v", "v")] = "s3"
    b = validate_bicategory(
        ["0", "1", "2"],
        {
            ("0", "0"): fx.one_object_cat("id0"),
            ("1", "1"): fx.one_object_cat("id1"),
            ("2", "2"): fx.one_object_cat("id2"),
            ("0", "1"): pair_hom,
            ("1", "2"): pair_hom,
            ("0", "2"): span_hom,
        },
        {"0": "id0", "1": "id1", "2": "id2"},
        compose1,
    )
    assert is_acyclic_bicat(b)
    chi = euler_acyclic_bicat(b)
    assert chi == euler_char_cg(b.graph).chi


def test_equivalence_classes():
    assert equivalence_classes(fx.EZ2_BICAT).classes == (("0", "1"),)
    discrete2 = validate_bicategory(
        ["0", "1"],
        {("0", "0"): fx.one_object_cat("id0"), ("1", "1"): fx.one_object_cat("id1")},
        {"0": "id0", "1": "id1"},
        {(("0", "0", "0"), "id0", "id0"): "id0", (("1", "1", "1"), "id1", "id1"): "id1"},
    )
    assert equivalence_classes(discrete2).classes == (("0",), ("1",))
    assert equivalence_classes(fx.ACYCLIC2).classes == (("0",), ("1",))


def test_equivalence_classes_requires_composition():
    from bicat_euler.bicat import Bicategory

    bare = Bicategory(fx.PSG.graph, None, None)
    with pytest.raises(MissingCompositionData):
        equivalence_classes(bare)


def test_pseudogroupoid_check():
    assert pseudogroupoid_check(fx.EZ2_BICAT)
    assert pseudogroupoid_check(fx.BZ2_TWOGROUP)
    assert not pseudogroupoid_check(fx.ACYCLIC2)


def test_pseudogroupoid_witness_names_the_first_failing_cell():
    assert pseudogroupoid_witness(fx.ACYCLIC2) == {"non_invertible_2cell": ("0", "1", "a2")}
    assert pseudogroupoid_witness(fx.ARROW_BICAT) == {"non_equivalence_1cell": ("0", "1", "a")}
    assert pseudogroupoid_witness(fx.PSG) == {}


def test_pseudogroupoid_euler_values():
    assert pseudogroupoid_euler(fx.PSG) == 2
    assert pseudogroupoid_euler(fx.EZ2_BICAT) == 1
    assert pseudogroupoid_euler(fx.BZ2_TWOGROUP) == 2
    with pytest.raises(NotPseudogroupoid):
        pseudogroupoid_euler(fx.ACYCLIC2)


def test_connected_pseudogroupoid_constant_zeta():
    for seed in range(8):
        b = gen_pseudogroupoid(seed, 3)
        zeta = similarity_matrix_cg(b.graph)
        base = b.objects[0]
        value = zeta.at(base, base)
        assert all(v == value for row in zeta.entries for v in row)
        assert pseudogroupoid_euler(b) == 1 / value


def test_check_biequivalence():
    assert check_biequivalence(identity_lax_functor(fx.PSG))
    inflated, inclusion = inflate_bicategory(fx.BPT, [2])
    assert check_biequivalence(inclusion)


def test_check_biequivalence_negative():
    discrete2 = validate_bicategory(
        ["0", "1"],
        {("0", "0"): fx.one_object_cat("id0"), ("1", "1"): fx.one_object_cat("id1")},
        {"0": "id0", "1": "id1"},
        {(("0", "0", "0"), "id0", "id0"): "id0", (("1", "1", "1"), "id1", "id1"): "id1"},
    )
    from bicat_euler.bicat import LaxFunctorBicat

    # inclusion of one object into the discrete 2-object bicategory
    one = validate_bicategory(
        ["0"],
        {("0", "0"): fx.one_object_cat("id0")},
        {"0": "id0"},
        {(("0", "0", "0"), "id0", "id0"): "id0"},
    )
    from bicat_euler.fincat import validate_functor

    inclusion = LaxFunctorBicat(
        one,
        discrete2,
        {"0": "0"},
        {("0", "0"): validate_functor(
            one.hom_at("0", "0"), discrete2.hom_at("0", "0"), {"id0": "id0"}, {"idid0": "idid0"}
        )},
    )
    assert not check_biequivalence(inclusion)
    assert biequivalence_witness(inclusion) == {"unreached_object": ("1",)}


def test_biequivalence_witness():
    assert biequivalence_witness(identity_lax_functor(fx.PSG)) == {}
    assert biequivalence_witness(fx.collapse_to_point(fx.PSG)) == {"non_equivalence_hom": ("p", "p")}


def test_biequivalence_invariance_point_into_ez2():
    inflated, inclusion = inflate_bicategory(fx.BPT, [2])
    rep = verify_biequivalence_invariance(inclusion)
    assert rep.equal and rep.transported_valid
    assert rep.chi_source == 1 and rep.chi_target == 1
    assert rep.transported_weighting.entries == (Fraction(1),)


def test_biequivalence_invariance_identity():
    rep = verify_biequivalence_invariance(identity_lax_functor(fx.PSG))
    assert rep.equal and rep.transported_valid


def test_biequivalence_invariance_two_group_vs_psg():
    # one-object Z2 two-group against the 2-object pseudogroupoid: both chi 2
    inflated, inclusion = inflate_bicategory(fx.BZ2_TWOGROUP, [2])
    rep = verify_biequivalence_invariance(inclusion)
    assert rep.equal and rep.chi_source == 2 and rep.chi_target == 2


def test_biequivalence_invariance_rejects_non_biequivalence():
    discrete2 = validate_bicategory(
        ["0", "1"],
        {("0", "0"): fx.one_object_cat("id0"), ("1", "1"): fx.one_object_cat("id1")},
        {"0": "id0", "1": "id1"},
        {(("0", "0", "0"), "id0", "id0"): "id0", (("1", "1", "1"), "id1", "id1"): "id1"},
    )
    one = validate_bicategory(
        ["0"], {("0", "0"): fx.one_object_cat("id0")}, {"0": "id0"},
        {(("0", "0", "0"), "id0", "id0"): "id0"},
    )
    from bicat_euler.bicat import LaxFunctorBicat
    from bicat_euler.fincat import validate_functor

    inclusion = LaxFunctorBicat(
        one, discrete2, {"0": "0"},
        {("0", "0"): validate_functor(
            one.hom_at("0", "0"), discrete2.hom_at("0", "0"), {"id0": "id0"}, {"idid0": "idid0"}
        )},
    )
    with pytest.raises(NotBiequivalence):
        verify_biequivalence_invariance(inclusion)


def test_optional_coherence_cells_frame_checked():
    from bicat_euler.bicat import MissingCompositionData as MCD

    # BPT with its (unique) associator and unitors attached: frames hold
    assoc = {(("*", "*", "*", "*"), "I", "I", "I"): "idI"}
    unitors = {("*", "*", "I"): "idI"}
    b = validate_bicategory(
        ["*"],
        {("*", "*"): fx.one_object_cat("I")},
        {"*": "I"},
        {(("*", "*", "*"), "I", "I"): "I"},
        hcompose2={(("*", "*", "*"), "idI", "idI"): "idI"},
        associator=assoc,
        unitor_l=unitors,
        unitor_r=unitors,
    )
    assert b.associator is not None
    with pytest.raises(MCD):
        validate_bicategory(
            ["*"],
            {("*", "*"): fx.one_object_cat("I")},
            {"*": "I"},
            {(("*", "*", "*"), "I", "I"): "I"},
            associator={},  # missing the required component
        )


@pytest.mark.parametrize("field", ["hcompose2", "associator", "unitor_l", "unitor_r"])
def test_unknown_2cell_names_are_rejected(field):
    cells = {
        "hcompose2": {(("*", "*", "*"), "idI", "idI"): "idI"},
        "associator": {(("*", "*", "*", "*"), "I", "I", "I"): "idI"},
        "unitor_l": {("*", "*", "I"): "idI"},
        "unitor_r": {("*", "*", "I"): "idI"},
    }
    cells[field] = {key: "zz" for key in cells[field]}
    with pytest.raises(MissingCompositionData, match="unknown 2-cell 'zz'"):
        validate_bicategory(
            ["*"], {("*", "*"): fx.one_object_cat("I")}, {"*": "I"}, {(("*", "*", "*"), "I", "I"): "I"}, **cells
        )


def test_phi_psi_frames_validated():
    from bicat_euler.bicat import MissingCompositionData as MCD
    from bicat_euler.fincat import validate_functor as vf

    hom_functors = {
        ("*", "*"): vf(
            fx.BPT.hom_at("*", "*"), fx.BPT.hom_at("*", "*"), {"I": "I"}, {"idI": "idI"}
        )
    }
    lax = validate_lax_functor(
        fx.BPT, fx.BPT, {"*": "*"}, hom_functors,
        phi={(("*", "*", "*"), "I", "I"): "idI"}, psi={"*": "idI"},
    )
    assert lax.phi is not None and lax.psi is not None
    with pytest.raises(MCD):
        validate_lax_functor(
            fx.BPT, fx.BPT, {"*": "*"}, hom_functors, psi={"*": "nope"}
        )


def test_chi_invariant_under_object_relabelling():
    zeta = similarity_matrix_cg(fx.PSG.graph)
    relabeled = QMatrix.build(
        ("zz", "aa"), ("zz", "aa"),
        lambda i, j: zeta.at("p" if i == "zz" else "q", "p" if j == "zz" else "q"),
    )
    assert matrix_euler(relabeled).chi == matrix_euler(zeta).chi


def test_cg_coproduct_product_identities_on_random_pairs():
    for seed in range(12):
        a = gen_catgraph_with_chi(seed, 2)
        b = gen_catgraph_with_chi(seed + 300, 2)
        chi_a = euler_char_cg(a).chi
        chi_b = euler_char_cg(b).chi
        assert euler_char_cg(coproduct_cg([a, b])).chi == chi_a + chi_b
        total_cells = sum(len(a.hom_at(x, y).morphisms) for x in a.objects for y in a.objects)
        total_cells_b = sum(len(b.hom_at(x, y).morphisms) for x in b.objects for y in b.objects)
        if len(a.objects) * len(b.objects) <= 6 and total_cells * total_cells_b <= 200:
            assert euler_char_cg(product_cg([a, b])).chi == chi_a * chi_b


def test_generated_biequivalences_verify():
    for seed in range(6):
        lax = gen_biequivalence(seed, 2)
        rep = verify_biequivalence_invariance(lax)
        assert rep.equal and rep.transported_valid


def test_op_of_the_empty_bicategory_keeps_its_composition_data():
    # No objects means an empty identity table, which is still composition data.
    empty = validate_bicategory([], {}, {}, {})
    for op in (op1_bicategory(empty), op2_bicategory(empty), op1_bicategory(op2_bicategory(empty))):
        op.require_composition()
        assert op.identity1 == {} and op.compose1 == {}
    coop = coop_lax_functor(identity_lax_functor(empty))
    coop.source.require_composition()
    coop.target.require_composition()
