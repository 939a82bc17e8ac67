"""Cat-graphs and bicategories: chi, acyclicity, pseudogroupoids, biequivalence."""

import re
from fractions import Fraction

import pytest

import catalog
import fraction_oracle
from bicat_euler import fixtures as fx
from bicat_euler.bicat import (
    Bicategory,
    Hcompose2IdentityViolation,
    MissingCompositionData,
    NotBiequivalence,
    acyclic_bicat_witness,
    biequivalence_witness,
    coop_bicategory,
    coop_lax_functor,
    equivalence_classes,
    euler_char_cg,
    identity_lax_functor,
    LaxFunctorBicat,
    make_catgraph,
    pseudogroupoid_witness,
    similarity_matrix_cg,
    validate_bicategory,
    validate_lax_functor,
    verify_biequivalence_invariance,
)
from bicat_euler.exactq import QMatrix, matrix_euler
from bicat_euler.generators import gen_pseudogroupoid
from bifib_oracle import pseudogroupoid_euler
from builders import (
    coproduct_cg,
    gen_fib_pseudogroupoids_laxfunctor,
    inflate_bicategory,
    product_cg,
)
from catalog import gen_biequivalence, gen_catgraph_with_chi


def test_similarity_matrix_trivial_ez2():
    zeta = similarity_matrix_cg(catalog.EZ2_BICAT.graph)
    assert all(v == 1 for row in zeta.entries for v in row)


def test_similarity_matrix_bz2_hom():
    graph = make_catgraph(["x"], {("x", "x"): catalog.BZ2})
    assert similarity_matrix_cg(graph).entries == ((Fraction(1, 2),),)
    assert euler_char_cg(graph).chi == 2


def test_similarity_matrix_acyclic_example():
    g = make_catgraph(
        ["0", "1"],
        {("0", "0"): fx.one_object_cat("id0"), ("1", "1"): fx.one_object_cat("id1"), ("0", "1"): catalog.ARROW},
    )
    zeta = similarity_matrix_cg(g)
    assert zeta.entries == ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1)))
    assert euler_char_cg(g).chi == 1


def test_euler_trivial_ez2_graph():
    assert euler_char_cg(catalog.EZ2_BICAT.graph).chi == 1


def test_nochi_catgraph_has_no_weighting():
    # zeta = [[1,1],[2,2]]: the rows are proportional with ratio 2, so no weighting
    e = euler_char_cg(catalog.NOCHI_CATGRAPH)
    assert e.chi is None
    assert e.missing() == ("weighting",)
    assert e.coweighting is not None


def test_coproduct_product_cg():
    one = make_catgraph(["x"], {("x", "x"): catalog.BZ2})
    # each summand has chi 2 (the 1x1 solve of [1/2]), so the coproduct adds to 4
    co = coproduct_cg([one, one])
    assert euler_char_cg(co).chi == 4
    prod = product_cg([one, one])
    assert euler_char_cg(prod).chi == 4  # hom BZ2 x BZ2 has chi 1/4
    assert euler_char_cg(coproduct_cg([one])).chi == Fraction(2)


def test_coproduct_with_empty_graph_unchanged():
    empty = make_catgraph([], {})
    co = coproduct_cg([catalog.PSG.graph, empty])
    assert euler_char_cg(co).chi == euler_char_cg(catalog.PSG.graph).chi


def test_is_acyclic_bicat():
    assert not acyclic_bicat_witness(catalog.ACYCLIC2)
    assert acyclic_bicat_witness(catalog.EZ2_BICAT)  # two-way 1-cells
    assert acyclic_bicat_witness(catalog.BZ2_TWOGROUP)  # endo-hom not equivalent to the point


def test_acyclic_bicat_witness():
    assert acyclic_bicat_witness(catalog.ACYCLIC2) == {}
    assert acyclic_bicat_witness(catalog.EZ2_BICAT) == {"opposed_1cells": ("0", "1", "m01", "m10")}
    assert acyclic_bicat_witness(catalog.BZ2_TWOGROUP) == {"non_identity_endomorphism": ("*", "*", "g1")}
    assert acyclic_bicat_witness(catalog.PSG) == {"non_identity_endomorphism": ("p", "p", "g1")}
    z2 = fx.discrete_suspension(*fx.cyclic_group(2))  # acyclic homs, but two 1-cells * -> *
    assert acyclic_bicat_witness(z2) == {"endo_hom_not_point": ("*",)}


def _triangular_chi(b) -> Fraction:
    """chi of an acyclic bicategory by the paper's triangular formula: the sum of the entries of ζ⁻¹.

    Acyclicity makes ζ unitriangular in a topological order of the objects, so it is invertible.
    """
    assert not acyclic_bicat_witness(b)
    zeta = similarity_matrix_cg(b.graph)
    assert all(row[i] == 1 for i, row in enumerate(zeta.entries))
    inverse = fraction_oracle.invert([list(row) for row in zeta.entries])
    return sum((v for row in inverse for v in row), Fraction(0))


def test_euler_acyclic_bicat():
    assert euler_char_cg(catalog.ACYCLIC2.graph).chi == _triangular_chi(catalog.ACYCLIC2) == 1
    discrete = validate_bicategory(
        ["0", "1", "2"],
        {(str(i), str(i)): fx.one_object_cat(f"id{i}") for i in range(3)},
        {str(i): f"id{i}" for i in range(3)},
        {((str(i), str(i), str(i)), f"id{i}", f"id{i}"): f"id{i}" for i in range(3)},
    )
    assert euler_char_cg(discrete.graph).chi == _triangular_chi(discrete) == 3


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
    assert euler_char_cg(b.graph).chi == _triangular_chi(b)


def test_equivalence_classes():
    assert equivalence_classes(catalog.EZ2_BICAT) == {"0": ("0", "1"), "1": ("0", "1")}
    discrete2 = validate_bicategory(
        ["0", "1"],
        {("0", "0"): fx.one_object_cat("id0"), ("1", "1"): fx.one_object_cat("id1")},
        {"0": "id0", "1": "id1"},
        {(("0", "0", "0"), "id0", "id0"): "id0", (("1", "1", "1"), "id1", "id1"): "id1"},
    )
    assert equivalence_classes(discrete2) == {"0": ("0",), "1": ("1",)}
    assert equivalence_classes(catalog.ACYCLIC2) == {"0": ("0",), "1": ("1",)}


def test_pseudogroupoid_check():
    assert not pseudogroupoid_witness(catalog.EZ2_BICAT)
    assert not pseudogroupoid_witness(catalog.BZ2_TWOGROUP)
    assert pseudogroupoid_witness(catalog.ACYCLIC2)


def test_pseudogroupoid_witness_names_the_first_failing_cell():
    assert pseudogroupoid_witness(catalog.ACYCLIC2) == {"non_invertible_2cell": ("0", "1", "a2")}
    assert pseudogroupoid_witness(catalog.ARROW_BICAT) == {"non_equivalence_1cell": ("0", "1", "a")}
    assert pseudogroupoid_witness(catalog.PSG) == {}


def test_pseudogroupoid_euler_values():
    assert pseudogroupoid_euler(catalog.PSG) == 2
    assert pseudogroupoid_euler(catalog.EZ2_BICAT) == 1
    assert pseudogroupoid_euler(catalog.BZ2_TWOGROUP) == 2
    with pytest.raises(ValueError):
        pseudogroupoid_euler(catalog.ACYCLIC2)


def test_connected_pseudogroupoid_constant_zeta():
    for seed in range(8):
        b = gen_pseudogroupoid(seed, 3)
        zeta = similarity_matrix_cg(b.graph)
        value = zeta.entries[0][0]
        assert all(v == value for row in zeta.entries for v in row)
        assert pseudogroupoid_euler(b) == 1 / value


def test_check_biequivalence():
    assert not biequivalence_witness(identity_lax_functor(catalog.PSG))
    inflated, inclusion = inflate_bicategory(catalog.BPT, [2])
    assert not biequivalence_witness(inclusion)


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
    assert biequivalence_witness(inclusion) == {"unreached_object": ("1",)}


def test_biequivalence_witness():
    assert biequivalence_witness(identity_lax_functor(catalog.PSG)) == {}
    assert biequivalence_witness(fx.collapse_to_point(catalog.PSG)) == {"non_equivalence_hom": ("p", "p")}


def test_biequivalence_invariance_point_into_ez2():
    inflated, inclusion = inflate_bicategory(catalog.BPT, [2])
    rep = verify_biequivalence_invariance(inclusion)
    assert rep.equal and rep.transported_valid
    assert rep.chi_source == 1 and rep.chi_target == 1
    assert rep.transported_weighting.entries == (Fraction(1),)


def test_biequivalence_invariance_identity():
    rep = verify_biequivalence_invariance(identity_lax_functor(catalog.PSG))
    assert rep.equal and rep.transported_valid


def test_biequivalence_invariance_two_group_vs_psg():
    # one-object Z2 two-group against the 2-object pseudogroupoid: both chi 2
    inflated, inclusion = inflate_bicategory(catalog.BZ2_TWOGROUP, [2])
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


@pytest.mark.parametrize("name", ["BZ2_TWOGROUP", "PSG"])
def test_hcompose2_must_send_identities_to_identities(name):
    bi = getattr(catalog, name)
    g = bi.graph

    def revalidate(hcompose2):
        return validate_bicategory(g.objects, g.hom, bi.identity1, bi.compose1, hcompose2)

    assert revalidate(bi.hcompose2) == bi
    x = g.objects[0]
    hom = g.hom_at(x, x)
    f = bi.id1(x)
    unit = hom.identity[f]
    other = next(c for c in hom.hom(f, f) if c != unit)  # a non-identity 2-cell with the same frame
    with pytest.raises(Hcompose2IdentityViolation, match=re.escape(f"at (({x},{x},{x}), {unit}, {unit})")):
        revalidate({**bi.hcompose2, ((x, x, x), unit, unit): other})


def test_phi_psi_frames_validated():
    from bicat_euler.bicat import MissingCompositionData as MCD
    from bicat_euler.fincat import validate_functor as vf

    hom_functors = {
        ("*", "*"): vf(
            catalog.BPT.hom_at("*", "*"), catalog.BPT.hom_at("*", "*"), {"I": "I"}, {"idI": "idI"}
        )
    }
    lax = validate_lax_functor(
        catalog.BPT, catalog.BPT, {"*": "*"}, hom_functors,
        phi={(("*", "*", "*"), "I", "I"): "idI"}, psi={"*": "idI"},
    )
    assert lax.phi is not None and lax.psi is not None
    with pytest.raises(MCD):
        validate_lax_functor(
            catalog.BPT, catalog.BPT, {"*": "*"}, hom_functors, psi={"*": "nope"}
        )
    with pytest.raises(MCD, match="has a bad frame"):
        validate_lax_functor(catalog.BPT, catalog.BPT, {"*": "*"}, hom_functors, {(("*", "*", "*"), "I", "I"): "nope"})


def test_lax_functor_without_an_object_image_or_a_hom_functor_is_rejected():
    # The parser reports each of these as a diagnostic first; a direct call reaches the validator.
    p = catalog.PSG_COLLAPSE
    funs = dict(p.hom_functors)
    cases = [
        ({**p.object_map, "q": "nowhere"}, funs, "object q has no valid image"),
        (p.object_map, {k: v for k, v in funs.items() if k != ("p", "q")}, "missing hom functor at (p,q)"),
        (p.object_map, {**funs, ("p", "q"): funs[("p", "p")]}, "hom functor at (p,q) has wrong endpoints"),
    ]
    for object_map, hom_functors, message in cases:
        with pytest.raises(MissingCompositionData, match=f"^{re.escape(message)}$"):
            validate_lax_functor(p.source, p.target, object_map, hom_functors)


def test_phi_without_a_component_at_some_composable_pair_is_rejected():
    p = catalog.PSG_COLLAPSE
    phi = {(("p", "p", "p"), "mpp", "mpp"): "idI"}  # 1 of the 8 composable pairs
    with pytest.raises(MissingCompositionData, match=re.escape("phi at ((p,p,q), mpq, mpp) is missing")):
        validate_lax_functor(p.source, p.target, p.object_map, p.hom_functors, phi)
    full = {key: "idI" for key in p.source.compose1}
    assert validate_lax_functor(p.source, p.target, p.object_map, p.hom_functors, full).phi == full


def test_chi_invariant_under_object_relabelling():
    zeta = similarity_matrix_cg(catalog.PSG.graph)
    assert zeta.rows == ("p", "q")
    relabeled = QMatrix(("zz", "aa"), zeta.entries)
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


def test_coop_of_the_empty_bicategory_keeps_its_composition_data():
    # No objects means an empty identity table, which is still composition data.
    empty = validate_bicategory([], {}, {}, {})
    coop = coop_bicategory(empty)
    assert coop.identity1 == {} and coop.compose1 == {} and coop.hcompose2 is None
    lax = coop_lax_functor(identity_lax_functor(empty))
    assert lax.source == coop and lax.target == coop


def _catalog_and_builder_bicategories():
    """Every bicategory in catalog.py, and one of each shape the builders make, each named."""

    def sides(name, lax):
        return [pytest.param(lax.source, id=f"{name}.source"), pytest.param(lax.target, id=f"{name}.target")]

    out = []
    for name, value in sorted(vars(catalog).items()):
        if isinstance(value, Bicategory):
            out.append(pytest.param(value, id=name))
        elif isinstance(value, LaxFunctorBicat):
            out += sides(name, value)
    # The families of gen_fib_pseudogroupoids_laxfunctor: a product, a collapse, a suspension, a
    # disjoint union and an action groupoid.
    for seed, size in ((0, 3), (1, 3), (2, 3), (3, 3), (3, 1)):
        out += sides(f"fibps{seed},{size}", gen_fib_pseudogroupoids_laxfunctor(seed, size))
    out.append(pytest.param(inflate_bicategory(catalog.PSG, [2, 1])[0], id="inflated PSG"))
    return out


def _swapped(table):
    """The copy of a composition table that `coop_bicategory` made before its views."""
    return {((x, y, z), g, f): h for ((z, y, x), f, g), h in table.items()}


@pytest.mark.parametrize("b", _catalog_and_builder_bicategories())
def test_coop_views_agree_with_the_copies_they_replace(b):
    coop = coop_bicategory(b)
    for view, table in ((coop.compose1, b.compose1), (coop.hcompose2, b.hcompose2)):
        if table is None:
            assert view is None
            continue
        copy = _swapped(table)
        assert dict(view.items()) == copy and view == copy and copy == view
        assert list(view) == list(copy) and len(view) == len(copy)
        assert all(key in view and view.get(key) == value for key, value in copy.items())
        absent = (("nowhere", "y", "z"), "g", "f")
        assert absent not in view and view.get(absent) is None and copy.get(absent) is None
        with pytest.raises(KeyError):
            view[absent]


@pytest.mark.parametrize("name", ["PSG", "BPT", "ACYCLIC2", "ARROW_BICAT", "EZ2_BICAT", "BZ2_TWOGROUP"])
def test_coop_bicategory_is_an_involution(name):
    b = getattr(catalog, name)
    coop = coop_bicategory(b)
    assert all(coop.hom_at(x, y) == b.hom_at(y, x).opposite() for x in b.objects for y in b.objects)
    assert len(coop.compose1) == len(b.compose1) and len(coop.hcompose2) == len(b.hcompose2)
    for ((x, y, z), g, f), h in b.compose1.items():
        assert coop.c1(z, y, x, f, g) == h
    for ((x, y, z), beta, alpha), cell in b.hcompose2.items():
        assert coop.h2(z, y, x, alpha, beta) == cell
    assert coop_bicategory(coop) == b
