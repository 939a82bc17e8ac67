"""Finite categories: validation laws, chi values, nerve counts, (co)products."""

from fractions import Fraction

import pytest

import catalog
import fraction_oracle
from bicat_euler import fixtures as fx
from bicat_euler.fincat import (
    InvalidCategory,
    check_equivalence_functor,
    euler_char_cat,
    acyclic_witness,
    similarity_matrix,
    validate_category,
    validate_functor,
)
from bicat_euler.generators import gen_acyclic_category
from builders import coproduct_cat, product_cat
from catalog import gen_category_with_chi
from category_oracle import nerve_euler


def codes(excinfo):
    return {v.code for v in excinfo.value.violations}


def test_validate_pt_roundtrip():
    assert catalog.PT.objects == ("*",)
    assert catalog.PT.identity["*"] == "id*"


def test_validate_missing_composite():
    with pytest.raises(InvalidCategory) as excinfo:
        validate_category(
            ["0", "1"],
            [("id0", "0", "0"), ("id1", "1", "1"), ("a", "0", "1")],
            {"0": "id0", "1": "id1"},
            {("id0", "id0"): "id0", ("id1", "id1"): "id1", ("a", "id0"): "a"},
        )
    assert codes(excinfo) == {"MissingComposite"}


def test_validate_identity_law_violation():
    with pytest.raises(InvalidCategory) as excinfo:
        validate_category(
            ["*"],
            [("e", "*", "*"), ("g", "*", "*")],
            {"*": "e"},
            {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "e", ("g", "g"): "e"},
        )
    assert "IdentityLawViolation" in codes(excinfo)


def test_validate_associativity_violation():
    with pytest.raises(InvalidCategory) as excinfo:
        validate_category(
            ["*"],
            [("e", "*", "*"), ("a", "*", "*"), ("b", "*", "*")],
            {"*": "e"},
            {
                ("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "b",
                ("a", "e"): "a", ("b", "e"): "b",
                ("a", "a"): "b", ("a", "b"): "e", ("b", "a"): "a", ("b", "b"): "b",
            },
        )
    assert codes(excinfo) == {"AssociativityViolation"}


def test_validate_dangling_endpoint():
    with pytest.raises(InvalidCategory) as excinfo:
        validate_category(
            ["0"], [("id0", "0", "0"), ("a", "0", "1")], {"0": "id0"}, {("id0", "id0"): "id0"}
        )
    assert codes(excinfo) == {"DanglingEndpoint"}


def test_validate_duplicate_labels_and_unknown_composites():
    # The parser reports each of these as its own diagnostic first; a direct call reaches the validator.
    with pytest.raises(InvalidCategory, match=r"^DanglingEndpoint: duplicate object labels$"):
        validate_category(["0", "0"], [("id0", "0", "0")], {"0": "id0"}, {("id0", "id0"): "id0"})
    with pytest.raises(InvalidCategory, match=r"^DanglingEndpoint: duplicate morphism names$"):
        validate_category(["0"], [("id0", "0", "0"), ("id0", "0", "0")], {"0": "id0"}, {("id0", "id0"): "id0"})
    with pytest.raises(InvalidCategory) as excinfo:
        validate_category(["0"], [("id0", "0", "0")], {"0": "id0"}, {("id0", "id0"): "id0", ("id0", "x"): "id0"})
    assert str(excinfo.value) == "DanglingEndpoint: compose(id0, x) = id0 names unknown morphisms"


def test_validate_functor_without_images():
    # Every violation is reported, in source order, as one InvalidCategory.
    with pytest.raises(InvalidCategory) as excinfo:
        validate_functor(catalog.ARROW, catalog.PT, {"0": "*", "1": "nowhere"}, {"id0": "id*", "a": "nope"})
    assert [str(v) for v in excinfo.value.violations] == [
        "DanglingEndpoint: object 1 has no valid image",
        "DanglingEndpoint: morphism a has no valid image",
        "DanglingEndpoint: morphism id1 has no valid image",
    ]


def test_bz2_with_idempotent_g_is_lawful():
    # Corrupting BZ2's table to g∘g = g yields the walking idempotent monoid,
    # which satisfies every category law; the validator must accept it.
    cat = validate_category(
        ["*"],
        [("e", "*", "*"), ("g", "*", "*")],
        {"*": "e"},
        {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "g"},
    )
    assert euler_char_cat(cat).chi == Fraction(1, 2)


def test_similarity_matrices():
    assert similarity_matrix(catalog.ARROW).entries == ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1)))
    assert similarity_matrix(catalog.D2).entries == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    assert similarity_matrix(catalog.BZ2).entries == ((Fraction(2),),)


FIXTURE_CHI = {
    "PT": Fraction(1),
    "D2": Fraction(2),
    "ARROW": Fraction(1),
    "PAIR": Fraction(0),
    "SPAN": Fraction(1),
    "BZ2": Fraction(1, 2),
    "EZ2": Fraction(1),
}


@pytest.mark.parametrize("name,expected", sorted(FIXTURE_CHI.items()))
def test_fixture_chi(name, expected):
    assert euler_char_cat(getattr(catalog, name)).chi == expected


def test_is_acyclic():
    assert not acyclic_witness(catalog.SPAN)
    assert acyclic_witness(catalog.BZ2)
    assert acyclic_witness(catalog.EZ2)


def _is_circuit(a, morphisms):
    """Composable non-identity morphisms through distinct objects, ending where they start."""
    ms = [a.morphism(m) for m in morphisms]
    chain = all(f.dst == g.src for f, g in zip(ms, ms[1:])) and ms[-1].dst == ms[0].src
    return chain and len({m.src for m in ms}) == len(ms) > 1


def test_acyclic_witness():
    assert acyclic_witness(catalog.SPAN) == {} and acyclic_witness(gen_acyclic_category(3, 6)) == {}
    assert acyclic_witness(catalog.BZ2) == {"non_identity_endomorphism": ("g",)}
    assert acyclic_witness(catalog.EZ2) == {"circuit": ("m01", "m10")}
    for a in (catalog.EZ2, fx.indiscrete_category(["a", "b", "c"]), fx.indiscrete_category(["c", "b", "a"]).opposite()):
        (key, cells), = acyclic_witness(a).items()
        assert key == "circuit" and _is_circuit(a, cells)


def test_nerve_counts():
    assert nerve_euler(catalog.ARROW).counts == (2, 1)
    assert nerve_euler(catalog.ARROW).euler == 1
    assert nerve_euler(catalog.PAIR).counts == (2, 2)
    assert nerve_euler(catalog.PAIR).euler == 0
    assert nerve_euler(catalog.SPAN).counts == (3, 2)
    assert nerve_euler(catalog.SPAN).euler == 1


def test_nerve_requires_acyclic():
    with pytest.raises(ValueError):
        nerve_euler(catalog.BZ2)


def test_each_error_class_is_defined_once():
    from bicat_euler import bicat, bifib, fib1, fincat

    for mod in (bicat, fib1, bifib):
        assert mod.MissingEulerCharacteristic is fincat.MissingEulerCharacteristic


def test_input_errors_share_one_base():
    from bicat_euler import bicat, bifib, cli, fib1, fincat

    input_errors = {
        fincat: ("InvalidCategory", "MissingEulerCharacteristic"),
        bicat: ("MissingCompositionData", "NotBiequivalence"),
        fib1: ("NotBiFibered", "IncoherentData"),
        bifib: ("IllTypedComponent",),
        cli: ("InputError",),
    }
    for mod, names in input_errors.items():
        for name in names:
            assert issubclass(getattr(mod, name), fincat.InvalidInput), name
    # A lift that is not unique is a bug in the library, not bad input: the CLI exits 3 on it.
    assert not issubclass(fib1.NonUniqueLift, fincat.InvalidInput)


def test_coproduct_chi():
    assert euler_char_cat(coproduct_cat([catalog.PT, catalog.PT])).chi == 2
    assert euler_char_cat(coproduct_cat([catalog.ARROW, catalog.BZ2])).chi == Fraction(3, 2)
    assert euler_char_cat(coproduct_cat([])).chi == 0


def test_product_chi():
    assert euler_char_cat(product_cat(catalog.ARROW, catalog.ARROW)).chi == 1
    assert euler_char_cat(product_cat(catalog.BZ2, catalog.BZ2)).chi == Fraction(1, 4)


def test_product_with_point_is_equivalent():
    prod = product_cat(catalog.PT, catalog.BZ2)
    fun = validate_functor(
        catalog.BZ2,
        prod,
        {"*": "(*,*)"},
        {"e": "(id*,e)", "g": "(id*,g)"},
    )
    assert check_equivalence_functor(fun)
    assert euler_char_cat(prod).chi == euler_char_cat(catalog.BZ2).chi


def test_equivalence_checker():
    assert check_equivalence_functor(fx.identity_functor(catalog.BZ2))
    to_pt = validate_functor(
        catalog.EZ2, catalog.PT, {"0": "*", "1": "*"},
        {"id0": "id*", "id1": "id*", "m01": "id*", "m10": "id*"},
    )
    assert check_equivalence_functor(to_pt)
    assert not check_equivalence_functor(catalog.D2_TO_PT)


def test_fully_faithful_inclusion_that_misses_an_object_is_no_equivalence():
    # {a} -> {a, b} is fully faithful, but b is isomorphic to no image.
    a = validate_category(["a"], [("ida", "a", "a")], {"a": "ida"}, {("ida", "ida"): "ida"})
    ab = validate_category(
        ["a", "b"], [("ida", "a", "a"), ("idb", "b", "b")], {"a": "ida", "b": "idb"},
        {("ida", "ida"): "ida", ("idb", "idb"): "idb"},
    )
    assert not check_equivalence_functor(validate_functor(a, ab, {"a": "a"}, {"ida": "ida"}))


def test_nerve_matches_chi_on_random_acyclic():
    for seed in range(30):
        cat = gen_acyclic_category(seed, 4)
        assert euler_char_cat(cat).chi == nerve_euler(cat).euler


def test_acyclic_zeta_unitriangular_in_topological_order():
    from bicat_euler.exactq import QMatrix

    for seed in range(15):
        cat = gen_acyclic_category(seed, 4)
        reach = {
            x: sum(1 for y in cat.objects if y != x and cat.hom(x, y))
            for x in cat.objects
        }
        order = sorted(cat.objects, key=lambda x: (-reach[x], x))
        zeta = similarity_matrix(cat)
        at = {x: i for i, x in enumerate(zeta.rows)}
        reordered = QMatrix.build(order, lambda x, y: zeta.entries[at[x]][at[y]])
        for i in range(len(order)):
            assert reordered.entries[i][i] == 1
            for j in range(i):
                assert reordered.entries[i][j] == 0
        # A unitriangular ζ is invertible, and chi is the sum of the entries of its inverse.
        inverse = fraction_oracle.invert([list(row) for row in zeta.entries])
        assert euler_char_cat(cat).chi == sum((v for row in inverse for v in row), Fraction(0))


def test_chi_additive_and_multiplicative_on_random_pairs():
    for seed in range(25):
        a = gen_category_with_chi(seed, 3)
        b = gen_category_with_chi(seed + 500, 2)
        chi_a = euler_char_cat(a).chi
        chi_b = euler_char_cat(b).chi
        assert euler_char_cat(coproduct_cat([a, b])).chi == chi_a + chi_b
        if len(a.objects) * len(b.objects) <= 12 and len(a.morphisms) * len(b.morphisms) <= 64:
            assert euler_char_cat(product_cat(a, b)).chi == chi_a * chi_b
