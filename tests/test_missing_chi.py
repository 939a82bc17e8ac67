"""Each theorem's Euler-characteristic hypothesis, as the command line reports it when it fails.

The paper's formulas hold only where Leinster's Euler characteristic exists,
so every `verify` first checks that the base, each fiber, the total
(bi)category and the Grothendieck construction have one.  Each case below is
a lawful input that fails exactly one of those checks; the command exits 2
and names the structure on stderr, with or without `--json`.  The inputs are
built from `catalog.NOCHI_CAT`, which has neither a weighting nor a
coweighting, and `catalog.NOCOWEIGHTING_CAT`, which has only a weighting.

Three checks stay that no input reaches.  A fiber of a functor fibered in
(pseudo)groupoids is a finite (pseudo)groupoid, which always has an Euler
characteristic.  A biequivalence carries weightings and coweightings both
ways, so its target has an Euler characteristic when its source, checked
first, does.  And the Grothendieck construction of a bifibration is
biequivalent to its total bicategory, which is checked first.
"""

import pytest

import catalog
from bicat_euler import fixtures as fx
from bicat_euler.bicat import identity_lax_functor, validate_bicategory
from bicat_euler.bifib import Trihomomorphism, validate_trihomomorphism
from bicat_euler.catdsl import serialize
from bicat_euler.cli import main
from bicat_euler.fib1 import LaxFunctorToCat, validate_laxcat
from bicat_euler.fincat import EMPTY_CATEGORY, PT, euler_char_cat, validate_functor
from builders import locally_discrete


def _to_point(cat):
    return validate_functor(cat, PT, {x: "*" for x in cat.objects}, {m.name: "id*" for m in cat.morphisms})


def _laxcat(base, fiber, pullback):
    return validate_laxcat(LaxFunctorToCat(base, fiber, pullback))


def _constant_laxcat(base):
    """PT over every object of base, with identity pullbacks."""
    return _laxcat(base, {b: PT for b in base.objects}, {m.name: fx.identity_functor(PT) for m in base.morphisms})


def _fiber_without_chi():
    """Over the arrow 0 -> 1: PT, and NOCOWEIGHTING_CAT, whose weighting gives Gr a weighting too."""
    cat = catalog.NOCOWEIGHTING_CAT
    pullback = {"id0": fx.identity_functor(PT), "id1": fx.identity_functor(cat), "a": _to_point(cat)}
    return _laxcat(catalog.ARROW, {"0": PT, "1": cat}, pullback)


def _empty_functor_onto(cat):
    return validate_functor(EMPTY_CATEGORY, cat, {}, {})


def _interval(hom):
    """Objects 0 and 1 with trivial endo-homs, hom(0,1) = hom and hom(1,0) empty."""
    c1 = {(("0", "0", "0"), "i0", "i0"): "i0", (("1", "1", "1"), "i1", "i1"): "i1"}
    h2 = {(("0", "0", "0"), "idi0", "idi0"): "idi0", (("1", "1", "1"), "idi1", "idi1"): "idi1"}
    for f in hom.objects:
        c1[(("0", "0", "1"), f, "i0")] = c1[(("0", "1", "1"), "i1", f)] = f
    for m in hom.morphisms:
        h2[(("0", "0", "1"), m.name, "idi0")] = h2[(("0", "1", "1"), "idi1", m.name)] = m.name
    homs = {("0", "0"): fx.one_object_cat("i0"), ("1", "1"): fx.one_object_cat("i1"), ("0", "1"): hom}
    return validate_bicategory(["0", "1"], homs, {"0": "i0", "1": "i1"}, c1, h2)


def _bicat_fiber_without_chi():
    """_fiber_without_chi one dimension up: BPT and the locally discrete NOCOWEIGHTING_CAT over the arrow."""
    base = catalog.ARROW_BICAT
    fibers = {"0": catalog.BPT, "1": fx._locally_discrete(catalog.NOCOWEIGHTING_CAT)}
    pullback1, pullback2 = {}, {}
    for b in base.objects:
        for c in base.objects:
            for f in base.onecells(b, c):
                pullback1[(b, c, f)] = identity_lax_functor(fibers[b]) if b == c else fx.collapse_to_point(fibers[c])
            for alpha in base.hom_at(b, c).morphisms:
                pb = pullback1[(b, c, alpha.src)]
                pullback2[(b, c, alpha.name)] = {y: fibers[b].id1(pb.ob(y)) for y in fibers[c].objects}
    return validate_trihomomorphism(Trihomomorphism(base, fibers, pullback1, pullback2))


NOCHI_BICAT = fx._locally_discrete(catalog.NOCHI_CAT)

# (command line without the file, the input, the error message).
CASES = {
    "gr-base": (["verify", "gr"], lambda: _constant_laxcat(catalog.NOCHI_CAT), "base category has no coweighting"),
    "gr-grothendieck": (
        ["verify", "gr"],
        lambda: _laxcat(PT, {"*": catalog.NOCHI_CAT}, {"id*": fx.identity_functor(catalog.NOCHI_CAT)}),
        "Grothendieck construction has no Euler characteristic",
    ),
    "gr-fiber": (["verify", "gr"], _fiber_without_chi, "fiber over 1 has no Euler characteristic"),
    "product-cat-total": (
        ["verify", "product-cat"],
        lambda: fx.identity_functor(catalog.NOCHI_CAT),
        "total category has no Euler characteristic",
    ),
    "product-cat-base": (
        ["verify", "product-cat"],
        lambda: _empty_functor_onto(catalog.NOCHI_CAT),
        "base component ('x', 'y') has no Euler characteristic",
    ),
    "biequivalence-source": (
        ["verify", "biequivalence"],
        lambda: identity_lax_functor(NOCHI_BICAT),
        "source bicategory has no Euler characteristic",
    ),
    "chi-hom": (["chi"], lambda: _interval(catalog.NOCHI_CAT), "hom(0,1) has no Euler characteristic"),
    "gr-bicat-base": (
        ["verify", "gr-bicat"],
        lambda: fx.constant_trihomomorphism(NOCHI_BICAT, catalog.BPT),
        "base bicategory has no coweighting",
    ),
    "gr-bicat-hom": (
        ["verify", "gr-bicat"],
        lambda: fx.constant_trihomomorphism(catalog.BPT, _interval(catalog.NOCHI_CAT)),
        "Grothendieck hom (('*', '0'), ('*', '1')) has no Euler characteristic",
    ),
    "gr-bicat-grothendieck": (
        ["verify", "gr-bicat"],
        lambda: fx.constant_trihomomorphism(catalog.BPT, NOCHI_BICAT),
        "Grothendieck construction has no Euler characteristic",
    ),
    "gr-bicat-fiber": (["verify", "gr-bicat"], _bicat_fiber_without_chi, "fiber over 1 has no Euler characteristic"),
    "product-bicat-total": (
        ["verify", "product-bicat"],
        lambda: locally_discrete(fx.identity_functor(catalog.NOCHI_CAT)),
        "total bicategory has no Euler characteristic",
    ),
    "product-bicat-base": (
        ["verify", "product-bicat"],
        lambda: locally_discrete(_empty_functor_onto(catalog.NOCHI_CAT)),
        "base component ('x', 'y') has no Euler characteristic",
    ),
}


def test_the_categories_lack_the_sides_they_claim():
    assert euler_char_cat(catalog.NOCHI_CAT).missing() == ("weighting", "coweighting")
    assert euler_char_cat(catalog.NOCOWEIGHTING_CAT).missing() == ("coweighting",)


@pytest.mark.parametrize("case", sorted(CASES))
def test_missing_euler_characteristic_exits_2_naming_it(capsys, tmp_path, case):
    command, build, message = CASES[case]
    path = tmp_path / "input.catj"
    path.write_text(serialize(build()), encoding="utf-8")
    for extra in ([], ["--json"]):
        argv = [*command, str(path), *extra]
        assert main(argv) == 2, argv
        assert capsys.readouterr() == ("", f"input error: {message}\n"), argv
