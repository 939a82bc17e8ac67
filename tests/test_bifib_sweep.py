"""The bifibration sweep decides each fact once per call and agrees with its slow path.

Each `bifib` entry point builds each fiber, classifies each hom functor of
its lax functor and of that functor's dual, and tests each cartesian 2-cell
once per call, and reads iso lists from each hom category's index.
`bifib_oracle` keeps the sweep as it was before, recomputing all of them on
each use, and restates the one strictness rule that decides whether a lax
functor is swept at all.  Both must give equal values and reports,
witnesses included, and raise the same error with the same message.
Identity coherence data (`phi`, `psi`) counts as absent, so it changes no
verdict.
"""

import contextlib
import io
from collections import Counter

import pytest

import bifib_oracle as oracle
import catalog
from bicat_euler import bifib, catdsl, cli, fib1
from bicat_euler import fixtures as fx
from bicat_euler.bicat import (
    LaxFunctorBicat,
    coop_lax_functor,
    identity_lax_functor,
    validate_bicategory,
    validate_lax_functor,
)
from bicat_euler.fincat import validate_category, validate_functor
from bicat_euler.generators import gen_pseudogroupoid, gen_trihom
from builders import disjoint_union_lax_functor, gen_fib_pseudogroupoids_laxfunctor, product_projection
from conftest import FIXTURE_DIR


def _outcome(fn, *args, **kwargs):
    try:
        return ("value", fn(*args, **kwargs))
    except Exception as exc:  # the slow path must fail the same way
        return ("raises", type(exc), str(exc))


def _pullback(p: LaxFunctorBicat, b_obj: str, c_obj: str, f: str):
    """`bifib._pullback` of f: b -> c on the fibers over c and b, built in that order."""
    fibers = {x: bifib.fiber_bicategory(p, x) for x in (c_obj, b_obj)}
    return bifib._pullback(p, fibers, b_obj, c_obj, f)


def _assert_agrees(p: LaxFunctorBicat):
    """Every public sweep entry point, each pullback and each 1-cell's cartesian check on p against the oracle."""
    e, b = p.source, p.target
    pairs = [
        (bifib.strict_witness, oracle.strict_witness, ()),
        (bifib.classify_bifibration, oracle.classify_bifibration, ()),
        (bifib.induced_trihomomorphism, oracle.induced_trihomomorphism, ()),
        (bifib.verify_gr_formula_bicat, oracle.verify_gr_formula_bicat, ()),
        (bifib.verify_product_formula_bicat, oracle.verify_product_formula_bicat, ()),
    ]
    pairs += [(bifib.fiber_bicategory, oracle.fiber_bicategory, (x,)) for x in b.objects]
    pairs += [
        (_pullback, oracle.fiber_pullback, (x, y, f))
        for x in b.objects
        for y in b.objects
        for f in b.onecells(x, y)
    ]
    if not bifib.strict_witness(p):  # only a strict homomorphism has cartesian 1-cells
        pairs += [
            (bifib._check_cartesian_1cell, oracle.check_cartesian_1cell, (x, y, f))
            for x in e.objects
            for y in e.objects
            for f in e.onecells(x, y)
        ]
    for fast, slow, args in pairs:
        assert _outcome(fast, p, *args) == _outcome(slow, p, *args), (fast.__name__, args)


def _collapse_of_suspension(n: int, k: int) -> LaxFunctorBicat:
    elements, mult, unit = fx.cyclic_group(n)
    return fx.collapse_to_point(fx.suspension_two_group([f"o{i}" for i in range(k)], elements, mult, unit))


def _fixture_values(kinds):
    values = []
    for path in sorted(FIXTURE_DIR.glob("*.catj")):
        doc = catdsl.parse(path.read_text(encoding="utf-8")).document
        if doc is not None and doc.kind in kinds:
            values.append(pytest.param(doc.value, id=path.stem))
    return values


# ---------------------------------------------------------------- coherence data

def _phi_identity_collapse() -> LaxFunctorBicat:
    """The strict collapse of PSG, carrying identity phi and psi components."""
    p = catalog.PSG_COLLAPSE
    phi = {key: "idI" for key in p.source.compose1}
    psi = {x: "idI" for x in p.source.objects}
    return validate_lax_functor(p.source, p.target, p.object_map, p.hom_functors, phi, psi)


def test_phi_identity_collapse_runs_the_full_check_on_both_sides(monkeypatch):
    p = _phi_identity_collapse()
    assert bifib.strict_witness(p) == oracle.strict_witness(p) == {}
    checks = []  # [is a 1-cell of p, not of coop; 2-cell counts built]
    check = bifib._check_cartesian_1cell

    class TwoCellCounts(Counter):  # built only in the 2-cell phase of the full check
        def __init__(self, *args):
            super().__init__(*args)
            checks[-1][1] += 1

    def recording(q, x, y, f):
        checks.append([q is p, 0])
        return check(q, x, y, f)

    monkeypatch.setattr(bifib, "Counter", TwoCellCounts)
    monkeypatch.setattr(bifib, "_check_cartesian_1cell", recording)
    rep = bifib.classify_bifibration(p)
    assert rep == oracle.classify_bifibration(p)
    assert rep.fibered_in_pseudogroupoids and rep.cofibered_in_pseudogroupoids
    # Every 1-cell of p, then every 1-cell of coop, each through the 2-cell phase: identity
    # phi and psi switch neither side's check off.
    assert [mine for mine, _ in checks] == [True] * 4 + [False] * 4
    assert all(built for _, built in checks)
    _assert_agrees(p)


def test_cartesian_sweep_stops_at_the_first_non_cartesian_1cell(monkeypatch):
    p = fx.collapse_to_point(catalog.ARROW_BICAT)
    cells = []
    check = bifib._check_cartesian_1cell

    def recording(q, x, y, f):
        cells.append((x, y, f))
        return check(q, x, y, f)

    monkeypatch.setattr(bifib, "_check_cartesian_1cell", recording)
    rep = bifib.classify_bifibration(p)
    assert rep == oracle.classify_bifibration(p)
    assert rep.witnesses["non_cartesian_1cell"][0] == ("0", "1", "a")
    assert rep.witnesses["co_non_cartesian_1cell"][0] == ("1", "0", "a")
    # p's 1-cells, then coop's, each up to its first failure: id1 (after a on both sides) is never tested.
    assert cells == [("0", "0", "id0"), ("0", "1", "a"), ("0", "0", "id0"), ("1", "0", "a")]


def _lift_frames(p: LaxFunctorBicat):
    """Each (x, y, z, f, g, h, α) for which the cartesian check of f: x -> y searches a lift."""
    e, b = p.source, p.target
    for x in e.objects:
        for y in e.objects:
            for f in e.onecells(x, y):
                px, py, pf = p.ob(x), p.ob(y), p.cell1(x, y, f)
                for z in e.objects:
                    pz = p.ob(z)
                    for g in e.onecells(z, y):
                        for h in b.onecells(pz, px):
                            for alpha in b.hom_at(pz, py).isos(b.c1(pz, px, py, pf, h), p.cell1(z, y, g)):
                                yield x, y, z, f, g, h, alpha


@pytest.mark.parametrize(
    "p",
    [catalog.PSG_COLLAPSE, catalog.GR_PSG_OVER_ARROW, gen_fib_pseudogroupoids_laxfunctor(2, 2)],
    ids=["psg-collapse", "gr-psg-over-arrow", "fib-seed-2"],
)
def test_first_lift_is_the_first_the_full_search_lists(p):
    # Which lift is chosen decides no verdict on these inputs, so only this test pins the search order.
    several = 0
    for q in (p, coop_lax_functor(p)):
        for frame in _lift_frames(q):
            lifts = oracle._lift_candidates(q, *frame)
            assert bifib._first_lift(q, *frame) == (lifts[0] if lifts else None)
            several += len(lifts) > 1
    assert several


# ---------------------------------------------------------------- 2-cell bijections

def _flat_whiskering_collapse(elements, mult, unit) -> LaxFunctorBicat:
    """The collapse of the suspension of a group with every horizontal composite the unit 2-cell.

    Whiskering by id_f then forgets δ̃, and so does the collapse, so in a
    strict cartesian check every 2-cell δ̃: m => m has the image
    (unit, idI): δ̃ ↦ (id_f ∗ δ̃, Pδ̃) is not one to one.  Frames are all that
    `validate_bicategory` checks.
    """
    hom = validate_category(["m"], [(a, "m", "m") for a in elements], {"m": unit}, dict(mult))
    flat = {(("x", "x", "x"), b, a): unit for a in elements for b in elements}
    compose1 = {(("x", "x", "x"), "m", "m"): "m"}
    return fx.collapse_to_point(validate_bicategory(["x"], {("x", "x"): hom}, {"x": "m"}, compose1, flat))


@pytest.mark.parametrize(
    "group, first, second",
    [
        (fx.cyclic_group(2), "g0", "g1"),
        (fx.cyclic_group(3), "g0", "g1"),
        # The unit named last, so the first 2-cell with the shared image is not the unit.
        ((("a", "u"), {("a", "a"): "u", ("a", "u"): "a", ("u", "a"): "a", ("u", "u"): "u"}, "u"), "a", "u"),
    ],
)
def test_two_cell_lift_counts_match_oracle(group, first, second):
    p = _flat_whiskering_collapse(*group)
    rep = bifib.classify_bifibration(p)
    assert rep == oracle.classify_bifibration(p)
    witness = ("not_faithful", "x", "m", "m", first, second)
    assert rep.witnesses["non_cartesian_1cell"] == (("x", "x", "m"), witness)
    _assert_agrees(p)


def test_identity_coherence_never_changes_a_verdict(tmp_path):
    bare = _flat_whiskering_collapse(*fx.cyclic_group(2))
    coherent = validate_lax_functor(
        bare.source, bare.target, bare.object_map, bare.hom_functors, {(("x", "x", "x"), "m", "m"): "idI"}, {"x": "idI"}
    )
    rep = bifib.classify_bifibration(coherent)
    assert rep == bifib.classify_bifibration(bare) == oracle.classify_bifibration(coherent)
    assert not (rep.fibered_in_pseudogroupoids or rep.cofibered_in_pseudogroupoids)
    witness = (("x", "x", "m"), ("not_faithful", "x", "m", "m", "g0", "g1"))
    assert rep.witnesses["non_cartesian_1cell"] == rep.witnesses["co_non_cartesian_1cell"] == witness
    for name, p in (("bare", bare), ("coherent", coherent)):
        path = tmp_path / f"{name}.catj"
        path.write_text(catdsl.serialize(p), encoding="utf-8")
        assert catdsl.parse(path.read_text(encoding="utf-8")).document.value == p
        assert _run(["check", str(path), "fib-pseudogroupoids"]) == 1, name
        with contextlib.redirect_stderr(io.StringIO()):
            assert _run(["verify", "product-bicat", str(path)]) == 2, name


@pytest.mark.parametrize("total_order, base_order", [(2, 1), (1, 2)])
def test_sweep_matches_oracle_when_total_and_base_share_labels(total_order, base_order):
    # Source and target homs both have the 1-cell m** and the 2-cell g0, with different iso sets.
    total, base = (fx.suspension_two_group(["*"], *fx.cyclic_group(n)) for n in (total_order, base_order))
    cells = {f"g{k}": f"g{k % base_order}" for k in range(total_order)}
    hom = validate_functor(total.hom_at("*", "*"), base.hom_at("*", "*"), {"m**": "m**"}, cells)
    _assert_agrees(validate_lax_functor(total, base, {"*": "*"}, {("*", "*"): hom}))


# ---------------------------------------------------------------- agreement

@pytest.mark.parametrize("p", _fixture_values({"laxfunctor"}))
def test_sweep_matches_oracle_on_fixtures(p):
    _assert_agrees(p)


@pytest.mark.parametrize("t", _fixture_values({"trihom"}))
def test_gr_formula_matches_oracle_on_trihom_fixtures(t):
    assert _outcome(bifib.verify_gr_formula_bicat, t) == _outcome(oracle.verify_gr_formula_bicat, t)


@pytest.mark.parametrize("seed", range(20))
def test_sweep_matches_oracle_on_generated_pseudogroupoids(seed):
    b = gen_pseudogroupoid(seed, 1 + seed % 3)
    _assert_agrees(fx.collapse_to_point(b))
    _assert_agrees(identity_lax_functor(b))


@pytest.mark.parametrize("seed", range(20))
def test_sweep_matches_oracle_on_generated_trihoms(seed):
    t = gen_trihom(seed, 2)
    assert _outcome(bifib.verify_gr_formula_bicat, t) == _outcome(oracle.verify_gr_formula_bicat, t)
    if seed % 3 == 2:  # the collapse family is built by `induced_trihomomorphism`
        p = fx.collapse_to_point(gen_pseudogroupoid(seed, 2))
        assert t == oracle.induced_trihomomorphism(p)
        _assert_agrees(p)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("k", range(1, 4))
def test_sweep_matches_oracle_on_suspension_collapses(n, k):
    _assert_agrees(_collapse_of_suspension(n, k))


@pytest.mark.parametrize("seed", range(8))
def test_sweep_matches_oracle_on_generated_bifibrations(seed):
    _assert_agrees(gen_fib_pseudogroupoids_laxfunctor(seed, 2))


def test_sweep_matches_oracle_on_non_fibered_functors():
    # The point into the arrow bicategory at object 1: the base 1-cell a has no lift.
    hom = validate_functor(
        catalog.BPT.hom_at("*", "*"), catalog.ARROW_BICAT.hom_at("1", "1"), {"I": "id1"}, {"idI": "idid1"}
    )
    point_into_arrow = validate_lax_functor(catalog.BPT, catalog.ARROW_BICAT, {"*": "1"}, {("*", "*"): hom})
    for p in (
        fx.collapse_to_point(catalog.ACYCLIC2),
        fx.collapse_to_point(catalog.ARROW_BICAT),
        point_into_arrow,
        disjoint_union_lax_functor(catalog.PSG_COLLAPSE, fx.collapse_to_point(catalog.ACYCLIC2)),
        product_projection(catalog.BZ2_TWOGROUP, catalog.ACYCLIC2),
    ):
        _assert_agrees(p)


# ---------------------------------------------------------------- once per command

def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@pytest.fixture
def counters(monkeypatch):
    """Record the document the CLI parses and each fiber build, local classification and cartesian test it makes.

    A local classification records the hom functor it classifies.  The cartesian tests of 1-cells, of the
    sweep's 2-cells and of the local classifications are recorded apart.
    """
    calls = {"document": [], "onecell": [], "fiber": [], "classify": [], "cartesian": [], "local_cartesian": []}
    parse, check = cli.parse, bifib._check_cartesian_1cell
    build, classify, cartesian = bifib.fiber_bicategory, bifib._one_sided_flags, fib1.is_cartesian_morphism

    def counted_parse(*args):
        result = parse(*args)
        calls["document"].append(result.document.value)
        return result

    def counted_check(q, x, y, f):
        calls["onecell"].append((id(q), x, y, f))
        return check(q, x, y, f)

    def counted_build(p, b_obj):
        calls["fiber"].append((id(p), b_obj))
        return build(p, b_obj)

    def counted_classify(q):
        calls["classify"].append(q)
        return classify(q)

    def counted_cartesian(key):
        def counted(q, f):
            calls[key].append((id(q), f))
            return cartesian(q, f)

        return counted

    monkeypatch.setattr(cli, "parse", counted_parse)
    monkeypatch.setattr(bifib, "_check_cartesian_1cell", counted_check)
    monkeypatch.setattr(bifib, "fiber_bicategory", counted_build)
    monkeypatch.setattr(bifib, "_one_sided_flags", counted_classify)
    monkeypatch.setattr(bifib, "is_cartesian_morphism", counted_cartesian("cartesian"))
    monkeypatch.setattr(fib1, "is_cartesian_morphism", counted_cartesian("local_cartesian"))
    return calls


def _assert_each_hom_classified_once_per_side(p: LaxFunctorBicat, classified):
    """Each hom functor of p once, in sweep order, then each of its dual's: p's maps on the opposite categories."""
    e = p.source
    pairs = [(x, y) for x in e.objects for y in e.objects]
    mine, dual = classified[: len(pairs)], classified[len(pairs):]
    assert len(dual) == len(pairs)
    assert all(q is p.hom_functors[xy] for q, xy in zip(mine, pairs))
    for q, (x, y) in zip(dual, pairs):
        orig = p.hom_functors[(y, x)]
        assert q == fib1.reverse_functor(orig)
        assert q.object_map is orig.object_map and q.morphism_map is orig.morphism_map
        assert q.source.identity is orig.source.identity and q.target.identity is orig.target.identity


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "product-bicat", "psg-collapse.catj"],
        ["verify", "product-bicat", "gr-psg-over-arrow.catj"],
        ["verify", "gr-bicat", "psg-collapse.catj"],
        ["verify", "gr-bicat", "gr-psg-over-arrow.catj"],
        ["check", "psg-collapse.catj", "fib-pseudogroupoids"],
        ["check", "gr-psg-over-arrow.catj", "fib-pseudogroupoids"],
    ],
)
def test_each_fact_is_decided_once_per_command(counters, argv):
    argv = [str(FIXTURE_DIR / a) if a.endswith(".catj") else a for a in argv]
    assert _run([*argv, "--json"]) == 0
    (p,) = counters["document"]
    assert len(counters["fiber"]) == len(set(counters["fiber"]))
    assert {lax for lax, _ in counters["fiber"]} <= {id(p)}
    if argv[1] == "gr-bicat":
        assert counters["classify"] == []
    else:
        _assert_each_hom_classified_once_per_side(p, counters["classify"])
    # Every 1-cell of p, then every 1-cell of its coop, is tested once (each is cartesian here);
    # the sweep and the local classifications each keep their own cartesian verdicts.
    e = p.source
    n = 0 if argv[1] == "gr-bicat" else sum(len(e.onecells(x, y)) for x in e.objects for y in e.objects)
    assert [lax == id(p) for lax, *_ in counters["onecell"]] == [True] * n + [False] * n
    for key in ("onecell", "cartesian", "local_cartesian"):
        assert len(counters[key]) == len(set(counters[key]))


def test_product_bicat_on_psg_collapse_builds_one_fiber_and_classifies_four_homs(counters):
    assert _run(["verify", "product-bicat", str(FIXTURE_DIR / "psg-collapse.catj"), "--json"]) == 0
    (p,) = counters["document"]
    assert counters["fiber"] == [(id(p), "*")]
    assert len(p.hom_functors) == 4 and len(counters["classify"]) == 8
    _assert_each_hom_classified_once_per_side(p, counters["classify"])
