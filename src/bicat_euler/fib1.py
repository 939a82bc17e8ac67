"""Fibrations of finite categories and the Grothendieck construction.

Cartesianness follows the standard Grothendieck convention.  It is
decided at once for an isomorphism and otherwise by one counting pass over
the lifts into each object, and the fibration predicates by search over
the finite hom-sets.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache, partial
TYPE_CHECKING = False  # typing is imported for annotations only, never at run time
if TYPE_CHECKING:
    from typing import Callable, Mapping, Optional, Sequence

    from .exactq import Rational

from .exactq import MatrixEuler, QMatrix, QVector, Record, matrix_euler, rational
from .fincat import (
    FinCategory,
    Functor,
    InvalidCategory,
    InvalidInput,
    MissingEulerCharacteristic,
    Morphism,
    category_components,
    euler_char_cat,
    require_euler,
    subcategory,
    validate_category,
    validate_functor,
)


class NonUniqueLift(Exception):
    pass


class NotBiFibered(InvalidInput):
    pass


class IncoherentData(InvalidInput):
    pass


def is_cartesian_morphism(p: Functor, f: str) -> bool:
    """Decide cartesianness of the morphism named f by counting lifts.

    f: x -> y is cartesian iff every g: z -> y together with
    h: P(z) -> P(x) satisfying P(f)∘h = P(g) admits exactly one lift
    h̃: z -> x with P(h̃) = h and f∘h̃ = g.  An isomorphism is cartesian, its
    one lift being f⁻¹∘g.  For any other f and each z, t ↦ (P(t), f∘t)
    maps hom(z, x) into those pairs (h, g), and f is cartesian iff it is a
    bijection: the images are distinct and there are |hom(z, x)| pairs.
    """
    e, b = p.source, p.target
    if f not in e._by_name:
        raise InvalidInput(f"{f!r} is no morphism of the total category")
    x, y = e.src(f), e.dst(f)
    ob, mor = p.object_map, p.morphism_map
    px, pf = ob[x], mor[f]
    if e.inverse_of(f) is not None:
        return True
    e_homs, b_homs, e_after, b_after = e._homs, b._homs, e.compose, b.compose
    for z in e.objects:
        into_x = e_homs.get((z, x), ())
        if len({(mor[t], e_after[(f, t)]) for t in into_x}) != len(into_x):
            return False
        over: dict[str, int] = {}  # P(f)∘h -> the number of h: P(z) -> P(x) with that composite
        for h in b_homs.get((ob[z], px), ()):
            pfh = b_after[(pf, h)]
            over[pfh] = over.get(pfh, 0) + 1
        if sum(over.get(mor[g], 0) for g in e_homs.get((z, y), ())) != len(into_x):
            return False
    return True


class FibrationReport(Record):
    """The four fibration flags with witnesses."""

    fibered: bool
    cofibered: bool
    fibered_in_groupoids: bool
    cofibered_in_groupoids: bool
    witnesses: Mapping[str, tuple]


def reverse_functor(p: Functor) -> Functor:
    """Formally flip every morphism in both categories; the object and morphism maps are p's own."""
    return Functor(p.source.opposite(), p.target.opposite(), p.object_map, p.morphism_map)


def _lifts_by_target(p: Functor) -> dict[tuple[str, str], list[str]]:
    """Morphisms of the total category keyed by (target, image), in morphism order."""
    lifts: dict[tuple[str, str], list[str]] = {}
    for m in p.source.morphisms:
        lifts.setdefault((m.dst, p.mor(m.name)), []).append(m.name)
    return lifts


def _one_sided_flags(p: Functor) -> tuple[bool, bool, dict]:
    """(fibered, fibered_in_groupoids, witnesses) for the covariant side."""
    e, b = p.source, p.target
    witnesses: dict[str, tuple] = {}
    fibered = True
    all_cartesian = True
    lifts_exist = True
    is_cartesian = cache(partial(is_cartesian_morphism, p))
    for m in e.morphisms:
        if not is_cartesian(m.name):
            all_cartesian = False
            witnesses.setdefault("non_cartesian", (m.name,))
            break
    lifts = _lifts_by_target(p)
    for e_obj in e.objects:
        target_obj = p.ob(e_obj)
        for b_obj in b.objects:
            for f in b.hom(b_obj, target_obj):
                candidates = lifts.get((e_obj, f))
                if not candidates:
                    lifts_exist = False
                    fibered = False
                    witnesses.setdefault("no_lift", (f, e_obj))
                elif not any(is_cartesian(c) for c in candidates):
                    fibered = False
                    witnesses.setdefault("no_cartesian_lift", (f, e_obj))
    return fibered, all_cartesian and lifts_exist, witnesses


def classify_fibration(p: Functor) -> FibrationReport:
    """Decide the four fibration flags; cofibered flags reuse the same code on reversed data."""
    fibered, fig, wit = _one_sided_flags(p)
    co_fibered, co_fig, co_wit = _one_sided_flags(reverse_functor(p))
    witnesses = dict(wit)
    witnesses.update({f"co_{k}": v for k, v in co_wit.items()})
    report = FibrationReport(fibered, co_fibered, fig, co_fig, witnesses)
    assert not report.fibered_in_groupoids or report.fibered
    assert not report.cofibered_in_groupoids or report.cofibered
    return report


def fiber_category(p: Functor, b_obj: str) -> FinCategory:
    """Subcategory of the total category strictly over b and id_b."""
    if b_obj not in p.target.objects:
        raise InvalidInput(f"{b_obj!r} is no object of the base")
    # P(id_x) = id_b and P(g∘f) = id_b∘id_b = id_b: the part over b and id_b is a subcategory.
    id_b = p.target.identity[b_obj]
    return subcategory(
        p.source,
        [x for x in p.source.objects if p.ob(x) == b_obj],
        [m for m in p.source.morphisms if p.mor(m.name) == id_b],
    )


class LaxFunctorToCat(Record):
    """Contravariant Cat-valued lax functor: fibers plus pullback functors.

    pullback[f] for f: b -> c is a functor fiber(c) -> fiber(b); identities
    are included.  comp_iso/unit_iso, when present, are complete coherence
    component families (one morphism per object, natural in it).
    """

    base: FinCategory
    fiber: Mapping[str, FinCategory]
    pullback: Mapping[str, Functor]
    comp_iso: Optional[Mapping[tuple[str, str], Mapping[str, str]]] = None
    unit_iso: Optional[Mapping[str, Mapping[str, str]]] = None


def validate_laxcat(f: LaxFunctorToCat) -> LaxFunctorToCat:
    """f with only the keys that name a base object, base morphism or fiber object; IncoherentData otherwise."""
    base = f.base
    for b in base.objects:
        if b not in f.fiber:
            raise IncoherentData(f"missing fiber for base object {b}")
    for m in base.morphisms:
        pb = f.pullback.get(m.name)
        if pb is None:
            raise IncoherentData(f"missing pullback functor for base morphism {m.name}")
        if pb.source != f.fiber[m.dst] or pb.target != f.fiber[m.src]:
            raise IncoherentData(f"pullback along {m.name} has wrong endpoints")
    if (f.comp_iso is None) != (f.unit_iso is None):
        raise IncoherentData("coherence data must supply both composite and unit components")
    # Keys that name no base object, base morphism or fiber object are no part of it.
    fiber = {b: cat for b, cat in f.fiber.items() if b in base.identity}
    pullback = {m: fun for m, fun in f.pullback.items() if m in base._by_name}
    comp_iso = unit_iso = None
    if f.comp_iso is not None:
        _validate_coherence(f)
        comp_iso = {
            gf: {z: comps[z] for z in fiber[base.dst(gf[0])].objects} for gf, comps in f.comp_iso.items()
        }
        unit_iso = {b: {x: f.unit_iso[b][x] for x in fiber[b].objects} for b in fiber}
    return LaxFunctorToCat(base, fiber, pullback, comp_iso, unit_iso)


def _validate_coherence(f: LaxFunctorToCat):
    base = f.base
    for b in base.objects:
        fb = f.fiber[b]
        unit = f.unit_iso.get(b)
        if unit is None:
            raise IncoherentData(f"missing unit components at {b}")
        fid = f.pullback[base.identity[b]]
        for x in fb.objects:
            if unit.get(x) not in fb.hom(x, fid.ob(x)):
                raise IncoherentData(f"unit component at ({b}, {x}) has wrong frame")
        for m in fb.morphisms:
            if fb.compose2(unit[m.dst], m.name) != fb.compose2(fid.mor(m.name), unit[m.src]):
                raise IncoherentData(f"unit naturality fails at ({b}, {m.name})")
    for g, f_name in f.comp_iso:
        if g not in base._by_name or f_name not in base._by_name:
            raise IncoherentData(f"composite components for undeclared base morphisms ({g}, {f_name})")
        if (g, f_name) not in base.compose:
            raise IncoherentData(f"composite components for non-composable pair ({g}, {f_name})")
    for (g, f_name), gf in sorted(base.compose.items()):
        comps = f.comp_iso.get((g, f_name))
        if comps is None:
            raise IncoherentData(f"missing composite components for ({g}, {f_name})")
        ff, fg, fgf = f.pullback[f_name], f.pullback[g], f.pullback[gf]
        fb = f.fiber[base.src(f_name)]
        top = f.fiber[base.dst(g)]
        for z in top.objects:
            if comps.get(z) not in fb.hom(ff.ob(fg.ob(z)), fgf.ob(z)):
                raise IncoherentData(f"composite component at ({g}, {f_name}, {z}) has wrong frame")
        for w in top.morphisms:
            lhs = fb.compose2(comps[w.dst], ff.mor(fg.mor(w.name)))
            rhs = fb.compose2(fgf.mor(w.name), comps[w.src])
            if lhs != rhs:
                raise IncoherentData(f"composite naturality fails at ({g}, {f_name}, {w.name})")


def is_strict(f: LaxFunctorToCat) -> bool:
    """True when pullbacks compose on the nose and identities pull back to identities."""
    base = f.base
    for b in base.objects:
        fid = f.pullback[base.identity[b]]
        fb = f.fiber[b]
        if any(fid.mor(m.name) != m.name for m in fb.morphisms):
            return False
    for (g, f_name), gf in sorted(base.compose.items()):
        ff, fg, fgf = f.pullback[f_name], f.pullback[g], f.pullback[gf]
        if any(ff.mor(fg.mor(w.name)) != fgf.mor(w.name) for w in f.fiber[base.dst(g)].morphisms):
            return False
    return True


class GrothendieckCat(Record):
    """Total category of a Cat-valued lax functor.

    An object is the pair (b, x) and a morphism the triple (f, u, y) itself.
    Counting mode (total is None) still carries the objects and hom-sets,
    which is all the Euler characteristic needs; full mode additionally
    holds the validated total category and the projection functor.
    """

    objects: tuple[tuple[str, str], ...]
    hom: Mapping[tuple[tuple[str, str], tuple[str, str]], tuple[tuple[str, str, str], ...]]
    total: Optional[FinCategory]
    projection: Optional[Functor]

    def zeta(self) -> QMatrix:
        return QMatrix.build(self.objects, self.objects, lambda i, j: rational(len(self.hom[(i, j)])))

    def euler(self) -> MatrixEuler:
        return matrix_euler(self.zeta())


def _grothendieck_objects(base_objects: Sequence[str], fiber: Mapping) -> list[tuple[str, str]]:
    """The objects (b, x), x in fiber[b], of a Grothendieck construction, sorted."""
    return sorted((b, x) for b in base_objects for x in fiber[b].objects)


def grothendieck_cat(f: LaxFunctorToCat) -> GrothendieckCat:
    """Paper-defined pairs construction; full category exactly when sound.

    Composition is assembled from the coherence components (identities for
    a verified-strict functor); absent both, only objects/hom-sets are
    produced, since fabricating coherence would be unsound.
    """
    validate_laxcat(f)
    base = f.base
    objects = _grothendieck_objects(base.objects, f.fiber)

    hom: dict[tuple, list[tuple[str, str, str]]] = {(o1, o2): [] for o1 in objects for o2 in objects}
    morphisms: list[Morphism] = []
    for o1 in objects:
        b, x = o1
        for o2 in objects:
            c, y = o2
            for bf in base.hom(b, c):
                fy = f.pullback[bf].ob(y)
                for u in f.fiber[b].hom(x, fy):
                    # y is part of the morphism: (f, u) alone does not pin the
                    # target when the pullback is not injective on objects
                    m = (bf, u, y)
                    hom[(o1, o2)].append(m)
                    morphisms.append(Morphism(m, o1, o2))

    strict = f.comp_iso is None and is_strict(f)
    if f.comp_iso is None and not strict:
        return GrothendieckCat(tuple(objects), {k: tuple(v) for k, v in hom.items()}, None, None)

    def gamma(g: str, ff: str, z: str) -> Optional[str]:
        if strict:
            return None
        return f.comp_iso[(g, ff)][z]

    identity = {}
    for o in objects:
        b, x = o
        if strict:
            unit = f.fiber[b].identity[x]
        else:
            unit = f.unit_iso[b][x]
        identity[o] = (base.identity[b], unit, x)

    compose: dict[tuple, tuple[str, str, str]] = {}
    for m2 in morphisms:  # (g, v): (c,y) -> (d,z)
        g, v, z = m2.name
        for m1 in morphisms:  # (f, u): (b,x) -> (c,y)
            if m1.dst != m2.src:
                continue
            bf, u, _ = m1.name
            b, _ = m1.src
            fb = f.fiber[b]
            w = fb.compose2(f.pullback[bf].mor(v), u)
            g_comp = gamma(g, bf, z)
            if g_comp is not None:
                w = fb.compose2(g_comp, w)
            compose[(m2.name, m1.name)] = (base.compose2(g, bf), w, z)
    try:
        total = validate_category(objects, morphisms, identity, compose)
    except InvalidCategory as exc:
        raise IncoherentData(f"supplied coherence does not assemble a category: {exc}") from exc
    projection = validate_functor(
        total,
        base,
        {o: o[0] for o in objects},
        {m.name: m.name[0] for m in morphisms},
    )
    return GrothendieckCat(tuple(objects), {k: tuple(v) for k, v in hom.items()}, total, projection)


class GrFormulaReport(Record):
    """Both sides of chi(Gr(F)) = sum_b k_b chi(Fb), with the intermediates."""

    chi_grothendieck: Rational
    sum_k_b_chi_fiber: Rational
    base_coweighting: QVector
    fiber_chi: Mapping[str, Rational]
    equal: bool


def verify_gr_formula(f: LaxFunctorToCat) -> GrFormulaReport:
    coweighting = require_euler(euler_char_cat(f.base), "base category", "coweighting")
    chi_gr = require_euler(grothendieck_cat(f).euler(), "Grothendieck construction")
    fiber_chi = {b: require_euler(euler_char_cat(f.fiber[b]), f"fiber over {b}") for b in f.base.objects}
    rhs = sum((coweighting[b] * fiber_chi[b] for b in f.base.objects), rational())
    return GrFormulaReport(chi_gr, rhs, coweighting, fiber_chi, chi_gr == rhs)


# One connected component of a base, with its chi and the chi of each fiber over it.
Component = namedtuple("Component", "objects chi_base chi_fiber")


def _product_components(
    components: Sequence[tuple], base_euler: Callable, fiber_euler: Callable
) -> tuple[tuple, Rational]:
    """Each connected component of a base with its chi and its fibers' chi, and the sum of their products.

    base_euler(component) and fiber_euler(object) give the MatrixEuler of that component and of
    the fiber over that object.  A component without chi raises MissingEulerCharacteristic before
    its fibers are solved; the fibers follow, one by one in the component's order.
    """
    out = []
    total = rational()
    for comp in components:
        chi_b = require_euler(base_euler(comp), f"base component {comp}")
        fiber_chis = [require_euler(fiber_euler(b), f"fiber over {b}") for b in comp]
        assert len(set(fiber_chis)) == 1, f"fiber chi not constant on component {comp}"
        out.append(Component(comp, chi_b, fiber_chis[0]))
        total += chi_b * fiber_chis[0]
    return tuple(out), total


class ProductFormulaReport(Record):
    """chi(E) against the per-component sum of chi(B_i)·chi(F_i)."""

    chi_total: Rational
    sum_of_products: Rational
    components: tuple[Component, ...]
    equal: bool


def verify_product_formula_cat(p: Functor) -> ProductFormulaReport:
    report = classify_fibration(p)
    if not (report.fibered_in_groupoids and report.cofibered_in_groupoids):
        raise NotBiFibered(f"not fibered+cofibered in groupoids: {report.witnesses}")
    chi_total = require_euler(euler_char_cat(p.source), "total category")
    base = p.target
    components, rhs = _product_components(
        category_components(base),
        # A morphism lies in the component of its source, so the full part on a component is a subcategory.
        lambda comp: euler_char_cat(subcategory(base, comp, [m for m in base.morphisms if m.src in comp])),
        lambda b: euler_char_cat(fiber_category(p, b)),
    )
    return ProductFormulaReport(chi_total, rhs, components, chi_total == rhs)
