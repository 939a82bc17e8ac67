"""Fibrations of finite categories and the Grothendieck construction.

Cartesianness is decided at once for an isomorphism and otherwise by one
counting pass over the lifts into each object, and the fibration
predicates by search over the finite hom-sets.  The cartesian-morphism
definition follows the standard Grothendieck convention; the literal
reading of the source material is kept behind convention="paper" for
auditability.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
TYPE_CHECKING = False  # typing is imported for annotations only, never at run time
if TYPE_CHECKING:
    from typing import Callable, Mapping, Optional, Sequence

from .exactq import MatrixEuler, QMatrix, QVector, Record, matrix_euler
from .fincat import (
    FinCategory,
    Functor,
    InvalidCategory,
    InvalidInput,
    MissingEulerCharacteristic,
    Morphism,
    category_components,
    euler_char_cat,
    pair_label,
    subcategory,
    validate_category,
    validate_functor,
)


class MorphismNotInCategory(InvalidInput):
    pass


class NotFibered(InvalidInput):
    pass


class NonUniqueLift(Exception):
    pass


class ObjectNotInBase(InvalidInput):
    pass


class NotBiFibered(InvalidInput):
    pass


class IncoherentData(InvalidInput):
    pass


def is_cartesian_morphism(p: Functor, f: str, convention: str = "standard") -> bool:
    """Decide cartesianness of the morphism named f by counting lifts.

    standard: f: x -> y is cartesian iff every g: z -> y together with
    h: P(z) -> P(x) satisfying P(f)∘h = P(g) admits exactly one lift
    h̃: z -> x with P(h̃) = h and f∘h̃ = g.  An isomorphism is cartesian, its
    one lift being f⁻¹∘g.  For any other f and each z, t ↦ (P(t), f∘t)
    maps hom(z, x) into those pairs (h, g), and f is cartesian iff it is a
    bijection: the images are distinct and there are |hom(z, x)| pairs.
    The "paper" convention flips the lift out of x instead (g∘h̃ = f with
    h: P(x) -> P(z)) and counts the pairs (h̃, g) with g∘h̃ = f by (P(h̃), g).
    """
    e, b = p.source, p.target
    if f not in e._by_name:
        raise MorphismNotInCategory(f)
    x, y = e.src(f), e.dst(f)
    ob, mor = p.object_map, p.morphism_map
    px, pf = ob[x], mor[f]
    if convention == "standard":
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
    for z in e.objects:
        pz = ob[z]
        lifts = Counter((p.mor(t), g) for g in e.hom(z, y) for t in e.hom(x, z) if e.compose2(g, t) == f)
        for g in e.hom(z, y):
            pg = p.mor(g)
            if any(b.compose2(pg, h) == pf and lifts[(h, g)] != 1 for h in b.hom(px, pz)):
                return False
    return True


class FibrationReport(Record):
    """The four fibration flags with witnesses.

    A report from `classify_fibration` also keeps, in `_cartesian`, the
    verdict on every morphism its covariant side tested, so a caller that
    holds the report need not test those morphisms again.
    """

    fibered: bool
    cofibered: bool
    fibered_in_groupoids: bool
    cofibered_in_groupoids: bool
    witnesses: Mapping[str, tuple]
    _cartesian: Mapping[str, bool]


def reverse_functor(p: Functor) -> Functor:
    """Formally flip every morphism in both categories."""
    return Functor(p.source.opposite(), p.target.opposite(), dict(p.object_map), dict(p.morphism_map))


def _lifts_by_target(p: Functor) -> dict[tuple[str, str], list[str]]:
    """Morphisms of the total category keyed by (target, image), in morphism order."""
    lifts: dict[tuple[str, str], list[str]] = {}
    for m in p.source.morphisms:
        lifts.setdefault((m.dst, p.mor(m.name)), []).append(m.name)
    return lifts


def _one_sided_flags(p: Functor, convention: str) -> tuple[bool, bool, dict, dict]:
    """(fibered, fibered_in_groupoids, witnesses, cartesian verdicts) for the covariant side."""
    e, b = p.source, p.target
    witnesses: dict[str, tuple] = {}
    fibered = True
    all_cartesian = True
    lifts_exist = True
    cartesian: dict[str, bool] = {}

    def is_cartesian(m: str) -> bool:
        if m not in cartesian:
            cartesian[m] = is_cartesian_morphism(p, m, convention)
        return cartesian[m]

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
    return fibered, all_cartesian and lifts_exist, witnesses, cartesian


def classify_fibration(p: Functor, convention: str = "standard") -> FibrationReport:
    """Decide the four fibration flags; cofibered flags reuse the same code on reversed data."""
    fibered, fig, wit, cartesian = _one_sided_flags(p, convention)
    co_fibered, co_fig, co_wit, _ = _one_sided_flags(reverse_functor(p), convention)
    witnesses = dict(wit)
    witnesses.update({f"co_{k}": v for k, v in co_wit.items()})
    report = FibrationReport(fibered, co_fibered, fig, co_fig, witnesses)
    object.__setattr__(report, "_cartesian", cartesian)
    assert not report.fibered_in_groupoids or report.fibered
    assert not report.cofibered_in_groupoids or report.cofibered
    return report


class Cleavage(Record):
    """Chosen cartesian lift for every (base morphism, endpoint object) pair."""

    lifts: Mapping[tuple[str, str], str]

    def lift(self, f: str, e_obj: str) -> str:
        return self.lifts[(f, e_obj)]


def choose_cleavage(p: Functor, policy: str = "min", convention: str = "standard") -> Cleavage:
    """Deterministic cleavage: lexicographically smallest (or largest) valid lift."""
    e, b = p.source, p.target
    over = _lifts_by_target(p)
    lifts: dict[tuple[str, str], str] = {}
    for e_obj in e.objects:
        for b_obj in b.objects:
            for f in b.hom(b_obj, p.ob(e_obj)):
                candidates = sorted(c for c in over.get((e_obj, f), ()) if is_cartesian_morphism(p, c, convention))
                if not candidates:
                    raise NotFibered(f"no cartesian lift of {f} at {e_obj}")
                lifts[(f, e_obj)] = candidates[0] if policy == "min" else candidates[-1]
    return Cleavage(lifts)


def fiber_category(p: Functor, b_obj: str) -> FinCategory:
    """Subcategory of the total category strictly over b and id_b."""
    if b_obj not in p.target.objects:
        raise ObjectNotInBase(b_obj)
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

    def remove_coherence(self) -> "LaxFunctorToCat":
        return LaxFunctorToCat(self.base, dict(self.fiber), dict(self.pullback))


def validate_laxcat(f: LaxFunctorToCat) -> LaxFunctorToCat:
    for b in f.base.objects:
        if b not in f.fiber:
            raise IncoherentData(f"missing fiber for base object {b}")
    for m in f.base.morphisms:
        pb = f.pullback.get(m.name)
        if pb is None:
            raise IncoherentData(f"missing pullback functor for base morphism {m.name}")
        if pb.source != f.fiber[m.dst] or pb.target != f.fiber[m.src]:
            raise IncoherentData(f"pullback along {m.name} has wrong endpoints")
    if (f.comp_iso is None) != (f.unit_iso is None):
        raise IncoherentData("coherence data must supply both composite and unit components")
    if f.comp_iso is not None:
        _validate_coherence(f)
    return f


def _validate_coherence(f: LaxFunctorToCat):
    base = f.base
    for b in base.objects:
        fb = f.fiber[b]
        unit = f.unit_iso.get(b)
        if unit is None:
            raise IncoherentData(f"missing unit components at {b}")
        fid = f.pullback[base.identity[b]]
        for x in fb.objects:
            comp = unit.get(x)
            if comp not in fb._by_name or fb.src(comp) != x or fb.dst(comp) != fid.ob(x):
                raise IncoherentData(f"unit component at ({b}, {x}) has wrong frame")
        for m in fb.morphisms:
            if fb.compose2(unit[m.dst], m.name) != fb.compose2(fid.mor(m.name), unit[m.src]):
                raise IncoherentData(f"unit naturality fails at ({b}, {m.name})")
    for (g, f_name), comps in f.comp_iso.items():
        if g not in base._by_name or f_name not in base._by_name:
            raise IncoherentData(f"composite components for undeclared base morphisms ({g}, {f_name})")
        gm, fm = base.morphism(g), base.morphism(f_name)
        if gm.src != fm.dst:
            raise IncoherentData(f"composite components for non-composable pair ({g}, {f_name})")
    for gm in base.morphisms:
        for fm in base.morphisms:
            if gm.src != fm.dst:
                continue
            comps = f.comp_iso.get((gm.name, fm.name))
            if comps is None:
                raise IncoherentData(f"missing composite components for ({gm.name}, {fm.name})")
            ff, fg = f.pullback[fm.name], f.pullback[gm.name]
            fgf = f.pullback[f.base.compose2(gm.name, fm.name)]
            fb = f.fiber[fm.src]
            top = f.fiber[gm.dst]
            for z in top.objects:
                comp = comps.get(z)
                if comp not in fb._by_name or fb.src(comp) != ff.ob(fg.ob(z)) or fb.dst(comp) != fgf.ob(z):
                    raise IncoherentData(f"composite component at ({gm.name}, {fm.name}, {z}) has wrong frame")
            for w in top.morphisms:
                lhs = fb.compose2(comps[w.dst], ff.mor(fg.mor(w.name)))
                rhs = fb.compose2(fgf.mor(w.name), comps[w.src])
                if lhs != rhs:
                    raise IncoherentData(f"composite naturality fails at ({gm.name}, {fm.name}, {w.name})")


def is_strict(f: LaxFunctorToCat) -> bool:
    """True when pullbacks compose on the nose and identities pull back to identities."""
    base = f.base
    for b in base.objects:
        fid = f.pullback[base.identity[b]]
        fb = f.fiber[b]
        if any(fid.ob(x) != x for x in fb.objects):
            return False
        if any(fid.mor(m.name) != m.name for m in fb.morphisms):
            return False
    for gm in base.morphisms:
        for fm in base.morphisms:
            if gm.src != fm.dst:
                continue
            ff, fg = f.pullback[fm.name], f.pullback[gm.name]
            fgf = f.pullback[base.compose2(gm.name, fm.name)]
            top = f.fiber[gm.dst]
            if any(ff.ob(fg.ob(z)) != fgf.ob(z) for z in top.objects):
                return False
            if any(ff.mor(fg.mor(w.name)) != fgf.mor(w.name) for w in top.morphisms):
                return False
    return True


class GrothendieckCat(Record):
    """Total category of a Cat-valued lax functor.

    Counting mode (total is None) still carries the objects and hom-sets,
    which is all the Euler characteristic needs; full mode additionally
    holds the validated total category and the projection functor.
    """

    objects: tuple[str, ...]
    object_pairs: Mapping[str, tuple[str, str]]
    hom: Mapping[tuple[str, str], tuple[str, ...]]
    morphism_pairs: Mapping[str, tuple[str, str]]
    total: Optional[FinCategory]
    projection: Optional[Functor]

    def zeta(self) -> QMatrix:
        return QMatrix.build(self.objects, self.objects, lambda i, j: Fraction(len(self.hom[(i, j)])))

    def euler(self) -> MatrixEuler:
        return matrix_euler(self.zeta())


def _grothendieck_objects(base_objects: Sequence[str], fiber: Mapping) -> tuple[list[str], dict]:
    """The labels of the objects (b, x), x in fiber[b], of a Grothendieck construction, sorted, and their pairs."""
    pairs = [(pair_label(b, x), (b, x)) for b in base_objects for x in fiber[b].objects]
    return sorted(label for label, _ in pairs), dict(pairs)


def grothendieck_cat(f: LaxFunctorToCat) -> GrothendieckCat:
    """Paper-defined pairs construction; full category exactly when sound.

    Composition is assembled from the coherence components (identities for
    a verified-strict functor); absent both, only objects/hom-sets are
    produced, since fabricating coherence would be unsound.
    """
    validate_laxcat(f)
    base = f.base
    objects, object_pairs = _grothendieck_objects(base.objects, f.fiber)

    hom: dict[tuple[str, str], list[str]] = {(o1, o2): [] for o1 in objects for o2 in objects}
    morphism_pairs: dict[str, tuple[str, str]] = {}
    morphisms: list[Morphism] = []
    for o1 in objects:
        b, x = object_pairs[o1]
        for o2 in objects:
            c, y = object_pairs[o2]
            for bf in base.hom(b, c):
                fy = f.pullback[bf].ob(y)
                for u in f.fiber[b].hom(x, fy):
                    # y is carried in the name: (f, u) alone does not pin the
                    # target when the pullback is not injective on objects
                    name = f"({bf},{u},{y})"
                    hom[(o1, o2)].append(name)
                    morphism_pairs[name] = (bf, u)
                    morphisms.append(Morphism(name, o1, o2))

    strict = f.comp_iso is None and is_strict(f)
    if f.comp_iso is None and not strict:
        return GrothendieckCat(
            tuple(objects), object_pairs, {k: tuple(v) for k, v in hom.items()}, morphism_pairs, None, None
        )

    def gamma(g: str, ff: str, z: str) -> Optional[str]:
        if strict:
            return None
        return f.comp_iso[(g, ff)][z]

    identity = {}
    for o in objects:
        b, x = object_pairs[o]
        if strict:
            unit = f.fiber[b].identity[x]
        else:
            unit = f.unit_iso[b][x]
        identity[o] = f"({base.identity[b]},{unit},{x})"

    compose: dict[tuple[str, str], str] = {}
    for m2 in morphisms:  # (g, v): (c,y) -> (d,z)
        g, v = morphism_pairs[m2.name]
        for m1 in morphisms:  # (f, u): (b,x) -> (c,y)
            if m1.dst != m2.src:
                continue
            bf, u = morphism_pairs[m1.name]
            b, _ = object_pairs[m1.src]
            _, z = object_pairs[m2.dst]
            fb = f.fiber[b]
            w = fb.compose2(f.pullback[bf].mor(v), u)
            g_comp = gamma(g, bf, z)
            if g_comp is not None:
                w = fb.compose2(g_comp, w)
            compose[(m2.name, m1.name)] = f"({base.compose2(g, bf)},{w},{z})"
    try:
        total = validate_category(objects, morphisms, identity, compose)
    except InvalidCategory as exc:
        raise IncoherentData(f"supplied coherence does not assemble a category: {exc}") from exc
    projection = validate_functor(
        total,
        base,
        {o: object_pairs[o][0] for o in objects},
        {m: morphism_pairs[m][0] for m in morphism_pairs},
    )
    return GrothendieckCat(
        tuple(objects), object_pairs, {k: tuple(v) for k, v in hom.items()}, morphism_pairs, total, projection
    )


def induced_fiber_pseudofunctor(p: Functor, c: Cleavage) -> LaxFunctorToCat:
    """Fibers and cleavage-induced pullback functors of a fibered functor."""
    base = p.target
    fibers = {b: fiber_category(p, b) for b in base.objects}
    pullbacks: dict[str, Functor] = {}
    e = p.source
    for m in base.morphisms:
        b, c_obj = m.src, m.dst
        object_map = {}
        morphism_map = {}
        for y in fibers[c_obj].objects:
            object_map[y] = e.src(c.lift(m.name, y))
        for h in fibers[c_obj].morphisms:
            lift_dst = c.lift(m.name, h.dst)
            lift_src = c.lift(m.name, h.src)
            want = e.compose2(h.name, lift_src)
            candidates = [
                u
                for u in e.hom(object_map[h.src], object_map[h.dst])
                if p.mor(u) == base.identity[b] and e.compose2(lift_dst, u) == want
            ]
            if len(candidates) != 1:
                raise NonUniqueLift(f"pullback of {h.name} along {m.name}: {len(candidates)} candidates")
            morphism_map[h.name] = candidates[0]
        pullbacks[m.name] = validate_functor(fibers[c_obj], fibers[b], object_map, morphism_map)
    return LaxFunctorToCat(base, fibers, pullbacks)


class GrFormulaReport(Record):
    """Both sides of chi(Gr(F)) = sum_b k_b chi(Fb), with the intermediates."""

    chi_grothendieck: Fraction
    sum_k_b_chi_fiber: Fraction
    base_coweighting: QVector
    fiber_chi: Mapping[str, Fraction]
    equal: bool


def verify_gr_formula(f: LaxFunctorToCat) -> GrFormulaReport:
    base_euler = euler_char_cat(f.base)
    if base_euler.coweighting is None:
        raise MissingEulerCharacteristic("base category has no coweighting")
    gr = grothendieck_cat(f)
    gr_euler = gr.euler()
    if gr_euler.chi is None:
        raise MissingEulerCharacteristic("Grothendieck construction has no Euler characteristic")
    fiber_chi: dict[str, Fraction] = {}
    for b in f.base.objects:
        chi_b = euler_char_cat(f.fiber[b]).chi
        if chi_b is None:
            raise MissingEulerCharacteristic(f"fiber over {b} has no Euler characteristic")
        fiber_chi[b] = chi_b
    rhs = sum(
        (base_euler.coweighting[b] * fiber_chi[b] for b in f.base.objects),
        Fraction(0),
    )
    return GrFormulaReport(gr_euler.chi, rhs, base_euler.coweighting, fiber_chi, gr_euler.chi == rhs)


# One connected component of a base, with its chi and the chi of each fiber over it.
Component = namedtuple("Component", "objects chi_base chi_fiber")


def _product_components(components: Sequence[tuple], chi_base: Callable, chi_fiber: Callable) -> tuple[tuple, Fraction]:
    """Each connected component of a base with its chi and its fibers' chi, and the sum of their products.

    chi_base(component) and chi_fiber(object) give None where there is no Euler characteristic.
    """
    out = []
    total = Fraction(0)
    for comp in components:
        chi_b = chi_base(comp)
        if chi_b is None:
            raise MissingEulerCharacteristic(f"base component {comp} has no Euler characteristic")
        fiber_chis = []
        for b in comp:
            chi_fb = chi_fiber(b)
            if chi_fb is None:
                raise MissingEulerCharacteristic(f"fiber over {b} has no Euler characteristic")
            fiber_chis.append(chi_fb)
        assert len(set(fiber_chis)) == 1, f"fiber chi not constant on component {comp}"
        out.append(Component(comp, chi_b, fiber_chis[0]))
        total += chi_b * fiber_chis[0]
    return tuple(out), total


class ProductFormulaReport(Record):
    """chi(E) against the per-component sum of chi(B_i)·chi(F_i)."""

    chi_total: Fraction
    sum_of_products: Fraction
    components: tuple[Component, ...]
    equal: bool


def verify_product_formula_cat(p: Functor, convention: str = "standard") -> ProductFormulaReport:
    report = classify_fibration(p, convention)
    if not (report.fibered_in_groupoids and report.cofibered_in_groupoids):
        raise NotBiFibered(f"not fibered+cofibered in groupoids: {report.witnesses}")
    chi_total = euler_char_cat(p.source).chi
    if chi_total is None:
        raise MissingEulerCharacteristic("total category has no Euler characteristic")
    base = p.target
    components, rhs = _product_components(
        category_components(base),
        # A morphism lies in the component of its source, so the full part on a component is a subcategory.
        lambda comp: euler_char_cat(subcategory(base, comp, [m for m in base.morphisms if m.src in comp])).chi,
        lambda b: euler_char_cat(fiber_category(p, b)).chi,
    )
    return ProductFormulaReport(chi_total, rhs, components, chi_total == rhs)
