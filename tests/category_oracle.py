"""Reference scans for cross-checking the indexed category layer.

These are the loops the library used before it indexed hom-sets and
in-arrows and before it counted cartesian lifts in one pass: `hom` scans
every morphism, `validate_category` tries every pair and triple of
morphisms, so its triple scan is the oracle of the library's associativity
check on a generating set (Light's test), `is_cartesian_morphism` lists the
lifts of every (g, h) separately, also for an isomorphism, and
`choose_cleavage` scans every morphism for the lifts of each (base
morphism, object).  They stay here, test-only, as the slow paths the
indexed code must agree with.
"""

from typing import Mapping, Sequence

from bicat_euler.fib1 import Cleavage, FibrationReport, MorphismNotInCategory, NotFibered, reverse_functor
from bicat_euler.fincat import FinCategory, Functor, InvalidCategory, Morphism, Violation


def hom(cat: FinCategory, x: str, y: str) -> tuple[str, ...]:
    return tuple(m.name for m in cat.morphisms if m.src == x and m.dst == y)


def validate_category(
    objects: Sequence[str],
    morphisms: Sequence[tuple[str, str, str] | Morphism],
    identity: Mapping[str, str],
    compose: Mapping[tuple[str, str], str],
) -> FinCategory:
    """Check every category law exhaustively; raise InvalidCategory with all failures.

    Objects and morphisms are stored sorted by label so that all derived
    artifacts (matrices, serializations) are canonical.
    """
    morphs = tuple(m if isinstance(m, Morphism) else Morphism(*m) for m in morphisms)
    violations: list[Violation] = []
    if len(set(objects)) != len(objects):
        violations.append(Violation("DanglingEndpoint", "duplicate object labels"))
    names = [m.name for m in morphs]
    if len(set(names)) != len(names):
        violations.append(Violation("DanglingEndpoint", "duplicate morphism names"))
    obj_set = set(objects)
    for m in morphs:
        if m.src not in obj_set or m.dst not in obj_set:
            violations.append(
                Violation("DanglingEndpoint", f"morphism {m.name}: {m.src} -> {m.dst} leaves the object set", (m.name,))
            )
    if violations:
        raise InvalidCategory(violations)

    by_name = {m.name: m for m in morphs}
    for x in objects:
        ident = identity.get(x)
        if ident is None or ident not in by_name:
            violations.append(Violation("IdentityLawViolation", f"no identity morphism for object {x}", (x,)))
        else:
            m = by_name[ident]
            if m.src != x or m.dst != x:
                violations.append(
                    Violation("IdentityLawViolation", f"identity of {x} is {ident}: {m.src} -> {m.dst}", (x,))
                )
    for (g, f), h in compose.items():
        if g not in by_name or f not in by_name or h not in by_name:
            violations.append(Violation("DanglingEndpoint", f"compose({g}, {f}) = {h} names unknown morphisms", (g, f)))
            continue
        if by_name[g].src != by_name[f].dst:
            violations.append(Violation("DanglingEndpoint", f"compose({g}, {f}): pair is not composable", (g, f)))
        elif by_name[h].src != by_name[f].src or by_name[h].dst != by_name[g].dst:
            violations.append(
                Violation("DanglingEndpoint", f"compose({g}, {f}) = {h} has wrong endpoints", (g, f, h))
            )
    if violations:
        raise InvalidCategory(violations)

    for g in morphs:
        for f in morphs:
            if g.src == f.dst and (g.name, f.name) not in compose:
                violations.append(
                    Violation("MissingComposite", f"compose({g.name}, {f.name}) undefined", (g.name, f.name))
                )
    if violations:
        raise InvalidCategory(violations)

    for m in morphs:
        if compose[(m.name, identity[m.src])] != m.name or compose[(identity[m.dst], m.name)] != m.name:
            violations.append(Violation("IdentityLawViolation", f"identity laws fail at {m.name}", (m.name,)))
    for h in morphs:
        for g in morphs:
            if h.src != g.dst:
                continue
            for f in morphs:
                if g.src != f.dst:
                    continue
                if compose[(compose[(h.name, g.name)], f.name)] != compose[(h.name, compose[(g.name, f.name)])]:
                    violations.append(
                        Violation(
                            "AssociativityViolation",
                            f"({h.name}∘{g.name})∘{f.name} != {h.name}∘({g.name}∘{f.name})",
                            (h.name, g.name, f.name),
                        )
                    )
    if violations:
        raise InvalidCategory(violations)

    return FinCategory(
        tuple(sorted(objects)),
        tuple(sorted(morphs, key=lambda m: m.name)),
        {x: identity[x] for x in sorted(objects)},
        dict(compose),
    )


def is_cartesian_morphism(p: Functor, f: str, convention: str = "standard") -> bool:
    """Decide cartesianness of the morphism named f by exhaustive search.

    standard: f: x -> y is cartesian iff every g: z -> y together with
    h: P(z) -> P(x) satisfying P(f)∘h = P(g) admits exactly one lift
    h̃: z -> x with P(h̃) = h and f∘h̃ = g.  The "paper" convention flips
    the lift out of x instead (g∘h̃ = f with h: P(x) -> P(z)).
    """
    e, b = p.source, p.target
    if f not in {m.name for m in e.morphisms}:
        raise MorphismNotInCategory(f)
    x, y = e.src(f), e.dst(f)
    pf = p.mor(f)
    for z in e.objects:
        for g in e.hom(z, y):
            pg = p.mor(g)
            if convention == "standard":
                for h in b.hom(p.ob(z), p.ob(x)):
                    if b.compose2(pf, h) != pg:
                        continue
                    lifts = [t for t in e.hom(z, x) if p.mor(t) == h and e.compose2(f, t) == g]
                    if len(lifts) != 1:
                        return False
            else:
                for h in b.hom(p.ob(x), p.ob(z)):
                    if b.compose2(pg, h) != pf:
                        continue
                    lifts = [t for t in e.hom(x, z) if p.mor(t) == h and e.compose2(g, t) == f]
                    if len(lifts) != 1:
                        return False
    return True


def _one_sided_flags(p: Functor, convention: str) -> tuple[bool, bool, dict]:
    """(fibered, fibered_in_groupoids, witnesses) for the covariant side."""
    e, b = p.source, p.target
    witnesses: dict[str, tuple] = {}
    fibered = True
    all_cartesian = True
    lifts_exist = True
    for m in e.morphisms:
        if not is_cartesian_morphism(p, m.name, convention):
            all_cartesian = False
            witnesses.setdefault("non_cartesian", (m.name,))
            break
    for e_obj in e.objects:
        target_obj = p.ob(e_obj)
        for b_obj in b.objects:
            for f in b.hom(b_obj, target_obj):
                candidates = [m.name for m in e.morphisms if m.dst == e_obj and p.mor(m.name) == f]
                if not candidates:
                    lifts_exist = False
                    fibered = False
                    witnesses.setdefault("no_lift", (f, e_obj))
                elif not any(is_cartesian_morphism(p, c, convention) for c in candidates):
                    fibered = False
                    witnesses.setdefault("no_cartesian_lift", (f, e_obj))
    return fibered, all_cartesian and lifts_exist, witnesses


def classify_fibration(p: Functor, convention: str = "standard") -> FibrationReport:
    """Decide the four fibration flags; cofibered flags reuse the same code on reversed data."""
    fibered, fig, wit = _one_sided_flags(p, convention)
    co_fibered, co_fig, co_wit = _one_sided_flags(reverse_functor(p), convention)
    witnesses = dict(wit)
    witnesses.update({f"co_{k}": v for k, v in co_wit.items()})
    report = FibrationReport(fibered, co_fibered, fig, co_fig, witnesses)
    assert not report.fibered_in_groupoids or report.fibered
    assert not report.cofibered_in_groupoids or report.cofibered
    return report


def _cartesian_lift_candidates(p: Functor, f: str, e_obj: str, convention: str) -> list[str]:
    e, b = p.source, p.target
    return sorted(
        m.name
        for m in e.morphisms
        if m.dst == e_obj and p.mor(m.name) == f and is_cartesian_morphism(p, m.name, convention)
    )


def choose_cleavage(p: Functor, policy: str = "min", convention: str = "standard") -> Cleavage:
    """Deterministic cleavage: lexicographically smallest (or largest) valid lift."""
    e, b = p.source, p.target
    lifts: dict[tuple[str, str], str] = {}
    for e_obj in e.objects:
        for b_obj in b.objects:
            for f in b.hom(b_obj, p.ob(e_obj)):
                candidates = _cartesian_lift_candidates(p, f, e_obj, convention)
                if not candidates:
                    raise NotFibered(f"no cartesian lift of {f} at {e_obj}")
                lifts[(f, e_obj)] = candidates[0] if policy == "min" else candidates[-1]
    return Cleavage(lifts)
