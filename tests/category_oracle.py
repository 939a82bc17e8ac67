"""Reference scans for cross-checking the indexed category layer.

These are the loops the library used before it indexed hom-sets,
in-arrows and isomorphisms and before it counted cartesian lifts in one
pass: `hom` scans every morphism, `inverse_of` scans every morphism for a
two-sided inverse, `isos` sorts the morphisms that have one,
`validate_category` tries every pair and triple of morphisms, so its
triple scan is the oracle of the library's associativity check on a
generating set (Light's test), and `is_cartesian_morphism` lists the
lifts of every (g, h) separately, also for an isomorphism.  They
stay here, test-only, as the slow paths the indexed code must agree with.
`nerve_euler` is an independent oracle of chi on acyclic categories: the
alternating sum of the nerve's nondegenerate chain counts.
"""

from typing import Mapping, Sequence

from bicat_euler.exactq import Record
from bicat_euler.fib1 import FibrationReport, reverse_functor
from bicat_euler.fincat import FinCategory, Functor, InvalidCategory, InvalidInput, Morphism, Violation, acyclic_witness


def hom(cat: FinCategory, x: str, y: str) -> tuple[str, ...]:
    return tuple(m.name for m in cat.morphisms if m.src == x and m.dst == y)


def inverse_of(cat: FinCategory, name: str):
    """The first morphism, in morphism order, that is a two-sided inverse of name, or None."""
    m = cat.morphism(name)
    for g in cat.morphisms:
        if (
            g.src == m.dst
            and g.dst == m.src
            and cat.compose[(g.name, name)] == cat.identity[m.src]
            and cat.compose[(name, g.name)] == cat.identity[m.dst]
        ):
            return g.name
    return None


def isos(cat: FinCategory, x: str, y: str) -> tuple[str, ...]:
    return tuple(sorted(name for name in hom(cat, x, y) if inverse_of(cat, name) is not None))


def objects_isomorphic(cat: FinCategory, x: str, y: str) -> bool:
    return bool(isos(cat, x, y))


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
                Violation("DanglingEndpoint", f"morphism {m.name}: {m.src} -> {m.dst} leaves the object set")
            )
    if violations:
        raise InvalidCategory(violations)

    by_name = {m.name: m for m in morphs}
    for x in objects:
        ident = identity.get(x)
        if ident is None or ident not in by_name:
            violations.append(Violation("IdentityLawViolation", f"no identity morphism for object {x}"))
        else:
            m = by_name[ident]
            if m.src != x or m.dst != x:
                violations.append(
                    Violation("IdentityLawViolation", f"identity of {x} is {ident}: {m.src} -> {m.dst}")
                )
    for (g, f), h in compose.items():
        if g not in by_name or f not in by_name or h not in by_name:
            violations.append(Violation("DanglingEndpoint", f"compose({g}, {f}) = {h} names unknown morphisms"))
            continue
        if by_name[g].src != by_name[f].dst:
            violations.append(Violation("DanglingEndpoint", f"compose({g}, {f}): pair is not composable"))
        elif by_name[h].src != by_name[f].src or by_name[h].dst != by_name[g].dst:
            violations.append(
                Violation("DanglingEndpoint", f"compose({g}, {f}) = {h} has wrong endpoints")
            )
    if violations:
        raise InvalidCategory(violations)

    for g in morphs:
        for f in morphs:
            if g.src == f.dst and (g.name, f.name) not in compose:
                violations.append(
                    Violation("MissingComposite", f"compose({g.name}, {f.name}) undefined")
                )
    if violations:
        raise InvalidCategory(violations)

    for m in morphs:
        if compose[(m.name, identity[m.src])] != m.name or compose[(identity[m.dst], m.name)] != m.name:
            violations.append(Violation("IdentityLawViolation", f"identity laws fail at {m.name}"))
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


def is_cartesian_morphism(p: Functor, f: str) -> bool:
    """Decide cartesianness of the morphism named f by exhaustive search.

    f: x -> y is cartesian iff every g: z -> y together with
    h: P(z) -> P(x) satisfying P(f)∘h = P(g) admits exactly one lift
    h̃: z -> x with P(h̃) = h and f∘h̃ = g.
    """
    e, b = p.source, p.target
    if f not in {m.name for m in e.morphisms}:
        raise InvalidInput(f"{f!r} is no morphism of the total category")
    x, y = e.src(f), e.dst(f)
    pf = p.mor(f)
    for z in e.objects:
        for g in e.hom(z, y):
            pg = p.mor(g)
            for h in b.hom(p.ob(z), p.ob(x)):
                if b.compose2(pf, h) != pg:
                    continue
                lifts = [t for t in e.hom(z, x) if p.mor(t) == h and e.compose2(f, t) == g]
                if len(lifts) != 1:
                    return False
    return True


def _one_sided_flags(p: Functor) -> tuple[bool, bool, dict]:
    """(fibered, fibered_in_groupoids, witnesses) for the covariant side."""
    e, b = p.source, p.target
    witnesses: dict[str, tuple] = {}
    fibered = True
    all_cartesian = True
    lifts_exist = True
    for m in e.morphisms:
        if not is_cartesian_morphism(p, m.name):
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
                elif not any(is_cartesian_morphism(p, c) for c in candidates):
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


class ChainComplexCount(Record):
    """Nondegenerate n-chain counts of the nerve and their alternating sum."""

    counts: tuple[int, ...]
    euler: int


def nerve_euler(a: FinCategory) -> ChainComplexCount:
    """Count composable chains of non-identity morphisms, level by level.

    counts[0] = #objects; counts[n] = #chains f_n∘...∘f_1 of non-identity
    morphisms.  Finite exactly because the category is acyclic.
    """
    if acyclic_witness(a):
        raise ValueError("nerve chain counts are finite only for acyclic categories")
    non_id = [m for m in a.morphisms if not a.is_identity(m.name)]
    counts = [len(a.objects)]
    # ending[x] = number of length-n chains ending at x; memoized per level.
    ending = {x: 1 for x in a.objects}
    while True:
        nxt = {x: 0 for x in a.objects}
        total = 0
        for m in non_id:
            nxt[m.dst] += ending[m.src]
            total += ending[m.src]
        if total == 0:
            break
        counts.append(total)
        ending = nxt
    euler = sum((-1) ** n * c for n, c in enumerate(counts))
    return ChainComplexCount(tuple(counts), euler)
