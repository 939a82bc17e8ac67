"""Finite categories with explicit composition tables.

Categories are validated once and immutable afterwards: endpoint,
composite and identity laws entry by entry, associativity on a generating
set, with the full triple scan as the fallback that reports violations.
Every downstream module builds on the similarity matrix
ζ_A(i,j) = #A(i,j).  Hom-sets are indexed once per category, so
`hom(x, y)` is a lookup, and so are isomorphisms, on first use.
"""

from __future__ import annotations

from functools import cached_property
TYPE_CHECKING = False  # typing is imported for annotations only, never at run time
if TYPE_CHECKING:
    from typing import Mapping, Optional, Sequence

from .exactq import MatrixEuler, QMatrix, Record, matrix_euler, rational


class InvalidInput(Exception):
    """Base of every error a malformed or unsuitable input causes (CLI exit 2)."""


class MissingEulerCharacteristic(InvalidInput):
    """Names the structure whose weighting or coweighting is absent."""


def require_euler(euler: MatrixEuler, what: str, side: str = "chi"):
    """euler's chi (or its coweighting, when side is "coweighting").

    When it has none, MissingEulerCharacteristic names `what`: one class for
    each theorem's hypothesis and for each hom of a cat-graph.
    """
    value = getattr(euler, side)
    if value is None:
        raise MissingEulerCharacteristic(f"{what} has no {'Euler characteristic' if side == 'chi' else side}")
    return value


class Violation(Record):
    """One violated category/functor law, machine-readable."""

    code: str
    message: str

    def __str__(self):
        return f"{self.code}: {self.message}"


class InvalidCategory(InvalidInput):
    """Raised with the complete list of violated category or functor laws, not just the first."""

    def __init__(self, violations: Sequence[Violation]):
        self.violations = tuple(violations)
        super().__init__("; ".join(str(v) for v in violations))


class Morphism(Record):
    name: str
    src: str
    dst: str


class FinCategory(Record):
    """Finite category: objects, named morphisms, identity and composition tables.

    Construct through `validate_category` (or a validated constructor like
    `fixtures.discrete_category`); direct construction skips the law checks.
    Its index holds each hom-set and, built on first use, each isomorphism
    with its inverse, so `hom`, `isos` and `inverse_of` are lookups.
    """

    objects: tuple[str, ...]
    morphisms: tuple[Morphism, ...]
    identity: Mapping[str, str]
    compose: Mapping[tuple[str, str], str]
    _by_name: Mapping[str, Morphism]
    _homs: Mapping[tuple[str, str], tuple[str, ...]]

    def __post_init__(self):
        object.__setattr__(self, "_by_name", {m.name: m for m in self.morphisms})
        homs: dict[tuple[str, str], list[str]] = {}
        for m in self.morphisms:
            homs.setdefault((m.src, m.dst), []).append(m.name)
        object.__setattr__(self, "_homs", {k: tuple(v) for k, v in homs.items()})

    def morphism(self, name: str) -> Morphism:
        return self._by_name[name]

    def src(self, name: str) -> str:
        return self._by_name[name].src

    def dst(self, name: str) -> str:
        return self._by_name[name].dst

    def hom(self, x: str, y: str) -> tuple[str, ...]:
        return self._homs.get((x, y), ())

    def is_identity(self, name: str) -> bool:
        m = self._by_name[name]
        return m.src == m.dst and self.identity.get(m.src) == name

    def compose2(self, g: str, f: str) -> str:
        """g∘f for a composable pair (src(g) = dst(f))."""
        return self.compose[(g, f)]

    @cached_property
    def _isos(self) -> dict[tuple[str, str], dict[str, str]]:
        """Each isomorphism m: x -> y, in name order under (x, y), mapped to its inverse; (x, y) with none is absent.

        The inverse is the first g in hom(y, x) with g∘m and m∘g identities,
        found once by exhaustive search.  A cached property writes the
        instance dict directly, so the record stays unassignable.
        """
        identity, compose = self.identity, self.compose
        isos = {}
        for (x, y), names in self._homs.items():
            inverse = {}
            for m in sorted(names):
                for g in self.hom(y, x):
                    if compose[(g, m)] == identity[x] and compose[(m, g)] == identity[y]:
                        inverse[m] = g
                        break
            if inverse:
                isos[(x, y)] = inverse
        return isos

    def inverse_of(self, name: str) -> Optional[str]:
        """The two-sided inverse of the morphism named name, or None."""
        m = self._by_name[name]
        return self._isos.get((m.src, m.dst), {}).get(name)

    def isos(self, x: str, y: str) -> tuple[str, ...]:
        """The isomorphisms x -> y, in name order."""
        return tuple(self._isos.get((x, y), ()))

    def objects_isomorphic(self, x: str, y: str) -> bool:
        return (x, y) in self._isos

    def opposite(self) -> "FinCategory":
        return FinCategory(
            self.objects,
            tuple(Morphism(m.name, m.dst, m.src) for m in self.morphisms),
            self.identity,
            {(f, g): h for (g, f), h in self.compose.items()},
        )


EMPTY_CATEGORY = FinCategory((), (), {}, {})
# The one-object category; lawful by inspection, so built without validation.
PT = FinCategory(("*",), (Morphism("id*", "*", "*"),), {"*": "id*"}, {("id*", "id*"): "id*"})


def _associative_on_generators(
    morphs: Sequence[Morphism],
    identity: Mapping[str, str],
    into: Mapping[str, list[Morphism]],
    out: Mapping[str, list[Morphism]],
    after: Mapping[str, Mapping[str, str]],
) -> bool:
    """Light's associativity test, for a table whose identity laws hold.

    Generators are chosen greedily in name order: a morphism not yet reached
    from the identities by composing generators on the left becomes one.
    If (y∘a)∘x = y∘(a∘x) for each generator a and all composable x and y,
    then composition is associative, by induction on a word in the
    generators for the middle factor.
    """
    dst = {m.name: m.dst for m in morphs}
    ends_at = {x: [identity[x]] for x in into}  # reached morphisms by target, from the identities
    reached = {identity[x] for x in into}
    leaving: dict[str, list[str]] = {x: [] for x in into}  # generators by source
    generators = []
    for m in sorted(morphs, key=lambda m: m.name):
        if m.name in reached:
            continue
        generators.append(m)
        leaving[m.src].append(m.name)
        # The reached set was closed under the older generators, so only m∘w can be new.
        pending = [after[m.name][w] for w in ends_at[m.src]]
        while pending:
            w = pending.pop()
            if w not in reached:
                reached.add(w)
                ends_at[dst[w]].append(w)
                pending += [after[a][w] for a in leaving[dst[w]]]
    for a in generators:
        xs = [x.name for x in into[a.src]]
        axs = list(map(after[a.name].__getitem__, xs))
        for y in out[a.dst]:
            y_after = after[y.name]
            if list(map(after[y_after[a.name]].__getitem__, xs)) != list(map(y_after.__getitem__, axs)):
                return False
    return True


def _triple_scan(
    morphs: Sequence[Morphism],
    into: Mapping[str, list[Morphism]],
    after: Mapping[str, Mapping[str, str]],
    violations: list[Violation],
) -> None:
    """Append a violation for every composable triple that breaks associativity, in morphism order."""
    for h in morphs:
        h_after = after[h.name]
        for g in into[h.src]:
            g_after, hg_after = after[g.name], after[h_after[g.name]]
            for f in into[g.src]:
                if hg_after[f.name] != h_after[g_after[f.name]]:
                    message = f"({h.name}∘{g.name})∘{f.name} != {h.name}∘({g.name}∘{f.name})"
                    violations.append(Violation("AssociativityViolation", message))


def validate_category(
    objects: Sequence[str],
    morphisms: Sequence[tuple[str, str, str] | Morphism],
    identity: Mapping[str, str],
    compose: Mapping[tuple[str, str], str],
) -> FinCategory:
    """Check every category law; raise InvalidCategory with all failures.

    Endpoints, composites and identity laws are checked entry by entry.
    When they all hold, associativity is checked on a generating set only
    (Light's test, `_associative_on_generators`); if that fails, or an
    identity law failed, every composable triple is scanned, so the
    violations and their order are those of the exhaustive check.
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

    into: dict[str, list[Morphism]] = {x: [] for x in objects}
    out: dict[str, list[Morphism]] = {x: [] for x in objects}
    for m in morphs:
        into[m.dst].append(m)
        out[m.src].append(m)
    # Every key is a distinct composable pair, so equal counts mean no composite is missing.
    if len(compose) != sum(len(into[g.src]) for g in morphs):
        for g in morphs:
            for f in into[g.src]:
                if (g.name, f.name) not in compose:
                    violations.append(
                        Violation("MissingComposite", f"compose({g.name}, {f.name}) undefined")
                    )
        raise InvalidCategory(violations)

    for m in morphs:
        if compose[(m.name, identity[m.src])] != m.name or compose[(identity[m.dst], m.name)] != m.name:
            violations.append(Violation("IdentityLawViolation", f"identity laws fail at {m.name}"))
    after: dict[str, dict[str, str]] = {m.name: {} for m in morphs}  # after[g][f] = g∘f
    for (g, f), h in compose.items():
        after[g][f] = h
    if violations or not _associative_on_generators(morphs, identity, into, out, after):
        _triple_scan(morphs, into, after, violations)
    if violations:
        raise InvalidCategory(violations)

    return FinCategory(
        tuple(sorted(objects)),
        tuple(sorted(morphs, key=lambda m: m.name)),
        {x: identity[x] for x in sorted(objects)},
        dict(compose),
    )


def similarity_matrix(a: FinCategory) -> QMatrix:
    """ζ_A over ob(A): entry (i,j) = #A(i,j)."""
    return QMatrix.build(a.objects, lambda i, j: rational(len(a.hom(i, j))))


def euler_char_cat(a: FinCategory) -> MatrixEuler:
    return matrix_euler(similarity_matrix(a))


def acyclic_witness(a: FinCategory) -> dict[str, tuple[str, ...]]:
    """{} for an acyclic category, else the first non-identity endomorphism or directed circuit.

    A circuit through distinct objects composes to one through two, so the
    circuit named is (m, n): m: x -> y the first such morphism in name order
    with hom(y, x) nonempty, and n the first morphism y -> x.
    """
    for x in a.objects:
        for m in a.hom(x, x):
            if m != a.identity[x]:
                return {"non_identity_endomorphism": (m,)}
    for m in a.morphisms:
        back = a.hom(m.dst, m.src)
        if m.src != m.dst and back:
            return {"circuit": (m.name, back[0])}
    return {}


class Functor(Record):
    source: FinCategory
    target: FinCategory
    object_map: Mapping[str, str]
    morphism_map: Mapping[str, str]

    def ob(self, x: str) -> str:
        return self.object_map[x]

    def mor(self, m: str) -> str:
        return self.morphism_map[m]


def validate_functor(
    source: FinCategory,
    target: FinCategory,
    object_map: Mapping[str, str],
    morphism_map: Mapping[str, str],
) -> Functor:
    violations: list[Violation] = []
    for x in source.objects:
        if object_map.get(x) not in target.objects:
            violations.append(Violation("DanglingEndpoint", f"object {x} has no valid image"))
    for m in source.morphisms:
        img = morphism_map.get(m.name)
        if img is None or img not in target._by_name:
            violations.append(Violation("DanglingEndpoint", f"morphism {m.name} has no valid image"))
    if violations:
        raise InvalidCategory(violations)
    for m in source.morphisms:
        img = target.morphism(morphism_map[m.name])
        if img.src != object_map[m.src] or img.dst != object_map[m.dst]:
            violations.append(Violation("DanglingEndpoint", f"image of {m.name} has wrong endpoints"))
    for x in source.objects:
        if morphism_map[source.identity[x]] != target.identity[object_map[x]]:
            violations.append(Violation("IdentityLawViolation", f"identity of {x} not preserved"))
    for (g, f), h in source.compose.items():
        if target.compose[(morphism_map[g], morphism_map[f])] != morphism_map[h]:
            violations.append(
                Violation("AssociativityViolation", f"composition not preserved at ({g}, {f})")
            )
    if violations:
        raise InvalidCategory(violations)
    # Keys that name no source label are no part of the functor.
    return Functor(
        source,
        target,
        {x: object_map[x] for x in source.objects},
        {m.name: morphism_map[m.name] for m in source.morphisms},
    )


def check_equivalence_functor(f: Functor) -> bool:
    """Fully faithful and essentially surjective, decided by exhaustive search."""
    for x in f.source.objects:
        for y in f.source.objects:
            images = [f.mor(m) for m in f.source.hom(x, y)]
            if len(set(images)) != len(images):
                return False
            if set(images) != set(f.target.hom(f.ob(x), f.ob(y))):
                return False
    image_objects = [f.ob(x) for x in f.source.objects]
    for b in f.target.objects:
        if not any(f.target.objects_isomorphic(a, b) for a in image_objects):
            return False
    return True


def zigzag_components(objects: Sequence[str], connected: Mapping[str, set]) -> tuple[tuple[str, ...], ...]:
    """Connected components under a symmetric-closed adjacency map."""
    seen: set[str] = set()
    components = []
    for start in objects:
        if start in seen:
            continue
        stack, comp = [start], []
        seen.add(start)
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in connected.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        components.append(tuple(sorted(comp)))
    return tuple(components)


def category_components(a: FinCategory) -> tuple[tuple[str, ...], ...]:
    adj = {x: set() for x in a.objects}
    for m in a.morphisms:
        adj[m.src].add(m.dst)
        adj[m.dst].add(m.src)
    return zigzag_components(a.objects, adj)


def subcategory(a: FinCategory, objects: Sequence[str], morphisms: Sequence[Morphism]) -> FinCategory:
    """The part of `a` on `objects` and `morphisms`, sorted as validation stores it; no law is checked.

    The caller vouches that the part holds its identities and composites, so its laws hold as in `a`.
    """
    keep = sorted(objects)
    names = {m.name for m in morphisms}
    return FinCategory(
        tuple(keep),
        tuple(sorted(morphisms, key=lambda m: m.name)),
        {x: a.identity[x] for x in keep},
        {(g, f): h for (g, f), h in a.compose.items() if g in names and f in names},
    )
