"""Bicategorical fibrations and the Grothendieck construction on cat-graphs.

Cartesian 1-cells are decided frame by frame: lift existence is always
checked, and the pasting equations (plus unique 2-cell lifts) are checked
on the nose exactly when both bicategories carry horizontal composition
and the lax functor is strict and carries no phi or psi data; otherwise the
up-to-2-isomorphism reading applies.  The Grothendieck construction is built
in counting mode: the objects, 1-cells and 2-cell counts fully determine
every Euler characteristic here.  Each public entry point decides each fact
about its lax functor once, in one private per-call analysis (`_Sweep`).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
TYPE_CHECKING = False  # typing is imported for annotations only, never at run time
if TYPE_CHECKING:
    from typing import Callable, Mapping, Union

from .bicat import (
    Bicategory,
    HomWithoutEuler,
    LaxFunctorBicat,
    MissingEulerCharacteristic,
    check_biequivalence,
    coop_lax_functor,
    euler_char_cg,
    graph_components,
    pseudogroupoid_check,
    restrict_catgraph,
    validate_bicategory,
)
from .exactq import QMatrix, QVector, Record, matrix_euler, solve_coweighting
from .fib1 import (
    Component,
    FibrationReport,
    NotBiFibered,
    ObjectNotInBase,
    NonUniqueLift,
    _grothendieck_objects,
    _product_components,
    classify_fibration,
    is_cartesian_morphism,
)
from .fincat import FinCategory, InvalidInput, pair_label, similarity_matrix, subcategory, validate_functor


class IllTypedComponent(InvalidInput):
    pass


class MissingCoweighting(InvalidInput):
    pass


class Trihomomorphism(Record):
    """Base-indexed fiber bicategories with pullback lax functors and 2-cell components.

    pullback1[(b, c, f)] is a lax functor fiber(c) -> fiber(b);
    pullback2[(b, c, alpha)][y] is the 1-cell alpha*_y: g*y -> f*y in
    fiber(b) for alpha: f => g.  No higher coherence is carried.
    """

    base: Bicategory
    fiber: Mapping[str, Bicategory]
    pullback1: Mapping[tuple[str, str, str], LaxFunctorBicat]
    pullback2: Mapping[tuple[str, str, str], Mapping[str, str]]


def validate_trihomomorphism(t: Trihomomorphism) -> Trihomomorphism:
    t.base.require_composition()
    for b in t.base.objects:
        if b not in t.fiber:
            raise IllTypedComponent(f"missing fiber over {b}")
        t.fiber[b].require_composition()
    for b in t.base.objects:
        for c in t.base.objects:
            for f in t.base.onecells(b, c):
                lax = t.pullback1.get((b, c, f))
                if lax is None:
                    raise IllTypedComponent(f"missing pullback lax functor along {f}: {b} -> {c}")
                if lax.source is not t.fiber[c] and lax.source != t.fiber[c]:
                    raise IllTypedComponent(f"pullback along {f} has wrong source")
                if lax.target != t.fiber[b]:
                    raise IllTypedComponent(f"pullback along {f} has wrong target")
            hom = t.base.hom_at(b, c)
            for alpha in hom.morphisms:
                comps = t.pullback2.get((b, c, alpha.name))
                if comps is None:
                    raise IllTypedComponent(f"missing components for base 2-cell {alpha.name}")
                f_star = t.pullback1[(b, c, alpha.src)]
                g_star = t.pullback1[(b, c, alpha.dst)]
                for y in t.fiber[c].objects:
                    cell = comps.get(y)
                    valid = t.fiber[b].onecells(g_star.ob(y), f_star.ob(y))
                    if cell is None or cell not in valid:
                        raise IllTypedComponent(
                            f"component of {alpha.name} at {y} is not a 1-cell {g_star.ob(y)} -> {f_star.ob(y)}"
                        )
    return t


class GrHom(Record):
    """One hom category of the Grothendieck cat-graph, in counting mode."""

    onecells: tuple[str, ...]
    onecell_pairs: Mapping[str, tuple[str, str]]
    twocells: Mapping[tuple[str, str], tuple[tuple[str, str], ...]]

    def count_matrix(self) -> QMatrix:
        return QMatrix.build(
            self.onecells, self.onecells, lambda m1, m2: Fraction(len(self.twocells[(m1, m2)]))
        )


class GrothendieckCG(Record):
    """Grothendieck construction of a trihomomorphism, as counted data.

    The projection is the first-coordinate map on every level; 2-cells are
    materialized as (alpha, beta) name pairs inside each hom.
    """

    objects: tuple[str, ...]
    object_pairs: Mapping[str, tuple[str, str]]
    homs: Mapping[tuple[str, str], GrHom]

    def project_object(self, label: str) -> str:
        return self.object_pairs[label][0]

    def project_onecell(self, source: str, target: str, label: str) -> str:
        return self.homs[(source, target)].onecell_pairs[label][0]

    def zeta(self) -> QMatrix:
        chi = {}
        for pair, hom in self.homs.items():
            e = matrix_euler(hom.count_matrix())
            if e.chi is None:
                raise HomWithoutEuler(f"Grothendieck hom {pair} has no Euler characteristic")
            chi[pair] = e.chi
        return QMatrix.build(self.objects, self.objects, lambda i, j: chi[(i, j)])

    def euler(self):
        return matrix_euler(self.zeta())


def _gr_hom(t: Trihomomorphism, b: str, x: str, c: str, y: str) -> GrHom:
    fb = t.fiber[b]
    onecells: list[str] = []
    onecell_pairs: dict[str, tuple[str, str]] = {}
    for f in t.base.onecells(b, c):
        fy = t.pullback1[(b, c, f)].ob(y)
        for u in fb.onecells(x, fy):
            label = pair_label(f, u)
            onecells.append(label)
            onecell_pairs[label] = (f, u)
    onecells.sort()
    twocells: dict[tuple[str, str], tuple[tuple[str, str], ...]] = {}
    base_hom = t.base.hom_at(b, c)
    for m1 in onecells:
        f, u = onecell_pairs[m1]
        fy = t.pullback1[(b, c, f)].ob(y)
        hom_cat = fb.hom_at(x, fy)
        for m2 in onecells:
            g, v = onecell_pairs[m2]
            gy = t.pullback1[(b, c, g)].ob(y)
            pairs = []
            for alpha in base_hom.hom(f, g):
                transported = fb.c1(x, gy, fy, t.pullback2[(b, c, alpha)][y], v)
                for beta in hom_cat.hom(u, transported):
                    pairs.append((alpha, beta))
            twocells[(m1, m2)] = tuple(pairs)
    return GrHom(tuple(onecells), onecell_pairs, twocells)


def grothendieck_cg(t: Trihomomorphism) -> GrothendieckCG:
    validate_trihomomorphism(t)
    objects, object_pairs = _grothendieck_objects(t.base.objects, t.fiber)
    homs = {}
    for o1 in objects:
        b, x = object_pairs[o1]
        for o2 in objects:
            c, y = object_pairs[o2]
            homs[(o1, o2)] = _gr_hom(t, b, x, c, y)
    return GrothendieckCG(tuple(objects), object_pairs, homs)


def gr_hom_coweighting(t: Trihomomorphism, source: tuple[str, str], target: tuple[str, str]) -> QVector:
    """Product coweighting k_(f,u) = k_f·k_u on one Grothendieck hom category.

    Asserts the defining linear identity k·ζ = 1ᵀ on the 2-cell count
    matrix before returning.
    """
    b, x = source
    c, y = target
    hom = _gr_hom(t, b, x, c, y)
    base_cw = solve_coweighting_or_raise(similarity_matrix(t.base.hom_at(b, c)), f"base hom ({b},{c})")
    entries = []
    fb = t.fiber[b]
    for label in hom.onecells:
        f, u = hom.onecell_pairs[label]
        fy = t.pullback1[(b, c, f)].ob(y)
        fiber_cw = solve_coweighting_or_raise(
            similarity_matrix(fb.hom_at(x, fy)), f"fiber hom ({x},{fy})"
        )
        entries.append(base_cw[f] * fiber_cw[u])
    vector = QVector(hom.onecells, tuple(entries))
    counts = hom.count_matrix()
    for m2 in hom.onecells:
        total = sum((vector[m1] * counts.at(m1, m2) for m1 in hom.onecells), Fraction(0))
        assert total == 1, f"product coweighting fails at column {m2}"
    return vector


def solve_coweighting_or_raise(zeta: QMatrix, what: str) -> QVector:
    cw = solve_coweighting(zeta)
    if cw is None:
        raise MissingCoweighting(f"{what} has no coweighting")
    return cw


class GrBicatReport(Record):
    """chi(Gr) against sum of k_b·chi(Fb), plus the Lemma-style product coweighting check."""

    chi_grothendieck: Fraction
    sum_k_b_chi_fiber: Fraction
    base_coweighting: QVector
    fiber_chi: Mapping[str, Fraction]
    product_coweighting_valid: bool
    equal: bool


def verify_gr_formula_bicat(data: Union[Trihomomorphism, LaxFunctorBicat]) -> GrBicatReport:
    t = data if isinstance(data, Trihomomorphism) else induced_trihomomorphism(data)
    base_euler = euler_char_cg(t.base.graph)
    if base_euler.coweighting is None:
        raise MissingEulerCharacteristic("base bicategory has no coweighting")
    gr = grothendieck_cg(t)
    gr_euler = gr.euler()
    if gr_euler.chi is None:
        raise MissingEulerCharacteristic("Grothendieck construction has no Euler characteristic")
    fiber_chi = {}
    fiber_cw = {}
    for b in t.base.objects:
        e = euler_char_cg(t.fiber[b].graph)
        if e.chi is None or e.coweighting is None:
            raise MissingEulerCharacteristic(f"fiber over {b} has no Euler characteristic")
        fiber_chi[b] = e.chi
        fiber_cw[b] = e.coweighting
    rhs = sum((base_euler.coweighting[b] * fiber_chi[b] for b in t.base.objects), Fraction(0))
    zeta = gr.zeta()
    product_valid = True
    for o2 in gr.objects:
        total = Fraction(0)
        for o1 in gr.objects:
            b, x = gr.object_pairs[o1]
            total += base_euler.coweighting[b] * fiber_cw[b][x] * zeta.at(o1, o2)
        if total != 1:
            product_valid = False
    return GrBicatReport(
        gr_euler.chi, rhs, base_euler.coweighting, fiber_chi, product_valid, gr_euler.chi == rhs
    )


class _Sweep:
    """What one call decides about the lax functor p, each fact on first use.

    Public entry points make one and pass it to the private helpers: the
    fiber over each base object, one `classify_fibration` report per hom
    functor, p's strictness, the sorted iso list of each (hom, u, v) and the
    cartesian verdicts of p's hom functors are found once per call.
    """

    __slots__ = ("p", "_fibers", "_local", "_strict", "_isos", "_cartesian")

    def __init__(self, p: LaxFunctorBicat):
        self.p = p
        self._fibers: dict[str, Bicategory] = {}
        self._local: dict[tuple[str, str], FibrationReport] = {}
        self._strict = None
        self._isos: dict[tuple[int, str, str], list[str]] = {}
        self._cartesian: dict[tuple[str, str, str], bool] = {}

    def fiber(self, b_obj: str) -> Bicategory:
        fib = self._fibers.get(b_obj)
        if fib is None:
            fib = self._fibers[b_obj] = fiber_bicategory(self.p, b_obj)
        return fib

    def local(self, x: str, y: str) -> FibrationReport:
        rep = self._local.get((x, y))
        if rep is None:
            rep = self._local[(x, y)] = classify_fibration(self.p.hom_functors[(x, y)])
        return rep

    def strict(self) -> bool:
        if self._strict is None:
            self._strict = is_strict_lax_functor(self.p)
        return self._strict

    def strict_equations(self) -> bool:
        p = self.p
        return (
            p.source.hcompose2 is not None
            and p.target.hcompose2 is not None
            and p.phi is None
            and p.psi is None
            and self.strict()
        )

    def isos(self, hom: FinCategory, u: str, v: str) -> list[str]:
        """The invertible morphisms u -> v of hom, sorted; hom is one of p's hom categories, kept alive by p."""
        key = (id(hom), u, v)
        found = self._isos.get(key)
        if found is None:
            found = self._isos[key] = sorted(m for m in hom.hom(u, v) if hom.inverse_of(m) is not None)
        return found

    def cartesian(self, x: str, y: str, m: str) -> bool:
        """Cartesianness of m for p's hom functor at (x, y); a local classification that tested m answers."""
        rep = self._local.get((x, y))
        if rep is not None and m in rep._cartesian:
            return rep._cartesian[m]
        key = (x, y, m)
        verdict = self._cartesian.get(key)
        if verdict is None:
            verdict = self._cartesian[key] = is_cartesian_morphism(self.p.hom_functors[(x, y)], m)
        return verdict


def is_strict_lax_functor(p: LaxFunctorBicat) -> bool:
    """1-cell strictness plus hcompose2 preservation where both sides carry it."""
    e, b = p.source, p.target
    if e.identity1 is None or e.compose1 is None or b.identity1 is None or b.compose1 is None:
        return False
    for x in e.objects:
        if p.cell1(x, x, e.id1(x)) != b.id1(p.ob(x)):
            return False
    for x in e.objects:
        for y in e.objects:
            for z in e.objects:
                for f in e.onecells(x, y):
                    for g in e.onecells(y, z):
                        lhs = p.cell1(x, z, e.c1(x, y, z, g, f))
                        rhs = b.c1(p.ob(x), p.ob(y), p.ob(z), p.cell1(y, z, g), p.cell1(x, y, f))
                        if lhs != rhs:
                            return False
    if e.hcompose2 is not None and b.hcompose2 is not None:
        for ((x, y, z), beta, alpha), res in e.hcompose2.items():
            lhs = p.cell2(x, z, res)
            rhs = b.h2(p.ob(x), p.ob(y), p.ob(z), p.cell2(y, z, beta), p.cell2(x, y, alpha))
            if lhs != rhs:
                return False
    return True


def _lift_candidates(s: _Sweep, x, y, z, f, g, h, alpha, strict_eqs):
    """All (h̃, α̃, β̃) with iso α̃: f∘h̃ => g and iso β̃: P h̃ => h (plus the strict pasting equation)."""
    p = s.p
    e, b = p.source, p.target
    px, py, pz = p.ob(x), p.ob(y), p.ob(z)
    pf = p.cell1(x, y, f)
    out = []
    for h_tilde in e.onecells(z, x):
        fh = e.c1(z, x, y, f, h_tilde)
        ph_tilde = p.cell1(z, x, h_tilde)
        for a_tilde in s.isos(e.hom_at(z, y), fh, g):
            for b_tilde in s.isos(b.hom_at(pz, px), ph_tilde, h):
                if strict_eqs:
                    whisker = b.h2(pz, px, py, b.hom_at(px, py).identity[pf], b_tilde)
                    lhs = b.hom_at(pz, py).compose2(alpha, whisker)
                    if lhs != p.cell2(z, y, a_tilde):
                        continue
                out.append((h_tilde, a_tilde, b_tilde))
    return out


def _check_cartesian_1cell(s: _Sweep, x: str, y: str, f: str, strict_eqs: bool):
    """None when the 1-cell f: x -> y of s.p is cartesian, else the failing frame."""
    p = s.p
    e, b = p.source, p.target
    px, py = p.ob(x), p.ob(y)
    pf = p.cell1(x, y, f)
    chosen: dict[tuple[str, str, str, str], tuple[str, str, str]] = {}
    for z in e.objects:
        pz = p.ob(z)
        for g in e.onecells(z, y):
            pg = p.cell1(z, y, g)
            for h in b.onecells(pz, px):
                comp = b.c1(pz, px, py, pf, h)
                for alpha in s.isos(b.hom_at(pz, py), comp, pg):
                    lifts = _lift_candidates(s, x, y, z, f, g, h, alpha, strict_eqs)
                    if not lifts:
                        return ("no_lift", z, g, h, alpha)
                    chosen[(z, g, h, alpha)] = lifts[0]
    if not strict_eqs:
        return None
    id_f = e.hom_at(x, y).identity[f]
    id_pf = b.hom_at(px, py).identity[pf]
    for z in e.objects:
        pz = p.ob(z)
        hom_e = e.hom_at(z, y)
        hom_e_zx = e.hom_at(z, x)
        hom_b_zx = b.hom_at(pz, px)
        hom_b_zy = b.hom_at(pz, py)
        # (h̃, h̃₂, α̃₂, β̃₂) -> how many δ̃: h̃ => h̃₂ give each pair (α̃₂∘(id_f∗δ̃), β̃₂∘Pδ̃)
        lift_counts: dict[tuple[str, str, str, str], Counter] = {}
        for sigma in hom_e.morphisms:
            g, g2 = sigma.src, sigma.dst
            for h in b.onecells(pz, px):
                for h2 in b.onecells(pz, px):
                    for alpha in s.isos(hom_b_zy, b.c1(pz, px, py, pf, h), p.cell1(z, y, g)):
                        key1 = (z, g, h, alpha)
                        if key1 not in chosen:
                            continue
                        for alpha2 in s.isos(hom_b_zy, b.c1(pz, px, py, pf, h2), p.cell1(z, y, g2)):
                            key2 = (z, g2, h2, alpha2)
                            if key2 not in chosen:
                                continue
                            h_t, a_t, b_t = chosen[key1]
                            frame = (h_t, *chosen[key2])
                            for delta in hom_b_zx.hom(h, h2):
                                lhs = hom_b_zy.compose2(alpha2, b.h2(pz, px, py, id_pf, delta))
                                rhs = hom_b_zy.compose2(p.cell2(z, y, sigma.name), alpha)
                                if lhs != rhs:
                                    continue
                                counts = lift_counts.get(frame)
                                if counts is None:
                                    _, h_t2, a_t2, b_t2 = frame
                                    counts = lift_counts[frame] = Counter(
                                        (
                                            hom_e.compose2(a_t2, e.h2(z, x, y, id_f, delta_t)),
                                            hom_b_zx.compose2(b_t2, p.cell2(z, x, delta_t)),
                                        )
                                        for delta_t in hom_e_zx.hom(h_t, h_t2)
                                    )
                                n = counts[(hom_e.compose2(sigma.name, a_t), hom_b_zx.compose2(delta, b_t))]
                                if n != 1:
                                    return ("bad_2cell_lift", z, sigma.name, h, h2, delta, n)
    return None


def is_cartesian_1cell(p: LaxFunctorBicat, x: str, y: str, f: str) -> bool:
    """Buckley cartesianness of the 1-cell f: x -> y, decided by finite search."""
    p.source.require_composition()
    p.target.require_composition()
    s = _Sweep(p)
    return _check_cartesian_1cell(s, x, y, f, s.strict_equations()) is None


class BiFibrationReport(Record):
    locally_fibered_in_groupoids: bool
    one_lifts: bool
    all_1cells_cartesian: bool
    fibered_in_pseudogroupoids: bool
    cofibered_in_pseudogroupoids: bool
    witnesses: Mapping[str, tuple]


def _pseudo_flags(
    s: _Sweep, locally_fibered: Callable[[str, str], bool], strict_eqs: bool
) -> tuple[bool, bool, bool, dict]:
    p = s.p
    e, b = p.source, p.target
    witnesses: dict[str, tuple] = {}
    local = True
    for x in e.objects:
        for y in e.objects:
            if not locally_fibered(x, y):
                local = False
                witnesses.setdefault("not_locally_fibered", (x, y))
    one = True
    for e_obj in e.objects:
        pe = p.ob(e_obj)
        for b_obj in b.objects:
            for f in b.onecells(b_obj, pe):
                found = any(
                    p.cell1(e2, e_obj, t) == f and p.ob(e2) == b_obj
                    for e2 in e.objects
                    for t in e.onecells(e2, e_obj)
                )
                if not found:
                    one = False
                    witnesses.setdefault("no_1cell_lift", (f, e_obj))
    cells = [(x, y, f) for x in e.objects for y in e.objects for f in e.onecells(x, y)]
    results = [_check_cartesian_1cell(s, x, y, f, strict_eqs) for x, y, f in cells]
    cart = True
    for cell, res in zip(cells, results):
        if res is not None:
            cart = False
            witnesses.setdefault("non_cartesian_1cell", (cell, res))
            break
    return local, one, cart, witnesses


def classify_bifibration(p: LaxFunctorBicat) -> BiFibrationReport:
    return _classify(_Sweep(p))


def _classify(s: _Sweep) -> BiFibrationReport:
    p = s.p
    p.source.require_composition()
    p.target.require_composition()
    local, one, cart, witnesses = _pseudo_flags(
        s, lambda x, y: s.local(x, y).fibered_in_groupoids, s.strict_equations()
    )
    # coop_lax_functor(p) reverses 1- and 2-cells and drops phi and psi.  Its hom
    # functor at (x, y) is p's at (y, x) on opposite categories, fibered in
    # groupoids exactly when p's is cofibered in groupoids, and its strictness
    # equations are p's reindexed.
    co_strict = p.source.hcompose2 is not None and p.target.hcompose2 is not None and s.strict()
    co_local, co_one, co_cart, co_wit = _pseudo_flags(
        _Sweep(coop_lax_functor(p)), lambda x, y: s.local(y, x).cofibered_in_groupoids, co_strict
    )
    witnesses.update({f"co_{k}": v for k, v in co_wit.items()})
    return BiFibrationReport(
        local,
        one,
        cart,
        local and one and cart,
        co_local and co_one and co_cart,
        witnesses,
    )


def fiber_bicategory(p: LaxFunctorBicat, b_obj: str) -> Bicategory:
    """Cells strictly over (b, id_b, id_{id_b}); composition via cleavage lifts.

    For a strict lax functor over a strictly unital base the needed lift of
    the identity 2-cell is the identity, so composed 1-cells are reused
    as-is; with phi data present the lift is searched in the local
    fibration; anything else raises rather than fabricating coherence.
    """
    e, b = p.source, p.target
    e.require_composition()
    b.require_composition()
    if b_obj not in b.objects:
        raise ObjectNotInBase(b_obj)
    id1b = b.id1(b_obj)
    id2b = b.hom_at(b_obj, b_obj).identity[id1b]
    objects = sorted(x for x in e.objects if p.ob(x) == b_obj)
    hom = {}
    for x in objects:
        for y in objects:
            total_hom = e.hom_at(x, y)
            cells = {h for h in total_hom.objects if p.cell1(x, y, h) == id1b}
            # The preimage of id_{id_b} under a hom functor holds the identities and
            # the composites of its morphisms: a subcategory of the total hom.
            hom[(x, y)] = subcategory(
                total_hom,
                cells,
                [m for m in total_hom.morphisms if m.src in cells and m.dst in cells and p.cell2(x, y, m.name) == id2b],
            )
    s = _Sweep(p)  # cartesian verdicts for the phi-corrected composites
    identity1 = {}
    for x in objects:
        if p.cell1(x, x, e.id1(x)) != id1b:
            raise NotBiFibered(f"identity 1-cell of {x} does not sit over id_{b_obj}")
        identity1[x] = e.id1(x)
    compose1 = {}
    for x in objects:
        for y in objects:
            for z in objects:
                for f in hom[(x, y)].objects:
                    for g in hom[(y, z)].objects:
                        gf = e.c1(x, y, z, g, f)
                        if p.cell1(x, z, gf) == id1b:
                            compose1[((x, y, z), g, f)] = gf
                        elif p.phi is not None:
                            compose1[((x, y, z), g, f)] = _phi_corrected_composite(
                                s, b_obj, x, y, z, g, f, gf
                            )
                        else:
                            raise NotBiFibered(
                                f"composite {g}∘{f} leaves the fiber and no phi data is supplied"
                            )
    return validate_bicategory(objects, hom, identity1, compose1)


def _phi_corrected_composite(s: _Sweep, b_obj, x, y, z, g, f, gf):
    """Domain of the chosen cartesian lift of phi: id_b => P(g∘f) at g∘f."""
    p = s.p
    btarget = p.target
    phi_cell = p.phi.get(((x, y, z), g, f))
    if phi_cell is None:
        raise NotBiFibered(f"missing phi component at (({x},{y},{z}), {g}, {f})")
    hom_b = btarget.hom_at(b_obj, b_obj)
    if hom_b.src(phi_cell) != btarget.id1(b_obj):
        raise NotBiFibered("phi component does not start at the identity 1-cell")
    candidates = sorted(
        m.name
        for m in p.source.hom_at(x, z).morphisms
        if m.dst == gf and p.cell2(x, z, m.name) == phi_cell and s.cartesian(x, z, m.name)
    )
    if not candidates:
        raise NotBiFibered(f"no cartesian lift of phi at {gf}")
    return p.source.hom_at(x, z).src(candidates[0])


def _onecell_lifts(p: LaxFunctorBicat, b_obj: str, c_obj: str, f: str, policy: str) -> dict[str, tuple[str, str]]:
    """Chosen lift (source object, 1-cell) of f ending at each object over c."""
    e = p.source
    lifts = {}
    for y in sorted(x for x in e.objects if p.ob(x) == c_obj):
        candidates = sorted(
            (e2, m)
            for e2 in e.objects
            if p.ob(e2) == b_obj
            for m in e.onecells(e2, y)
            if p.cell1(e2, y, m) == f
        )
        if not candidates:
            raise NotBiFibered(f"no 1-cell lift of {f} ending at {y}")
        lifts[y] = candidates[0] if policy == "min" else candidates[-1]
    return lifts


def fiber_pullback(
    p: LaxFunctorBicat, b_obj: str, c_obj: str, f: str, policy: str = "min"
) -> tuple[LaxFunctorBicat, dict[str, tuple[str, str]]]:
    """The lax functor f*: fiber(c) -> fiber(b) induced by chosen lifts of f."""
    return _pullback(_Sweep(p), b_obj, c_obj, f, policy)


def _pullback(
    s: _Sweep, b_obj: str, c_obj: str, f: str, policy: str
) -> tuple[LaxFunctorBicat, dict[str, tuple[str, str]]]:
    p = s.p
    e, b = p.source, p.target
    fib_c = s.fiber(c_obj)
    fib_b = s.fiber(b_obj)
    id_f = b.hom_at(b_obj, c_obj).identity[f]
    lifts = _onecell_lifts(p, b_obj, c_obj, f, policy)
    object_map = {y: lifts[y][0] for y in fib_c.objects}
    hom_functors = {}
    for e1 in fib_c.objects:
        for e2 in fib_c.objects:
            src_cat = fib_c.hom_at(e1, e2)
            tgt_cat = fib_b.hom_at(object_map[e1], object_map[e2])
            fe1, lift1 = lifts[e1]
            fe2, lift2 = lifts[e2]
            obj_map = {}
            tau = {}
            for h in src_cat.objects:
                composite_h = e.c1(fe1, e1, e2, h, lift1)
                found = None
                for w in tgt_cat.objects:
                    composite_w = e.c1(fe1, fe2, e2, lift2, w)
                    isos = [
                        iso
                        for iso in s.isos(e.hom_at(fe1, e2), composite_h, composite_w)
                        if p.cell2(fe1, e2, iso) == id_f
                    ]
                    if isos:
                        found = (w, isos[0])
                        break
                if found is None:
                    raise NonUniqueLift(f"no pullback 1-cell for {h} along {f}")
                obj_map[h] = found[0]
                tau[h] = found[1]
            mor_map = {}
            for sigma in src_cat.morphisms:
                candidates = list(tgt_cat.hom(obj_map[sigma.src], obj_map[sigma.dst]))
                if len(candidates) > 1 and e.hcompose2 is not None:
                    id_l1 = e.hom_at(fe1, e1).identity[lift1]
                    id_l2 = e.hom_at(fe2, e2).identity[lift2]
                    hom_total = e.hom_at(fe1, e2)
                    lhs = hom_total.compose2(tau[sigma.dst], e.h2(fe1, e1, e2, sigma.name, id_l1))
                    candidates = [
                        w
                        for w in candidates
                        if hom_total.compose2(e.h2(fe1, fe2, e2, id_l2, w), tau[sigma.src]) == lhs
                    ]
                if len(candidates) != 1:
                    raise NonUniqueLift(
                        f"pullback of 2-cell {sigma.name} along {f}: {len(candidates)} candidates"
                    )
                mor_map[sigma.name] = candidates[0]
            hom_functors[(e1, e2)] = validate_functor(src_cat, tgt_cat, obj_map, mor_map)
    return LaxFunctorBicat(fib_c, fib_b, object_map, hom_functors), lifts


class FiberBiequivalenceReport(Record):
    biequivalence: bool
    chi_fiber_over_target: Fraction
    chi_fiber_over_source: Fraction
    equal: bool


def verify_fiber_biequivalence(p: LaxFunctorBicat, b_obj: str, c_obj: str, f: str) -> FiberBiequivalenceReport:
    """Build f* from the cleavage and check it is a biequivalence with equal fiber chi."""
    pullback, _ = fiber_pullback(p, b_obj, c_obj, f)
    bieq = check_biequivalence(pullback)
    chi_c = euler_char_cg(pullback.source.graph).chi
    chi_b = euler_char_cg(pullback.target.graph).chi
    if chi_c is None or chi_b is None:
        raise MissingEulerCharacteristic("a fiber bicategory has no Euler characteristic")
    return FiberBiequivalenceReport(bieq, chi_c, chi_b, chi_c == chi_b)


def induced_trihomomorphism(p: LaxFunctorBicat, policy: str = "min") -> Trihomomorphism:
    """Fiber bicategories, cleavage pullbacks and 2-cell components of a bifibration."""
    return _trihomomorphism(_Sweep(p), policy)


def _trihomomorphism(s: _Sweep, policy: str) -> Trihomomorphism:
    p = s.p
    e, b = p.source, p.target
    fibers = {x: s.fiber(x) for x in b.objects}
    pullback1 = {}
    lift_tables = {}
    for b_obj in b.objects:
        for c_obj in b.objects:
            for f in b.onecells(b_obj, c_obj):
                lax, lifts = _pullback(s, b_obj, c_obj, f, policy)
                pullback1[(b_obj, c_obj, f)] = lax
                lift_tables[(b_obj, c_obj, f)] = lifts
    pullback2 = {}
    for b_obj in b.objects:
        for c_obj in b.objects:
            id1b = b.id1(b_obj)
            base_hom = b.hom_at(b_obj, c_obj)
            for alpha in base_hom.morphisms:
                f, g = alpha.src, alpha.dst
                f_lifts = lift_tables[(b_obj, c_obj, f)]
                g_lifts = lift_tables[(b_obj, c_obj, g)]
                comps = {}
                for y in fibers[c_obj].objects:
                    gy, g_lift = g_lifts[y]
                    fy, f_lift = f_lifts[y]
                    sigma_lifts = sorted(
                        m.name
                        for m in e.hom_at(gy, y).morphisms
                        if m.dst == g_lift and p.cell2(gy, y, m.name) == alpha.name and s.cartesian(gy, y, m.name)
                    )
                    if not sigma_lifts:
                        raise NotBiFibered(f"no cartesian 2-cell lift of {alpha.name} at {g_lift}")
                    w = e.hom_at(gy, y).src(sigma_lifts[0])
                    id_f = base_hom.identity[f]
                    candidates = sorted(
                        u
                        for u in e.onecells(gy, fy)
                        if p.cell1(gy, fy, u) == id1b
                        and any(
                            p.cell2(gy, y, iso) == id_f
                            for iso in s.isos(e.hom_at(gy, y), e.c1(gy, fy, y, f_lift, u), w)
                        )
                    )
                    if not candidates:
                        raise NotBiFibered(f"no component 1-cell for {alpha.name} at {y}")
                    comps[y] = candidates[0]
                pullback2[(b_obj, c_obj, alpha.name)] = comps
    return validate_trihomomorphism(Trihomomorphism(b, fibers, pullback1, pullback2))


class ProductBicatReport(Record):
    """chi(E) against the per-component sum, and the empirical Gr comparison."""

    chi_total: Fraction
    sum_of_products: Fraction
    components: tuple[Component, ...]
    chi_grothendieck: Fraction
    grothendieck_matches_total: bool
    equal: bool


def verify_product_formula_bicat(p: LaxFunctorBicat) -> ProductBicatReport:
    s = _Sweep(p)
    report = _classify(s)
    if not (report.fibered_in_pseudogroupoids and report.cofibered_in_pseudogroupoids):
        raise NotBiFibered(f"not fibered+cofibered in pseudogroupoids: {report.witnesses}")
    chi_total = euler_char_cg(p.source.graph).chi
    if chi_total is None:
        raise MissingEulerCharacteristic("total bicategory has no Euler characteristic")

    def chi_fiber(b_obj: str):
        fib = s.fiber(b_obj)
        assert pseudogroupoid_check(fib), f"fiber over {b_obj} is not a pseudogroupoid"
        return euler_char_cg(fib.graph).chi

    components, rhs = _product_components(
        graph_components(p.target.graph),
        lambda comp: euler_char_cg(restrict_catgraph(p.target.graph, comp)).chi,
        chi_fiber,
    )
    gr = grothendieck_cg(_trihomomorphism(s, "min"))
    chi_gr = gr.euler().chi
    if chi_gr is None:
        raise MissingEulerCharacteristic("Grothendieck construction has no Euler characteristic")
    return ProductBicatReport(
        chi_total,
        rhs,
        components,
        chi_gr,
        chi_gr == chi_total,
        chi_total == rhs,
    )
