"""Bicategorical fibrations and the Grothendieck construction on cat-graphs.

A fibration of bicategories is a strict homomorphism with lifting
properties (Buckley, JPAA 218, 2014, §3).  So only a strict lax functor
(`strict_witness` empty) has cartesian 1-cells.  For it, a 1-cell f is
cartesian when lifts through f exist and, for each pair of 1-cells into
its source, δ̃ ↦ (id_f ∗ δ̃, Pδ̃) is a bijection of hom-sets.
The Grothendieck construction is built in counting mode: the objects,
1-cells and 2-cell counts fully determine every Euler characteristic here.
Each public entry point that sweeps its lax functor decides each fact once
per call: it builds each fiber once, classifies each hom functor of p and
of its dual once, and keeps cartesian verdicts in a cache local to the call.
The isomorphisms of a hom category come from that category's own index
(`FinCategory.isos`).
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from operator import mul
TYPE_CHECKING = False  # typing is imported for annotations only, never at run time
if TYPE_CHECKING:
    from typing import Mapping, Union

    from .exactq import Rational

from .bicat import (
    Bicategory,
    LaxFunctorBicat,
    MissingEulerCharacteristic,
    coop_lax_functor,
    euler_char_cg,
    graph_components,
    make_catgraph,
    pseudogroupoid_witness,
    restrict_catgraph,
    validate_bicategory,
)
from .exactq import QMatrix, QVector, Record, matrix_euler, rational
from .fib1 import (
    Component,
    NotBiFibered,
    NonUniqueLift,
    _grothendieck_objects,
    _one_sided_flags,
    _product_components,
    is_cartesian_morphism,
)
from .fincat import InvalidInput, require_euler, subcategory, validate_functor


class IllTypedComponent(InvalidInput):
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
    for b in t.base.objects:
        if b not in t.fiber:
            raise IllTypedComponent(f"missing fiber over {b}")
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
    """One hom category of the Grothendieck cat-graph, in counting mode; a 1-cell is the pair (f, u) itself."""

    onecells: tuple[tuple[str, str], ...]
    twocells: Mapping[tuple[tuple[str, str], tuple[str, str]], tuple[tuple[str, str], ...]]

    def count_matrix(self) -> QMatrix:
        return QMatrix.build(
            self.onecells, self.onecells, lambda m1, m2: rational(len(self.twocells[(m1, m2)]))
        )


class GrothendieckCG(Record):
    """Grothendieck construction of a trihomomorphism, as counted data.

    An object is the pair (b, x) itself.  The projection is the
    first-coordinate map on every level; 2-cells are materialized as
    (alpha, beta) name pairs inside each hom.
    """

    objects: tuple[tuple[str, str], ...]
    homs: Mapping[tuple[tuple[str, str], tuple[str, str]], GrHom]

    def zeta(self) -> QMatrix:
        chi = {}
        for pair, hom in self.homs.items():
            e = matrix_euler(hom.count_matrix())
            chi[pair] = require_euler(e, f"Grothendieck hom {pair}")
        return QMatrix.build(self.objects, self.objects, lambda i, j: chi[(i, j)])

    def euler(self):
        return matrix_euler(self.zeta())


def _gr_hom(t: Trihomomorphism, b: str, x: str, c: str, y: str) -> GrHom:
    fb = t.fiber[b]
    onecells = sorted(
        (f, u) for f in t.base.onecells(b, c) for u in fb.onecells(x, t.pullback1[(b, c, f)].ob(y))
    )
    twocells: dict[tuple, tuple[tuple[str, str], ...]] = {}
    base_hom = t.base.hom_at(b, c)
    for m1 in onecells:
        f, u = m1
        fy = t.pullback1[(b, c, f)].ob(y)
        hom_cat = fb.hom_at(x, fy)
        for m2 in onecells:
            g, v = m2
            gy = t.pullback1[(b, c, g)].ob(y)
            pairs = []
            for alpha in base_hom.hom(f, g):
                transported = fb.c1(x, gy, fy, t.pullback2[(b, c, alpha)][y], v)
                for beta in hom_cat.hom(u, transported):
                    pairs.append((alpha, beta))
            twocells[(m1, m2)] = tuple(pairs)
    return GrHom(tuple(onecells), twocells)


def grothendieck_cg(t: Trihomomorphism) -> GrothendieckCG:
    validate_trihomomorphism(t)
    objects = _grothendieck_objects(t.base.objects, t.fiber)
    homs = {(o1, o2): _gr_hom(t, *o1, *o2) for o1 in objects for o2 in objects}
    return GrothendieckCG(tuple(objects), homs)


class GrBicatReport(Record):
    """chi(Gr) against sum of k_b·chi(Fb), plus the Lemma-style product coweighting check."""

    chi_grothendieck: Rational
    sum_k_b_chi_fiber: Rational
    base_coweighting: QVector
    fiber_chi: Mapping[str, Rational]
    product_coweighting_valid: bool
    equal: bool


def verify_gr_formula_bicat(data: Union[Trihomomorphism, LaxFunctorBicat]) -> GrBicatReport:
    """The Grothendieck formula for a trihomomorphism, or for the one a strict homomorphism induces.

    A lax functor that is no strict homomorphism raises NotBiFibered naming its `strict_witness`; so does
    one whose cleavage raises NonUniqueLift, an input it cannot use (elsewhere that is an internal error).
    """
    if isinstance(data, Trihomomorphism):
        t = data
    else:
        not_strict = strict_witness(data)
        if not_strict:
            raise NotBiFibered(f"not a strict homomorphism: {not_strict}")
        try:
            t = induced_trihomomorphism(data)
        except NonUniqueLift as exc:
            raise NotBiFibered(str(exc)) from exc
    base_cw = require_euler(euler_char_cg(t.base.graph), "base bicategory", "coweighting")
    gr = grothendieck_cg(t)
    zeta = gr.zeta()
    chi_gr = require_euler(matrix_euler(zeta), "Grothendieck construction")
    fiber_chi, fiber_cw = {}, {}
    for b in t.base.objects:
        e = euler_char_cg(t.fiber[b].graph)
        fiber_chi[b] = require_euler(e, f"fiber over {b}")
        fiber_cw[b] = e.coweighting  # there whenever chi is
    rhs = sum((base_cw[b] * fiber_chi[b] for b in t.base.objects), rational())
    # ζ's rows and columns are gr.objects, the pairs (b, x) of a base object and a fiber object.
    product_cw = [base_cw[b] * fiber_cw[b][x] for b, x in gr.objects]
    product_valid = all(sum(map(mul, product_cw, column), rational()) == 1 for column in zip(*zeta.entries))
    return GrBicatReport(chi_gr, rhs, base_cw, fiber_chi, product_valid, chi_gr == rhs)


def strict_witness(p: LaxFunctorBicat) -> dict[str, tuple]:
    """{} for a strict homomorphism, else {"not_strict": (table, *key)} at the first failure.

    In this order: a side ("source" or "target") without hcompose2; an
    identity1, compose1 or hcompose2 entry that p does not preserve; a phi
    or psi component that is no identity 2-cell.  So an all-identity phi or
    psi counts as absent.
    """
    e, b = p.source, p.target
    for side, bi in (("source", e), ("target", b)):
        if bi.hcompose2 is None:
            return {"not_strict": ("hcompose2", side)}
    for x in e.objects:
        if p.cell1(x, x, e.id1(x)) != b.id1(p.ob(x)):
            return {"not_strict": ("identity1", x)}
    for key in e.graph.composable_pairs():
        (x, y, z), g, f = key
        lhs = p.cell1(x, z, e.compose1[key])
        if lhs != b.c1(p.ob(x), p.ob(y), p.ob(z), p.cell1(y, z, g), p.cell1(x, y, f)):
            return {"not_strict": ("compose1", *key)}
    e2, b2, functors = e.hcompose2, b.hcompose2, p.hom_functors
    triples = [(x, y, z) for x in e.objects for y in e.objects for z in e.objects]
    for x, y, z in triples:
        xy, yz, xz = (functors[pair].morphism_map for pair in ((x, y), (y, z), (x, z)))
        xyz, image = (x, y, z), (p.ob(x), p.ob(y), p.ob(z))
        for alpha in e.hom_at(x, y).morphisms:
            for beta in e.hom_at(y, z).morphisms:
                if xz[e2[(xyz, beta.name, alpha.name)]] != b2[(image, yz[beta.name], xy[alpha.name])]:
                    return {"not_strict": ("hcompose2", xyz, beta.name, alpha.name)}
    for key, cell in sorted((p.phi or {}).items()):
        x, _, z = key[0]
        if not b.hom_at(p.ob(x), p.ob(z)).is_identity(cell):
            return {"not_strict": ("phi", *key)}
    for x, cell in sorted((p.psi or {}).items()):
        if not b.hom_at(p.ob(x), p.ob(x)).is_identity(cell):
            return {"not_strict": ("psi", x)}
    return {}


def _first_lift(p: LaxFunctorBicat, x, y, z, f, g, h, alpha):
    """The first (h̃, α̃, β̃) with iso α̃: f∘h̃ => g and iso β̃: P h̃ => h that satisfies the pasting equation, or None."""
    e, b = p.source, p.target
    px, py, pz = p.ob(x), p.ob(y), p.ob(z)
    pf = p.cell1(x, y, f)
    for h_tilde in e.onecells(z, x):
        fh = e.c1(z, x, y, f, h_tilde)
        ph_tilde = p.cell1(z, x, h_tilde)
        for a_tilde in e.hom_at(z, y).isos(fh, g):
            for b_tilde in b.hom_at(pz, px).isos(ph_tilde, h):
                whisker = b.h2(pz, px, py, b.hom_at(px, py).identity[pf], b_tilde)
                if b.hom_at(pz, py).compose2(alpha, whisker) == p.cell2(z, y, a_tilde):
                    return h_tilde, a_tilde, b_tilde
    return None


def _check_cartesian_1cell(p: LaxFunctorBicat, x: str, y: str, f: str):
    """None when the 1-cell f: x -> y of the strict lax functor p is cartesian, else the first failure.

    Cartesian (Buckley, §3) means, for every object z: each (g: z -> y,
    h: Pz -> Px, iso α: Pf∘h => Pg) has a lift `_first_lift` finds, and for
    each pair h̃₁, h̃₂: z -> x the map δ̃ ↦ (id_f ∗ δ̃, Pδ̃) is a bijection from
    E(z,x)(h̃₁, h̃₂) onto the pairs (σ: f∘h̃₁ => f∘h̃₂, δ: Ph̃₁ => Ph̃₂) with
    Pσ = id_Pf ∗ δ.  The failures, in the order they are sought:
    ("no_lift", z, g, h, α); ("not_faithful", z, h̃₁, h̃₂, δ̃₁, δ̃₂) when two
    2-cells have one image; ("not_full", z, h̃₁, h̃₂, δ, expected, found) when
    `expected` 2-cells σ lie over id_Pf ∗ δ but `found` 2-cells δ̃ lie over δ.
    """
    e, b = p.source, p.target
    px, py = p.ob(x), p.ob(y)
    pf = p.cell1(x, y, f)
    for z in e.objects:
        pz = p.ob(z)
        for g in e.onecells(z, y):
            pg = p.cell1(z, y, g)
            for h in b.onecells(pz, px):
                for alpha in b.hom_at(pz, py).isos(b.c1(pz, px, py, pf, h), pg):
                    if _first_lift(p, x, y, z, f, g, h, alpha) is None:
                        return ("no_lift", z, g, h, alpha)
    id_f = e.hom_at(x, y).identity[f]
    id_pf = b.hom_at(px, py).identity[pf]
    for z in e.objects:
        pz = p.ob(z)
        hom_zx, hom_zy, hom_b = e.hom_at(z, x), e.hom_at(z, y), b.hom_at(pz, px)
        for h1 in hom_zx.objects:
            for h2 in hom_zx.objects:
                images: dict[tuple[str, str], str] = {}  # (id_f ∗ δ̃, Pδ̃) -> δ̃
                for delta_t in hom_zx.hom(h1, h2):
                    image = (e.h2(z, x, y, id_f, delta_t), p.cell2(z, x, delta_t))
                    if image in images:
                        return ("not_faithful", z, h1, h2, images[image], delta_t)
                    images[image] = delta_t
                found = Counter(delta for _, delta in images)
                over = Counter(p.cell2(z, y, s) for s in hom_zy.hom(e.c1(z, x, y, f, h1), e.c1(z, x, y, f, h2)))
                for delta in hom_b.hom(p.cell1(z, x, h1), p.cell1(z, x, h2)):
                    expected = over[b.h2(pz, px, py, id_pf, delta)]
                    if found[delta] != expected:
                        return ("not_full", z, h1, h2, delta, expected, found[delta])
    return None


class BiFibrationReport(Record):
    locally_fibered_in_groupoids: bool
    one_lifts: bool
    all_1cells_cartesian: bool
    fibered_in_pseudogroupoids: bool
    cofibered_in_pseudogroupoids: bool
    witnesses: Mapping[str, tuple]


def _pseudo_flags(p: LaxFunctorBicat, not_strict: dict[str, tuple]) -> tuple[bool, bool, bool, dict]:
    e, b = p.source, p.target
    witnesses: dict[str, tuple] = {}
    local = True
    for x in e.objects:
        for y in e.objects:
            if not _one_sided_flags(p.hom_functors[(x, y)])[1]:
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
    if not_strict:
        witnesses.update(not_strict)
        return local, one, False, witnesses
    for x in e.objects:
        for y in e.objects:
            for f in e.onecells(x, y):
                res = _check_cartesian_1cell(p, x, y, f)
                if res is not None:
                    witnesses["non_cartesian_1cell"] = ((x, y, f), res)
                    return local, one, False, witnesses
    return local, one, True, witnesses


def classify_bifibration(p: LaxFunctorBicat) -> BiFibrationReport:
    not_strict = strict_witness(p)
    local, one, cart, witnesses = _pseudo_flags(p, not_strict)
    # p's witness speaks for both sides: the dual drops phi and psi, and is strict exactly when p is.
    co_local, co_one, co_cart, co_wit = _pseudo_flags(coop_lax_functor(p), not_strict)
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
    """Cells strictly over (b, id_b, id_{id_b}), composed as in the total bicategory.

    For a strict lax functor the composite of two 1-cells over id_b lies
    over id_b∘id_b, which is id_b in a base that composes identities
    strictly, so composed 1-cells are reused as-is.  A composite that
    leaves the fiber raises rather than fabricating coherence.  The fiber
    carries no hcompose2.
    """
    e, b = p.source, p.target
    if b_obj not in b.objects:
        raise InvalidInput(f"{b_obj!r} is no object of the base")
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
    identity1 = {}
    for x in objects:
        if p.cell1(x, x, e.id1(x)) != id1b:
            raise NotBiFibered(f"identity 1-cell of {x} does not sit over id_{b_obj}")
        identity1[x] = e.id1(x)
    graph = make_catgraph(objects, hom)
    compose1 = {}
    for key in graph.composable_pairs():
        (x, _, z), g, f = key
        gf = e.compose1[key]
        if p.cell1(x, z, gf) != id1b:
            raise NotBiFibered(f"composite {g}∘{f} leaves the fiber")
        compose1[key] = gf
    return validate_bicategory(graph.objects, graph.hom, identity1, compose1)


def _onecell_lifts(p: LaxFunctorBicat, b_obj: str, c_obj: str, f: str) -> dict[str, tuple[str, str]]:
    """The lift (source object, 1-cell) of f ending at each object over c: the least such pair."""
    e = p.source
    lifts = {}
    for y in sorted(x for x in e.objects if p.ob(x) == c_obj):
        candidates = [
            (e2, m)
            for e2 in e.objects
            if p.ob(e2) == b_obj
            for m in e.onecells(e2, y)
            if p.cell1(e2, y, m) == f
        ]
        if not candidates:
            raise NotBiFibered(f"no 1-cell lift of {f} ending at {y}")
        lifts[y] = min(candidates)
    return lifts


def _pullback(
    p: LaxFunctorBicat, fibers: Mapping[str, Bicategory], b_obj: str, c_obj: str, f: str
) -> tuple[LaxFunctorBicat, dict[str, tuple[str, str]]]:
    """The lax functor f*: fiber(c) -> fiber(b) induced by the least lift of f at each object (`_onecell_lifts`)."""
    e, b = p.source, p.target
    fib_c, fib_b = fibers[c_obj], fibers[b_obj]
    id_f = b.hom_at(b_obj, c_obj).identity[f]
    lifts = _onecell_lifts(p, b_obj, c_obj, f)
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
                        for iso in e.hom_at(fe1, e2).isos(composite_h, composite_w)
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


def induced_trihomomorphism(p: LaxFunctorBicat) -> Trihomomorphism:
    """Fiber bicategories, cleavage pullbacks and 2-cell components of a strict homomorphism.

    No 1-cell is checked cartesian, so a strict homomorphism that is no
    fibration induces one too, as `verify gr-bicat` needs; a lift it cannot
    choose raises NotBiFibered or NonUniqueLift.
    """
    e, b = p.source, p.target
    fibers = {x: fiber_bicategory(p, x) for x in b.objects}
    cartesian = cache(lambda x, y, m: is_cartesian_morphism(p.hom_functors[(x, y)], m))
    pullback1 = {}
    lift_tables = {}
    for b_obj in b.objects:
        for c_obj in b.objects:
            for f in b.onecells(b_obj, c_obj):
                lax, lifts = _pullback(p, fibers, b_obj, c_obj, f)
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
                        if m.dst == g_lift and p.cell2(gy, y, m.name) == alpha.name and cartesian(gy, y, m.name)
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
                            for iso in e.hom_at(gy, y).isos(e.c1(gy, fy, y, f_lift, u), w)
                        )
                    )
                    if not candidates:
                        raise NotBiFibered(f"no component 1-cell for {alpha.name} at {y}")
                    comps[y] = candidates[0]
                pullback2[(b_obj, c_obj, alpha.name)] = comps
    return validate_trihomomorphism(Trihomomorphism(b, fibers, pullback1, pullback2))


class ProductBicatReport(Record):
    """chi(E) against the per-component sum, and the empirical Gr comparison."""

    chi_total: Rational
    sum_of_products: Rational
    components: tuple[Component, ...]
    chi_grothendieck: Rational
    grothendieck_matches_total: bool
    equal: bool


def verify_product_formula_bicat(p: LaxFunctorBicat) -> ProductBicatReport:
    report = classify_bifibration(p)
    if not (report.fibered_in_pseudogroupoids and report.cofibered_in_pseudogroupoids):
        raise NotBiFibered(f"not fibered+cofibered in pseudogroupoids: {report.witnesses}")
    chi_total = require_euler(euler_char_cg(p.source.graph), "total bicategory")
    t = induced_trihomomorphism(p)

    def fiber_euler(b_obj: str):
        fib = t.fiber[b_obj]
        assert not pseudogroupoid_witness(fib), f"fiber over {b_obj} is not a pseudogroupoid"
        return euler_char_cg(fib.graph)

    components, rhs = _product_components(
        graph_components(p.target.graph),
        lambda comp: euler_char_cg(restrict_catgraph(p.target.graph, comp)),
        fiber_euler,
    )
    chi_gr = require_euler(grothendieck_cg(t).euler(), "Grothendieck construction")
    return ProductBicatReport(chi_total, rhs, components, chi_gr, chi_gr == chi_total, chi_total == rhs)
