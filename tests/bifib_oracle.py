"""The bifibration sweep as it was before it decided each fact once per call.

`bifib` used these loops before one analysis per call shared its fibers,
local classifications, iso lists and cartesian verdicts: every fiber is
rebuilt, and each fiber hom re-validated, on each use;
`classify_bifibration` classifies the hom functors on p and again on
`coop_lax_functor(p)`; every iso list is an exhaustive inverse search;
and every 2-cell lift search re-tests cartesianness.  They stay here,
test-only, as the slow path the sweep must agree with, witnesses included.
Three rules are restated by lines of their own.  `strict_witness`: only a
strict homomorphism (Buckley, JPAA 218, 2014, §3) is swept for cartesian
1-cells, on both sides of `classify_bifibration`.  `check_cartesian_1cell`:
Buckley's 2-cell condition, for every pair of 1-cells h̃₁, h̃₂ into the
source of f, lists each image (id_f ∗ δ̃, Pδ̃) and compares them, over each
δ, with the pairs (σ, δ) that satisfy Pσ = id_Pf ∗ δ.
`verify_gr_formula_bicat`: a lax functor whose cleavage raises
NonUniqueLift is an input the theorem cannot use, NotBiFibered with the
same message.  The value classes and the Grothendieck construction, which
did not change, come from `bifib`.

Two independent oracles of the paper's formulas close the module:
`pseudogroupoid_euler` (chi = sum over components of 1/chi(hom(g,g))) and
`gr_hom_coweighting` (the product coweighting k_(f,u) = k_f·k_u of one
Grothendieck hom category).
"""

from fractions import Fraction

from bicat_euler.bicat import (
    LaxFunctorBicat,
    MissingEulerCharacteristic,
    coop_lax_functor,
    euler_char_cg,
    graph_components,
    pseudogroupoid_witness,
    restrict_catgraph,
    validate_bicategory,
)
from bicat_euler.bifib import (
    BiFibrationReport,
    GrBicatReport,
    ProductBicatReport,
    Trihomomorphism,
    _gr_hom,
    grothendieck_cg,
    validate_trihomomorphism,
)
from bicat_euler.exactq import QMatrix, QVector, matrix_euler
from bicat_euler.fib1 import NonUniqueLift, NotBiFibered, classify_fibration, is_cartesian_morphism
from bicat_euler.fincat import (
    FinCategory,
    InvalidInput,
    euler_char_cat,
    similarity_matrix,
    validate_category,
    validate_functor,
)


def _isos(hom: FinCategory, u: str, v: str) -> list[str]:
    return sorted(m for m in hom.hom(u, v) if hom.inverse_of(m) is not None)


def strict_witness(p: LaxFunctorBicat) -> dict:
    """Buckley's fibrations are strict homomorphisms: {} when p is one, else its first failure.

    Both sides need hcompose2; every identity 1-cell, composite 1-cell and
    horizontal composite of 2-cells must go to its counterpart on the nose;
    every phi and psi component must be an identity 2-cell.
    """
    e, b = p.source, p.target
    if e.hcompose2 is None:
        return {"not_strict": ("hcompose2", "source")}
    if b.hcompose2 is None:
        return {"not_strict": ("hcompose2", "target")}
    failures = [("identity1", x) for x in e.objects if p.cell1(x, x, e.id1(x)) != b.id1(p.ob(x))]
    triples = [(x, y, z) for x in e.objects for y in e.objects for z in e.objects]
    failures += [
        ("compose1", (x, y, z), g, f)
        for x, y, z in triples
        for f in e.onecells(x, y)
        for g in e.onecells(y, z)
        if p.cell1(x, z, e.c1(x, y, z, g, f)) != b.c1(p.ob(x), p.ob(y), p.ob(z), p.cell1(y, z, g), p.cell1(x, y, f))
    ]
    failures += [
        ("hcompose2", (x, y, z), beta.name, alpha.name)
        for x, y, z in triples
        for alpha in e.hom_at(x, y).morphisms
        for beta in e.hom_at(y, z).morphisms
        if p.cell2(x, z, e.h2(x, y, z, beta.name, alpha.name))
        != b.h2(p.ob(x), p.ob(y), p.ob(z), p.cell2(y, z, beta.name), p.cell2(x, y, alpha.name))
    ]
    for (xyz, g, f), cell in sorted((p.phi or {}).items()):
        hom = b.hom_at(p.ob(xyz[0]), p.ob(xyz[2]))
        if hom.src(cell) != hom.dst(cell) or hom.identity[hom.src(cell)] != cell:
            failures.append(("phi", xyz, g, f))
    for x, cell in sorted((p.psi or {}).items()):
        hom = b.hom_at(p.ob(x), p.ob(x))
        if hom.src(cell) != hom.dst(cell) or hom.identity[hom.src(cell)] != cell:
            failures.append(("psi", x))
    return {"not_strict": failures[0]} if failures else {}


def _lift_candidates(p, x, y, z, f, g, h, alpha):
    e, b = p.source, p.target
    px, py, pz = p.ob(x), p.ob(y), p.ob(z)
    pf = p.cell1(x, y, f)
    out = []
    for h_tilde in e.onecells(z, x):
        fh = e.c1(z, x, y, f, h_tilde)
        ph_tilde = p.cell1(z, x, h_tilde)
        for a_tilde in _isos(e.hom_at(z, y), fh, g):
            for b_tilde in _isos(b.hom_at(pz, px), ph_tilde, h):
                whisker = b.h2(pz, px, py, b.hom_at(px, py).identity[pf], b_tilde)
                lhs = b.hom_at(pz, py).compose2(alpha, whisker)
                if lhs != p.cell2(z, y, a_tilde):
                    continue
                out.append((h_tilde, a_tilde, b_tilde))
    return out


def check_cartesian_1cell(p: LaxFunctorBicat, x: str, y: str, f: str):
    """None when the 1-cell f of the strict lax functor p is cartesian, else its first failure.

    Lifts exist for every (z, g, h, α); then, for every pair h̃₁, h̃₂: z -> x,
    the images (id_f ∗ δ̃, Pδ̃) of the 2-cells δ̃: h̃₁ => h̃₂ are distinct and,
    over each δ: Ph̃₁ => Ph̃₂, are exactly the pairs (σ, δ) with
    Pσ = id_Pf ∗ δ.
    """
    e, b = p.source, p.target
    px, py = p.ob(x), p.ob(y)
    pf = p.cell1(x, y, f)
    for z in e.objects:
        pz = p.ob(z)
        for g in e.onecells(z, y):
            pg = p.cell1(z, y, g)
            for h in b.onecells(pz, px):
                comp = b.c1(pz, px, py, pf, h)
                for alpha in _isos(b.hom_at(pz, py), comp, pg):
                    if not _lift_candidates(p, x, y, z, f, g, h, alpha):
                        return ("no_lift", z, g, h, alpha)
    id_f = e.hom_at(x, y).identity[f]
    id_pf = b.hom_at(px, py).identity[pf]
    for z in e.objects:
        pz = p.ob(z)
        for h1 in e.onecells(z, x):
            for h2 in e.onecells(z, x):
                deltas_t = list(e.hom_at(z, x).hom(h1, h2))
                images = [(e.h2(z, x, y, id_f, d), p.cell2(z, x, d)) for d in deltas_t]
                for i, image in enumerate(images):
                    if image in images[:i]:
                        return ("not_faithful", z, h1, h2, deltas_t[images.index(image)], deltas_t[i])
                sigmas = e.hom_at(z, y).hom(e.c1(z, x, y, f, h1), e.c1(z, x, y, f, h2))
                for delta in b.hom_at(pz, px).hom(p.cell1(z, x, h1), p.cell1(z, x, h2)):
                    whiskered = b.h2(pz, px, py, id_pf, delta)
                    members = [(s, delta) for s in sigmas if p.cell2(z, y, s) == whiskered]
                    hits = [image for image in images if image[1] == delta]
                    if sorted(hits) != sorted(members):
                        return ("not_full", z, h1, h2, delta, len(members), len(hits))
    return None


def _pseudo_flags(p: LaxFunctorBicat, not_strict: dict):
    e, b = p.source, p.target
    witnesses = {}
    local = True
    for x in e.objects:
        for y in e.objects:
            rep = classify_fibration(p.hom_functors[(x, y)])
            if not rep.fibered_in_groupoids:
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
        return local, one, False, {**witnesses, **not_strict}
    cells = [(x, y, f) for x in e.objects for y in e.objects for f in e.onecells(x, y)]
    results = [check_cartesian_1cell(p, x, y, f) for x, y, f in cells]
    cart = True
    for cell, res in zip(cells, results):
        if res is not None:
            cart = False
            witnesses.setdefault("non_cartesian_1cell", (cell, res))
            break
    return local, one, cart, witnesses


def classify_bifibration(p: LaxFunctorBicat) -> BiFibrationReport:
    # The co side is p's formal dual, which drops phi and psi; it is strict exactly when p is.
    not_strict = strict_witness(p)
    local, one, cart, witnesses = _pseudo_flags(p, not_strict)
    co_local, co_one, co_cart, co_wit = _pseudo_flags(coop_lax_functor(p), not_strict)
    witnesses.update({f"co_{k}": v for k, v in co_wit.items()})
    return BiFibrationReport(local, one, cart, local and one and cart, co_local and co_one and co_cart, witnesses)


def fiber_bicategory(p: LaxFunctorBicat, b_obj: str):
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
            cells = [h for h in total_hom.objects if p.cell1(x, y, h) == id1b]
            cell_set = set(cells)
            morphs = [
                m
                for m in total_hom.morphisms
                if m.src in cell_set and m.dst in cell_set and p.cell2(x, y, m.name) == id2b
            ]
            names = {m.name for m in morphs}
            hom[(x, y)] = validate_category(
                cells,
                morphs,
                {h: total_hom.identity[h] for h in cells},
                {(g, f): h for (g, f), h in total_hom.compose.items() if g in names and f in names},
            )
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
                        if p.cell1(x, z, gf) != id1b:
                            raise NotBiFibered(f"composite {g}∘{f} leaves the fiber")
                        compose1[((x, y, z), g, f)] = gf
    return validate_bicategory(objects, hom, identity1, compose1)


def _onecell_lifts(p, b_obj, c_obj, f, policy):
    e = p.source
    lifts = {}
    for y in sorted(x for x in e.objects if p.ob(x) == c_obj):
        candidates = sorted(
            (e2, m) for e2 in e.objects if p.ob(e2) == b_obj for m in e.onecells(e2, y) if p.cell1(e2, y, m) == f
        )
        if not candidates:
            raise NotBiFibered(f"no 1-cell lift of {f} ending at {y}")
        lifts[y] = candidates[0] if policy == "min" else candidates[-1]
    return lifts


def fiber_pullback(p, b_obj, c_obj, f, policy="min"):
    e, b = p.source, p.target
    fib_c = fiber_bicategory(p, c_obj)
    fib_b = fiber_bicategory(p, b_obj)
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
                        s for s in _isos(e.hom_at(fe1, e2), composite_h, composite_w) if p.cell2(fe1, e2, s) == id_f
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
                    raise NonUniqueLift(f"pullback of 2-cell {sigma.name} along {f}: {len(candidates)} candidates")
                mor_map[sigma.name] = candidates[0]
            hom_functors[(e1, e2)] = validate_functor(src_cat, tgt_cat, obj_map, mor_map)
    return LaxFunctorBicat(fib_c, fib_b, object_map, hom_functors), lifts


def induced_trihomomorphism(p, policy="min"):
    e, b = p.source, p.target
    fibers = {x: fiber_bicategory(p, x) for x in b.objects}
    pullback1 = {}
    lift_tables = {}
    for b_obj in b.objects:
        for c_obj in b.objects:
            for f in b.onecells(b_obj, c_obj):
                lax, lifts = fiber_pullback(p, b_obj, c_obj, f, policy)
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
                    q = p.hom_functors[(gy, y)]
                    sigma_lifts = sorted(
                        m.name
                        for m in e.hom_at(gy, y).morphisms
                        if m.dst == g_lift
                        and p.cell2(gy, y, m.name) == alpha.name
                        and is_cartesian_morphism(q, m.name)
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
                            p.cell2(gy, y, s) == id_f for s in _isos(e.hom_at(gy, y), e.c1(gy, fy, y, f_lift, u), w)
                        )
                    )
                    if not candidates:
                        raise NotBiFibered(f"no component 1-cell for {alpha.name} at {y}")
                    comps[y] = candidates[0]
                pullback2[(b_obj, c_obj, alpha.name)] = comps
    return validate_trihomomorphism(Trihomomorphism(b, fibers, pullback1, pullback2))


def verify_gr_formula_bicat(data) -> GrBicatReport:
    if isinstance(data, Trihomomorphism):
        t = data
    else:
        try:
            t = induced_trihomomorphism(data)
        except NonUniqueLift as exc:  # a cleavage it cannot choose: an input this theorem cannot use
            raise NotBiFibered(str(exc)) from exc
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
    for column in zip(*zeta.entries):
        total = Fraction(0)
        for (b, x), z in zip(zeta.rows, column):
            total += base_euler.coweighting[b] * fiber_cw[b][x] * z
        if total != 1:
            product_valid = False
    return GrBicatReport(gr_euler.chi, rhs, base_euler.coweighting, fiber_chi, product_valid, gr_euler.chi == rhs)


def verify_product_formula_bicat(p) -> ProductBicatReport:
    report = classify_bifibration(p)
    if not (report.fibered_in_pseudogroupoids and report.cofibered_in_pseudogroupoids):
        raise NotBiFibered(f"not fibered+cofibered in pseudogroupoids: {report.witnesses}")
    chi_total = euler_char_cg(p.source.graph).chi
    if chi_total is None:
        raise MissingEulerCharacteristic("total bicategory has no Euler characteristic")
    components = []
    rhs = Fraction(0)
    for comp in graph_components(p.target.graph):
        chi_base = euler_char_cg(restrict_catgraph(p.target.graph, comp)).chi
        if chi_base is None:
            raise MissingEulerCharacteristic(f"base component {comp} has no Euler characteristic")
        fiber_chis = []
        for b_obj in comp:
            fib = fiber_bicategory(p, b_obj)
            assert not pseudogroupoid_witness(fib), f"fiber over {b_obj} is not a pseudogroupoid"
            chi_f = euler_char_cg(fib.graph).chi
            if chi_f is None:
                raise MissingEulerCharacteristic(f"fiber over {b_obj} has no Euler characteristic")
            fiber_chis.append(chi_f)
        assert len(set(fiber_chis)) == 1, f"fiber chi not constant on component {comp}"
        components.append((comp, chi_base, fiber_chis[0]))
        rhs += chi_base * fiber_chis[0]
    gr = grothendieck_cg(induced_trihomomorphism(p))
    chi_gr = gr.euler().chi
    if chi_gr is None:
        raise MissingEulerCharacteristic("Grothendieck construction has no Euler characteristic")
    return ProductBicatReport(chi_total, rhs, tuple(components), chi_gr, chi_gr == chi_total, chi_total == rhs)


def pseudogroupoid_euler(b) -> Fraction:
    """Per connected component: 1/chi(hom(g,g)); summed, and checked against ζ."""
    if pseudogroupoid_witness(b):
        raise ValueError("some 1-cell is not an equivalence or some 2-cell not invertible")
    total = Fraction(0)
    for comp in graph_components(b.graph):
        base = comp[0]
        chi_end = euler_char_cat(b.hom_at(base, base)).chi
        if chi_end is None or chi_end == 0:
            raise ValueError(f"hom({base},{base}) has no usable Euler characteristic")
        total += 1 / chi_end
    graph_chi = euler_char_cg(b.graph).chi
    assert total == graph_chi, "pseudogroupoid chi disagrees with the weighting computation"
    return total


def _coweighting(zeta: QMatrix, what: str) -> QVector:
    cw = matrix_euler(zeta).coweighting
    if cw is None:
        raise ValueError(f"{what} has no coweighting")
    return cw


def gr_hom_coweighting(t: Trihomomorphism, source: tuple[str, str], target: tuple[str, str]) -> QVector:
    """Product coweighting k_(f,u) = k_f·k_u on one Grothendieck hom category.

    Asserts the defining linear identity k·ζ = 1ᵀ on the 2-cell count
    matrix before returning.
    """
    b, x = source
    c, y = target
    hom = _gr_hom(t, b, x, c, y)
    base_cw = _coweighting(similarity_matrix(t.base.hom_at(b, c)), f"base hom ({b},{c})")
    entries = []
    fb = t.fiber[b]
    for f, u in hom.onecells:
        fy = t.pullback1[(b, c, f)].ob(y)
        fiber_cw = _coweighting(similarity_matrix(fb.hom_at(x, fy)), f"fiber hom ({x},{fy})")
        entries.append(base_cw[f] * fiber_cw[u])
    vector = QVector(hom.onecells, tuple(entries))
    counts = hom.count_matrix()
    for m2, column in zip(counts.rows, zip(*counts.entries)):
        total = sum((k * z for k, z in zip(vector.entries, column)), Fraction(0))
        assert total == 1, f"product coweighting fails at column {m2}"
    return vector
