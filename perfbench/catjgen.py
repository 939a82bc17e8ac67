"""Seeded `.catj` generators for the benchmark, independent of the package.

Every document is built here from first principles (no import of
`bicat_euler`), so the program under test sees only text, and every
Euler characteristic the oracles expect is known by construction.

Labels use a fixed-width scheme that cannot collide: each factor kind has
its own prefix letter and zero-padded indices, and product labels join
factor labels with `.`.  The seed only permutes labels and the order of
entries, so documents of one shape cost the same whatever the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Cat:
    """A finite category as plain tables; `chi` is its Euler characteristic."""

    objects: tuple[str, ...]
    morphisms: dict  # name -> (src, dst)
    identity: dict  # object -> name
    compose: dict  # (g, f) -> g∘f
    chi: Fraction


def _perm(rng: random.Random, n: int) -> list[int]:
    out = list(range(n))
    rng.shuffle(out)
    return out


def indiscrete(rng: random.Random, k: int) -> Cat:
    """k objects, exactly one morphism between any two; equivalent to a point."""
    lab = _perm(rng, k)
    obj = [f"o{lab[i]:02d}" for i in range(k)]
    mor = {f"a{lab[i]:02d}{lab[j]:02d}": (obj[i], obj[j]) for i in range(k) for j in range(k)}
    name = {(i, j): f"a{lab[i]:02d}{lab[j]:02d}" for i in range(k) for j in range(k)}
    compose = {(name[j, l], name[i, j]): name[i, l] for i in range(k) for j in range(k) for l in range(k)}
    identity = {obj[i]: name[i, i] for i in range(k)}
    return Cat(tuple(obj), mor, identity, compose, Fraction(1))


def cyclic(rng: random.Random, n: int) -> Cat:
    """The one-object category BZ/n with shuffled element labels; chi = 1/n."""
    lab = _perm(rng, n)
    g = [f"g{lab[r]:03d}" for r in range(n)]
    mor = {g[r]: ("b", "b") for r in range(n)}
    compose = {(g[s], g[r]): g[(r + s) % n] for r in range(n) for s in range(n)}
    return Cat(("b",), mor, {"b": g[0]}, compose, Fraction(1, n))


def product(factors: list[Cat]) -> Cat:
    """Cartesian product; chi is the product of the factors' chi."""
    objects = [()]
    morphisms = [()]
    for c in factors:
        objects = [o + (x,) for o in objects for x in c.objects]
        morphisms = [m + (f,) for m in morphisms for f in c.morphisms]
    join = ".".join
    mor = {
        join(m): (join(c.morphisms[f][0] for c, f in zip(factors, m)), join(c.morphisms[f][1] for c, f in zip(factors, m)))
        for m in morphisms
    }
    identity = {join(o): join(c.identity[x] for c, x in zip(factors, o)) for o in objects}
    compose = {}
    pairs = [()]
    for c in factors:
        pairs = [p + (gf,) for p in pairs for gf in c.compose.items()]
    for p in pairs:
        compose[(join(g for (g, _), _ in p), join(f for (_, f), _ in p))] = join(h for _, h in p)
    chi = Fraction(1)
    for c in factors:
        chi *= c.chi
    return Cat(tuple(join(o) for o in objects), mor, identity, compose, chi)


def category_body(c: Cat, rng: random.Random) -> dict:
    objects = list(c.objects)
    morphisms = [[m, s, d] for m, (s, d) in c.morphisms.items()]
    compose = [[g, f, h] for (g, f), h in c.compose.items()]
    for seq in (objects, morphisms, compose):
        rng.shuffle(seq)
    return {"objects": objects, "morphisms": morphisms, "identity": dict(c.identity), "compose": compose}


def projection_body(factors: list[Cat], keep: int, rng: random.Random) -> dict:
    """The functor document of the projection of a product onto factor `keep`."""
    total = product(factors)
    return {
        "source": category_body(total, rng),
        "target": category_body(factors[keep], rng),
        "object_map": {o: o.split(".")[keep] for o in total.objects},
        "morphism_map": {m: m.split(".")[keep] for m in total.morphisms},
    }


# Hom categories of the dense-zeta cat-graphs, by name: (body, chi).
_HOMS = {
    "PT": ({"objects": ["u"], "morphisms": [["e", "u", "u"]], "identity": {"u": "e"},
            "compose": [["e", "e", "e"]]}, Fraction(1)),
    "D2": ({"objects": ["u", "w"], "morphisms": [["eu", "u", "u"], ["ew", "w", "w"]],
            "identity": {"u": "eu", "w": "ew"}, "compose": [["eu", "eu", "eu"], ["ew", "ew", "ew"]]}, Fraction(2)),
    "BZ2": ({"objects": ["u"], "morphisms": [["e", "u", "u"], ["s", "u", "u"]], "identity": {"u": "e"},
             "compose": [["e", "e", "e"], ["e", "s", "s"], ["s", "e", "s"], ["s", "s", "e"]]}, Fraction(1, 2)),
    "EZ2": ({"objects": ["u", "w"],
             "morphisms": [["eu", "u", "u"], ["ew", "w", "w"], ["uw", "u", "w"], ["wu", "w", "u"]],
             "identity": {"u": "eu", "w": "ew"},
             "compose": [["eu", "eu", "eu"], ["ew", "ew", "ew"], ["uw", "eu", "uw"], ["ew", "uw", "uw"],
                         ["wu", "ew", "wu"], ["eu", "wu", "wu"], ["wu", "uw", "eu"], ["uw", "wu", "ew"]]},
            Fraction(1)),
    "ARROW": ({"objects": ["u", "w"], "morphisms": [["eu", "u", "u"], ["ew", "w", "w"], ["a", "u", "w"]],
               "identity": {"u": "eu", "w": "ew"},
               "compose": [["eu", "eu", "eu"], ["ew", "ew", "ew"], ["a", "eu", "a"], ["ew", "a", "a"]]},
              Fraction(1)),
}
_HOM_CHOICES = (None, "PT", "D2", "BZ2", "EZ2", "ARROW")
_PRIME = (1 << 61) - 1


def _nonsingular(zeta: list[list[Fraction]]) -> bool:
    """Rank test modulo a large prime on 2ζ (integral); a nonzero determinant there is nonzero over Q."""
    n = len(zeta)
    a = [[int(2 * v) % _PRIME for v in row] for row in zeta]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return False
        a[col], a[piv] = a[piv], a[col]
        inv = pow(a[col][col], _PRIME - 2, _PRIME)
        for r in range(col + 1, n):
            if a[r][col]:
                t = a[r][col] * inv % _PRIME
                a[r] = [(v - t * w) % _PRIME for v, w in zip(a[r], a[col])]
    return True


def dense_catgraph(rng: random.Random, n: int, duplicate: bool) -> tuple[dict, tuple[str, ...], list]:
    """A cat-graph with random homs over n objects whose ζ is nonsingular.

    With `duplicate`, one object is copied (same homs in and out), which
    makes ζ singular but keeps both linear systems consistent.
    Returns (document body, object labels, ζ as Fraction rows).
    """
    while True:
        kinds = [[rng.choice(_HOM_CHOICES) for _ in range(n)] for _ in range(n)]
        zeta = [[_HOMS[k][1] if k else Fraction(0) for k in row] for row in kinds]
        if _nonsingular(zeta):
            break
    if duplicate:
        src = rng.randrange(n)
        for row in kinds:
            row.append(row[src])
        kinds.append(list(kinds[src]))
        kinds[n][n] = kinds[src][src]
        n += 1
    lab = _perm(rng, n)
    objects = tuple(f"v{lab[i]:03d}" for i in range(n))
    hom = {
        f"{objects[i]}|{objects[j]}": _HOMS[kinds[i][j]][0]
        for i in range(n)
        for j in range(n)
        if kinds[i][j]
    }
    zeta = [[_HOMS[k][1] if k else Fraction(0) for k in row] for row in kinds]
    listed = list(objects)
    rng.shuffle(listed)
    return {"objects": listed, "hom": hom}, objects, zeta


def _tables_body(objects, hom, identity1, compose1, hcompose2) -> dict:
    return {
        "objects": list(objects),
        "hom": hom,
        "identity1": identity1,
        "compose1": compose1,
        "hcompose2": hcompose2,
    }


def collapse_laxfunctor(rng: random.Random, k: int, n: int) -> dict:
    """The collapse of the suspension of Z/n on k objects onto the point bicategory.

    The source is a connected pseudogroupoid whose endo-homs are BZ/n, so
    its chi is n; the target is the point (chi 1), and the single fiber is
    the whole source.
    """
    lab = _perm(rng, n)
    g = [f"z{lab[r]:03d}" for r in range(n)]
    mult = [[g[(r + s) % n] for r in range(n)] for s in range(n)]  # mult[s][r] = g_s * g_r
    objs = [f"p{i:02d}" for i in _perm(rng, k)]

    def cell(x, y):
        return f"c{x[1:]}{y[1:]}"

    hom = {}
    for x in objs:
        for y in objs:
            m = cell(x, y)
            morphisms = [[e, m, m] for e in g]
            compose = [[g[s], g[r], mult[s][r]] for r in range(n) for s in range(n)]
            rng.shuffle(morphisms)
            rng.shuffle(compose)
            hom[f"{x}|{y}"] = {"objects": [m], "morphisms": morphisms, "identity": {m: g[0]}, "compose": compose}
    compose1 = {f"{x}|{y}|{z}": [[cell(y, z), cell(x, y), cell(x, z)]] for x in objs for y in objs for z in objs}
    hcompose2 = {}
    for key in compose1:
        rows = [[g[s], g[r], mult[s][r]] for r in range(n) for s in range(n)]
        rng.shuffle(rows)
        hcompose2[key] = rows
    source = _tables_body(objs, hom, {x: cell(x, x) for x in objs}, compose1, hcompose2)
    point = {"objects": ["I"], "morphisms": [["idI", "I", "I"]], "identity": {"I": "idI"},
             "compose": [["idI", "idI", "idI"]]}
    target = _tables_body(["t"], {"t|t": point}, {"t": "I"}, {"t|t|t": [["I", "I", "I"]]},
                          {"t|t|t": [["idI", "idI", "idI"]]})
    return {
        "source": source,
        "target": target,
        "object_map": {x: "t" for x in objs},
        "hom_functors": {
            f"{x}|{y}": {"object_map": {cell(x, y): "I"}, "morphism_map": {e: "idI" for e in g}}
            for x in objs
            for y in objs
        },
    }


def document(kind: str, body: dict, compact: bool = False) -> str:
    """Document text: indented like the package's serializer, or without any whitespace."""
    if compact:
        return json.dumps({"kind": kind, **body}, separators=(",", ":")) + "\n"
    return json.dumps({"kind": kind, **body}, indent=2) + "\n"
