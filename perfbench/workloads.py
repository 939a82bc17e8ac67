"""The four workloads: inputs made from a seed, commands, and their oracles.

Each workload is a function of (seed, work, tiny) that writes its input
files under `work` and returns the command list of one pass.  Every command carries an
oracle: a function of (exit code, stdout bytes) that returns None when the
result is right and a short reason otherwise.  Expected values come from
the mathematics (products multiply chi, chi(BZ/n) = 1/n, a connected
pseudogroupoid has chi = 1/chi(hom(g,g)), the README's and the paper's
worked examples) or, on dense-zeta, from an exact certificate check
against the zeta matrix the generator built; none comes from the package.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import catjgen as gen

Oracle = Callable[[int, bytes], Optional[str]]


@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]  # arguments after `python -m bicat_euler.cli`
    form: str  # subcommand plus predicate/theorem/kind; one warm-up per form
    oracle: Oracle


def fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _report(code: int, out: bytes, status: int) -> tuple[Optional[dict], Optional[str]]:
    if code != status:
        return None, f"exit {code}, expected {status}"
    try:
        report = json.loads(out)
    except ValueError:
        return None, "stdout is not a JSON report"
    if report.get("status") != status:
        return None, f"report status {report.get('status')!r}, expected {status}"
    return report.get("results", {}), None


def expect(status: int, **fields) -> Oracle:
    """The exit code and report status are `status` and each named result field equals its value."""

    def oracle(code: int, out: bytes) -> Optional[str]:
        results, problem = _report(code, out, status)
        if problem:
            return problem
        for key, want in fields.items():
            if results.get(key) != want:
                return f"{key} = {results.get(key)!r}, expected {want!r}"
        return None

    return oracle


def _passes(status: int = 0) -> Oracle:
    return expect(status, **{"pass": status == 0})


# ---------------------------------------------------------------- corpus

# Category fixtures: chi, and whether the category is acyclic.
_CATEGORIES = {
    "pt": ("1", True),
    "arrow": ("1", True),
    "bz2": ("1/2", False),
    "d2": ("2", True),
    "ez2": ("1", False),
    "pair": ("0", True),  # two parallel arrows: w = (-1, 1)
    "span": ("1", True),
}
# Bicategory fixtures: chi of the underlying cat-graph, acyclic, pseudogroupoid.
_BICATEGORIES = {
    "bpt": ("1", True, True),
    "bz2-2group": ("2", False, True),  # one object, hom BZ/2: chi = 1/(1/2)
    "psg": ("2", False, True),  # README: chi psg.catj --kind catgraph = 2
    "ez2-bicat": ("1", False, True),
    "arrow-bicat": ("1", True, False),
    "acyclic2": ("1", True, False),
}
_GEN_KINDS = {
    "acyclic-cat": "category",
    "groupoid-valued-laxcat": "laxcat",
    "fib-groupoids-functor": "functor",
    "pseudogroupoid": "bicategory",
    "trihom-psgrpd": "trihom",
}


def _gen_oracle(kind: str, seed: int, size: int, out: Path, reference: dict) -> Oracle:
    """gen writes a document of the right kind, its report hashes the file, and reruns write the same bytes."""

    def oracle(code: int, stdout: bytes) -> Optional[str]:
        results, problem = _report(code, stdout, 0)
        if problem:
            return problem
        try:
            data = out.read_bytes()
            doc_kind = json.loads(data).get("kind")
        except (OSError, ValueError):
            return f"{out.name} missing or not JSON"
        digest = hashlib.sha256(data).hexdigest()
        if doc_kind != _GEN_KINDS[kind]:
            return f"document kind {doc_kind!r}, expected {_GEN_KINDS[kind]!r}"
        if (results.get("seed"), results.get("size"), results.get("sha256")) != (seed, size, digest):
            return "report seed/size/sha256 do not match the written file"
        if reference.setdefault(kind, digest) != digest:
            return "gen is not deterministic across runs"
        return None

    return oracle


def corpus(seed: int, work: Path, tiny: bool) -> list[Command]:
    fx = "fixtures/{}.catj".format
    cmds = []
    for name, (chi, acyclic) in _CATEGORIES.items():
        cmds.append(Command(("chi", fx(name), "--json"), "chi", expect(0, chi=chi, missing=[])))
        cmds.append(Command(("check", fx(name), "acyclic", "--json"), "check acyclic", _passes(0 if acyclic else 1)))
    for name, (chi, acyclic, psg) in _BICATEGORIES.items():
        cmds.append(Command(("chi", fx(name), "--kind", "catgraph", "--json"), "chi", expect(0, chi=chi, missing=[])))
        cmds.append(Command(("check", fx(name), "acyclic", "--json"), "check acyclic", _passes(0 if acyclic else 1)))
        cmds.append(
            Command(("check", fx(name), "pseudogroupoid", "--json"), "check pseudogroupoid", _passes(0 if psg else 1))
        )
    # zeta = [[1, 1], [2, 2]]: no weighting, so no Euler characteristic (exit 1).
    cmds.append(
        Command(("chi", fx("nochi-catgraph"), "--kind", "catgraph", "--json"), "chi",
                expect(1, chi=None, missing=["weighting"]))
    )
    # chi(E) = chi(B) chi(F): D2 -> PT gives 2 = 1 * 2, EZ2 -> BZ2 gives 1 = 1/2 * 2 (README).
    for name, base, fiber, total, objects in (("d2-to-pt", "1", "2", "2", ["*"]), ("ez2-to-bz2", "1/2", "2", "1", ["*"])):
        cmds.append(Command(("check", fx(name), "fibered", "--json"), "check fibered", _passes()))
        cmds.append(Command(("check", fx(name), "fib-groupoids", "--json"), "check fib-groupoids", _passes()))
        components = [{"chi_base": base, "chi_fiber": fiber, "objects": objects}]
        cmds.append(
            Command(("verify", "product-cat", fx(name), "--json"), "verify product-cat",
                    expect(0, chi_total=total, components=components, equal=True))
        )
    # chi(Gr(F)) = sum_b k_b chi(F b): ARROW base k = (1, 0); BZ2 base k = 1/2.
    cmds.append(
        Command(("verify", "gr", fx("arrow-base-laxcat"), "--json"), "verify gr",
                expect(0, chi_grothendieck="2", base_coweighting={"0": "1", "1": "0"},
                       fiber_chi={"0": "2", "1": "1"}, equal=True))
    )
    cmds.append(
        Command(("verify", "gr", fx("bz2-base-laxcat"), "--json"), "verify gr",
                expect(0, chi_grothendieck="1", base_coweighting={"*": "1/2"}, fiber_chi={"*": "2"}, equal=True))
    )
    # Bicategorical: PSG over the point (chi 2 = 1 * 2) and ARROW x PSG over ARROW (2 = 1*2 + 0*2).
    for name, cow, fibers in (
        ("psg-collapse", {"*": "1"}, {"*": "2"}),
        ("gr-psg-over-arrow", {"0": "1", "1": "0"}, {"0": "2", "1": "2"}),
    ):
        cmds.append(Command(("check", fx(name), "fib-pseudogroupoids", "--json"), "check fib-pseudogroupoids",
                            _passes()))
        cmds.append(
            Command(("verify", "gr-bicat", fx(name), "--json"), "verify gr-bicat",
                    expect(0, chi_grothendieck="2", base_coweighting=cow, fiber_chi=fibers, equal=True,
                           product_coweighting_valid=True))
        )
        cmds.append(
            Command(("verify", "product-bicat", fx(name), "--json"), "verify product-bicat",
                    expect(0, chi_total="2", equal=True, grothendieck_matches_total=True))
        )
    cmds.append(
        Command(("verify", "gr-bicat", fx("trihom-const-psg-arrow"), "--json"), "verify gr-bicat",
                expect(0, chi_grothendieck="2", base_coweighting={"0": "1", "1": "0"},
                       fiber_chi={"0": "2", "1": "2"}, equal=True, product_coweighting_valid=True))
    )
    # PSG (chi 2) is not biequivalent to the point (chi 1).
    cmds.append(Command(("check", fx("psg-collapse"), "biequivalence", "--json"), "check biequivalence", _passes(1)))
    reference: dict = {}
    for kind in _GEN_KINDS:
        out = work / f"gen-{kind}.catj"
        args = ("gen", kind, "--seed", str(seed), "--size", "2", "--out", str(out), "--json")
        cmds.append(Command(args, f"gen {kind}", _gen_oracle(kind, seed, 2, out, reference)))
    return cmds[::6] + cmds[-1:] if tiny else cmds


# ---------------------------------------------------------- big-category

# Products of indiscrete categories (iK) and cyclic groups (cN), smallest to largest.
_SHAPES = ("i2xc12", "c6xi3", "i3xc6", "i4xc4", "c9xi3", "i5xi2", "i3xc3xi2", "i4xi3")
_TINY_SHAPES = ("i2xc2",)


def _factors(rng: random.Random, spec: str) -> list[gen.Cat]:
    """'i3xc4' -> [indiscrete(3), BZ/4]."""
    return [gen.indiscrete(rng, int(t[1:])) if t[0] == "i" else gen.cyclic(rng, int(t[1:])) for t in spec.split("x")]


def big_category(seed: int, work: Path, tiny: bool) -> list[Command]:
    """Each shape as a category (chi) and as the projection onto its first factor (check, verify)."""
    rng = random.Random(seed)
    cmds = []
    for i, spec in enumerate(_TINY_SHAPES if tiny else _SHAPES):
        factors = _factors(rng, spec)
        total, base, fiber = gen.product(factors), factors[0], gen.product(factors[1:])
        cat_path, proj_path = work / f"cat{i}.catj", work / f"proj{i}.catj"
        cat_path.write_text(gen.document("category", gen.category_body(total, rng)), encoding="utf-8")
        proj_path.write_text(gen.document("functor", gen.projection_body(factors, 0, rng)), encoding="utf-8")
        cmds.append(Command(("chi", str(cat_path), "--json"), "chi", expect(0, chi=fmt(total.chi), missing=[])))
        # The projection B x F -> B is fibered in groupoids because F is a groupoid.
        cmds.append(Command(("check", str(proj_path), "fib-groupoids", "--json"), "check fib-groupoids", _passes()))
        components = [{"chi_base": fmt(base.chi), "chi_fiber": fmt(fiber.chi), "objects": sorted(base.objects)}]
        cmds.append(
            Command(("verify", "product-cat", str(proj_path), "--json"), "verify product-cat",
                    expect(0, chi_total=fmt(total.chi), components=components, equal=True))
        )
    return cmds


# ------------------------------------------------------------ dense-zeta

def _certificate(objects: tuple[str, ...], zeta: list) -> Oracle:
    """zeta w = 1, k zeta = 1 and sum w = sum k = chi, exactly over Fraction."""
    n = len(objects)

    def oracle(code: int, out: bytes) -> Optional[str]:
        results, problem = _report(code, out, 0)
        if problem:
            return problem
        try:
            w = [Fraction(results["weighting"][x]) for x in objects]
            k = [Fraction(results["coweighting"][x]) for x in objects]
            chi = Fraction(results["chi"])
        except (KeyError, TypeError, ValueError):
            return "report lacks chi, weighting or coweighting over every object"
        if len(results["weighting"]) != n or len(results["coweighting"]) != n:
            return "weighting or coweighting has extra entries"
        if any(sum(zeta[i][j] * w[j] for j in range(n)) != 1 for i in range(n)):
            return "zeta . w != 1"
        if any(sum(k[i] * zeta[i][j] for i in range(n)) != 1 for j in range(n)):
            return "k . zeta != 1"
        if sum(w) != chi or sum(k) != chi:
            return "sum of weighting or coweighting != chi"
        return None

    return oracle


def dense_zeta(seed: int, work: Path, tiny: bool) -> list[Command]:
    rng = random.Random(seed)
    cmds = []
    # Sizes rise, with 8 documents of one size in the middle, so that the
    # median and the tail fall among documents of equal cost.
    sizes = (6, 7) if tiny else (*range(8, 16), *[20] * 8, *range(22, 30))
    for i, n in enumerate(sizes):
        # Every other document duplicates one object: zeta is singular and free variables occur.
        body, objects, zeta = gen.dense_catgraph(rng, n - i % 2, duplicate=i % 2 == 1)
        path = work / f"dense{i}.catj"
        path.write_text(gen.document("catgraph", body, compact=True), encoding="utf-8")
        args = ("chi", str(path), "--kind", "catgraph", "--weighting", "--coweighting", "--json")
        cmds.append(Command(args, "chi catgraph", _certificate(objects, zeta)))
    return cmds


# -------------------------------------------------------- bifib-collapse

def bifib_collapse(seed: int, work: Path, tiny: bool) -> list[Command]:
    rng = random.Random(seed)
    # Five documents of one shape hold the median and the tail (their checks and
    # gr-bicat runs cost about the same); three others add smaller and larger cases.
    plan = ((2, 3),) if tiny else ((2, 8), (3, 6), *[(2, 12)] * 5, (2, 20))
    cmds = []
    for i, (k, n) in enumerate(plan):
        path = work / f"collapse{i}.catj"
        path.write_text(gen.document("laxfunctor", gen.collapse_laxfunctor(rng, k, n)), encoding="utf-8")
        chi = str(n)  # connected pseudogroupoid with endo-homs BZ/n: chi = 1/(1/n)
        cmds.append(
            Command(("check", str(path), "fib-pseudogroupoids", "--json"), "check fib-pseudogroupoids", _passes())
        )
        cmds.append(
            Command(("verify", "gr-bicat", str(path), "--json"), "verify gr-bicat",
                    expect(0, chi_grothendieck=chi, base_coweighting={"t": "1"}, fiber_chi={"t": chi}, equal=True,
                           product_coweighting_valid=True))
        )
        components = [{"chi_base": "1", "chi_fiber": chi, "objects": ["t"]}]
        cmds.append(
            Command(("verify", "product-bicat", str(path), "--json"), "verify product-bicat",
                    expect(0, chi_total=chi, components=components, equal=True, grothendieck_matches_total=True))
        )
    return cmds


# Wall time of one pass on the reference machine (CPython 3.11.7, 2 cores);
# run.py turns --seconds into a fixed number of passes with it.
NOMINAL_PASS_S = {
    "corpus": 5.7,
    "big-category": 5.0,
    "dense-zeta": 6.0,
    "bifib-collapse": 5.9,
}

WORKLOADS = {
    "corpus": corpus,
    "big-category": big_category,
    "dense-zeta": dense_zeta,
    "bifib-collapse": bifib_collapse,
}
