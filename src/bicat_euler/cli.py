"""Command line front end: chi, check, verify, gen.

All numeric output is exact rational text; exit codes are 0 (pass),
1 (check or verification failed), 2 (input error), 3 (internal error:
any other exception, with its traceback, or a generator failure).  --json
emits a machine-readable RunReport.  Commands reach the kind modules
through the package's lazy attributes, so each loads only what it runs.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import sys

import bicat_euler

from . import fincat
from .catdsl import Document, parse, serialize

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class InputError(fincat.InvalidInput):
    pass


def _load(path: str) -> tuple[Document, str]:
    """The parsed document and the sha256 of the file's bytes, as read."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: {exc}")
    # Newlines as text mode reads them, so that parse positions do not depend on the line ending.
    result = parse(text.replace("\r\n", "\n").replace("\r", "\n"))
    if result.document is None:
        lines = [f"{path}:{d}" for d in result.diagnostics]
        raise InputError("\n".join(lines) or f"{path}: unreadable document")
    return result.document, hashlib.sha256(data).hexdigest()


def _emit(args, report: dict, status: int) -> int:
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    return status


def cmd_chi(args) -> int:
    doc, digest = _load(args.file)
    kind = args.kind
    if kind is None:
        kind = {"category": "category", "catgraph": "catgraph", "bicategory": "bicategory"}.get(doc.kind)
        if kind is None:
            raise InputError(f"{args.file}: kind {doc.kind!r} has no Euler characteristic")
    if kind == "category":
        if doc.kind != "category":
            raise InputError(f"{args.file}: expected a category document")
        euler = fincat.euler_char_cat(doc.value)
    elif kind == "catgraph":
        if doc.kind == "catgraph":
            graph = doc.value
        elif doc.kind == "bicategory":
            graph = doc.value.graph
        else:
            raise InputError(f"{args.file}: expected a catgraph or bicategory document")
        euler = bicat_euler.bicat.euler_char_cg(graph)
    elif kind == "bicategory":
        if doc.kind != "bicategory":
            raise InputError(f"{args.file}: expected a bicategory document")
        euler = bicat_euler.bicat.euler_char_cg(doc.value.graph)
    else:
        raise InputError(f"unknown kind {kind!r}")
    values = euler.to_json()
    shown = {side: values[side] for side in ("weighting", "coweighting") if getattr(args, side)}
    report = {
        "command": "chi",
        "inputs": [{"path": args.file, "sha256": digest}],
        "results": {"chi": values["chi"], "missing": list(euler.missing()), **shown},
    }
    if euler.chi is None:
        report["status"] = EXIT_FAIL
        if not args.json:
            print(f"no Euler characteristic (missing: {', '.join(euler.missing())})")
        return _emit(args, report, EXIT_FAIL)
    report["status"] = EXIT_PASS
    if not args.json:
        line = values["chi"]
        if args.decimal:
            line += f"  (approx {float(euler.chi):.6g})"
        print(line)
        for side, vector in shown.items():  # both vectors exist when chi does
            print(f"{side}:", json.dumps(vector, sort_keys=True))
    return _emit(args, report, EXIT_PASS)


_PREDICATES = ("acyclic", "fibered", "fib-groupoids", "pseudogroupoid", "biequivalence", "fib-pseudogroupoids")


def cmd_check(args) -> int:
    doc, digest = _load(args.file)
    witnesses = {}
    if args.predicate == "acyclic":
        if doc.kind == "category":
            witnesses = fincat.acyclic_witness(doc.value)
        elif doc.kind == "bicategory":
            witnesses = bicat_euler.bicat.acyclic_bicat_witness(doc.value)
        else:
            raise InputError("acyclic expects a category or bicategory document")
        ok = not witnesses
    elif args.predicate in ("fibered", "fib-groupoids"):
        if doc.kind != "functor":
            raise InputError(f"{args.predicate} expects a functor document")
        rep = bicat_euler.fib1.classify_fibration(doc.value)
        ok = rep.fibered if args.predicate == "fibered" else rep.fibered_in_groupoids
        witnesses = rep.to_json()["witnesses"]
    elif args.predicate == "pseudogroupoid":
        if doc.kind != "bicategory":
            raise InputError("pseudogroupoid expects a bicategory document")
        witnesses = bicat_euler.bicat.pseudogroupoid_witness(doc.value)
        ok = not witnesses
    elif args.predicate == "biequivalence":
        if doc.kind != "laxfunctor":
            raise InputError("biequivalence expects a laxfunctor document")
        witnesses = bicat_euler.bicat.biequivalence_witness(doc.value)
        ok = not witnesses
    elif args.predicate == "fib-pseudogroupoids":
        if doc.kind != "laxfunctor":
            raise InputError("fib-pseudogroupoids expects a laxfunctor document")
        rep = bicat_euler.bifib.classify_bifibration(doc.value)
        ok = rep.fibered_in_pseudogroupoids
        witnesses = rep.to_json()["witnesses"]
    else:
        raise InputError(f"unknown predicate {args.predicate!r}")
    status = EXIT_PASS if ok else EXIT_FAIL
    report = {
        "command": f"check {args.predicate}",
        "inputs": [{"path": args.file, "sha256": digest}],
        "results": {"pass": ok, "witnesses": witnesses},
        "status": status,
    }
    if not args.json:
        print("pass" if ok else f"fail {json.dumps(witnesses, sort_keys=True)}")
    return _emit(args, report, status)


def _gr_summary(results: dict) -> str:
    """`chi(Gr) = k_b·chi(F_b) + …` over the base objects, from a Grothendieck formula report."""
    terms = [f"{k}·{results['fiber_chi'][b]}" for b, k in results["base_coweighting"].items()]
    return f"{results['chi_grothendieck']} = " + " + ".join(terms)


def _product_summary(results: dict) -> str:
    """`chi(E) = chi(B_i) · chi(F_i) + …` over the base components, from a product formula report."""
    terms = [f"{c['chi_base']} · {c['chi_fiber']}" for c in results["components"]]
    return f"{results['chi_total']} = " + " + ".join(terms)


def cmd_verify(args) -> int:
    doc, digest = _load(args.file)
    if args.theorem == "gr":
        if doc.kind != "laxcat":
            raise InputError("verify gr expects a laxcat document")
        rep = bicat_euler.fib1.verify_gr_formula(doc.value)
        summary, ok = _gr_summary, rep.equal
    elif args.theorem == "product-cat":
        if doc.kind != "functor":
            raise InputError("verify product-cat expects a functor document")
        rep = bicat_euler.fib1.verify_product_formula_cat(doc.value)
        summary, ok = _product_summary, rep.equal
    elif args.theorem == "biequivalence":
        if doc.kind != "laxfunctor":
            raise InputError("verify biequivalence expects a laxfunctor document")
        rep = bicat_euler.bicat.verify_biequivalence_invariance(doc.value)
        summary, ok = "{chi_source} = {chi_target}".format_map, rep.equal and rep.transported_valid
    elif args.theorem == "gr-bicat":
        if doc.kind not in ("trihom", "laxfunctor"):
            raise InputError("verify gr-bicat expects a trihom or laxfunctor document")
        fib1 = bicat_euler.fib1
        try:
            rep = bicat_euler.bifib.verify_gr_formula_bicat(doc.value)
        except fib1.NonUniqueLift as exc:  # only a laxfunctor's cleavage raises it: an unsuitable input
            raise fib1.NotBiFibered(str(exc)) from exc
        summary, ok = _gr_summary, rep.equal and rep.product_coweighting_valid
    elif args.theorem == "product-bicat":
        if doc.kind != "laxfunctor":
            raise InputError("verify product-bicat expects a laxfunctor document")
        rep = bicat_euler.bifib.verify_product_formula_bicat(doc.value)
        summary, ok = _product_summary, rep.equal and rep.grothendieck_matches_total
    else:
        raise InputError(f"unknown theorem {args.theorem!r}")
    status = EXIT_PASS if ok else EXIT_FAIL
    results = rep.to_json()
    report = {
        "command": f"verify {args.theorem}",
        "inputs": [{"path": args.file, "sha256": digest}],
        "results": results,
        "status": status,
    }
    if not args.json:
        print(summary(results))
        if not ok:
            print(json.dumps(results, indent=2, sort_keys=True))
    return _emit(args, report, status)


def _generator(name: str):
    """The builder `generators.<name>`, imported only when `gen` runs it."""
    return lambda seed, size: getattr(bicat_euler.generators, name)(seed, size)


_GEN_KINDS = {
    "acyclic-cat": (_generator("gen_acyclic_category"), lambda v: fincat.is_acyclic(v)),
    "groupoid-valued-laxcat": (
        _generator("gen_groupoid_valued_laxcat"),
        lambda v: all(
            cat.inverse_of(m.name) is not None for cat in v.fiber.values() for m in cat.morphisms
        ),
    ),
    "fib-groupoids-functor": (
        _generator("gen_fib_groupoids_functor"),
        lambda v: bicat_euler.fib1.classify_fibration(v).fibered_in_groupoids,
    ),
    "pseudogroupoid": (_generator("gen_pseudogroupoid"), lambda v: bicat_euler.bicat.pseudogroupoid_check(v)),
    "trihom-psgrpd": (
        _generator("gen_trihom"),
        lambda v: all(bicat_euler.bicat.pseudogroupoid_check(f) for f in v.fiber.values()),
    ),
}


def cmd_gen(args) -> int:
    builder, predicate = _GEN_KINDS[args.kind]
    value = builder(args.seed, args.size)
    if not predicate(value):
        print(f"generator produced an instance failing its own predicate ({args.kind})", file=sys.stderr)
        return EXIT_INTERNAL
    text = serialize(value)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        if not args.json:
            print(args.out)
    else:
        sys.stdout.write(text)
    report = {
        "command": f"gen {args.kind}",
        "inputs": [],
        "results": {
            "seed": args.seed,
            "size": args.size,
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "out": args.out,
        },
        "status": EXIT_PASS,
    }
    return _emit(args, report, EXIT_PASS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bicat-euler",
        description="Exact Euler characteristics of finite categories, cat-graphs and bicategories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    chi = sub.add_parser("chi", help="Euler characteristic of a category/cat-graph/bicategory file")
    chi.add_argument("file")
    chi.add_argument("--kind", choices=["category", "catgraph", "bicategory"])
    chi.add_argument("--weighting", action="store_true")
    chi.add_argument("--coweighting", action="store_true")
    chi.add_argument("--decimal", action="store_true")
    chi.add_argument("--json", action="store_true")
    chi.set_defaults(func=cmd_chi)

    check = sub.add_parser("check", help="decide a predicate; exit 1 when it fails")
    check.add_argument("file")
    check.add_argument("predicate", choices=_PREDICATES)
    check.add_argument("--json", action="store_true")
    check.set_defaults(func=cmd_check)

    verify = sub.add_parser("verify", help="verify an identity exactly; exit 1 on mismatch")
    verify.add_argument("theorem", choices=["gr", "product-cat", "biequivalence", "gr-bicat", "product-bicat"])
    verify.add_argument("file")
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=cmd_verify)

    gen = sub.add_parser("gen", help="emit a seeded instance satisfying its predicate")
    gen.add_argument("kind", choices=sorted(_GEN_KINDS))
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--size", type=int, default=2)
    gen.add_argument("--out")
    gen.add_argument("--json", action="store_true")
    gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    except fincat.InvalidInput as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:
        import traceback  # here, not at the top: only exit 3 needs it
        traceback.print_exc()
        return EXIT_INTERNAL


def run() -> None:
    """Process entry point: `main` without cyclic GC, ended without interpreter teardown."""
    gc.disable()
    status = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    run()
