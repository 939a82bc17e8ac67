"""Command line front end: chi, check, verify, gen.

All numeric output is exact rational text; exit codes are 0 (pass),
1 (check or verification failed), 2 (input error), 3 (internal error:
any other exception, with its traceback, or a generator failure).  --json
emits a machine-readable RunReport.  `parse_args` reads the command line
from one table, `_COMMANDS`; a usage error exits 2.  Commands reach the
kind modules through the package's lazy attributes, so each loads only what
it runs.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from types import SimpleNamespace

# CPython's built-in SHA-256, not `hashlib`: that import loads OpenSSL (`_hashlib`, libcrypto),
# about 3 MB of RSS and 3 ms per process that no command otherwise needs.
try:
    from _sha2 import sha256  # 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

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
    return result.document, sha256(data).hexdigest()


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
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise InputError(f"{args.out}: {exc}")
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
            "sha256": sha256(text.encode("utf-8")).hexdigest(),
            "out": args.out,
        },
        "status": EXIT_PASS,
    }
    return _emit(args, report, EXIT_PASS)


def _int(text: str) -> int:
    """An integer; any other text is a usage error with argparse's message."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


def _size(text: str) -> int:
    """A `gen --size`: an integer of at least 1."""
    size = _int(text)
    if size < 1:
        raise ValueError(f"size must be at least 1, got {size}")
    return size


# What `-h` prints, one entry per command; README.md's CLI section shows the same block.
_USAGE = {
    "chi": "bicat-euler chi FILE [--kind category|catgraph|bicategory]\n"
    "                     [--weighting] [--coweighting] [--decimal] [--json]\n",
    "check": "bicat-euler check FILE {acyclic|fibered|fib-groupoids|pseudogroupoid|\n"
    "                        biequivalence|fib-pseudogroupoids} [--json]\n",
    "verify": "bicat-euler verify {gr|product-cat|biequivalence|gr-bicat|product-bicat} FILE [--json]\n",
    "gen": "bicat-euler gen {acyclic-cat|groupoid-valued-laxcat|fib-groupoids-functor|\n"
    "                 pseudogroupoid|trihom-psgrpd} [--seed N] [--size N] [--out FILE] [--json]\n",
}

_FLAG = ("flag", False)
# command -> (handler, positionals, options).  Each positional is (destination, how); each
# option, written `--<destination>`, maps its destination to (how, default).  `how` is a
# converter, a tuple of choices, or "flag": an option that takes no value and sets True.
_COMMANDS = {
    "chi": (
        cmd_chi,
        [("file", str)],
        {"kind": (("category", "catgraph", "bicategory"), None), "weighting": _FLAG, "coweighting": _FLAG,
         "decimal": _FLAG, "json": _FLAG},
    ),
    "check": (cmd_check, [("file", str), ("predicate", _PREDICATES)], {"json": _FLAG}),
    "verify": (
        cmd_verify,
        [("theorem", ("gr", "product-cat", "biequivalence", "gr-bicat", "product-bicat")), ("file", str)],
        {"json": _FLAG},
    ),
    "gen": (
        cmd_gen,
        [("kind", tuple(_GEN_KINDS))],
        {"seed": (_int, 0), "size": (_size, 2), "out": (str, None), "json": _FLAG},
    ),
}


def _usage_error(command, message: str):
    """Exit 2 with the command's usage and the error, in argparse's format."""
    if command is None:
        usage, prog = "bicat-euler {chi|check|verify|gen} ...\n", "bicat-euler"
    else:
        # Continuation lines move right by the width of "usage: ", as the first line does.
        usage, prog = _USAGE[command].replace("\n ", "\n" + " " * 8), f"bicat-euler {command}"
    sys.stderr.write(f"usage: {usage}{prog}: error: {message}\n")
    raise SystemExit(EXIT_INPUT)


def _choices(values) -> str:
    return ", ".join(map(repr, values))


def _is_option(token: str) -> bool:
    """Whether a token names an option: it starts with "-", and is not "-" or a negative number."""
    return token[:1] == "-" and token != "-" and not token[1:2].isdigit()


def parse_args(argv: list[str]):
    """The command's handler (`func`) and arguments from argv; `-h` prints the usage and exits 0.

    Options take `--name value` or `--name=value`, before, between or after the positionals,
    and are spelled in full.  Any other form exits 2 with the usage.
    """
    if "-h" in argv or "--help" in argv:
        sys.stdout.write("".join(_USAGE.values()))
        raise SystemExit(EXIT_PASS)
    if not argv:
        _usage_error(None, "the following arguments are required: command")
    command, tokens = argv[0], iter(argv[1:])
    if command not in _COMMANDS:
        _usage_error(None, f"argument command: invalid choice: {command!r} (choose from {_choices(_COMMANDS)})")
    handler, positionals, options = _COMMANDS[command]

    def convert(name: str, how, text: str):
        if isinstance(how, tuple):
            if text not in how:
                _usage_error(command, f"argument {name}: invalid choice: {text!r} (choose from {_choices(how)})")
            return text
        try:
            return how(text)
        except ValueError as exc:
            _usage_error(command, f"argument {name}: {exc}")

    args = SimpleNamespace(func=handler, **{dest: default for dest, (_, default) in options.items()})
    values = []
    for token in tokens:
        if not _is_option(token):
            values.append(token)
            continue
        name, eq, text = token.partition("=")
        dest = name[2:] if name.startswith("--") else ""
        if dest not in options:
            _usage_error(command, f"unrecognized arguments: {token}")
        how = options[dest][0]
        if how == "flag":
            if eq:
                _usage_error(command, f"argument {name}: ignored explicit argument {text!r}")
            setattr(args, dest, True)
            continue
        if not eq:
            text = next(tokens, None)
            if text is None or _is_option(text):
                _usage_error(command, f"argument {name}: expected one argument")
        setattr(args, dest, convert(name, how, text))
    if len(values) > len(positionals):
        _usage_error(command, f"unrecognized arguments: {' '.join(values[len(positionals):])}")
    if len(values) < len(positionals):
        missing = ", ".join(dest for dest, _ in positionals[len(values):])
        _usage_error(command, f"the following arguments are required: {missing}")
    for (dest, how), text in zip(positionals, values):
        setattr(args, dest, convert(dest, how, text))
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
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
