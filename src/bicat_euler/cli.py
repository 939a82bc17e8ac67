"""Command line front end: chi, check, verify, gen.

All numeric output is exact rational text; exit codes are 0 (pass),
1 (check or verification failed), 2 (input error), 3 (internal error:
any other exception, with its traceback, or a generator failure).  --json
emits a machine-readable RunReport.  `parse_args` reads the command line
from one table, `_COMMANDS`; a usage error exits 2.  Each choice of chi,
check and verify is one entry of `_CHI`, `_CHECKS` or `_THEOREMS`: the
document kinds it reads and the `module.function` that answers it.  That
function is looked up through the package's lazy attributes when the command
runs, so each command loads only what it runs.
"""

from __future__ import annotations

import gc
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
from .catdsl import Document, dumps, parse, serialize

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class InputError(fincat.InvalidInput):
    pass


def _load(path: str) -> tuple[Document, str]:
    """The parsed document and the sha256 of the file's bytes, as read.

    The bytes are hashed and dropped before `parse`, so the document is held once, as text.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: {exc}")
    digest = sha256(data).hexdigest()
    del data
    # Newlines as text mode reads them, so that parse positions do not depend on the line ending.
    result = parse(text.replace("\r\n", "\n").replace("\r", "\n"))
    if result.document is None:
        lines = [f"{path}:{d}" for d in result.diagnostics]
        raise InputError("\n".join(lines) or f"{path}: unreadable document")
    return result.document, digest


def _function(name: str):
    """The package's `module.function`, looked up through its lazy attributes at each call.

    So a command loads only the modules it runs, and calls what the module holds under that name then.
    """
    module, attr = name.split(".")
    return lambda *args: getattr(getattr(bicat_euler, module), attr)(*args)


def _report(args, command: str, digest, results: dict, status: int, lines: list[str]) -> int:
    """Print the run's report, as JSON under --json and else as its plain lines; return its status.

    The report's one input is args.file, with its sha256 `digest`; a None digest means no input.
    """
    if args.json:
        inputs = [] if digest is None else [{"path": args.file, "sha256": digest}]
        report = {"command": command, "inputs": inputs, "results": results, "status": status}
        print(dumps(report, 2))
    else:
        for line in lines:
            print(line)
    return status


def _answer(functions: dict, doc: Document, expects: str):
    """The function that `functions` (document kind -> `module.function`) names for doc's kind."""
    if doc.kind not in functions:
        raise InputError(f"{expects} a {' or '.join(functions)} document")
    return _function(functions[doc.kind])


# chi --kind -> {document kind it reads: the function giving its MatrixEuler}.  Without --kind a
# document is read as its own kind; a bicategory is read through its cat-graph.
_CHI = {
    "category": {"category": "fincat.euler_char_cat"},
    "catgraph": {"catgraph": "bicat.euler_char_cg", "bicategory": "bicat.euler_char_cg"},
    "bicategory": {"bicategory": "bicat.euler_char_cg"},
}


def cmd_chi(args) -> int:
    doc, digest = _load(args.file)
    kind = args.kind or doc.kind
    if kind not in _CHI:
        raise InputError(f"{args.file}: kind {doc.kind!r} has no Euler characteristic")
    value = doc.value.graph if doc.kind == "bicategory" else doc.value
    euler = _answer(_CHI[kind], doc, f"{args.file}: expected")(value)
    values = euler.to_json()
    shown = {side: values[side] for side in ("weighting", "coweighting") if getattr(args, side)}
    if euler.chi is None:
        lines = [f"no Euler characteristic (missing: {', '.join(euler.missing())})"]
    else:
        lines = [values["chi"] + (f"  (approx {float(euler.chi):.6g})" if args.decimal else "")]
        # Both vectors exist when chi does.
        lines += [f"{side}: {dumps(vector)}" for side, vector in shown.items()]
    results = {"chi": values["chi"], "missing": list(euler.missing()), **shown}
    return _report(args, "chi", digest, results, EXIT_FAIL if euler.chi is None else EXIT_PASS, lines)


# check predicate -> ({document kind: function}, the flag of its report that decides).  A None flag
# means the function returns the witnesses themselves, and none means pass.
_CHECKS = {
    "acyclic": ({"category": "fincat.acyclic_witness", "bicategory": "bicat.acyclic_bicat_witness"}, None),
    "fibered": ({"functor": "fib1.classify_fibration"}, "fibered"),
    "fib-groupoids": ({"functor": "fib1.classify_fibration"}, "fibered_in_groupoids"),
    "pseudogroupoid": ({"bicategory": "bicat.pseudogroupoid_witness"}, None),
    "biequivalence": ({"laxfunctor": "bicat.biequivalence_witness"}, None),
    "fib-pseudogroupoids": ({"laxfunctor": "bifib.classify_bifibration"}, "fibered_in_pseudogroupoids"),
}


def cmd_check(args) -> int:
    doc, digest = _load(args.file)
    functions, flag = _CHECKS[args.predicate]
    result = _answer(functions, doc, f"{args.predicate} expects")(doc.value)
    if flag is None:
        witnesses, ok = result, not result
    else:
        witnesses, ok = result.to_json()["witnesses"], getattr(result, flag)
    line = "pass" if ok else f"fail {dumps(witnesses)}"
    results = {"pass": ok, "witnesses": witnesses}
    return _report(args, f"check {args.predicate}", digest, results, EXIT_PASS if ok else EXIT_FAIL, [line])


def _gr_summary(results: dict) -> str:
    """`chi(Gr) = k_b·chi(F_b) + …` over the base objects, from a Grothendieck formula report."""
    terms = [f"{k}·{results['fiber_chi'][b]}" for b, k in results["base_coweighting"].items()]
    return f"{results['chi_grothendieck']} = " + (" + ".join(terms) or "0")


def _product_summary(results: dict) -> str:
    """`chi(E) = chi(B_i) · chi(F_i) + …` over the base components, from a product formula report."""
    terms = [f"{c['chi_base']} · {c['chi_fiber']}" for c in results["components"]]
    return f"{results['chi_total']} = " + (" + ".join(terms) or "0")


# verify theorem -> ({document kind: function}, the one-line summary of its report's JSON, the
# flags of its report that must all hold).
_THEOREMS = {
    "gr": ({"laxcat": "fib1.verify_gr_formula"}, _gr_summary, ("equal",)),
    "product-cat": ({"functor": "fib1.verify_product_formula_cat"}, _product_summary, ("equal",)),
    "biequivalence": (
        {"laxfunctor": "bicat.verify_biequivalence_invariance"},
        "{chi_source} = {chi_target}".format_map,
        ("equal", "transported_valid"),
    ),
    "gr-bicat": (
        {"trihom": "bifib.verify_gr_formula_bicat", "laxfunctor": "bifib.verify_gr_formula_bicat"},
        _gr_summary,
        ("equal", "product_coweighting_valid"),
    ),
    "product-bicat": (
        {"laxfunctor": "bifib.verify_product_formula_bicat"},
        _product_summary,
        ("equal", "grothendieck_matches_total"),
    ),
}


def cmd_verify(args) -> int:
    doc, digest = _load(args.file)
    functions, summary, flags = _THEOREMS[args.theorem]
    rep = _answer(functions, doc, f"verify {args.theorem} expects")(doc.value)
    ok = all(getattr(rep, flag) for flag in flags)
    results = rep.to_json()
    lines = [summary(results)] if ok else [summary(results), dumps(results, 2)]
    return _report(args, f"verify {args.theorem}", digest, results, EXIT_PASS if ok else EXIT_FAIL, lines)


_GEN_KINDS = {
    "acyclic-cat": (_function("generators.gen_acyclic_category"), lambda v: not fincat.acyclic_witness(v)),
    "groupoid-valued-laxcat": (
        _function("generators.gen_groupoid_valued_laxcat"),
        lambda v: all(
            cat.inverse_of(m.name) is not None for cat in v.fiber.values() for m in cat.morphisms
        ),
    ),
    "fib-groupoids-functor": (
        _function("generators.gen_fib_groupoids_functor"),
        lambda v: bicat_euler.fib1.classify_fibration(v).fibered_in_groupoids,
    ),
    "pseudogroupoid": (
        _function("generators.gen_pseudogroupoid"), lambda v: not bicat_euler.bicat.pseudogroupoid_witness(v)
    ),
    "trihom-psgrpd": (
        _function("generators.gen_trihom"),
        lambda v: not any(bicat_euler.bicat.pseudogroupoid_witness(f) for f in v.fiber.values()),
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
    else:
        sys.stdout.write(text)
    digest = sha256(text.encode("utf-8")).hexdigest()
    results = {"seed": args.seed, "size": args.size, "sha256": digest, "out": args.out}
    return _report(args, f"gen {args.kind}", None, results, EXIT_PASS, [args.out] if args.out else [])


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
        {"kind": (tuple(_CHI), None), "weighting": _FLAG, "coweighting": _FLAG,
         "decimal": _FLAG, "json": _FLAG},
    ),
    "check": (cmd_check, [("file", str), ("predicate", tuple(_CHECKS))], {"json": _FLAG}),
    "verify": (cmd_verify, [("theorem", tuple(_THEOREMS)), ("file", str)], {"json": _FLAG}),
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
