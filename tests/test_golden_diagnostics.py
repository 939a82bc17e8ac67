"""Byte-identity of the diagnostics of seeded structural mutants of the corpus.

Each mutant is one edit of the decoded JSON tree of a positive fixture:

    delete     a key of an object or an entry of an array
    replace    a string, by another label of the same document or by a non-string
    rename     a key of an object, to another label of the same document
    duplicate  an entry of an array

The mutants are drawn from the fixtures in `SAMPLED`, the positive corpus
when the sample was pinned: a fixture added to that list would reshuffle
every mutant.  The edited tree is written back as JSON and parsed.
`golden_diagnostics.json` maps each mutant, named by its index, fixture,
edit and JSON path, to whether it parsed and to the sha256 of its
diagnostics, one `str(d)` a line.
The text mutants of `test_scanner.py` mostly stop at a syntax error; these
reach the builders, so a change to how a table is read shows up here.

Regenerate with `PYTHONPATH=src python tests/test_golden_diagnostics.py` only
when a diagnostic is meant to change, and say which one in the change log.
"""

import hashlib
import json
import pathlib
import random

from bicat_euler.catdsl import parse
from bicat_euler.cli import EXIT_INTERNAL, main
from test_golden_reports import PREDICATES, THEOREMS

GOLDEN = pathlib.Path(__file__).with_name("golden_diagnostics.json")
FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
COUNT, SEED = 3000, 20141001
SAMPLED = (
    "acyclic2.catj", "arrow-base-laxcat.catj", "arrow-bicat.catj", "arrow.catj", "bpt.catj", "bz2-2group.catj",
    "bz2-base-laxcat.catj", "bz2.catj", "d2-to-pt.catj", "d2.catj", "ez2-bicat.catj", "ez2-to-bz2.catj", "ez2.catj",
    "gr-psg-over-arrow.catj", "nochi-catgraph.catj", "pair.catj", "psg-collapse.catj", "psg.catj", "pt.catj",
    "span.catj", "trihom-const-psg-arrow.catj",
)
OPS = ("delete", "replace", "rename", "duplicate")
NON_STRINGS = (7, None, [], {})


def _members(node, path=()):
    """Yield (path, parent, value) for every member of every container, in document order."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,), node, value
        if isinstance(value, (dict, list)):
            yield from _members(value, path + (key,))


def _strings(node) -> set:
    """Every string of the tree, keys included."""
    return {value for path, _, value in _members(node) if isinstance(value, str)} | {
        path[-1] for path, parent, _ in _members(node) if isinstance(parent, dict)
    }


def _eligible(tree) -> dict[str, list[tuple]]:
    out = {op: [] for op in OPS}
    for path, parent, value in _members(tree):
        out["delete"].append(path)
        if isinstance(value, str):
            out["replace"].append(path)
        out["rename" if isinstance(parent, dict) else "duplicate"].append(path)
    return out


def _edit(tree, op: str, path: tuple, arg) -> None:
    parent = tree
    for key in path[:-1]:
        parent = parent[key]
    last = path[-1]
    if op == "delete":
        del parent[last]
    elif op == "replace":
        parent[last] = arg
    elif op == "rename":
        items = [(arg if key == last else key, value) for key, value in parent.items()]
        parent.clear()
        parent.update(items)
    else:
        parent.insert(last, json.loads(json.dumps(parent[last])))


def mutants():
    """Yield (name, text) for every mutant, from the fixed seed."""
    texts = {name: (FIXTURES / name).read_text(encoding="utf-8") for name in SAMPLED}
    trees = {name: json.loads(text) for name, text in texts.items()}
    labels = {name: sorted(_strings(tree)) for name, tree in trees.items()}
    eligible = {name: _eligible(tree) for name, tree in trees.items()}
    rng = random.Random(SEED)
    for i in range(COUNT):
        name = rng.choice(sorted(texts))
        op = rng.choice(OPS)
        path = rng.choice(eligible[name][op])
        arg = None
        if op in ("replace", "rename"):
            old = path[-1] if op == "rename" else None
            if op == "replace" and rng.randrange(4) == 0:
                arg = rng.choice(NON_STRINGS)
            else:
                arg = rng.choice([label for label in labels[name] if label != old])
        tree = json.loads(texts[name])
        _edit(tree, op, path, arg)
        where = "/" + "/".join(str(key) for key in path)
        suffix = f" {json.dumps(arg)}" if op in ("replace", "rename") else ""
        yield f"{i:04d} {name} {op} {where}{suffix}", json.dumps(tree, indent=1, ensure_ascii=False)


def _digest(text: str) -> dict:
    result = parse(text)
    lines = "\n".join(str(d) for d in result.diagnostics)
    return {"ok": result.ok, "diagnostics": hashlib.sha256(lines.encode("utf-8")).hexdigest()}


def test_golden_covers_every_mutant():
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == sorted(name for name, _ in mutants())


def test_mutant_diagnostics_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    changed = [name for name, text in mutants() if _digest(text) != golden[name]]
    assert not changed, changed[:5]


def test_no_command_form_exits_3_on_a_mutant_that_parses(tmp_path, capsys):
    # Every form of chi, check and verify, through `cli.main`, on every mutant that parses: a value that
    # passes validation may fail a check or be bad input (exit 1 or 2), but never trip an internal error.
    # Which mutants parse is read from the golden file, which the test above holds to the parser.
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    forms = [["chi", "{}"], ["chi", "{}", "--kind", "catgraph"]]
    forms += [["check", "{}", predicate] for predicate in PREDICATES]
    forms += [["verify", theorem, "{}"] for theorem in THEOREMS]
    path = tmp_path / "mutant.catj"
    crashed, parsed = [], 0
    for name, text in mutants():
        if not golden[name]["ok"]:
            continue
        parsed += 1
        path.write_text(text, encoding="utf-8")
        for form in forms:
            argv = [str(path) if word == "{}" else word for word in form]
            if main(argv) == EXIT_INTERNAL:
                crashed.append((name, " ".join(form)))
        capsys.readouterr()
    assert parsed == 169 and len(forms) == 13
    assert not crashed, crashed[:5]


if __name__ == "__main__":
    golden = {name: _digest(text) for name, text in mutants()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    failing = sum(not entry["ok"] for entry in golden.values())
    print(f"{len(golden)} mutants written to {GOLDEN.name}, {failing} with diagnostics")
