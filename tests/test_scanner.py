"""The token-at-a-time `.catj` scanner against the character-at-a-time oracle.

Every fixture, every negative fixture, a list of edge cases and seeded
mutants of the fixtures go through both scanners.  Where the oracle reads a
tree, the scanner must read the same tree: values, positions and key
positions, in the same order and of the same types.  Where the oracle
reports E005, the scanner must report the same line, column and message.
Where the oracle raises on a malformed number, the scanner must report
E005.  Where the oracle runs out of recursion depth, the scanner reads on:
its nesting depth is bounded by memory.  `parse` must not raise on any of
these inputs.
"""

import pathlib
import random

import pytest

import scanner_oracle
from bicat_euler.catdsl import _Scanner, _SyntaxProblem, parse

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
CORPUS = {path.relative_to(FIXTURES).as_posix(): path.read_text(encoding="utf-8")
          for path in sorted(FIXTURES.rglob("*.catj"))}

# Characters a mutation inserts: JSON syntax, escapes, number and literal
# parts, and a few non-ASCII ones (an accented letter, an Arabic-Indic
# digit, which is a decimal digit, and a superscript two, which is a digit
# but not a decimal one).
ALPHABET = '{}[]:,"\\/ \n\t\r-+.eE0123456789tfnulbx\x00é٣²'

EDGE_CASES = [
    "", " ", "\n", "-", "-x", "1 ", "1x", "[1.e3, 1.5e-3, -1E+2, 00, -0, 1.]",
    "[1e]", "[1e+]", "[1E-]", '{"kind": 1e}', "[1²]", "[-²]", "[-٣, ١٢]", "[٣]",
    "[" + "1" * 5000 + "]", "[0." + "1" * 5000 + "]",
    '["a\\nb", "\\u00e9\\ud83d\\ude00", "\\"\\\\\\/\\b\\f\\r\\t"]', '"\\u12"', '"\\u12G4"', '"\\q"', '"\\',
    '"abc', '["a\tb\rc\x00"]', '[\n"a\\n\nb", "c"]', '{"a\\u00e9\nb": 1, "x": "y\nz"}',
    '{"a": 1, "a": 2}', '{"a\\u0061": 1, "aa": 2}', '{"a": 1,}', "[1,]", "[", "{", '{"a"', '{"a":',
    '{"a" 1}', "[tru]", "[true, false, null]", "nullx", "[1 2]", '{"a":1 "b":2}', '{"a":1}}', "[}",
    "{]", '{"a":1]', "\r\n[\r\n1\r\n]", '{"x":{"y":{"z":[]},"w":{}},"v":[[],[{}]]}',
    "[" * 300 + "]" * 300, "[" * 5000, "[" * 5000 + "]" * 5000, '{"a":' * 3000 + "1" + "}" * 3000,
]


def mutants(count: int, seed: int):
    """Corpus documents with one to three random inserts, deletes, splices or cuts."""
    rng = random.Random(seed)
    texts = list(CORPUS.values())
    for _ in range(count):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(text) + 1)
            op = rng.randrange(4)
            if op == 0:
                text = text[:i] + rng.choice(ALPHABET) + text[i:]
            elif op == 1:
                text = text[:i] + text[i + 1 :]
            elif op == 2:
                j = rng.randrange(len(text) + 1)
                text = text[:i] + text[j : j + rng.randint(1, 24)] + text[i:]
            else:
                text = text[:i]
        yield text


def flat(node) -> list[tuple]:
    """The tree in document order, one tuple per node, read without recursion."""
    out, todo = [], [node]
    while todo:
        node = todo.pop()
        value = node.value
        if isinstance(value, dict):
            out.append(("object", node.line, node.col, list(value), list(node.key_pos.items())))
            todo.extend(reversed(list(value.values())))
        elif isinstance(value, list):
            out.append(("array", node.line, node.col, node.key_pos))
            todo.extend(reversed(value))
        else:
            out.append((type(value).__name__, repr(value), node.line, node.col, node.key_pos))
    return out


def scan(scanner_class, text: str):
    """The flattened tree, or the E005 triple."""
    try:
        return flat(scanner_class(text).parse())
    except _SyntaxProblem as exc:
        return ("E005", exc.line, exc.col, exc.message)


def disagreement(text: str):
    """None when the scanner agrees with the oracle and parse does not raise."""
    got = scan(_Scanner, text)
    try:
        expected = scan(scanner_oracle._Scanner, text)
    except ValueError:
        expected = "E005"
    except RecursionError:
        expected = got  # any tree or E005 will do, as long as parse does not raise
    if expected == "E005" and not isinstance(got, tuple):
        return "oracle raised ValueError, scanner read a tree"
    if expected != "E005" and got != expected:
        return f"oracle {str(expected)[:80]}, scanner {str(got)[:80]}"
    try:
        parse(text)
    except Exception as exc:  # parse must let nothing escape
        return f"parse raised {exc!r}"
    return None


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_scanner_matches_oracle_on_corpus(name):
    assert disagreement(CORPUS[name]) is None


@pytest.mark.parametrize("text", EDGE_CASES, ids=range(len(EDGE_CASES)))
def test_scanner_matches_oracle_on_edge_cases(text):
    assert disagreement(text) is None


def test_scanner_matches_oracle_on_mutants():
    failures = [(text, why) for text in mutants(1200, seed=20141001) if (why := disagreement(text))]
    assert not failures, failures[:3]

