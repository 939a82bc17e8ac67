"""The .catj text format: parser with span diagnostics and canonical serializer.

Concrete syntax is JSON with a top-level "kind" field; hom categories are
nested category objects keyed "x|y" and composition tables are arrays of
[g, f, g∘f] triples.  Parsing recovers and continues: every problem in a
document is reported, each with a line/column span.

A document in strict JSON with no `\\u` escape is read by the C JSON decoder
that `json.loads` drives (`_json.make_scanner`) and built from its plain
values.  Each table is held decoded once, and only until its rows are built.
The reader walks the root object key by key and decodes each entry of a
`|`-keyed row table alone, turning its rows into tuples of interned labels
before it reads the next (`_decoded`), so a document's decoded rows are
never all alive at once; the builder takes each entry out of the decoded
tree as it reads it (`_keyed_triples`), so the rows are freed once they are
in the value's table.  A category's tables are interned in place, a chunk of
rows at a time (`_interned_rows`).  The text itself is held only while it is
decoded, so a text passed with a function that reads it again
(`parse(text, read_again)`), as the command line passes a file's text, is
freed before the build.  Positions are computed only
when a problem is reported: at the first problem, or when the decoder
rejects the text, the text is taken again, the positional scanner reads it
and the builders run on its nodes.  The accepted language and every
diagnostic are the same either way.  The decoder merges equal category
sub-documents into one object while it reads them (`_shared_categories`),
and each category node is built once, so a repeated hom is held, read and
validated once; the scanner's nodes are never shared, so each copy in a
document with a problem reports at its own position.
`dumps` writes a value as `json.dumps(value, indent=…, sort_keys=True)`
does, through `_json`'s string encoder, for `serialize` and the command
line's reports, so no command loads the `json` package.

Each table shape has one reader, and each shape the serializer writes has
one writer, its inverse: `_Builder.fields` reads an object with required
fields; `_labels` reads an object-label array; `_split_items` reads a
`|`-keyed object; `_keyed_triples` reads a `|`-keyed table of rows, which
`_keyed_triple_body` writes; `_label_table` reads an object keyed by
declared labels (fibers, pullbacks); and `_lax_functor_maps` reads the
object map and hom functors of a lax functor, which `_fiber_lax_body` writes;
and `_validated` runs the validator of every container, so each container,
nested or not, reports its own law violations.

Diagnostic codes:
  E001 reference to an undeclared object/morphism/cell, or a table key naming no declared label
  E002 duplicate label
  E003 missing or ill-typed field
  E004 unknown kind
  E005 JSON syntax error
  E006 malformed composite key (expected "x|y", "x|y|z", ...)
  E010 incomplete functor map
  E012 missing pullback functor
  E013 missing fiber
  E014 missing trihomomorphism 2-cell component (names alpha and y)
Validation failures surface verbatim: each violated category or functor law
under its law code (MissingComposite, IdentityLawViolation,
AssociativityViolation, DanglingEndpoint), any other validation error under
its class name (MissingCompositionData, IncoherentData, IllTypedComponent).
"""

from __future__ import annotations

import re
from itertools import chain
from sys import intern
from types import SimpleNamespace

try:
    from _json import encode_basestring_ascii as _quoted, make_scanner as _make_scanner
except ImportError:  # no C accelerator: the `json` package's own codec
    from json import JSONDecoder
    from json.encoder import encode_basestring_ascii as _quoted

    def _make_scanner(context):
        return JSONDecoder(
            object_pairs_hook=context.object_pairs_hook, parse_constant=context.parse_constant, strict=context.strict
        ).scan_once

from .exactq import Record
from .fincat import FinCategory, Functor, InvalidCategory, InvalidInput, validate_category, validate_functor

# Builders and `serialize` import other kind modules when run: a category loads none.
TYPE_CHECKING = False  # typing is imported for annotations only, never at run time
if TYPE_CHECKING:
    from typing import Callable, Mapping, Optional

    from .bicat import Bicategory, CatGraph, LaxFunctorBicat
    from .bifib import Trihomomorphism
    from .fib1 import LaxFunctorToCat

class Diagnostic(Record):
    line: int
    col: int
    code: str
    message: str

    def __str__(self):
        return f"{self.line}:{self.col} {self.code} {self.message}"


class Document(Record):
    kind: str
    value: object


class ParseResult(Record):
    document: Optional[Document]
    diagnostics: tuple[Diagnostic, ...]

    @property
    def ok(self) -> bool:
        return self.document is not None and not self.diagnostics


class JNode(Record):
    value: object
    line: int
    col: int
    key_pos: Optional[dict] = None


class _SyntaxProblem(Exception):
    def __init__(self, line, col, message):
        self.line, self.col, self.message = line, col, message
        super().__init__(message)


# The scanner's patterns, compiled when a scanner is made (`re` caches them), not at
# import: only a document that needs a diagnostic reaches the scanner.
# A value or key with the whitespace before it, in one match: a string with
# no escape or raw newline, a number, a literal, any other character, or ""
# at the end of the text.  Every position matches, so `match` never fails.
_TOKEN = (
    r'([ \t\r\n]*)(?:"([^"\\\n]*)"|((?:-\d|[0-9])\d*(?:\.\d*)?(?:[eE][+-]?\d*)?)|(true|false|null)|([^ \t\r\n]|\Z))'
)
_SPACE = r"[ \t\r\n]*"
_SPACE_CHARS = frozenset(" \t\r\n")
_STRING_RUN = r'[^"\\]*'
_HEX4 = r"[0-9a-fA-F]{4}"
_ESCAPES = {'"': '"', "\\": "\\", "/": "/", "b": "\b", "f": "\f", "n": "\n", "r": "\r", "t": "\t"}
_LITERALS = {"true": True, "false": False, "null": None}
# What the token at the scan position may be: a value, a value or "]", a key, or a key or "}".
_VALUE, _FIRST_ITEM, _KEY, _FIRST_KEY = range(4)


class _Scanner:
    """JSON reader that records the position of every value.

    Each value or key is read, with the whitespace before it, in one regex
    match; separators are read by peeking at one character.  Open containers
    sit on an explicit stack, so nesting depth is bounded by memory, not by
    the recursion limit.  Line and column are 1-based and count characters;
    the line count changes only when consumed text holds a newline.
    """

    def __init__(self, text: str):
        self.text = text
        patterns = (_TOKEN, _SPACE, _STRING_RUN, _HEX4)
        self.token, self.space, self.string_run, self.hex4 = (re.compile(p).match for p in patterns)

    def _fail(self, i: int, message: str):
        text = self.text
        raise _SyntaxProblem(text.count("\n", 0, i) + 1, i - text.rfind("\n", 0, i), message)

    def _lines(self, start: int, end: int, line: int, line_start: int) -> tuple[int, int]:
        """The line, and the index where it starts, after consuming text[start:end]."""
        newlines = self.text.count("\n", start, end)
        if newlines:
            return line + newlines, self.text.rfind("\n", start, end) + 1
        return line, line_start

    def parse(self) -> JNode:
        text, match, space = self.text, self.token, self.space
        line, line_start, pos = 1, 0, 0
        # Open containers, innermost last, each with its key in its parent and its parent's members.
        stack: list[tuple[JNode, Optional[str], object]] = []
        members = None  # the list or dict of the innermost open container
        key = None  # the member being read, while that container is an object
        expect = _VALUE
        while True:
            m = match(text, pos)
            ws, s, num, lit, ch = m.groups()
            tok = pos + len(ws)
            if "\n" in ws:
                line += ws.count("\n")
                line_start = pos + ws.rfind("\n") + 1
            pos = m.end()
            row, col = line, tok - line_start + 1
            if ch == '"':  # a string with escapes, raw newlines or no closing quote
                s, pos = self._string(tok + 1)
                line, line_start = self._lines(tok, pos, line, line_start)
            if expect >= _KEY and not (ch == "}" and expect == _FIRST_KEY):
                if s is None:
                    self._fail(tok, "expected a string key")
                if s in members:
                    self._fail(pos, f"duplicate key {s!r}")
                stack[-1][0].key_pos[s] = (row, col)
                key = s
                c = text[pos : pos + 1]
                if c in _SPACE_CHARS:
                    end = space(text, pos).end()
                    line, line_start = self._lines(pos, end, line, line_start)
                    pos = end
                    c = text[pos : pos + 1]
                if c != ":":
                    self._fail(pos, "expected ':'")
                pos += 1
                expect = _VALUE
                continue
            if s is not None:
                node = JNode(s, row, col)
            elif ch == "{" or ch == "[":
                node = JNode({}, row, col, {}) if ch == "{" else JNode([], row, col)
                stack.append((node, key, members))
                members = node.value
                key, expect = None, _FIRST_KEY if ch == "{" else _FIRST_ITEM
                continue
            elif ch == "}" and expect == _FIRST_KEY or ch == "]" and expect == _FIRST_ITEM:
                node, key, members = stack.pop()
            elif num is not None:
                try:
                    node = JNode(int(num) if num.lstrip("-").isdigit() else float(num), row, col)
                except ValueError:  # an exponent with no digits, or an integer past int's digit limit
                    self._fail(tok, "malformed number")
            elif lit is not None:
                node = JNode(_LITERALS[lit], row, col)
            elif ch == "-" or ch == "":  # a "-" with no digit, or the end where a value should start
                self._fail(tok + len(ch), "malformed number")
            else:
                self._fail(tok, "expected a JSON value")
            # A value is complete: attach it, then read "," or closing brackets.
            while stack:
                if key is None:
                    members.append(node)
                else:
                    members[key] = node
                c = text[pos : pos + 1]
                if c in _SPACE_CHARS:
                    end = space(text, pos).end()
                    line, line_start = self._lines(pos, end, line, line_start)
                    pos = end
                    c = text[pos : pos + 1]
                if c == ",":
                    pos += 1
                    expect = _VALUE if key is None else _KEY
                    break
                close = "]" if key is None else "}"
                if c != close:
                    self._fail(pos, f"expected {close!r}")
                pos += 1
                node, key, members = stack.pop()
            else:
                pos = space(text, pos).end()
                if pos != len(text):
                    self._fail(pos, "trailing data after document")
                return node

    def _string(self, i: int) -> tuple[str, int]:
        """The string whose opening quote is at i - 1, and the index after its closing quote."""
        text = self.text
        parts = []
        while True:
            end = self.string_run(text, i).end()
            parts.append(text[i:end])
            if end == len(text):
                self._fail(end, "unterminated string")
            if text[end] == '"':
                return "".join(parts), end + 1
            esc = text[end + 1 : end + 2]
            if esc == "u":
                if not self.hex4(text, end + 2):
                    self._fail(end + 2, "bad unicode escape")
                parts.append(chr(int(text[end + 2 : end + 6], 16)))
                i = end + 6
            elif esc in _ESCAPES:
                parts.append(_ESCAPES[esc])
                i = end + 2
            else:
                self._fail(end + 1, f"bad escape \\{esc}")


class _Builder:
    def __init__(self):
        self.diags: list[Diagnostic] = []
        # id(node) -> validated category, so a node that the decoder shares among equal
        # category sub-documents (`_shared_categories`) is built once.
        self.categories: dict[int, FinCategory] = {}

    def err(self, node: JNode, code: str, message: str):
        self.diags.append(Diagnostic(node.line, node.col, code, message))

    def key_err(self, node: JNode, key: str, code: str, message: str):
        """A diagnostic at the position of `key` in the object `node`."""
        line, col = (node.key_pos or {}).get(key, (node.line, node.col))
        self.diags.append(Diagnostic(line, col, code, message))

    def object_of(self, node: JNode, what: str) -> Optional[dict]:
        if not isinstance(node.value, dict):
            self.err(node, "E003", f"{what} must be a JSON object")
            return None
        return node.value

    def array_of(self, node: JNode, what: str) -> Optional[list]:
        if not isinstance(node.value, list):
            self.err(node, "E003", f"{what} must be a JSON array")
            return None
        return node.value

    def string_of(self, node: JNode, what: str) -> Optional[str]:
        if not isinstance(node.value, str):
            self.err(node, "E003", f"{what} must be a string")
            return None
        return node.value

    def fields(self, node: JNode, what: str, *keys: str) -> Optional[tuple]:
        """The object `what` and the nodes of its required fields `keys`, or None.

        None when `node` is no object or lacks a field: E003 for each one missing.
        """
        obj = self.object_of(node, what)
        if obj is None:
            return None
        missing = [key for key in keys if key not in obj]
        for key in missing:
            self.err(node, "E003", f"missing field {key!r}")
        return None if missing else (obj, *map(obj.get, keys))

    def string_map(self, node: JNode, what: str, labels=None, kind: str = "") -> dict[str, str]:
        """The object `what` as a dict of strings.

        Given `labels`, a key outside them gets one E001 at the key, saying it is no `kind`, and is dropped.
        """
        out = {}
        obj = self.object_of(node, what)
        if obj is None:
            return out
        for key, sub in obj.items():
            if labels is not None and key not in labels:
                self.key_err(node, key, "E001", f"{what} key {key!r} is not a {kind}")
                continue
            val = self.string_of(sub, f"{what}[{key}]")
            if val is not None:
                out[key] = val
        return out

    def drained(self, node: JNode, what: str):
        """The entries of the object `what`, as (key, sub) pairs; the scanner's nodes stay, for later diagnostics."""
        return (self.object_of(node, what) or {}).items()

    def triples(self, node: JNode, what: str, width: int = 3) -> list[tuple]:
        out = []
        arr = self.array_of(node, what)
        if arr is None:
            return out
        for item in arr:
            row = self.array_of(item, f"{what} entry")
            if row is None:
                continue
            if len(row) != width or any(not isinstance(cell.value, str) for cell in row):
                self.err(item, "E003", f"{what} entries must be arrays of {width} strings")
                continue
            out.append(tuple(cell.value for cell in row))
        return out


class _NeedsPositions(Exception):
    """The plain reading met a problem: only the scanner can say where it is."""


class _PlainBuilder(_Builder):
    """The builders on the decoder's plain values; the first problem ends the build."""

    def err(self, *_):
        raise _NeedsPositions

    key_err = err

    def object_of(self, node, what: str) -> dict:
        if not isinstance(node, dict):
            raise _NeedsPositions
        return node

    def array_of(self, node, what: str) -> list:
        if not isinstance(node, list):
            raise _NeedsPositions
        return node

    def string_of(self, node, what: str) -> str:
        if not isinstance(node, str):
            raise _NeedsPositions
        return node

    def drained(self, node, what: str):
        """The entries of the object `what`, in order, each removed from the decoded tree as it is given.

        So a `|`-keyed row table's rows are freed as soon as the caller has
        read them (`_keyed_triples`); a later problem rereads the text with
        the scanner, which never sees the decoded tree.
        """
        obj = self.object_of(node, what)
        for key in list(obj):
            yield key, obj.pop(key)

    def triples(self, node, what: str, width: int = 3) -> tuple[tuple, ...]:
        """The rows as tuples of interned labels.

        A table repeats a few labels in many cells, so interning keeps one
        string per label.  The decoder gives them already built, as a tuple
        that may be shared and is read as it is: each entry of a row table,
        built while the next is still unread (`_decoded`), and a category's
        rows (`_shared_categories`).  Any other table's decoded array is
        interned here, in place (`_interned_rows`), so it holds the same
        tuples as the rows returned.
        """
        rows = node if type(node) is tuple else _interned_rows(node)
        if rows is None or set(map(len, rows)) - {width}:  # no array of arrays of strings, or a row of another width
            raise _NeedsPositions
        if type(node) is list:
            node.clear()
        return rows


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise _NeedsPositions
    return obj


_CATEGORY_KEYS = frozenset(("objects", "morphisms", "identity", "compose"))


def _is_table(rows) -> bool:
    """Whether `rows` is an array of arrays: `tuple` of a string or an object would pass for a row."""
    if type(rows) is not list:
        return False
    for row in rows:
        if type(row) is not list:
            return False
    return True


# Rows interned per step of `_interned_rows`: a chunk's decoded arrays are freed before the next is read.
_CHUNK = 128


def _interned_rows(rows) -> Optional[tuple]:
    """An array of arrays of strings, all of one width, as a tuple of tuples of interned strings, or None.

    The array is interned in place, one chunk of rows at a time: the
    chunk's cells go through `intern` in one C-level pass and come back as
    tuples of the table's width, so each chunk's decoded arrays and strings
    are freed before the next chunk is read, and only the rows' new tuples
    outlive the call.  None leaves the array as decoded, except where a
    chunk after the first holds a cell that is no string: the chunks before
    it are tuples by then, and no builder takes such an array.
    """
    if not _is_table(rows):
        return None
    widths = set(map(len, rows))
    if not widths:
        return ()
    width = widths.pop()
    if widths or not width:  # rows of more than one width, or of none
        return None
    try:
        for start in range(0, len(rows), _CHUNK):
            cells = map(intern, chain.from_iterable(rows[start : start + _CHUNK]))
            rows[start : start + _CHUNK] = zip(*[cells] * width)
    except TypeError:  # a cell that is no string
        return None
    return tuple(rows)


def _shared_categories():
    """An `object_pairs_hook` for one decoding that returns one object for equal category sub-documents.

    An object whose keys are exactly a category's four tables, each of the
    container type that builds, gets its `morphisms` and `compose` rows as
    tuples of interned labels, and is kept under its four tables, so a later
    equal copy is replaced by the first and freed as soon as it closes.  The
    key holds the object's own tuples, so it keeps alive nothing that its
    object does not hold.  A copy is looked up only when a category with a
    `compose` table of the same size has been seen, so the first category of
    each size builds no key of its own; a repeated hom is looked up as one.  A
    copy equal to a first copy that builds holds the same strings in the
    same arrays, since only a string equals a string.
    Any other object is returned as decoded; the builders raise
    `_NeedsPositions` where its tables do not build.  `_decoded` calls the
    hook on every object: on each hom category while it decodes a `hom`
    table in one call, and on each object it walks key by key, such as a
    fiber category.
    """
    seen: dict[tuple, dict] = {}
    sizes: set[int] = set()

    def hook(pairs: list) -> dict:
        obj = _unique_keys(pairs)
        if len(obj) != 4 or obj.keys() != _CATEGORY_KEYS:
            return obj
        objects, morphisms, identity, compose = obj["objects"], obj["morphisms"], obj["identity"], obj["compose"]
        if type(objects) is not list or type(identity) is not dict or not (_is_table(morphisms) and _is_table(compose)):
            return obj
        labels, units = tuple(objects), tuple(identity.items())
        size = len(compose)
        try:
            if size in sizes:
                shared = seen.get((labels, tuple(map(tuple, morphisms)), units, tuple(map(tuple, compose))))
                if shared is not None:
                    return shared
            hash((labels, units))  # the key it is kept under must hash
        except TypeError:  # an array or object where a label should be
            return obj
        morphisms = _interned_rows(morphisms)
        if morphisms is None:  # a cell that is no string, or rows of more than one width
            return obj
        obj["morphisms"] = morphisms
        compose = _interned_rows(compose)
        if compose is None:
            return obj
        obj["compose"] = compose
        sizes.add(size)
        seen[labels, morphisms, units, compose] = obj
        return obj

    return hook


def _no_constant(name: str):
    raise _NeedsPositions


def _space(text: str, i: int) -> int:
    """The index of the first character at or after i that is no JSON whitespace."""
    while text[i : i + 1] in _SPACE_CHARS:
        i += 1
    return i


def _key_at(text: str, scan, i: int) -> tuple[str, int]:
    """The key at i and the index of its value."""
    if text[i : i + 1] != '"':
        raise ValueError(f"expected a string key at {i}")
    key, i = scan(text, i)
    i = _space(text, i)
    if text[i : i + 1] != ":":
        raise ValueError(f"expected ':' at {i}")
    return key, _space(text, i + 1)


def _walked(text: str, scan, hook, start: int, root: bool = False) -> tuple[object, int]:
    """The object at `start`, read as `_decoded` says, and the index after it."""
    i = _space(text, start + 1)
    if text[i : i + 1] == "}":
        return hook([]), i + 1
    key, i = _key_at(text, scan, i)
    first = text[i : i + 1]
    if not root and (first == '"' or first == "{" and "|" in key):  # a label map or a table of objects
        return scan(text, start)
    rows = first == "[" and "|" in key
    pairs = []
    while True:
        if rows:
            value, i = scan(text, i)
            interned = _interned_rows(value)
            if interned is not None:
                value = interned
        elif text[i : i + 1] == "{":
            value, i = _walked(text, scan, hook, i)
        else:
            value, i = scan(text, i)
        pairs.append((key, value))
        i = _space(text, i)
        if text[i : i + 1] == "}":
            return hook(pairs), i + 1
        if text[i : i + 1] != ",":
            raise ValueError(f"expected ',' or '}}' at {i}")
        key, i = _key_at(text, scan, _space(text, i + 1))


def _decoded(text: str, hook):
    """The value of a JSON text as `json.loads(text, object_pairs_hook=hook, parse_constant=_no_constant, strict=False)`
    reads it, except that each entry of a row table that holds rows of strings is a tuple of tuples of interned labels.

    The root object is walked key by key, and so is each object inside a
    walked object, except two kinds, each decoded in one call: a label map
    (its first value is a string) and a `|`-keyed table of objects (`hom`,
    `hom_functors`).  A `|`-keyed table of arrays is a row table
    (`compose1`, `hcompose2`, `associator`, the unitors, `phi`): each of its
    entries is decoded alone, and its rows become tuples of interned labels
    before the next entry is read, so only one entry's decoded rows are
    alive at a time.  A walked object goes through `hook` as a decoded one
    does.

    Raises StopIteration, ValueError or SystemError where `json.loads` raises
    its JSONDecodeError: before 3.12 the C decoder raises that class only
    when `json.decoder`, which defines it, is loaded, and SystemError else.
    The walk recurses once per walked object, so nesting deeper than the
    recursion limit raises RecursionError.
    """
    context = SimpleNamespace(
        strict=False, object_hook=None, object_pairs_hook=hook, parse_float=float, parse_int=int, parse_constant=_no_constant
    )
    scan = _make_scanner(context)
    start = _space(text, 0)  # the whitespace `json.loads` skips before the root value
    value, end = _walked(text, scan, hook, start, root=True) if text[start : start + 1] == "{" else scan(text, start)
    if text[end:].strip(" \t\r\n"):  # and after it
        raise ValueError(f"extra data at {end}")
    return value


def _read_plain(text: str) -> Optional[ParseResult]:
    """The result of a well-formed document read by the C JSON decoder, or None.

    The decoder reads the document entry by entry (`_decoded`), so at most
    one entry of a row table is alive as decoded rows; the builders then run
    on what it read, and take each row table's entries out of it as they
    go.  The text is let go of once decoded, so a caller that keeps no
    reference of its own (`parse`) has it freed before the build.  None
    means the text needs the scanner: the decoder rejects it or stops
    partway (a key that is no string, a duplicate key, nesting past the
    recursion limit), it holds a `\\u` escape (the decoder merges a
    surrogate pair, the scanner keeps two characters), or the builders find
    a problem, whose position only the scanner knows.
    Whatever this accepts, the scanner reads as the same values.
    """
    if "\\u" in text:
        return None
    try:
        root = _decoded(text, _shared_categories())
    except (StopIteration, ValueError, SystemError, RecursionError, _NeedsPositions):
        return None
    del text
    try:
        return _build_document(_PlainBuilder(), root)
    except _NeedsPositions:
        return None


def _labels(b: _Builder, node: JNode) -> list[str]:
    """The object labels of an "objects" array, in order; E002 on a repeated label."""
    labels = []
    for item in b.array_of(node, "objects") or []:
        label = b.string_of(item, "object label")
        if label is not None:
            if label in labels:
                b.err(item, "E002", f"duplicate object {label!r}")
            else:
                labels.append(label)
    return labels


def _split_items(b: _Builder, node: JNode, what: str, arity: int, items=None):
    """Yield (parts, key, sub) for each entry of the `|`-keyed object `what` whose key has `arity` parts.

    `items` gives the entries, `node`'s own by default.  Any other key gets E006 and is skipped.
    """
    for key, sub in (b.object_of(node, what) or {}).items() if items is None else items:
        parts = tuple(map(intern, key.split("|")))
        if len(parts) != arity or not all(parts):
            b.key_err(node, key, "E006", f"key {key!r} must have {arity} |-separated parts")
        else:
            yield parts, key, sub


def _keyed_triples(b: _Builder, node: JNode, what: str, key_arity: int, width: int = 3) -> dict:
    """A `|`-keyed table of rows: {"x|y|...": [[*rest, value], ...]} -> {(parts, *rest): value}.

    Each entry is read once, as the builder drains it (`_Builder.drained`).
    """
    out = {}
    for parts, key, sub in _split_items(b, node, what, key_arity, b.drained(node, what)):
        for row in b.triples(sub, f"{what}[{key}]", width):
            out[(parts,) + row[:-1]] = row[-1]
    return out


def _label_table(b: _Builder, node: JNode, what: str, labels, build, stray: str, code: str, missing: str) -> dict:
    """The object `what` keyed by the declared `labels`, each entry read by build(key, sub).

    A key outside `labels` gets E001 with the message `stray`, and each label
    with no key gets `code` with the message `missing`; both messages are
    format strings that take the key or label.
    """
    out = {}
    table = b.object_of(node, what) or {}
    for key, sub in table.items():
        if key not in labels:
            b.err(sub, "E001", stray.format(key))
            continue
        value = build(key, sub)
        if value is not None:
            out[key] = value
    for label in labels:
        if label not in table:
            b.err(node, code, missing.format(label))
    return out


def _validated(b: _Builder, node: JNode, reported: int, validate, *args):
    """validate(*args), or None when the container at `node` has a diagnostic since `reported` or fails validation.

    A failure becomes diagnostics at `node`: each violation of an
    InvalidCategory under its own code, any other InvalidInput under its
    class name.
    """
    if len(b.diags) != reported:
        return None
    try:
        return validate(*args)
    except InvalidCategory as exc:
        for violation in exc.violations:
            b.err(node, violation.code, violation.message)
    except InvalidInput as exc:
        b.err(node, type(exc).__name__, str(exc))
    return None


def _build_category(b: _Builder, node: JNode) -> Optional[FinCategory]:
    cat = b.categories.get(id(node))
    if cat is not None:
        return cat
    reported = len(b.diags)
    fields = b.fields(node, "category", "objects", "morphisms", "identity", "compose")
    if fields is None:
        return None
    _, objects_node, morphisms_node, identity_node, compose_node = fields
    objects = _labels(b, objects_node)
    morphisms = []
    names = set()
    for name, src, dst in b.triples(morphisms_node, "morphisms"):
        if name in names:
            b.err(morphisms_node, "E002", f"duplicate morphism {name!r}")
            continue
        names.add(name)
        for endpoint in (src, dst):
            if endpoint not in objects:
                b.err(morphisms_node, "E001", f"morphism {name!r} references undeclared object {endpoint!r}")
        morphisms.append((name, src, dst))
    identity = {}
    for key, sub in (b.object_of(identity_node, "identity") or {}).items():
        val = b.string_of(sub, f"identity[{key}]")
        if key not in objects:
            b.err(sub, "E001", f"identity key {key!r} is not a declared object")
            continue
        if val is not None:
            if val not in names:
                b.err(sub, "E001", f"identity of {key!r} references undeclared morphism {val!r}")
            identity[key] = val
    compose = {}
    for g, f, h in b.triples(compose_node, "compose"):
        for ref in (g, f, h):
            if ref not in names:
                b.err(compose_node, "E001", f"compose entry references undeclared morphism {ref!r}")
        compose[(g, f)] = h
    cat = _validated(b, node, reported, validate_category, objects, morphisms, identity, compose)
    if cat is not None:
        b.categories[id(node)] = cat
    return cat


def _check_object_map(b: _Builder, node: JNode, object_map: dict, sources, targets):
    """E001 at each key of `object_map` that is no source object, else at each image that is no target object."""
    for x, img in object_map.items():
        if x not in sources:
            b.key_err(node, x, "E001", f"object_map key {x!r} is not a source object")
        elif img not in targets:
            b.err(node, "E001", f"object_map[{x!r}] references undeclared object {img!r}")


def _check_stray_keys(b: _Builder, node: JNode, table: dict, keys, what: str, kind: str):
    """E001 at each key of the object `what` that is not in `keys`, saying it is no `kind`."""
    for key in table:
        if key not in keys:
            b.key_err(node, key, "E001", f"{what} key {key!r} is not a {kind}")


def _build_plain_functor(b: _Builder, node: JNode, source: FinCategory, target: FinCategory) -> Optional[Functor]:
    reported = len(b.diags)
    fields = b.fields(node, "functor maps", "object_map", "morphism_map")
    if fields is None:
        return None
    _, object_node, morphism_node = fields
    object_map = b.string_map(object_node, "object_map")
    morphism_map = b.string_map(morphism_node, "morphism_map")
    for x in source.objects:
        if x not in object_map:
            b.err(object_node, "E010", f"object_map is missing {x!r}")
    for m in source.morphisms:
        if m.name not in morphism_map:
            b.err(morphism_node, "E010", f"morphism_map is missing {m.name!r}")
    _check_object_map(b, object_node, object_map, source.objects, target.objects)
    for m, img in morphism_map.items():
        if m not in source._by_name:
            b.key_err(morphism_node, m, "E001", f"morphism_map key {m!r} is not a source morphism")
        elif img not in target._by_name:
            b.err(morphism_node, "E001", f"morphism_map[{m!r}] references undeclared morphism {img!r}")
    return _validated(b, node, reported, validate_functor, source, target, object_map, morphism_map)


def _build_functor(b: _Builder, node: JNode) -> Optional[Functor]:
    fields = b.fields(node, "functor", "source", "target")
    if fields is None:
        return None
    _, source_node, target_node = fields
    source = _build_category(b, source_node)
    target = _build_category(b, target_node)
    if source is None or target is None:
        return None
    return _build_plain_functor(b, node, source, target)


def _objects_and_hom(b: _Builder, objects_node: JNode, hom_node: JNode) -> tuple[list[str], dict]:
    """The object labels and the hom categories, keyed (x, y), of a catgraph or bicategory."""
    objects = _labels(b, objects_node)
    declared = set(objects)
    hom = {}
    for parts, key, sub in _split_items(b, hom_node, "hom", 2):
        for label in parts:
            if label not in declared:
                b.key_err(hom_node, key, "E001", f"hom key references undeclared object {label!r}")
        cat = _build_category(b, sub)
        if cat is not None:
            hom[parts] = cat
    return objects, hom


def _build_catgraph(b: _Builder, node: JNode) -> Optional[CatGraph]:
    from .bicat import make_catgraph
    reported = len(b.diags)
    fields = b.fields(node, "catgraph", "objects", "hom")
    if fields is None:
        return None
    _, objects_node, hom_node = fields
    return _validated(b, node, reported, make_catgraph, *_objects_and_hom(b, objects_node, hom_node))


def _build_bicategory(b: _Builder, node: JNode) -> Optional[Bicategory]:
    from .bicat import validate_bicategory
    reported = len(b.diags)
    fields = b.fields(node, "bicategory", "objects", "hom", "identity1", "compose1")
    if fields is None:
        return None
    obj, objects_node, hom_node, identity_node, compose_node = fields
    objects, hom = _objects_and_hom(b, objects_node, hom_node)
    identity1 = b.string_map(identity_node, "identity1", objects, "declared object")
    compose1 = _keyed_triples(b, compose_node, "compose1", 3)
    hcompose2 = _keyed_triples(b, obj["hcompose2"], "hcompose2", 3) if "hcompose2" in obj else None
    associator = _keyed_triples(b, obj["associator"], "associator", 4, width=4) if "associator" in obj else None
    unitors = {}
    for key in ("unitor_l", "unitor_r"):
        if key in obj:
            rows = _keyed_triples(b, obj[key], key, 2, width=2)
            unitors[key] = {(x, y, f): cell for ((x, y), f), cell in rows.items()}
    return _validated(
        b, node, reported, validate_bicategory,
        objects, hom, identity1, compose1, hcompose2, associator, unitors.get("unitor_l"), unitors.get("unitor_r"),
    )


def _lax_functor_maps(b: _Builder, object_node: JNode, hf_node: JNode, source: Bicategory, target: Bicategory):
    """The object map and the hom functors, keyed (x, y), of a lax functor source -> target.

    None when the object map misses a source object (E010), has a key that
    is no source object or sends one outside `target` (E001); a missing hom
    functor gets E010, and a `hom_functors` key that names no source pair one
    E001 at that key.
    """
    reported = len(b.diags)
    object_map = b.string_map(object_node, "object_map")
    for x in source.objects:
        if x not in object_map:
            b.err(object_node, "E010", f"object_map is missing {x!r}")
    _check_object_map(b, object_node, object_map, source.objects, target.objects)
    if len(b.diags) != reported:
        return None
    hom_functors = {}
    table = b.object_of(hf_node, "hom_functors") or {}
    pairs = {f"{x}|{y}": (x, y) for x in source.objects for y in source.objects}
    for key, (x, y) in pairs.items():
        if key not in table:
            b.err(hf_node, "E010", f"hom_functors is missing {key!r}")
            continue
        fun = _build_plain_functor(b, table[key], source.hom_at(x, y), target.hom_at(object_map[x], object_map[y]))
        if fun is not None:
            hom_functors[(x, y)] = fun
    _check_stray_keys(b, hf_node, table, pairs, "hom_functors", "source object pair")
    return object_map, hom_functors


def _build_lax_functor(b: _Builder, node: JNode) -> Optional[LaxFunctorBicat]:
    from .bicat import validate_lax_functor
    reported = len(b.diags)
    fields = b.fields(node, "laxfunctor", "source", "target", "object_map", "hom_functors")
    if fields is None:
        return None
    obj, source_node, target_node, object_node, hf_node = fields
    source = _build_bicategory(b, source_node)
    target = _build_bicategory(b, target_node)
    if source is None or target is None:
        return None
    maps = _lax_functor_maps(b, object_node, hf_node, source, target)
    if maps is None:
        return None
    phi = _keyed_triples(b, obj["phi"], "phi", 3) if "phi" in obj else None
    psi = b.string_map(obj["psi"], "psi", source.objects, "source object") if "psi" in obj else None
    return _validated(b, node, reported, validate_lax_functor, source, target, *maps, phi, psi)


def _build_laxcat(b: _Builder, node: JNode) -> Optional[LaxFunctorToCat]:
    from .fib1 import LaxFunctorToCat, validate_laxcat
    reported = len(b.diags)
    fields = b.fields(node, "laxcat", "base", "fibers", "pullbacks")
    if fields is None:
        return None
    obj, base_node, fibers_node, pullbacks_node = fields
    base = _build_category(b, base_node)
    if base is None:
        return None
    fibers = _label_table(
        b, fibers_node, "fibers", base.objects, lambda _, sub: _build_category(b, sub),
        "fiber key {!r} is not a base object", "E013", "missing fiber for base object {!r}",
    )

    def pullback(key: str, sub: JNode) -> Optional[Functor]:
        m = base.morphism(key)
        if m.src in fibers and m.dst in fibers:
            return _build_plain_functor(b, sub, fibers[m.dst], fibers[m.src])
        return None

    pullbacks = _label_table(
        b, pullbacks_node, "pullbacks", base._by_name, pullback,
        "pullback key {!r} is not a base morphism", "E012", "missing pullback functor for base morphism {!r}",
    )

    def fiber_objects(b_obj: Optional[str]):
        """The objects of the fiber over b_obj, or None when that fiber was not built."""
        return fibers[b_obj].objects if b_obj in fibers else None

    comp_iso = unit_iso = None
    if "comp_iso" in obj:
        comp_iso = {}
        for parts, key, sub in _split_items(b, obj["comp_iso"], "comp_iso", 2):
            # The components at (g, f) are indexed by the fiber over the target of g.
            g_dst = base.dst(parts[0]) if parts[0] in base._by_name else None
            comp_iso[parts] = b.string_map(sub, f"comp_iso[{key}]", fiber_objects(g_dst), "fiber object")
    if "unit_iso" in obj:
        unit_node = obj["unit_iso"]
        unit_iso = {}
        for key, sub in (b.object_of(unit_node, "unit_iso") or {}).items():
            if key not in base.objects:
                b.key_err(unit_node, key, "E001", f"unit_iso key {key!r} is not a base object")
                continue
            unit_iso[key] = b.string_map(sub, f"unit_iso[{key}]", fiber_objects(key), "fiber object")
    return _validated(
        b, node, reported, validate_laxcat, LaxFunctorToCat(base, fibers, pullbacks, comp_iso, unit_iso)
    )


def _build_trihom(b: _Builder, node: JNode) -> Optional[Trihomomorphism]:
    from .bifib import Trihomomorphism, validate_trihomomorphism
    reported = len(b.diags)
    fields = b.fields(node, "trihom", "base", "fibers", "pullback1", "pullback2")
    if fields is None:
        return None
    _, base_node, fibers_node, pb1_node, pb2_node = fields
    base = _build_bicategory(b, base_node)
    if base is None:
        return None
    fibers = _label_table(
        b, fibers_node, "fibers", base.objects, lambda _, sub: _build_bicategory(b, sub),
        "fiber key {!r} is not a base object", "E013", "missing fiber for base object {!r}",
    )
    objects = base.objects
    pullback1 = {}
    pb1_table = b.object_of(pb1_node, "pullback1") or {}
    cells1 = {f"{bb}|{cc}|{f}": (bb, cc, f) for bb in objects for cc in objects for f in base.onecells(bb, cc)}
    for key, (bb, cc, f) in cells1.items():
        if key not in pb1_table:
            b.err(pb1_node, "E012", f"missing pullback lax functor {key!r}")
        elif bb in fibers and cc in fibers:
            lax = _build_fiber_lax_functor(b, pb1_table[key], fibers[cc], fibers[bb])
            if lax is not None:
                pullback1[(bb, cc, f)] = lax
    _check_stray_keys(b, pb1_node, pb1_table, cells1, "pullback1", "base 1-cell")
    pullback2 = {}
    pb2_table = b.object_of(pb2_node, "pullback2") or {}
    cells2 = {
        f"{bb}|{cc}|{alpha.name}": (bb, cc, alpha.name)
        for bb in objects
        for cc in objects
        for alpha in base.hom_at(bb, cc).morphisms
    }
    for key, (bb, cc, alpha) in cells2.items():
        if key not in pb2_table:
            b.err(pb2_node, "E014", f"missing components for base 2-cell {alpha!r}")
            continue
        fiber_objects = fibers[cc].objects if cc in fibers else None
        comps = b.string_map(pb2_table[key], f"pullback2[{key}]", fiber_objects, "fiber object")
        for y in fiber_objects or ():
            if y not in comps:
                b.err(pb2_table[key], "E014", f"missing component of {alpha!r} at fiber object {y!r}")
        pullback2[(bb, cc, alpha)] = comps
    _check_stray_keys(b, pb2_node, pb2_table, cells2, "pullback2", "base 2-cell")
    return _validated(
        b, node, reported, validate_trihomomorphism, Trihomomorphism(base, fibers, pullback1, pullback2)
    )


def _build_fiber_lax_functor(b: _Builder, node: JNode, source: Bicategory, target: Bicategory):
    from .bicat import validate_lax_functor
    reported = len(b.diags)
    fields = b.fields(node, "pullback lax functor", "object_map", "hom_functors")
    if fields is None:
        return None
    _, object_node, hf_node = fields
    maps = _lax_functor_maps(b, object_node, hf_node, source, target)
    if maps is None:
        return None
    return _validated(b, node, reported, validate_lax_functor, source, target, *maps)


_BUILDERS = {
    "category": _build_category,
    "functor": _build_functor,
    "catgraph": _build_catgraph,
    "bicategory": _build_bicategory,
    "laxfunctor": _build_lax_functor,
    "laxcat": _build_laxcat,
    "trihom": _build_trihom,
}


def parse(text: str, read_again: Optional[Callable[[], str]] = None) -> ParseResult:
    """Parse a .catj document; never raises, always reports every problem found.

    The plain reader lets go of the text once decoded (`_read_plain`).  With
    read_again, a function that gives the same text anew (the command line's
    file reader), `parse` keeps no reference to the text either: when the
    caller keeps none, it is freed before the build (on CPython 3.11 and
    later; before, the calling frame keeps an argument until the call
    returns), and a document the plain reader cannot take is read again, its
    decoded tree freed by then, and scanned for positions.  What
    read_again() raises is raised.  Without read_again the text is kept for
    the scanner.
    """
    if read_again is None:
        read_again = lambda kept=text: kept
    texts = [text]  # so that the reader's argument is the only reference
    del text
    result = _read_plain(texts.pop())
    if result is not None:
        return result
    try:
        root = _Scanner(read_again()).parse()
    except _SyntaxProblem as exc:
        return ParseResult(None, (Diagnostic(exc.line, exc.col, "E005", exc.message),))
    return _build_document(_Builder(), root)


def _build_document(builder: _Builder, root) -> ParseResult:
    fields = builder.fields(root, "document", "kind")
    if fields is None:
        return ParseResult(None, tuple(builder.diags))
    _, kind_node = fields
    kind = builder.string_of(kind_node, "kind")
    if kind is None:
        return ParseResult(None, tuple(builder.diags))
    if kind not in _BUILDERS:
        builder.err(kind_node, "E004", f"unknown kind {kind!r}")
        return ParseResult(None, tuple(builder.diags))
    value = _BUILDERS[kind](builder, root)
    if value is None or builder.diags:
        return ParseResult(None, tuple(builder.diags))
    return ParseResult(Document(kind, value), ())


def _category_body(cat: FinCategory) -> dict:
    return {
        "objects": list(cat.objects),
        "morphisms": sorted([m.name, m.src, m.dst] for m in cat.morphisms),
        "identity": dict(cat.identity),
        "compose": sorted([g, f, h] for (g, f), h in cat.compose.items()),
    }


def _maps_body(fun: Functor) -> dict:
    return {"object_map": dict(fun.object_map), "morphism_map": dict(fun.morphism_map)}


def _functor_body(fun: Functor) -> dict:
    return {"source": _category_body(fun.source), "target": _category_body(fun.target), **_maps_body(fun)}


def _catgraph_body(g: CatGraph) -> dict:
    return {
        "objects": list(g.objects),
        "hom": {
            f"{x}|{y}": _category_body(g.hom_at(x, y))
            for x in g.objects
            for y in g.objects
            if g.hom_at(x, y).objects
        },
    }


def _keyed_triple_body(table: Mapping, key_arity: int) -> dict:
    """The inverse of `_keyed_triples`: {(parts, *rest): value} -> {"x|y|...": sorted [[*rest, value], ...]}."""
    out: dict[str, list] = {}
    for (parts, *rest), value in table.items():
        assert len(parts) == key_arity
        out.setdefault("|".join(parts), []).append(rest + [value])
    return {k: sorted(v) for k, v in sorted(out.items())}


def _bicategory_body(b: Bicategory) -> dict:
    body = _catgraph_body(b.graph)
    body["identity1"] = dict(b.identity1)
    body["compose1"] = _keyed_triple_body(b.compose1, 3)
    if b.hcompose2 is not None:
        body["hcompose2"] = _keyed_triple_body(b.hcompose2, 3)
    if b.associator is not None:
        body["associator"] = _keyed_triple_body(b.associator, 4)
    for name, table in (("unitor_l", b.unitor_l), ("unitor_r", b.unitor_r)):
        if table is not None:
            body[name] = _keyed_triple_body({((x, y), f): cell for (x, y, f), cell in table.items()}, 2)
    return body


def _fiber_lax_body(l: LaxFunctorBicat) -> dict:
    return {
        "object_map": dict(l.object_map),
        "hom_functors": {f"{x}|{y}": _maps_body(fun) for (x, y), fun in l.hom_functors.items()},
    }


def _laxfunctor_body(l: LaxFunctorBicat) -> dict:
    body = {"source": _bicategory_body(l.source), "target": _bicategory_body(l.target), **_fiber_lax_body(l)}
    if l.phi is not None:
        body["phi"] = _keyed_triple_body(l.phi, 3)
    if l.psi is not None:
        body["psi"] = dict(l.psi)
    return body


def _laxcat_body(f: LaxFunctorToCat) -> dict:
    body = {
        "base": _category_body(f.base),
        "fibers": {b: _category_body(cat) for b, cat in f.fiber.items()},
        "pullbacks": {m: _maps_body(fun) for m, fun in f.pullback.items()},
    }
    if f.comp_iso is not None:
        body["comp_iso"] = {f"{g}|{ff}": dict(comps) for (g, ff), comps in sorted(f.comp_iso.items())}
    if f.unit_iso is not None:
        body["unit_iso"] = {b: dict(comps) for b, comps in sorted(f.unit_iso.items())}
    return body


def _trihom_body(t: Trihomomorphism) -> dict:
    return {
        "base": _bicategory_body(t.base),
        "fibers": {b: _bicategory_body(bi) for b, bi in t.fiber.items()},
        "pullback1": {f"{b}|{c}|{f}": _fiber_lax_body(lax) for (b, c, f), lax in sorted(t.pullback1.items())},
        "pullback2": {f"{b}|{c}|{a}": dict(comps) for (b, c, a), comps in sorted(t.pullback2.items())},
    }


def serialize(value) -> str:
    """Canonical text: sorted keys and entries, byte-identical across runs."""
    if isinstance(value, FinCategory):
        body, kind = _category_body(value), "category"
    elif isinstance(value, Functor):
        body, kind = _functor_body(value), "functor"
    else:
        from . import bicat, bifib, fib1

        if isinstance(value, bifib.Trihomomorphism):
            body, kind = _trihom_body(value), "trihom"
        elif isinstance(value, fib1.LaxFunctorToCat):
            body, kind = _laxcat_body(value), "laxcat"
        elif isinstance(value, bicat.LaxFunctorBicat):
            body, kind = _laxfunctor_body(value), "laxfunctor"
        elif isinstance(value, bicat.Bicategory):
            body, kind = _bicategory_body(value), "bicategory"
        elif isinstance(value, bicat.CatGraph):
            body, kind = _catgraph_body(value), "catgraph"
        else:
            raise TypeError(f"cannot serialize {type(value).__name__}")
    return dumps({"kind": kind, **body}, 2) + "\n"


def dumps(value, indent: Optional[int] = None) -> str:
    """The text of `json.dumps(value, indent=indent, sort_keys=True)`.

    A value is a str, an int, True, False, None, a list or tuple of values, or
    a dict of values under str keys; any other type raises TypeError.
    """
    parts: list[str] = []
    write = parts.append
    separator, step = (", ", "") if indent is None else (",", " " * indent)

    def encode(value, newline: str):
        if isinstance(value, str):
            write(_quoted(value))
        elif value is None:
            write("null")
        elif value is True:
            write("true")
        elif value is False:
            write("false")
        elif isinstance(value, int):
            write(int.__repr__(value))
        elif isinstance(value, (list, tuple, dict)):
            if not value:
                write("{}" if isinstance(value, dict) else "[]")
                return
            inner = newline + step
            if isinstance(value, dict):
                write("{" + inner)
                for i, key in enumerate(sorted(value)):
                    if not isinstance(key, str):
                        raise TypeError(f"keys must be str, not {type(key).__name__}")
                    write(f"{separator}{inner}{_quoted(key)}: " if i else f"{_quoted(key)}: ")
                    encode(value[key], inner)
                write(newline + "}")
            else:
                write("[" + inner)
                for i, item in enumerate(value):
                    if i:
                        write(separator + inner)
                    encode(item, inner)
                write(newline + "]")
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    encode(value, "" if indent is None else "\n")
    return "".join(parts)
