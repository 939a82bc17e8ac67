"""The character-at-a-time `.catj` scanner, kept as a reference for tests.

`catdsl` used this recursive-descent reader before its token-at-a-time
scanner.  It stays here, test-only, as the slow path the scanner must agree
with: the same `JNode` trees, and the same E005 line, column and message.
It advances one character at a time and recurses once per nesting level,
so it can raise `ValueError` on a malformed number and `RecursionError` on
deep nesting; the scanner in `catdsl` reports both as E005.
"""

from bicat_euler.catdsl import JNode, _SyntaxProblem


class _Scanner:
    """Recursive-descent JSON reader that records the position of every value."""

    def __init__(self, text: str):
        self.text = text
        self.i = 0
        self.line = 1
        self.col = 1

    def _fail(self, message):
        raise _SyntaxProblem(self.line, self.col, message)

    def _advance(self, n=1):
        for _ in range(n):
            if self.i < len(self.text):
                if self.text[self.i] == "\n":
                    self.line += 1
                    self.col = 1
                else:
                    self.col += 1
                self.i += 1

    def _skip_ws(self):
        while self.i < len(self.text) and self.text[self.i] in " \t\r\n":
            self._advance()

    def _peek(self):
        return self.text[self.i] if self.i < len(self.text) else ""

    def _expect(self, ch):
        if self._peek() != ch:
            self._fail(f"expected {ch!r}")
        self._advance()

    def parse(self) -> JNode:
        self._skip_ws()
        node = self._value()
        self._skip_ws()
        if self.i != len(self.text):
            self._fail("trailing data after document")
        return node

    def _value(self) -> JNode:
        self._skip_ws()
        ch = self._peek()
        if ch == "{":
            return self._object()
        if ch == "[":
            return self._array()
        if ch == '"':
            line, col = self.line, self.col
            return JNode(self._string(), line, col)
        if ch in "-0123456789":
            return self._number()
        for literal, value in (("true", True), ("false", False), ("null", None)):
            if self.text.startswith(literal, self.i):
                node = JNode(value, self.line, self.col)
                self._advance(len(literal))
                return node
        self._fail("expected a JSON value")

    def _object(self) -> JNode:
        line, col = self.line, self.col
        self._expect("{")
        out: dict[str, JNode] = {}
        key_pos: dict[str, tuple[int, int]] = {}
        self._skip_ws()
        if self._peek() == "}":
            self._advance()
            return JNode(out, line, col, key_pos)
        while True:
            self._skip_ws()
            if self._peek() != '"':
                self._fail("expected a string key")
            kline, kcol = self.line, self.col
            key = self._string()
            if key in out:
                self._fail(f"duplicate key {key!r}")
            key_pos[key] = (kline, kcol)
            self._skip_ws()
            self._expect(":")
            out[key] = self._value()
            self._skip_ws()
            if self._peek() == ",":
                self._advance()
                continue
            self._expect("}")
            return JNode(out, line, col, key_pos)

    def _array(self) -> JNode:
        line, col = self.line, self.col
        self._expect("[")
        out: list[JNode] = []
        self._skip_ws()
        if self._peek() == "]":
            self._advance()
            return JNode(out, line, col)
        while True:
            out.append(self._value())
            self._skip_ws()
            if self._peek() == ",":
                self._advance()
                continue
            self._expect("]")
            return JNode(out, line, col)

    def _string(self) -> str:
        self._expect('"')
        chars = []
        while True:
            ch = self._peek()
            if ch == "":
                self._fail("unterminated string")
            if ch == '"':
                self._advance()
                return "".join(chars)
            if ch == "\\":
                self._advance()
                esc = self._peek()
                mapping = {'"': '"', "\\": "\\", "/": "/", "b": "\b", "f": "\f", "n": "\n", "r": "\r", "t": "\t"}
                if esc in mapping:
                    chars.append(mapping[esc])
                    self._advance()
                elif esc == "u":
                    self._advance()
                    hexa = self.text[self.i : self.i + 4]
                    if len(hexa) != 4 or any(c not in "0123456789abcdefABCDEF" for c in hexa):
                        self._fail("bad unicode escape")
                    chars.append(chr(int(hexa, 16)))
                    self._advance(4)
                else:
                    self._fail(f"bad escape \\{esc}")
            else:
                chars.append(ch)
                self._advance()

    def _number(self) -> JNode:
        line, col = self.line, self.col
        start = self.i
        if self._peek() == "-":
            self._advance()
        if not self._peek().isdigit():
            self._fail("malformed number")
        while self._peek().isdigit():
            self._advance()
        is_int = True
        if self._peek() == ".":
            is_int = False
            self._advance()
            while self._peek().isdigit():
                self._advance()
        if self._peek() in "eE":
            is_int = False
            self._advance()
            if self._peek() in "+-":
                self._advance()
            while self._peek().isdigit():
                self._advance()
        text = self.text[start : self.i]
        return JNode(int(text) if is_int else float(text), line, col)
