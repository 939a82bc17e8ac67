"""Exact rational linear algebra over square label-indexed matrices.

Leinster's Euler characteristic of a finite category, cat-graph or
bicategory is taken from a square similarity matrix ζ over its objects: a
`QMatrix`, whose one label tuple names both rows and columns.  A weighting
solves ζ·w = 1, a coweighting k·ζ = 1, and χ = Σw = Σk when both exist.
The coweighting is the weighting of ζᵀ, so `matrix_euler` makes both
solves through `solve_weighting`.

Everything here is a pure function over immutable values.  Entries are
this module's `Rational` at the API, each built by `rational`, so no command
loads `fractions` or the numeric-tower modules it imports.  The one
elimination kernel, `_solve`, works internally on Python ints (forward-only
fraction-free Bareiss elimination, then exact back substitution), and no
floating point is ever introduced.

`Record` is the base of every value class in the package.  A subclass
lists its fields as class annotations, in order, with optional class-level
defaults; an annotated name starting with `_` is an attribute that
`__post_init__` sets, not a field.  Instances are built by position or
keyword, run `__post_init__` last, compare, hash and print by their fields
as frozen dataclasses do, and refuse assignment and deletion.  Their JSON
form maps each field to a key of the same name.
"""

from __future__ import annotations

import sys
from math import gcd, lcm
from operator import attrgetter
TYPE_CHECKING = False  # typing is imported for annotations only, never at run time
if TYPE_CHECKING:
    from typing import Optional, Sequence


class Record:
    """Immutable value with the fields its class annotates; defining a subclass generates no code."""

    def __init_subclass__(cls):
        names = cls._fields = tuple(name for name in cls.__annotations__ if not name.startswith("_"))
        cls._defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
        # A tuple of the fields, also for one field, as a dataclass compares and hashes.
        cls._key = staticmethod(attrgetter(*names) if len(names) > 1 else lambda self: (getattr(self, names[0]),))
        cls._post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments but {len(args)} were given")
        for name in kwargs:
            if name not in names[len(args):]:
                problem = "multiple values for" if name in names else "an unexpected keyword"
                raise TypeError(f"{cls.__name__}() got {problem} argument {name!r}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        values = {**cls._defaults, **kwargs}
        for name in names[len(args):]:
            if name not in values:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
            object.__setattr__(self, name, values[name])
        if cls._post_init is not None:
            cls._post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete attribute {name!r} of an immutable record")

    __delattr__ = __setattr__

    def to_json(self) -> dict:
        """Each field, in order, under its own name, with its value as `_json` writes it."""
        return {name: _json(getattr(self, name)) for name in self._fields}


def _json(value):
    """A value as JSON reports write it.

    A rational is 'p/q' text, a record is its `to_json`, a named tuple is an
    object of its fields, a tuple or list is an array and a dict is an
    object; any other value is written unchanged.
    """
    if isinstance(value, Record):
        return value.to_json()
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return {name: _json(v) for name, v in zip(value._fields, value)}
    if isinstance(value, (tuple, list)):
        return [_json(v) for v in value]
    if isinstance(value, dict):
        return {key: _json(v) for key, v in value.items()}
    if hasattr(value, "denominator") and not isinstance(value, int):  # a Rational, or a `fractions.Fraction`
        return str(value)
    return value


def _pair(x) -> Optional[tuple[int, int]]:
    """(numerator, denominator) of an int or a rational of any class, or None for a value without both."""
    try:
        return x.numerator, x.denominator
    except AttributeError:
        return None


def _operator(combine):
    """A binary operator's method and its reflection, from combine(n1, d1, n2, d2) -> (n, d) of n1/d1 ∘ n2/d2."""

    def forward(a, b):
        p = _pair(b)
        return NotImplemented if p is None else rational(*combine(a.numerator, a.denominator, *p))

    def reflected(a, b):
        p = _pair(b)
        return NotImplemented if p is None else rational(*combine(*p, a.numerator, a.denominator))

    return forward, reflected


def _order(compare):
    """A comparison method, from compare(n1·d2, n2·d1) for n1/d1 against n2/d2 (both denominators positive)."""

    def method(a, b):
        p = _pair(b)
        return NotImplemented if p is None else compare(a.numerator * p[1], p[0] * a.denominator)

    return method


class Rational:
    """An exact rational number: coprime int `numerator` and `denominator`, the denominator positive.

    Built by `rational`.  `+ - * /` take another rational or an int on
    either side; `==`, `<`, `<=`, `>` and `>=` compare with either.  Any
    value with int `numerator` and `denominator`, such as a
    `fractions.Fraction`, counts as a rational: Fraction's operators return
    NotImplemented for this class, so Python calls the reflected method here.
    `hash` is the hash of the equal int or Fraction, `bool` is whether it is
    nonzero, `float` divides the two ints, and `str` is 'p/q', or 'p' when
    the denominator is 1; dividing by zero raises ZeroDivisionError.
    """

    __slots__ = ("numerator", "denominator")

    __add__, __radd__ = _operator(lambda n1, d1, n2, d2: (n1 * d2 + n2 * d1, d1 * d2))
    __sub__, __rsub__ = _operator(lambda n1, d1, n2, d2: (n1 * d2 - n2 * d1, d1 * d2))
    __mul__, __rmul__ = _operator(lambda n1, d1, n2, d2: (n1 * n2, d1 * d2))
    __truediv__, __rtruediv__ = _operator(lambda n1, d1, n2, d2: (n1 * d2, d1 * n2))
    __lt__, __le__, __gt__, __ge__ = map(_order, (int.__lt__, int.__le__, int.__gt__, int.__ge__))

    def __eq__(self, other):
        p = _pair(other)
        return NotImplemented if p is None else (self.numerator, self.denominator) == p

    def __hash__(self):
        # As `fractions.Fraction.__hash__`: n·d⁻¹ modulo the hash modulus, or the hash of infinity
        # where d has no inverse, with the sign of n.
        modulus = sys.hash_info.modulus
        try:
            h = hash(hash(abs(self.numerator)) * pow(self.denominator, -1, modulus))
        except ValueError:
            h = sys.hash_info.inf
        h = h if self.numerator >= 0 else -h
        return -2 if h == -1 else h

    def __bool__(self):
        return self.numerator != 0

    def __float__(self):
        return self.numerator / self.denominator

    def as_integer_ratio(self) -> tuple[int, int]:
        return self.numerator, self.denominator

    def __repr__(self):
        return f"rational({self.numerator}, {self.denominator})"

    def __str__(self):
        return f"{self.numerator}/{self.denominator}" if self.denominator != 1 else str(self.numerator)


def rational(numerator: int = 0, denominator: int = 1) -> Rational:
    """numerator/denominator in lowest terms, with a positive denominator: every rational is built here."""
    if not denominator:
        raise ZeroDivisionError(f"rational({numerator}, 0)")
    g = gcd(numerator, denominator)
    if denominator < 0:
        g = -g
    q = object.__new__(Rational)
    q.numerator = numerator // g
    q.denominator = denominator // g
    return q


class QVector(Record):
    """Exact rational vector indexed by an ordered tuple of labels."""

    index: tuple[str, ...]
    entries: tuple[Rational, ...]

    def __post_init__(self):
        if len(self.index) != len(self.entries):
            raise ValueError("index/entries length mismatch")
        if len(set(self.index)) != len(self.index):
            raise ValueError("duplicate labels in vector index")

    def __getitem__(self, label: str) -> Rational:
        return self.entries[self.index.index(label)]

    def total(self) -> Rational:
        return sum(self.entries, rational())

    def to_json(self) -> dict:
        return {label: str(v) for label, v in zip(self.index, self.entries)}


class QMatrix(Record):
    """Exact rational square matrix, such as a similarity matrix ζ over objects.

    The one label tuple `rows` labels the rows and, in the same order, the
    columns: `entries` is row-major, with one rational per pair of labels.
    The field keeps the name `rows` because `perfbench/traced_cli.py` reads
    it to size each solve.
    """

    rows: tuple[str, ...]
    entries: tuple[tuple[Rational, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        if len(set(self.rows)) != n:
            raise ValueError("duplicate labels")
        if len(self.entries) != n or any(len(row) != n for row in self.entries):
            raise ValueError(f"entries are not {n} rows of {n}")

    @classmethod
    def build(cls, labels: Sequence[str], at) -> "QMatrix":
        """Construct from a callback (row_label, col_label) -> rational."""
        labels = tuple(labels)
        return cls(labels, tuple(tuple(at(r, c) for c in labels) for r in labels))


class MatrixEuler(Record):
    """Weighting/coweighting pair and their common sum, when both exist."""

    weighting: Optional[QVector]
    coweighting: Optional[QVector]
    chi: Optional[Rational]

    def missing(self) -> tuple[str, ...]:
        out = []
        if self.weighting is None:
            out.append("weighting")
        if self.coweighting is None:
            out.append("coweighting")
        return tuple(out)


def _solve(a: Sequence[Sequence]) -> Optional[list[Rational]]:
    """Some x with a·x = (1,...,1) exactly, or None when the system is inconsistent.

    Forward-only fraction-free (Bareiss) elimination of the augmented rows
    [a | 1], each first scaled to integers by the lcm of its denominators.
    A step with pivot p (the first nonzero entry in column order) replaces
    each row below it by (p·row − f·pivot_row) // prev, an exact division by
    the previous pivot `prev`, on the columns right of the pivot only: no
    later step reads a row below at or left of the pivot column.  A nonzero
    right-hand side left in a row with no pivot means the system is
    inconsistent.

    The free variables (columns without a pivot) are set to zero, so x
    depends only on the pivot columns, the leftmost column basis of a.  The
    last pivot D is the determinant of the pivot rows' minor on those
    columns, so X = D·x is integral by Cramer's rule: back substitution over
    the pivot rows divides exactly in integers, and x = X / D.
    """
    width = len(a[0]) if a else 0
    rows = []
    for ra in a:
        ratios = [v.as_integer_ratio() for v in ra]
        scale = lcm(*[d for _, d in ratios])
        rows.append([n * scale // d for n, d in ratios] + [scale])
    pivots: list[int] = []
    prev = 1
    for col in range(width):
        rank = len(pivots)
        for pivot in range(rank, len(rows)):
            if rows[pivot][col]:
                break
        else:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank][col]
        right = rows[rank][col + 1 :]
        for row in rows[rank + 1 :]:
            f = row[col]
            if f or p != prev:  # else the update would leave the row as it is
                row[col + 1 :] = [(p * v - f * w) // prev for v, w in zip(row[col + 1 :], right)]
        pivots.append(col)
        prev = p
    if any(row[width] for row in rows[len(pivots):]):
        return None
    x = [rational()] * width
    solved: list[tuple[int, int]] = []  # (column, D·x there), from the last pivot back
    for row, col in zip(reversed(rows[: len(pivots)]), reversed(pivots)):
        rest = sum(row[c] * value for c, value in solved)
        value = (prev * row[width] - rest) // row[col]
        solved.append((col, value))
        x[col] = rational(value, prev)
    return x


def solve_weighting(m: QMatrix) -> Optional[QVector]:
    """Some k with m·k = (1,...,1) exactly, or None if inconsistent; free variables are zero."""
    solution = _solve(m.entries)
    if solution is None:
        return None
    return QVector(m.rows, tuple(solution))


def matrix_euler(m: QMatrix) -> MatrixEuler:
    """Weighting, coweighting and Euler characteristic of a square matrix ζ.

    The weighting solves ζ·w = 1, and the coweighting k·ζ = 1 is the
    weighting of ζᵀ: both go through `solve_weighting`.  The two sums are
    asserted equal before returning (the Euler characteristic does not
    depend on the choice of vectors).
    """
    weighting = solve_weighting(m)
    coweighting = solve_weighting(QMatrix(m.rows, tuple(zip(*m.entries))))
    if weighting is None or coweighting is None:
        return MatrixEuler(weighting, coweighting, None)
    chi = weighting.total()
    assert chi == coweighting.total(), "weighting and coweighting sums differ"
    return MatrixEuler(weighting, coweighting, chi)
