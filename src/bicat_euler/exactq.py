"""Exact rational linear algebra over label-indexed matrices.

Everything here is a pure function over immutable values.  Entries are
`fractions.Fraction` at the API; the one elimination kernel, `_solve`,
works internally on Python ints (fraction-free Bareiss elimination), and
no floating point is ever introduced.

`Record` is the base of every value class in the package.  A subclass
lists its fields as class annotations, in order, with optional class-level
defaults; an annotated name starting with `_` is an attribute that
`__post_init__` sets, not a field.  Instances are built by position or
keyword, run `__post_init__` last, compare, hash and print by their fields
as frozen dataclasses do, and refuse assignment and deletion.  Their JSON
form maps each field to a key of the same name.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import attrgetter
TYPE_CHECKING = False  # typing is imported for annotations only, never at run time
if TYPE_CHECKING:
    from typing import Optional, Sequence


_ZERO = Fraction(0)


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

    A Fraction is 'p/q' text, a record is its `to_json`, a named tuple is an
    object of its fields, a tuple or list is an array and a dict is an
    object; any other value is written unchanged.
    """
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, Record):
        return value.to_json()
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return {name: _json(v) for name, v in zip(value._fields, value)}
    if isinstance(value, (tuple, list)):
        return [_json(v) for v in value]
    if isinstance(value, dict):
        return {key: _json(v) for key, v in value.items()}
    return value


class IndexMismatch(Exception):
    """Row and column label sets of a square-only operation differ."""


def rational(value) -> Fraction:
    """Coerce ints, strings like '-3/7', and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def format_rational(q: Fraction) -> str:
    """Canonical 'p/q' form, 'p' when the denominator is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class QVector(Record):
    """Exact rational vector indexed by an ordered tuple of labels."""

    index: tuple[str, ...]
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.index) != len(self.entries):
            raise ValueError("index/entries length mismatch")
        if len(set(self.index)) != len(self.index):
            raise ValueError("duplicate labels in vector index")

    def __getitem__(self, label: str) -> Fraction:
        return self.entries[self.index.index(label)]

    def total(self) -> Fraction:
        return sum(self.entries, _ZERO)

    def to_json(self) -> dict:
        return {label: format_rational(v) for label, v in zip(self.index, self.entries)}


class QMatrix(Record):
    """Exact rational matrix indexed by ordered row/column label tuples.

    `entries` is row-major and total: one Fraction per (row, col) pair.
    """

    rows: tuple[str, ...]
    cols: tuple[str, ...]
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(set(self.rows)) != len(self.rows) or len(set(self.cols)) != len(self.cols):
            raise ValueError("duplicate labels")
        if len(self.entries) != len(self.rows):
            raise ValueError("row count mismatch")
        for row in self.entries:
            if len(row) != len(self.cols):
                raise ValueError("column count mismatch")

    @classmethod
    def build(cls, rows: Sequence[str], cols: Sequence[str], at) -> "QMatrix":
        """Construct from a callback (row_label, col_label) -> rational."""
        return cls(
            tuple(rows),
            tuple(cols),
            tuple(tuple(rational(at(r, c)) for c in cols) for r in rows),
        )

    def at(self, row: str, col: str) -> Fraction:
        return self.entries[self.rows.index(row)][self.cols.index(col)]

    def transpose(self) -> "QMatrix":
        columns = tuple(zip(*self.entries)) if self.entries else ((),) * len(self.cols)
        return QMatrix(self.cols, self.rows, columns)

    def is_square(self) -> bool:
        return self.rows == self.cols


class MatrixEuler(Record):
    """Weighting/coweighting pair and their common sum, when both exist."""

    weighting: Optional[QVector]
    coweighting: Optional[QVector]
    chi: Optional[Fraction]

    def has_euler(self) -> bool:
        return self.chi is not None

    def missing(self) -> tuple[str, ...]:
        out = []
        if self.weighting is None:
            out.append("weighting")
        if self.coweighting is None:
            out.append("coweighting")
        return tuple(out)


def _solve(a: Sequence[Sequence], b: Sequence[Sequence], free_value: Fraction) -> Optional[list[tuple]]:
    """Some X with a·X = b exactly, or None when a column of b is inconsistent.

    Fraction-free Gauss–Jordan (Bareiss) elimination of the augmented rows
    [a | b], each first scaled to integers by the lcm of its denominators.
    A step with pivot p (the first nonzero entry in column order) replaces
    every other row by (p·row − f·pivot_row) // prev, an exact division by
    the previous pivot `prev`.  Afterwards each pivot row holds the last
    pivot in its own column and zero in every other pivot column, so it is
    that pivot times a row of the unique reduced echelon form.  The free
    variables (columns without a pivot) are set to `free_value`.
    """
    width = len(a[0]) if a else 0
    rows = []
    for ra, rb in zip(a, b):
        row = [*ra, *rb]
        scale = lcm(*[v.denominator for v in row])
        rows.append([v.numerator * scale // v.denominator for v in row])
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
        top = rows[rank]
        p = top[col]
        for r, row in enumerate(rows):
            f = row[col]
            if r != rank and (f or p != prev):  # else the update would leave the row as it is
                rows[r] = [(p * v - f * w) // prev for v, w in zip(row, top)]
        pivots.append(col)
        prev = p
    if any(any(row[width:]) for row in rows[len(pivots):]):
        return None
    free = [c for c in range(width) if c not in pivots]
    x = [(free_value,) * (len(b[0]) if b else 0)] * width
    num, den = free_value.numerator, free_value.denominator
    for row, col in zip(rows, pivots):
        moved = num * sum([row[c] for c in free])
        x[col] = tuple([Fraction(v * den - moved, prev * den) for v in row[width:]])
    return x


def solve_weighting(m: QMatrix, free_value: Fraction = Fraction(0)) -> Optional[QVector]:
    """Some k with m·k = (1,...,1) exactly, or None if inconsistent.

    `free_value` is a testing hook for the choice-independence property;
    production callers rely on the deterministic free-variables-zero default.
    """
    solution = _solve(m.entries, [(1,)] * len(m.rows), free_value)
    if solution is None:
        return None
    return QVector(m.cols, tuple([row[0] for row in solution]))


def solve_coweighting(m: QMatrix, free_value: Fraction = Fraction(0)) -> Optional[QVector]:
    """Some k with k·m = (1,...,1) exactly; equals solve_weighting(mᵀ)."""
    return solve_weighting(m.transpose(), free_value)


def matrix_euler(m: QMatrix) -> MatrixEuler:
    """Weighting, coweighting and |ζ| of a square matrix.

    The two sums are asserted equal before returning (well-definedness of
    the Euler characteristic does not depend on the choice of vectors).
    """
    if m.rows != m.cols:
        if set(m.rows) != set(m.cols):
            raise IndexMismatch(f"row labels {m.rows} != col labels {m.cols}")
        raise IndexMismatch("row/col label order differs")
    weighting = solve_weighting(m)
    coweighting = solve_coweighting(m)
    if weighting is None or coweighting is None:
        return MatrixEuler(weighting, coweighting, None)
    chi = weighting.total()
    assert chi == coweighting.total(), "weighting and coweighting sums differ"
    return MatrixEuler(weighting, coweighting, chi)


def invert(m: QMatrix) -> Optional[QMatrix]:
    """Exact inverse, solving m·X = I with the same kernel; None when singular."""
    if m.rows != m.cols:
        raise IndexMismatch(f"row labels {m.rows} != col labels {m.cols}")
    n = len(m.rows)
    identity = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    inverse = _solve(m.entries, identity, Fraction(0))
    if inverse is None:
        return None
    return QMatrix(m.rows, m.cols, tuple(inverse))


def entry_sum(m: QMatrix) -> Fraction:
    return sum((v for row in m.entries for v in row), Fraction(0))
