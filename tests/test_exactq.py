"""Exact linear algebra: frozen oracles and seeded property checks."""

import ast
import operator
import pathlib
import random
import sys
from fractions import Fraction

import pytest

import fraction_oracle

from bicat_euler.exactq import (
    QMatrix,
    QVector,
    Rational,
    _solve,
    matrix_euler,
    rational,
    solve_weighting,
)
from builders import random_rational_matrix


def mat(rows):
    labels = tuple(str(i) for i in range(len(rows)))
    return QMatrix(labels, tuple(tuple(Fraction(v) for v in row) for row in rows))


def _transpose(rows):
    return [list(column) for column in zip(*rows)]


ARROW_ZETA = mat([[1, 1], [0, 1]])
EZ2_ZETA = mat([[1, 1], [1, 1]])


def test_weighting_arrow():
    # back-substitution by hand: row 1 forces k1 = 1, row 0 forces k0 = 0
    assert solve_weighting(ARROW_ZETA).entries == (Fraction(0), Fraction(1))


def test_weighting_identity_1x1():
    assert solve_weighting(mat([[1]])).entries == (Fraction(1),)


def test_weighting_singular_free_variable_zero():
    # k0 + k1 = 1 with the free variable pinned to 0
    assert solve_weighting(EZ2_ZETA).entries == (Fraction(1), Fraction(0))


def test_coweighting_arrow():
    assert matrix_euler(ARROW_ZETA).coweighting.entries == (Fraction(1), Fraction(0))


def test_coweighting_singular():
    assert matrix_euler(EZ2_ZETA).coweighting.entries == (Fraction(1), Fraction(0))


def test_matrix_euler_pair():
    # inverse [[1,-2],[0,1]] has entry sum 0
    assert matrix_euler(mat([[1, 2], [0, 1]])).chi == 0


def test_matrix_euler_singular_but_defined():
    assert matrix_euler(EZ2_ZETA).chi == 1


def test_matrix_euler_groupoid_cardinality():
    assert matrix_euler(mat([[5]])).chi == Fraction(1, 5)


def test_matrix_euler_no_solution():
    e = matrix_euler(mat([[0]]))
    assert e.chi is None and e.missing() == ("weighting", "coweighting")


def test_qmatrix_is_square_over_its_labels():
    one, two = Fraction(1), Fraction(2)
    assert QMatrix.build(("a", "b"), lambda r, c: one if r == c else two).entries == ((one, two), (two, one))
    for rows, entries in (
        (("a",), ((one, two),)),  # a row longer than the labels
        (("a", "b"), ((one, two),)),  # fewer rows than labels
        (("a", "b"), ((one, two), (one,))),  # a short row
    ):
        with pytest.raises(ValueError, match="^entries are not"):
            QMatrix(rows, entries)
    with pytest.raises(ValueError, match="^duplicate labels$"):
        QMatrix(("a", "a"), ((one, one), (one, one)))


def test_format_and_parse_rational():
    assert str(rational(-3, 7)) == str(Fraction(-3, 7)) == "-3/7"
    assert str(rational(4, 2)) == str(Fraction(4, 2)) == "2"


def test_rational_is_exactqs_own_class():
    assert type(rational()) is Rational and rational() == 0 and rational() == Fraction(0)
    assert rational(4) == 4 and rational(6, -4) == Fraction(-3, 2) and Fraction(-3, 2) == rational(6, -4)
    assert rational(6, -4).as_integer_ratio() == (-3, 2)
    assert rational(1, 2) != "1/2" and repr(rational(6, -4)) == "rational(-3, 2)"
    with pytest.raises(ZeroDivisionError):
        rational(1, 0)
    with pytest.raises(TypeError):  # a float is no exact operand
        rational(1, 2) + 0.5


def _run_time_imports(node, fallback=False):
    """(module, whether in an `except ImportError` handler) of each import under node outside `if TYPE_CHECKING:`."""
    if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
        return
    if isinstance(node, ast.Import):
        yield from ((alias.name, fallback) for alias in node.names)
    elif isinstance(node, ast.ImportFrom) and not node.level:
        yield node.module, fallback
    if isinstance(node, ast.ExceptHandler) and isinstance(node.type, ast.Name) and node.type.id == "ImportError":
        fallback = True
    for child in ast.iter_child_nodes(node):
        yield from _run_time_imports(child, fallback)


def test_no_module_imports_fractions_or_json_at_run_time():
    """Rationals are exactq's own, and JSON goes through `_json`; `json` is the fallback where `_json` is missing."""
    found = []
    for path in sorted((pathlib.Path(__file__).resolve().parent.parent / "src" / "bicat_euler").glob("*.py")):
        for module, fallback in _run_time_imports(ast.parse(path.read_text(encoding="utf-8"))):
            if module.split(".")[0] in ("fractions", "decimal", "json"):
                found.append((path.stem, module, fallback))
    assert found == [("catdsl", "json", True), ("catdsl", "json.encoder", True)]


def _draw(rng: random.Random):
    """(ours, reference) for a random operand: an int, or a rational of either sign, small or large, maybe zero."""
    n = rng.choice((0, rng.randint(-9, 9), rng.randint(-10**30, 10**30)))
    if rng.random() < 0.25:
        return n, n
    d = rng.choice((1, -1, rng.randint(1, 40), -rng.randint(1, 10**20)))
    return rational(n, d), Fraction(n, d)


def _same(ours, reference) -> bool:
    return type(ours) is Rational and ours.as_integer_ratio() == (reference.numerator, reference.denominator)


def test_rational_agrees_with_fraction_on_random_pairs():
    rng = random.Random(2008)
    pairs = 0
    while pairs < 3000:
        (x, fx), (y, fy) = _draw(rng), _draw(rng)
        if type(x) is int and type(y) is int:
            continue
        pairs += 1
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            try:
                expected = op(fx, fy)
            except ZeroDivisionError:
                for a, b in ((x, y), (x, fy), (fx, y)):
                    with pytest.raises(ZeroDivisionError):
                        op(a, b)
                continue
            # Ours with ours or an int, and ours with a Fraction, from either side.
            assert all(_same(op(a, b), expected) for a, b in ((x, y), (x, fy), (fx, y)) if Rational in (type(a), type(b)))
        for op in (operator.eq, operator.ne, operator.lt):
            expected = op(fx, fy)
            assert op(x, y) == expected and op(x, fy) == expected and op(fx, y) == expected
        for ours, reference in ((x, fx), (y, fy)):
            assert hash(ours) == hash(reference) and float(ours) == float(reference) and bool(ours) == bool(reference)
            assert ours.as_integer_ratio() == reference.as_integer_ratio()
            assert str(ours) == str(reference)


def test_rational_hash_where_the_denominator_has_no_inverse():
    # A multiple of the hash modulus has no inverse modulo it: Fraction hashes such a value as infinity.
    modulus = sys.hash_info.modulus
    for n, d in ((1, modulus), (-3, 2 * modulus), (7, 1), (-1, 1)):
        assert hash(rational(n, d)) == hash(Fraction(n, d))


def test_rectangular_systems_are_supported():
    # The kernel takes any row list; only a QMatrix is square.
    assert _solve([[Fraction(1), Fraction(1)]]) == [Fraction(1), Fraction(0)]
    assert _solve([[Fraction(1)], [Fraction(2)]]) is None  # k=1 and 2k=1 cannot both hold


def test_vector_total_and_json():
    v = QVector(("a", "b"), (Fraction(1, 2), Fraction(1, 2)))
    assert v.total() == 1
    assert v.to_json() == {"a": "1/2", "b": "1/2"}


def _mul(rows, v: QVector):
    return [sum((a * b for a, b in zip(row, v.entries)), Fraction(0)) for row in rows]


def test_weighting_identity_on_seeded_matrices():
    solved = 0
    both = 0
    for seed in range(200):
        m = random_rational_matrix(seed)
        e = matrix_euler(m)
        k, kc = e.weighting, e.coweighting
        if k is not None:
            solved += 1
            assert all(x == 1 for x in _mul(m.entries, k))
        if kc is not None:
            assert all(x == 1 for x in _mul(_transpose(m.entries), kc))
        if k is not None and kc is not None:
            both += 1
            assert k.total() == kc.total()
    assert solved > 100 and both > 100  # the generator must exercise the property


def test_transpose_duality():
    # The coweighting of ζ is the weighting of ζᵀ, and the other way round.
    for seed in range(60):
        m = random_rational_matrix(seed)
        e = matrix_euler(m)
        t = matrix_euler(QMatrix(m.rows, tuple(map(tuple, _transpose(m.entries)))))
        assert (e.weighting, e.coweighting, e.chi) == (t.coweighting, t.weighting, t.chi)


def test_invertible_chi_equals_inverse_entry_sum():
    for seed in range(120):
        m = random_rational_matrix(seed)
        inv = fraction_oracle.invert([list(r) for r in m.entries])
        if inv is None:
            continue
        e = matrix_euler(m)
        assert e.chi is not None
        assert e.chi == sum((v for row in inv for v in row), Fraction(0))


def test_choice_independence_of_chi():
    # perturbing free variables changes k but not its sum, when a coweighting exists
    hits = 0
    for seed in range(200):
        m = random_rational_matrix(seed)
        e = matrix_euler(m)
        k0, kc = e.weighting, e.coweighting
        k1 = _oracle_weighting(m.entries, free_value=Fraction(1))
        if k0 is None or kc is None:
            continue
        assert k1 is not None
        if k0.entries != k1:
            hits += 1
            assert all(x == 1 for x in _mul(m.entries, QVector(m.rows, k1)))
        assert k0.total() == sum(k1)
    assert hits > 0  # at least some underdetermined consistent systems appeared


def _seeded_matrix(seed: int, kind: str) -> list[list[Fraction]]:
    """Seeded rational matrix, as a row list, of one shape class, for the oracle cross-check.

    Entries are p/q with q in 1..6, so a row mixes denominators and the
    kernel's row scaling by the lcm is exercised.
    """
    rng = random.Random(f"{kind}:{seed}")
    n = rng.randint(2, 7)
    width = n + rng.randint(1, 3) if kind == "underdetermined" else n
    rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(width)] for _ in range(n)]
    if kind == "singular":  # a repeated equation: rank drops, the ones system stays consistent
        rows[-1] = list(rows[0])
    elif kind == "inconsistent":  # r·x = 1 and 2r·x = 1 cannot both hold
        rows[-1] = [2 * v for v in rows[0]]
    return rows


def _oracle_weighting(rows, free_value=Fraction(0)):
    x = fraction_oracle.solve_linear([list(r) for r in rows], [Fraction(1)] * len(rows), free_value)
    return None if x is None else tuple(x)


def _kernel_weighting(rows):
    x = _solve(rows)
    return None if x is None else tuple(x)


@pytest.mark.parametrize("kind", ["nonsingular", "singular", "inconsistent", "underdetermined"])
def test_kernel_matches_fraction_oracle(kind):
    mixed = 0
    for seed in range(60):
        m = _seeded_matrix(seed, kind)
        if kind == "nonsingular" and fraction_oracle.invert([list(r) for r in m]) is None:
            continue
        if any(len({v.denominator for v in row}) > 1 for row in m):
            mixed += 1
        expected = _oracle_weighting(m)
        assert _kernel_weighting(m) == expected, seed
        assert (expected is None) == (kind == "inconsistent"), seed
        t = _transpose(m)
        assert _kernel_weighting(t) == _oracle_weighting(t), seed
    assert mixed > 40  # most matrices mix denominators within a row


def test_kernel_matches_fraction_oracle_on_generator_stream():
    for seed in range(200):
        m = random_rational_matrix(seed)
        assert _kernel_weighting(m.entries) == _oracle_weighting(m.entries), seed


# ζ entries of the dense cat-graphs: no hom, BZ/2, a point-like hom, two points.
_ZETA_ENTRIES = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))


def _dense_zeta(n: int, kind: str) -> list[list[Fraction]]:
    """A seeded ζ-like matrix, as a row list with n rows, of one shape class.

    "nonsingular": n × n; "repeated": an (n - 1)-object ζ with one object
    copied, row and column, as the last; "rank-deficient": n × (n + 5), each
    row a copy of one of n // 2 drawn rows.
    """
    rng = random.Random(f"{kind}:{n}")

    def draw(rows, width):
        return [[rng.choice(_ZETA_ENTRIES) for _ in range(width)] for _ in range(rows)]

    if kind == "rank-deficient":
        base = draw(n // 2, n + 5)
        rows = base + [list(rng.choice(base)) for _ in range(n - len(base))]
        rng.shuffle(rows)
    elif kind == "repeated":
        rows = draw(n - 1, n - 1)
        src = rng.randrange(n - 1)
        for row in rows:
            row.append(row[src])
        rows.append(list(rows[src]))
    else:
        rows = draw(n, n)
    return rows


def _rank_mod_p(m, p: int = (1 << 61) - 1) -> int:
    """The rank of 2m modulo the prime p: a lower bound on the rank of m over Q."""
    rows = [[int(2 * v) % p for v in row] for row in m]
    rank = 0
    for col in range(len(m[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] * inv % p
            rows[r] = [(v - f * w) % p for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("n", [20, 40, 60])
@pytest.mark.parametrize("kind", ["nonsingular", "repeated", "rank-deficient"])
def test_kernel_matches_fraction_oracle_at_dense_zeta_sizes(kind, n):
    m = _dense_zeta(n, kind)
    # Each construction bounds the rank from above; the modular rank bounds it from below.
    assert _rank_mod_p(m) == {"nonsingular": n, "repeated": n - 1, "rank-deficient": n // 2}[kind]
    for side in (m, _transpose(m)):
        expected = _oracle_weighting(side)
        assert _kernel_weighting(side) == expected
        # Only the transposed rank-deficient system, n + 5 equations of rank n // 2, is inconsistent.
        assert (expected is None) == (kind == "rank-deficient" and side is not m)
        if kind == "repeated":  # the copy is the rightmost of two equal columns, so it is free and pinned to 0
            assert expected[-1] == 0
