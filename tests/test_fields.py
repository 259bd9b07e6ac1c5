"""QQ scalars are ints when integral and Fractions otherwise.

Oracle: a rational field that keeps every scalar as a fractions.Fraction,
the representation QQ used before integral values became ints.  The
elimination routines must give the same values and the same printed
entries over both fields, and every scalar QQ returns must be in its
canonical form: an exact int (never a bool) or a Fraction whose
denominator is not 1.  Both fields parse only the spec value grammar.

GF(p) takes a characteristic below 2^64 and tests it by deterministic
Miller-Rabin; the oracles are sympy.isprime and published lists of strong
pseudoprimes and Carmichael numbers.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from coideals.fields import CHAR_BOUND, GF, QQ, Field, PrimeField, _is_prime
from coideals.linalg import LinMap, kernel_of, rref, solve


class FractionField(Field):
    """QQ with every scalar a Fraction."""

    char = 0
    name = "QQ-fractions"
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in QQ")
        return 1 / Fraction(a)

    def from_int(self, n):
        return Fraction(n)

    def parse(self, token):
        return Fraction(token)

    def fmt(self, a):
        return str(a)


ORACLE = FractionField()


def canonical(x):
    return (type(x) is int
            or (type(x) is Fraction and x.denominator != 1))


def to_qq(x):
    return QQ.parse(str(x))


nonzero = st.one_of(
    st.integers(-6, 6).filter(bool).map(Fraction),
    st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(bool),
)


@st.composite
def matrices(draw, max_rows=5, max_cols=6):
    """Fraction matrices with at least half of the entries zero."""
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    cells = nrows * ncols
    live = draw(st.sets(st.integers(0, cells - 1), max_size=cells // 2))
    vals = draw(st.lists(nonzero, min_size=cells, max_size=cells))
    return [[vals[r * ncols + c] if r * ncols + c in live else Fraction(0)
             for c in range(ncols)] for r in range(nrows)]


def assert_same(got, want):
    assert got == want
    assert [QQ.fmt(x) for x in got] == [ORACLE.fmt(x) for x in want]
    assert all(canonical(x) for x in got)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_rref_agrees_with_the_fraction_oracle(mat):
    rows, pivots = rref(QQ, [[to_qq(x) for x in r] for r in mat])
    want_rows, want_pivots = rref(ORACLE, mat)
    assert pivots == want_pivots
    assert len(rows) == len(want_rows)
    for got, want in zip(rows, want_rows):
        assert_same(got, want)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_kernel_agrees_with_the_fraction_oracle(mat):
    got = kernel_of(LinMap.from_rows(QQ, [[to_qq(x) for x in r] for r in mat]))
    want = kernel_of(LinMap.from_rows(ORACLE, mat))
    assert got.pivots == want.pivots
    assert len(got.rows) == len(want.rows)
    for g, w in zip(got.rows, want.rows):
        assert_same(g, w)


@settings(max_examples=100, deadline=None)
@given(matrices(), st.data())
def test_solve_agrees_with_the_fraction_oracle(mat, data):
    target = data.draw(st.lists(st.one_of(st.just(Fraction(0)), nonzero),
                                min_size=len(mat), max_size=len(mat)))
    got = solve(LinMap.from_rows(QQ, [[to_qq(x) for x in r] for r in mat]),
                tuple(to_qq(x) for x in target))
    want = solve(LinMap.from_rows(ORACLE, mat), tuple(target))
    if want is None:
        assert got is None
    else:
        assert_same(got, want)


scalars = st.one_of(st.just(Fraction(0)), nonzero,
                    st.integers(-10 ** 30, 10 ** 30).map(Fraction))


@settings(max_examples=300, deadline=None)
@given(scalars, scalars)
def test_every_operation_returns_a_canonical_scalar(x, y):
    a, b = to_qq(x), to_qq(y)
    for got, want in [(QQ.add(a, b), x + y), (QQ.sub(a, b), x - y),
                      (QQ.mul(a, b), x * y), (QQ.neg(a), -x),
                      (QQ.parse(f"{x.numerator}/{x.denominator}"), x)]:
        assert got == want and canonical(got), (x, y, got)
    if y:
        got = QQ.inv(b)
        assert got == 1 / y and canonical(got), (y, got)


@pytest.mark.parametrize("n", [True, False, 0, 1, -1, 7, -(10 ** 40)])
def test_from_int_returns_an_exact_int(n):
    assert type(QQ.from_int(n)) is int
    assert QQ.from_int(n) == n


@pytest.mark.parametrize("token,value", [
    ("3", 3), ("-3", -3), ("+3", 3), ("6/3", 2), ("-4/6", Fraction(-2, 3)),
    ("0/5", 0),
])
def test_parse_accepts_the_spec_grammar(token, value):
    got = QQ.parse(token)
    assert got == value and canonical(got)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
@pytest.mark.parametrize("token", [
    "1.5", "1e5000", "1_000", " 1", "1/", "/2", "1/-2", "0x10", "٣", "",
])
def test_parse_rejects_other_tokens(field, token):
    with pytest.raises(ValueError):
        field.parse(token)


def test_division_by_zero_is_rejected():
    with pytest.raises(ZeroDivisionError):
        QQ.parse("1/0")
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


# -- characteristics ----------------------------------------------------


def test_primality_agrees_with_sympy_below_ten_thousand():
    assert [n for n in range(10 ** 4) if _is_prime(n)] == \
        [n for n in range(10 ** 4) if sympy.isprime(n)]


@pytest.mark.parametrize("n", [
    2047, 3277, 4033, 3215031751,  # strong pseudoprimes to base 2
    3825123056546413051,  # strong pseudoprime to every base up to 23
    561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
    5394826801, 232250619601, 9746347772161,  # Carmichael numbers
])
def test_composites_that_fool_weaker_tests_are_refused(n):
    assert not sympy.isprime(n)
    with pytest.raises(ValueError, match=f"not a prime: {n}"):
        PrimeField(n)


@pytest.mark.parametrize("p", [2, 3, 10 ** 9 + 7, 10 ** 18 + 3, CHAR_BOUND - 59])
def test_large_primes_below_the_bound_are_accepted(p):
    assert sympy.isprime(p)
    f = PrimeField(p)
    assert f.mul(f.inv(p - 1), p - 1) == 1


@pytest.mark.parametrize("p", [
    CHAR_BOUND, CHAR_BOUND + 13,
    318665857834031151167461,  # strong pseudoprime to every base up to 37
    10 ** 400 + 1,
])
def test_characteristics_from_two_to_the_64_are_refused(p):
    with pytest.raises(ValueError, match=r"below 2\^64"):
        PrimeField(p)
