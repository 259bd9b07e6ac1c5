"""Exact scalar arithmetic: the rationals and prime fields.

A field descriptor owns the arithmetic; scalar values are plain Python
objects.  Over QQ an integral value is an int and any other value a
fractions.Fraction; over GF(p) values are canonical ints in range(p).
Every container (LinMap, Subspace, structure data) carries one descriptor,
and operations refuse to mix descriptors, so all scalars in a computation
share one field.
"""

from __future__ import annotations

import re
from fractions import Fraction

# The value grammar of spec files: an integer or num/den, ASCII digits.
_VALUE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _split_value(token):
    """(numerator, denominator) of a value token; the denominator of an
    integer token is None."""
    m = _VALUE.fullmatch(token)
    if m is None:
        raise ValueError(f"not a value: {token!r}")
    num, den = m.groups()
    return int(num), None if den is None else int(den)


class FieldMismatchError(ValueError):
    """Two containers over different field descriptors were combined."""


class Field:
    """Base descriptor.  Subclasses implement exact arithmetic on raw scalars."""

    char = None
    name = "?"

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def from_int(self, n):
        raise NotImplementedError

    def parse(self, token):
        raise NotImplementedError

    def fmt(self, a):
        raise NotImplementedError

    def __repr__(self):
        return self.name


def _canonical(c):
    """A rational as an int if its denominator is 1 (inlined in add, sub
    and mul, which run in the elimination loops)."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


class RationalField(Field):
    """QQ.  A scalar with denominator 1 is stored as an int, any other as a
    Fraction, so elimination over integer data never builds a Fraction.
    The two types agree on ==, hash, < and str, and both carry .numerator
    and .denominator, so callers need not tell them apart."""

    char = 0
    name = "QQ"
    zero = 0
    one = 1

    def add(self, a, b):
        c = a + b
        return c if type(c) is int or c.denominator != 1 else c.numerator

    def sub(self, a, b):
        c = a - b
        return c if type(c) is int or c.denominator != 1 else c.numerator

    def mul(self, a, b):
        c = a * b
        return c if type(c) is int or c.denominator != 1 else c.numerator

    def neg(self, a):
        return _canonical(-a)

    def inv(self, a):
        if a == 1 or a == -1:
            return int(a)
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in QQ")
        return _canonical(1 / Fraction(a))

    def from_int(self, n):
        return int(n)

    def parse(self, token):
        num, den = _split_value(token)
        return num if den is None else _canonical(Fraction(num, den))

    def fmt(self, a):
        return str(a)


# Miller-Rabin with the first twelve primes as bases is exact for every
# n below 318665857834031151167461 > 3e23, the least strong pseudoprime to
# all twelve (Sorenson and Webster, Math. Comp. 86, 2017), so for every
# characteristic below CHAR_BOUND.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
CHAR_BOUND = 2 ** 64


def _is_prime(n):
    """Primality of an integer n < CHAR_BOUND, by deterministic Miller-Rabin."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField(Field):
    """GF(p) for a prime p below CHAR_BOUND, elements stored as canonical
    ints in range(p)."""

    def __init__(self, p):
        if p >= CHAR_BOUND:
            raise ValueError(
                f"characteristic must be below 2^64 = {CHAR_BOUND}")
        if not _is_prime(p):
            raise ValueError(f"not a prime: {p}")
        self.p = p
        self.char = p
        self.name = f"GF({p})"
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"inverse of 0 in {self.name}")
        return pow(a, self.p - 2, self.p)

    def from_int(self, n):
        return n % self.p

    def parse(self, token):
        num, den = _split_value(token)
        a = self.from_int(num)
        return a if den is None else self.mul(a, self.inv(self.from_int(den)))

    def fmt(self, a):
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()

_gf_cache = {}


def GF(p):
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


def same_field(a, b):
    if a != b:
        raise FieldMismatchError(f"field mismatch: {a} vs {b}")
    return a
