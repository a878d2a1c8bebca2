"""Exact arithmetic in Z/p^k for primes p >= 5.

Residues are canonical representatives in [0, p^k).  Rational parameters are
plain ``fractions.Fraction`` values; a rational is usable at a prime p only
when p does not divide its denominator, i.e. when it is a p-adic integer.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

RationalLike = int | Fraction


class PadicError(Exception):
    """Base class for domain errors in this package."""


class NotPAdicInteger(PadicError):
    """Raised when a rational has denominator divisible by the prime in use."""


class IndexOutOfRange(PadicError):
    """Raised for harmonic-number indices n >= p."""


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    d = 5
    while d * d <= n:
        if n % d == 0 or n % (d + 2) == 0:
            return False
        d += 6
    return True


def sieve_primes(lo: int, hi: int) -> list[int]:
    """All primes p with max(lo, 5) <= p <= hi, ascending.

    2 and 3 are never returned; every context in this package requires p >= 5.
    """
    if lo > hi:
        raise ValueError(f"empty range: lo={lo} > hi={hi}")
    return [n for n in range(max(lo, 5), hi + 1) if is_prime(n)]


class ModulusContext(namedtuple("ModulusContext", "p k modulus")):
    """A prime p >= 5 together with an exponent k in {1, 2, 3}; modulus p^k,
    derived and stored: the kernels read it on every call."""

    __slots__ = ()

    def __new__(cls, p: int, k: int):
        if k not in (1, 2, 3):
            raise ValueError(f"exponent k must be 1, 2 or 3, got {k}")
        if p < 5 or not is_prime(p):
            raise ValueError(f"p must be a prime >= 5, got {p}")
        return super().__new__(cls, p, k, p**k)

    def __getnewargs__(self) -> tuple[int, int]:  # copy and pickle go back through __new__
        return self.p, self.k

    def __repr__(self) -> str:
        return f"ModulusContext(p={self.p}, k={self.k})"


class Residue(namedtuple("Residue", "value ctx")):
    """Canonical representative in [0, modulus) of an element of Z/p^k.

    A value holder: the kernels and the Gamma evaluator return one, and
    callers read ``.value``.
    """

    __slots__ = ()

    def __new__(cls, value: int, ctx: ModulusContext):
        if not 0 <= value < ctx.modulus:
            raise ValueError(f"value {value} out of range [0, {ctx.modulus})")
        return tuple.__new__(cls, (value, ctx))  # the namedtuple's own __new__, without its frame

    def __repr__(self) -> str:
        return f"Residue({self.value} mod {self.ctx.modulus})"


def _lift(num: int, den: int, p: int, modulus: int) -> int | None:
    """num/den mod p^k in [0, p^k), or None when p divides den: the one reduction of the package."""
    return None if den % p == 0 else num * pow(den, -1, modulus) % modulus


def _lift_p_adic(a: RationalLike, p: int, modulus: int) -> int:
    a = Fraction(a)
    x = _lift(a.numerator, a.denominator, p, modulus)
    if x is None:
        raise NotPAdicInteger(f"{a} is not a p-adic integer at p={p}")
    return x


def reduce_rational(a: RationalLike, ctx: ModulusContext) -> Residue:
    """Image of a p-adic integer a = num/den in Z/p^k."""
    return Residue(_lift_p_adic(a, ctx.p, ctx.modulus), ctx)


def least_residue(a: RationalLike, p: int) -> int:
    """The least non-negative integer r < p with a = r (mod p), for a prime p >= 5."""
    return _lift_p_adic(a, p, ModulusContext(p, 1).modulus)  # refuses a p that is not a prime >= 5


@lru_cache(maxsize=1)
def _harmonic_table(p: int) -> tuple[int, ...]:
    # H_0..H_{p-1} mod p: running sums of the inverses of 1..p-1 mod p.  Scans go prime by prime.
    return tuple(accumulate(unit_inverse_table(p, 1), lambda h, inv: (h + inv) % p))


def harmonic_mod(n: int, p: int) -> int:
    """H_n = sum_{j=1..n} 1/j reduced mod p, for a prime p >= 5 and 0 <= n < p."""
    ModulusContext(p, 1)  # refuses a p that is not a prime >= 5
    if not 0 <= n < p:
        raise IndexOutOfRange(f"harmonic index {n} outside [0, {p})")
    return _harmonic_table(p)[n]


@lru_cache(maxsize=3)
def unit_inverse_table(p: int, k: int) -> tuple[int, ...]:
    """Inverses of 1..p-1 mod p^k (index 0 unused), read by the series kernels and _harmonic_table; one prime cached."""
    m = p**k
    return (0,) + tuple(pow(j, -1, m) for j in range(1, p))
