"""Exact arithmetic in Z/p^k for primes p >= 5.

Residues are canonical representatives in [0, p^k).  Rational parameters are
plain ``fractions.Fraction`` values; a rational is usable at a prime p only
when p does not divide its denominator, i.e. when it is a p-adic integer.
"""

from __future__ import annotations

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


class _Frozen:
    """An immutable slotted value: equal to, and hashed with, another of its
    class by the fields named in ``_fields``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # pickle and copy through __init__, not through __setattr__
        return self.__class__, self._key()


class ModulusContext(_Frozen):
    """A prime p >= 5 together with an exponent k in {1, 2, 3}; modulus p^k.

    Equal and hashed by (p, k); ``modulus`` is derived from them.
    """

    __slots__ = ("p", "k", "modulus")
    _fields = ("p", "k")

    def __init__(self, p: int, k: int) -> None:
        if k not in (1, 2, 3):
            raise ValueError(f"exponent k must be 1, 2 or 3, got {k}")
        if p < 5 or not is_prime(p):
            raise ValueError(f"p must be a prime >= 5, got {p}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "modulus", p**k)

    def __repr__(self) -> str:
        return f"ModulusContext(p={self.p}, k={self.k})"


class Residue(_Frozen):
    """Canonical representative in [0, modulus) of an element of Z/p^k.

    A value holder: the kernels and the Gamma evaluator return one, and
    callers read ``.value``.
    """

    __slots__ = _fields = ("value", "ctx")

    def __init__(self, value: int, ctx: ModulusContext) -> None:
        if not 0 <= value < ctx.modulus:
            raise ValueError(f"value {value} out of range [0, {ctx.modulus})")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "ctx", ctx)

    def __repr__(self) -> str:
        return f"Residue({self.value} mod {self.ctx.modulus})"


def _check_p_adic(a: Fraction, p: int) -> None:
    if a.denominator % p == 0:
        raise NotPAdicInteger(f"{a} is not a p-adic integer at p={p}")


def reduce_rational(a: RationalLike, ctx: ModulusContext) -> Residue:
    """Image of a p-adic integer a = num/den in Z/p^k."""
    a = Fraction(a)
    _check_p_adic(a, ctx.p)
    m = ctx.modulus
    return Residue(a.numerator * pow(a.denominator % m, -1, m) % m, ctx)


def least_residue(a: RationalLike, p: int) -> int:
    """The least non-negative integer r < p with a = r (mod p)."""
    a = Fraction(a)
    _check_p_adic(a, p)
    return a.numerator * pow(a.denominator % p, -1, p) % p


@lru_cache(maxsize=256)
def _harmonic_table(p: int) -> tuple[int, ...]:
    # H_0..H_{p-1} mod p: running sums of the inverses of 1..p-1 mod p
    return tuple(accumulate(unit_inverse_table(p, 1), lambda h, inv: (h + inv) % p))


def harmonic_mod(n: int, p: int) -> int:
    """H_n = sum_{j=1..n} 1/j reduced mod p, for 0 <= n < p."""
    if not 0 <= n < p:
        raise IndexOutOfRange(f"harmonic index {n} outside [0, {p})")
    return _harmonic_table(p)[n]


@lru_cache(maxsize=64)
def unit_inverse_table(p: int, k: int) -> tuple[int, ...]:
    """Inverses of 1..p-1 mod p^k (index 0 unused); shared by series loops."""
    m = p**k
    return (0,) + tuple(pow(j, -1, m) for j in range(1, p))
