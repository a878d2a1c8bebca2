"""Exact certification of the combinatorial identities behind the congruences.

Everything here runs over arbitrary-precision rationals; a check passes only
on exact equality.  Every left-hand side, the terminating 2F1 and 3F2 of
GAUSS_HALF and CLAUSEN included, is one binomial sum of integer terms over
2^(e n); the harmonic weights are added as a pairwise sum of the fractions
T_j/(n+j) over the tails T_j, and each sum is turned into a Fraction once.
Each right-hand side is an independent closed form from math.comb and the
cached harmonic numbers, except CLAUSEN's, which is the square of the other
sum: the 2F1 against the 3F2.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import accumulate
from math import comb

from .padic_core import PadicError


class OddInput(PadicError):
    """Raised by the even-n identities when given an odd n."""


_harmonic_cache: list[Fraction] = [Fraction(0)]


def harmonic(n: int) -> Fraction:
    """Exact harmonic number H_n, cached."""
    if n < 0:
        raise ValueError("harmonic index must be >= 0")
    while len(_harmonic_cache) <= n:
        _harmonic_cache.append(_harmonic_cache[-1] + Fraction(1, len(_harmonic_cache)))
    return _harmonic_cache[n]


class IdentityCheck(namedtuple("IdentityCheck", "identity n lhs rhs")):
    """Both sides, Fractions, of one identity instance at n; equal iff the check passes."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


class IdentityReport(namedtuple("IdentityReport", "identity n_min n_max first_failure", defaults=(None,))):
    """Result of sweeping one identity over n_min..n_max: the first failing
    IdentityCheck, or None."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.first_failure is None


def _require_even(n: int) -> None:
    if n < 0:
        raise ValueError("n must be >= 0")
    if n % 2:
        raise OddInput(f"identity requires even n, got {n}")


def _binomial_sum(n: int, e: int, weight: tuple[int, int, int] | None = None) -> Fraction:
    """sum_{k=0..n} C(2k,k)^e C(n+k,2k) (-1/2^e)^k w_k, where w_k = 1 for any
    n >= 0, or w_k = c0 H_{n+k} + c1 H_n + c2 H_{n/2} for weight = (c0, c1, c2)
    and even n.

    Unweighted, e = 1 gives the terminating 2F1(-n, n+1; 1; 1/2) and e = 2 the
    terminating 3F2(1/2, -n, n+1; 1, 1; 1), odd n included: term by term,
    (-n)_k (n+1)_k / k!^2 = (-1)^k C(2k,k) C(n+k,2k) and (1/2)_k / k! = C(2k,k) / 4^k.

    Term k times 2^(e n) is the integer t_k = C(2k,k)^e C(n+k,2k) (-1)^k 2^(e(n-k)).
    By Abel summation, sum_k t_k (H_{n+k} - H_n) = sum_{j=1..n} T_j / (n+j)
    with the tails T_j = sum_{k>=j} t_k; those n fractions are added pairwise,
    level by level (binary splitting), so most products are big times small.
    The rest of the weight, (c0 + c1) H_n + c2 H_{n/2}, multiplies the plain sum T_0.
    """
    terms, term = [], 1 << e * n
    for k in range(n + 1):
        terms.append(term)
        # term k+1 over term k: -(2(2k+1))^(e-1) (n+k+1)(n-k) / (2^e (k+1)^(e+1)), exact;
        # the small factors go first, so the big term takes one product and one division
        term = -term * ((4 * k + 2) ** (e - 1) * (n + k + 1) * (n - k)) // ((k + 1) ** (e + 1) << e)
    if weight is None:
        return Fraction(sum(terms), 1 << e * n)
    c_run, c_n, c_half = weight
    tails = list(accumulate(reversed(terms)))  # tails[i] = T_{n-i}
    del terms
    total = tails.pop()  # T_0
    level = [(t, 2 * n - i) for i, t in enumerate(tails)]  # (T_j, n+j), j = n..1
    while len(level) > 1:
        odd = level[-1:] if len(level) % 2 else []
        level = [(p1 * q2 + p2 * q1, q1 * q2) for (p1, q1), (p2, q2) in zip(level[::2], level[1::2])] + odd
    num, den = level[0] if level else (0, 1)
    h = (c_run + c_n) * harmonic(n) + c_half * harmonic(n // 2)
    return Fraction(c_run * num * h.denominator + h.numerator * total * den, den * h.denominator << e * n)


def check_b8(n: int) -> IdentityCheck:
    """Even n: sum_k C(2k,k) C(n+k,2k) (-1/2)^k = C(n, n/2) / (-4)^(n/2)."""
    _require_even(n)
    rhs = Fraction(comb(n, n // 2), (-4) ** (n // 2))
    return IdentityCheck("B8", n, _binomial_sum(n, 1), rhs)


def check_b9(n: int) -> IdentityCheck:
    """Even n: sum_k C(2k,k)^2 C(n+k,2k) (-1/4)^k = C(n, n/2)^2 / 4^n."""
    _require_even(n)
    rhs = Fraction(comb(n, n // 2) ** 2, 4**n)
    return IdentityCheck("B9", n, _binomial_sum(n, 2), rhs)


def check_b17(n: int) -> IdentityCheck:
    """Even n: the B8 sum weighted by H_{n+k} - H_n equals
    C(n, n/2) / (-4)^(n/2) * (H_n - H_{n/2}) / 2."""
    _require_even(n)
    rhs = Fraction(comb(n, n // 2), (-4) ** (n // 2)) * (harmonic(n) - harmonic(n // 2)) / 2
    return IdentityCheck("B17", n, _binomial_sum(n, 1, (1, -1, 0)), rhs)


def check_b18(n: int) -> IdentityCheck:
    """Even n: the B9 sum weighted by H_{n+k} - H_n equals
    C(n, n/2)^2 / 4^n * (3 H_n / 2 - H_{n/2})."""
    _require_even(n)
    rhs = Fraction(comb(n, n // 2) ** 2, 4**n) * (Fraction(3, 2) * harmonic(n) - harmonic(n // 2))
    return IdentityCheck("B18", n, _binomial_sum(n, 2, (1, -1, 0)), rhs)


def a_n(n: int) -> Fraction:
    """sum_{k=0..2n} C(2k,k) C(2n+k,2k) (-1/2)^k (2 H_{2n+k} - 3 H_{2n} + H_n).

    Vanishes for every n >= 0; certified on a range through check_recurrences.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return _binomial_sum(2 * n, 1, (2, -3, 1))


def b_n(n: int) -> Fraction:
    """sum_{k=0..2n} C(2k,k)^2 C(2n+k,2k) (-1/4)^k (2 H_{2n+k} - 5 H_{2n} + 2 H_n)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _binomial_sum(2 * n, 2, (2, -5, 2))


def check_recurrences(n_max: int) -> IdentityReport:
    """Certify that a_n and b_n vanish for every n in [0, n_max].

    The first nonzero value is the failure: A_VANISH or B_VANISH at its n.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    zero = Fraction(0)
    for n in range(n_max + 1):
        for name, value in (("A_VANISH", a_n(n)), ("B_VANISH", b_n(n))):
            if value != 0:
                return IdentityReport("RECURRENCES", 0, n_max, IdentityCheck(name, n, value, zero))
    return IdentityReport("RECURRENCES", 0, n_max)


def check_clausen_truncated(n: int) -> IdentityCheck:
    """Integer n >= 0, both parities: the terminating 3F2(1/2,-n,n+1;1,1;1)
    equals the square of the terminating 2F1(-n,n+1;1;1/2), exactly."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return IdentityCheck("CLAUSEN", n, _binomial_sum(n, 2), _binomial_sum(n, 1) ** 2)


def check_gauss_half(n: int) -> IdentityCheck:
    """Even n: the terminating 2F1(-n,n+1;1;1/2) equals C(n,n/2)/(-4)^(n/2)."""
    return check_b8(n)._replace(identity="GAUSS_HALF")  # B8 term by term, under its own id


_CHECKERS = {
    "B8": check_b8,
    "B9": check_b9,
    "B17": check_b17,
    "B18": check_b18,
    "CLAUSEN": check_clausen_truncated,
    "GAUSS_HALF": check_gauss_half,
}
