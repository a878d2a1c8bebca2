"""Exact certification of the combinatorial identities behind the congruences.

Everything here runs over arbitrary-precision rationals; a check passes only
on exact equality.  Every left-hand side, the terminating 2F1 and 3F2 of
GAUSS_HALF and CLAUSEN included, is one binomial sum of integer terms over
2^(e n); the harmonic weights are added as a pairwise sum of the fractions
T_j/(n+j) over the tails T_j, and each sum is turned into a Fraction once.
Inside sweep(), the parts of each sum at (n, e) are made once.  Since
a_n(n) = 2 B17(2n) - (H_2n - H_n) B8(2n) and b_n(n) = 2 B18(2n) - (3 H_2n - 2 H_n) B9(2n)
for the left sides B8..B18, RECURRENCES' direct sums at 2n <= n_max make the
parts that the even-n checks read.  That a_n and b_n vanish for every n is a
creative-telescoping certificate, stored as integer tables and checked at run
time (telescoping), so the sweep sums nothing beyond n_max.
Each right-hand side is an independent closed form from math.comb and the
cached harmonic numbers, except CLAUSEN's, which is the square of the other
sum: the 2F1 against the 3F2.
"""

from __future__ import annotations

from collections import namedtuple
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb

from .padic_core import PadicError
from .telescoping import first_residual  # a module apart: compiled with this one, it raised a sweep's peak RSS


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


#: While a sweep() is open, its n_max and the parts of each sum by (n, e); None outside one.
_shared: tuple[int, dict] | None = None


@contextmanager
def sweep(n_max: int):
    """Within the block, the parts of each sum at n <= n_max are made once and
    shared, so a_n, b_n and the checkers at one n read one set of terms.

    Outside it every call computes afresh.  Only parts are shared, never a
    weighted result: each call still applies its own weight and harmonic numbers.
    """
    global _shared
    previous, _shared = _shared, (n_max, {})
    try:
        yield
    finally:
        _shared = previous


@lru_cache(maxsize=1)  # a_n and b_n at one n run back to back
def _denominator_levels(n: int) -> tuple[tuple[int, ...], ...]:
    """The product tree over n+j, j = n..1: level 0 is (2n, ..., n+1), each
    next level the pairwise products, an odd one left over carried up."""
    levels = [tuple(range(2 * n, n, -1))]
    while len(levels[-1]) > 1:
        dens = levels[-1]
        levels.append(tuple([q1 * q2 for q1, q2 in zip(dens[::2], dens[1::2])]) + dens[len(dens) & ~1 :])
    return tuple(levels)


def _parts(n: int, e: int, weighted: bool) -> tuple:
    """(T_0, pair) for the sum at (n, e): T_0 = sum_k t_k, and when weighted
    the unreduced pair (num, den) = sum_{j=1..n} T_j / (n+j), else None."""
    n_max, shared = _shared or (-1, {})
    parts = shared.get((n, e))
    if parts is not None and (parts[1] is not None or not weighted):
        return parts
    # term k+1 over term k is -(2(2k+1))^(e-1) (n+k+1)(n-k) / (2^e (k+1)^(e+1)), exact; the sign and
    # the small factors go first, so the big term takes one product and one exact division
    term = 1 << e * n
    terms = [term]
    if e == 1:
        for k in range(n):
            term = term * ((n + k + 1) * (k - n)) // (2 * (k + 1) ** 2)
            terms.append(term)
    else:
        for k in range(n):
            term = term * ((2 * k + 1) * (n + k + 1) * (k - n)) // (2 * (k + 1) ** 3)
            terms.append(term)
    if not weighted:
        parts = (sum(terms), None)
    else:
        nums = list(accumulate(reversed(terms)))  # T_n, ..., T_1, T_0
        del terms
        total = nums.pop()
        levels = _denominator_levels(n)
        for dens in levels[:-1]:  # add the fractions pairwise, level by level (binary splitting)
            merged = [p1 * q2 + p2 * q1 for p1, p2, q1, q2 in zip(nums[::2], nums[1::2], dens[::2], dens[1::2])]
            nums = merged + nums[len(nums) & ~1 :]
        parts = (total, (nums[0], levels[-1][0]) if nums else (0, 1))
    if n <= n_max:
        shared[n, e] = parts
    return parts


def _binomial_sum(n: int, e: int, weight: tuple[int, int, int] | None = None) -> Fraction:
    """sum_{k=0..n} C(2k,k)^e C(n+k,2k) (-1/2^e)^k w_k, for e = 1 or 2, where
    w_k = 1 for any n >= 0, or w_k = c0 H_{n+k} + c1 H_n + c2 H_{n/2} for
    weight = (c0, c1, c2) and even n.

    Unweighted, e = 1 gives the terminating 2F1(-n, n+1; 1; 1/2) and e = 2 the
    terminating 3F2(1/2, -n, n+1; 1, 1; 1), odd n included: term by term,
    (-n)_k (n+1)_k / k!^2 = (-1)^k C(2k,k) C(n+k,2k) and (1/2)_k / k! = C(2k,k) / 4^k.

    Term k times 2^(e n) is the integer t_k = C(2k,k)^e C(n+k,2k) (-1)^k 2^(e(n-k)).
    By Abel summation, sum_k t_k (H_{n+k} - H_n) = sum_{j=1..n} T_j / (n+j)
    with the tails T_j = sum_{k>=j} t_k; those n fractions are added pairwise,
    level by level (binary splitting), so most products are big times small.
    The rest of the weight, (c0 + c1) H_n + c2 H_{n/2}, multiplies the plain sum T_0.
    """
    total, pair = _parts(n, e, weight is not None)
    if weight is None:
        return Fraction(total, 1 << e * n)
    c_run, c_n, c_half = weight
    num, den = pair
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


#: The harmonic weights (c_run, c_n, c_half) of a_n (e = 1) and b_n (e = 2), as _binomial_sum takes them
_VANISHING = {1: (2, -3, 1), 2: (2, -5, 2)}


def a_n(n: int) -> Fraction:
    """sum_{k=0..2n} C(2k,k) C(2n+k,2k) (-1/2)^k (2 H_{2n+k} - 3 H_{2n} + H_n).

    Vanishes for every n >= 0: check_recurrences checks the proof.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return _binomial_sum(2 * n, 1, _VANISHING[1])


def b_n(n: int) -> Fraction:
    """sum_{k=0..2n} C(2k,k)^2 C(2n+k,2k) (-1/4)^k (2 H_{2n+k} - 5 H_{2n} + 2 H_n).

    Vanishes for every n >= 0: check_recurrences checks the proof.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return _binomial_sum(2 * n, 2, _VANISHING[2])


def check_recurrences(n_max: int) -> IdentityReport:
    """Certify that a_n and b_n vanish for every n: directly for 2n <= n_max, then by proof.

    The direct sums at n <= n_max // 2 come first; the first nonzero value is
    the failure, A_VANISH or B_VANISH at its n.  Inside sweep(n_max) they make
    the parts that the even-n identities read.  Then the creative-telescoping
    proof for every n (see telescoping), with its initial values u_0 = 1,
    u_1 = 0 and w_0 = 0 from the direct sums; a step that fails is A_PROOF or
    B_PROOF at its m, with the nonzero residual.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    zero = Fraction(0)
    for n in range(n_max // 2 + 1):
        for name, value in (("A_VANISH", a_n(n)), ("B_VANISH", b_n(n))):
            if value != 0:
                return IdentityReport("RECURRENCES", 0, n_max, IdentityCheck(name, n, value, zero))
    for e, name in ((1, "A_PROOF"), (2, "B_PROOF")):
        initial = ((0, _binomial_sum(0, e) - 1), (1, _binomial_sum(1, e)), (0, _binomial_sum(0, e, (1, -1, 0))))
        failure = first_residual(e, _VANISHING[e]) or next(((m, v) for m, v in initial if v), None)
        if failure is not None:
            return IdentityReport("RECURRENCES", 0, n_max, IdentityCheck(name, failure[0], Fraction(failure[1]), zero))
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
