"""Truncated pFq series: exactly over the rationals, and the catalog's two mod p^k.

The truncated series sum_{k=0..N} (a_1)_k ... (a_r)_k / ((b_1)_k ... (b_s)_k)
* z^k / k! is evaluated over exact rationals for the identity sweep.  The two
series the catalog checks share one kernel in Z/p^k driven by per-(p, k)
tables, whose denominators are the units 1..p-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod

from .padic_core import (
    ModulusContext,
    PadicError,
    RationalLike,
    Residue,
    reduce_rational,
    unit_inverse_table,
)


class LowerParameterPole(PadicError):
    """A lower parameter is zero or a negative integer, so a term divides by zero."""


@dataclass(frozen=True)
class SeriesSpec:
    """Parameters of a truncated pFq: upper list, lower list, argument, bound.

    The sum runs over k = 0..n_terms.  Lower parameters may not be zero or
    negative integers (such a series divides by zero within any truncation).
    """

    upper: tuple[Fraction, ...]
    lower: tuple[Fraction, ...]
    z: Fraction
    n_terms: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "upper", tuple(Fraction(a) for a in self.upper))
        object.__setattr__(self, "lower", tuple(Fraction(b) for b in self.lower))
        object.__setattr__(self, "z", Fraction(self.z))
        if self.n_terms < 0:
            raise ValueError("truncation bound must be >= 0")
        for b in self.lower:
            if b.denominator == 1 and b <= 0:
                raise LowerParameterPole(f"lower parameter {b} is a non-positive integer")


def truncated_pfq_exact(spec: SeriesSpec) -> Fraction:
    """The truncated series as an exact rational.

    With each parameter c = u/v, c + k = (u + k v)/v, so term k+1 is term k
    times an integer ratio.  The terms and the sum share one denominator,
    grown by that ratio's denominator each step, and only the final Fraction
    takes a gcd.
    """
    ups = [(a.numerator, a.denominator) for a in spec.upper]
    lows = [(b.numerator, b.denominator) for b in spec.lower]
    num_scale = spec.z.numerator * prod(v for _, v in lows)
    den_scale = spec.z.denominator * prod(v for _, v in ups)
    total = denom = term = 1  # the sum so far is total/denom, the last term term/denom
    for k in range(spec.n_terms):
        num, den = num_scale, den_scale * (k + 1)
        for u, v in ups:
            num *= u + k * v
        for u, v in lows:
            den *= u + k * v
        term *= num
        total = total * den + term
        denom *= den
    return Fraction(total, denom)


@lru_cache(maxsize=2)
def _ratio_tables(p: int, k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    # Both series have term ratio (-a+j)(a+1+j) c_j = (j(j+1) - a(a+1)) c_j,
    # with c_j = 1/(2 (j+1)^2) for the 2F1 and c_j = (1/2 + j)/(j+1)^3 for the
    # 3F2; rows (j(j+1), c_j) mod p^k for j = 0..p-2.  Two (p, k) stay cached:
    # a scan's contexts at one prime, not its whole prime range.
    m = p**k
    inv = unit_inverse_table(p, k)
    half = (m + 1) // 2
    rows_2f1 = tuple((j * (j + 1), inv[j + 1] * inv[j + 1] % m * half % m) for j in range(p - 1))
    rows_3f2 = tuple((j * (j + 1), (half + j) * pow(inv[j + 1], 3, m) % m) for j in range(p - 1))
    return rows_2f1, rows_3f2


def _series(a: RationalLike, ctx: ModulusContext, which: int) -> Residue:
    # Stops at the first term that is 0 mod p^k: later terms are multiples of
    # it by unit-denominator ratios, so they vanish too (exactly, not nearly).
    m = ctx.modulus
    x = reduce_rational(a, ctx).value
    shift = x * (x + 1) % m
    total = term = 1
    for s, c in _ratio_tables(ctx.p, ctx.k)[which]:
        term = term * (s - shift) * c % m
        if not term:
            break
        total += term
    return Residue(total % m, ctx)


def series_2f1_half(a: RationalLike, ctx: ModulusContext) -> Residue:
    """2F1(-a, a+1; 1; 1/2) truncated at p-1, reduced in Z/p^k."""
    return _series(a, ctx, 0)


def series_3f2_one(a: RationalLike, ctx: ModulusContext) -> Residue:
    """3F2(1/2, -a, a+1; 1, 1; 1) truncated at p-1, reduced in Z/p^k."""
    return _series(a, ctx, 1)
