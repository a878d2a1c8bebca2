"""The catalog's two truncated series, reduced in Z/p^k.

2F1(-a, a+1; 1; 1/2) and 3F2(1/2, -a, a+1; 1, 1; 1), each truncated at p-1,
share one kernel driven by per-(p, k) tables whose denominators are the units
1..p-1.  The identity sweep sums its terminating series exactly, in
``identities``.
"""

from __future__ import annotations

from functools import lru_cache

from .padic_core import ModulusContext, RationalLike, Residue, reduce_rational, unit_inverse_table


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
