"""The catalog's two truncated series, reduced in Z/p^k.

2F1(-a, a+1; 1; 1/2) and 3F2(1/2, -a, a+1; 1, 1; 1), each truncated at p-1,
share one kernel driven by per-(p, k) tables whose denominators are the units
1..p-1.  Their values u_r, v_r at the integers r < p, where both terminate,
come in O(p) from (r+2) u_{r+2} = -(r+1) u_r and (r+2)^2 v_{r+2} = (r+1)^2 v_r,
u_0 = v_0 = 1, u_1 = v_1 = 0 (Zeilberger's creative telescoping; the tests
check both certificates).  A parameter whose lift a mod p^k is below p reads
these tables, any other runs the term loop.  The identity sweep sums its
terminating series exactly, in ``identities``.
"""

from __future__ import annotations

from functools import lru_cache

from .padic_core import ModulusContext, RationalLike, Residue, reduce_rational, unit_inverse_table


@lru_cache(maxsize=2)
def _tables(p: int, k: int) -> tuple[tuple[tuple, tuple[int, ...]], ...]:
    # Both series have term ratio (-a+j)(a+1+j) c_j = (j(j+1) - a(a+1)) c_j,
    # with c_j = 1/(2 (j+1)^2) for the 2F1 and c_j = (1/2 + j)/(j+1)^3 for the
    # 3F2; rows (j(j+1), c_j) mod p^k for j = 0..p-2, each beside u or v at
    # r = 0..p-1.  v keeps its own recurrence: v = u^2 is Clausen's identity,
    # THM3_A6 itself.  Two (p, k) stay cached: a scan's contexts at one prime.
    m = p**k
    inv = unit_inverse_table(p, k)
    half = (m + 1) // 2
    rows_2f1 = tuple((j * (j + 1), inv[j + 1] * inv[j + 1] % m * half % m) for j in range(p - 1))
    rows_3f2 = tuple((j * (j + 1), (half + j) * pow(inv[j + 1], 3, m) % m) for j in range(p - 1))
    u, v = [1, 0], [1, 0]
    for r in range(p - 2):
        q = (r + 1) * inv[r + 2] % m
        u.append(-q * u[r] % m)
        v.append(q * q * v[r] % m)
    return (rows_2f1, tuple(u)), (rows_3f2, tuple(v))


def _series(a: RationalLike, ctx: ModulusContext, which: int, lift: int | None) -> Residue:
    # The series depends on a only through x(x+1) mod p^k, x = a mod p^k, so
    # a lift x < p reads the value at the integer x.  The loop stops at the
    # first term that is 0 mod p^k: later terms are multiples of it by
    # unit-denominator ratios, so they vanish too (exactly, not nearly).
    m = ctx.modulus
    x = reduce_rational(a, ctx).value if lift is None else lift
    rows, values = _tables(ctx.p, ctx.k)[which]
    if x < ctx.p:
        return Residue(values[x], ctx)
    shift = x * (x + 1) % m
    total = term = 1
    for s, c in rows:
        term = term * (s - shift) * c % m
        if not term:
            break
        total += term
    return Residue(total % m, ctx)


def series_2f1_half(a: RationalLike, ctx: ModulusContext, lift: int | None = None) -> Residue:
    """2F1(-a, a+1; 1; 1/2) truncated at p-1, reduced in Z/p^k; ``lift`` is a mod p^k, if known."""
    return _series(a, ctx, 0, lift)


def series_3f2_one(a: RationalLike, ctx: ModulusContext, lift: int | None = None) -> Residue:
    """3F2(1/2, -a, a+1; 1, 1; 1) truncated at p-1, reduced in Z/p^k; ``lift`` is a mod p^k, if known."""
    return _series(a, ctx, 1, lift)
