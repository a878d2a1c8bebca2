"""The catalog's two truncated series, reduced in Z/p^k.

2F1(-a, a+1; 1; 1/2) and 3F2(1/2, -a, a+1; 1, 1; 1), each truncated at p-1,
share one kernel driven by per-(p, k) tables whose denominators are the units
1..p-1.  A series depends on a only through its lift x = a mod p^k.  Its
values u_r, v_r at the integers r < p, where both terminate, come in O(p)
from (r+2) u_{r+2} = -(r+1) u_r and (r+2)^2 v_{r+2} = (r+1)^2 v_r,
u_0 = v_0 = 1, u_1 = v_1 = 0 (Zeilberger's creative telescoping; the tests
check both certificates).  A lift below p reads these tables.

A lift x = r + dp >= p reads columns.  Each term is a polynomial in x with
p-integral coefficients, so mod p^k the series is a polynomial of degree
below k in the digit d (Long and Ramakrishna), and Newton's forward
differences over k columns give it at every d.  Column d holds the series at
dp + r for r < p.  A series reads x only through x(x+1), so S(x) = S(-1-x)
and column -1 is the integer table reversed: mod p^2 the columns -1 and 0
cost nothing.  Mod p^3 the 3F2 also reads column 1.  The recurrence still
holds there, up to a boundary term at j = p that is a multiple of p^3, so
the column is two term loops and p recurrence steps, built only once the
kernel has run its term loop more than k times at (p, k): a scan that reads
one point per prime builds none.  The 2F1 mod p^3, whose boundary term is a
multiple of p^2 only, runs the term loop.  The identity sweep sums its
terminating series exactly, in ``identities``.
"""

from __future__ import annotations

from functools import lru_cache
from operator import sub

from .padic_core import ModulusContext, RationalLike, Residue, reduce_rational, unit_inverse_table


class _Kernel:
    """One series at one (p, k), the 2F1 (which = 0) or the 3F2 (which = 1): the
    term loop's rows (j(j+1), c_j) mod p^k, its values at the integers r < p,
    and, once built, its difference columns.  Its recurrence is
    S(x+2) = (-(x+1)/(x+2))^e S(x): e = 1 for the 2F1, 2 for the 3F2."""

    __slots__ = ("p", "k", "modulus", "rows", "exponent", "inverse", "values", "loops", "columns")

    def __init__(self, p: int, k: int, which: int):
        # Both series have term ratio (-a+j)(a+1+j) c_j = (j(j+1) - a(a+1)) c_j,
        # with c_j = 1/(2 (j+1)^2) for the 2F1 and c_j = (1/2 + j)/(j+1)^3 for
        # the 3F2, j = 0..p-2.  v keeps its own recurrence: v = u^2 is
        # Clausen's identity, THM3_A6 itself.
        m = self.modulus = p**k
        inv = self.inverse = unit_inverse_table(p, k)
        half = (m + 1) // 2
        if which == 0:
            self.rows = tuple((j * (j + 1), inv[j + 1] * inv[j + 1] % m * half % m) for j in range(p - 1))
        else:
            self.rows = tuple((j * (j + 1), (half + j) * pow(inv[j + 1], 3, m) % m) for j in range(p - 1))
        self.p, self.k, self.exponent = p, k, which + 1
        self.values = self.column(0)
        self.loops = 0
        self.columns = None  # Newton's forward differences of the columns d = -1..k-2

    def loop(self, x: int) -> int:
        # The loop stops at the first term that is 0 mod p^k: later terms are
        # multiples of it by unit-denominator ratios, so they vanish too
        # (exactly, not nearly).
        m = self.modulus
        shift = x * (x + 1) % m
        total = term = 1
        for s, c in self.rows:
            term = term * (s - shift) * c % m
            if not term:
                break
            total += term
        return total % m

    def column(self, d: int) -> tuple[int, ...]:
        """The series at dp + r for r = 0..p-1: two term loops, then p-2 recurrence steps."""
        m, start, inverse = self.modulus, d * self.p, self.inverse
        if start:  # 1/(u + dp) = (1 - t + t^2)/u with t = dp/u, since t^3 = 0 mod p^3
            inverse = [w * (1 - start * w + (start * w) ** 2) % m for w in inverse]
        out = [self.loop(start), self.loop(start + 1)]
        square = self.exponent == 2
        for r in range(self.p - 2):
            q = (start + r + 1) * inverse[r + 2] % m
            out.append((q * q if square else -q) * out[r] % m)
        return tuple(out)

    def at(self, x: int) -> int:
        """The series at the lift x, in [0, p^k)."""
        if x < self.p:
            return self.values[x]
        columns = self.columns
        if columns is None:
            # Columns d >= 1 need the recurrence, which holds mod p^(e+1) only
            # and costs about three loops a column: mod p^3 they wait for the
            # loop to have run more than k times.
            if self.k > self.exponent + 1 or (self.k > 2 and self.loops <= self.k):
                self.loops += 1
                return self.loop(x)
            columns = self.columns = self._differences()
        # Newton: S(r + dp) = sum_e C(d+1, e) (Delta^e S)(r - p), Delta the difference in d
        d, r = divmod(x, self.p)
        total, binomial = 0, 1
        for e, difference in enumerate(columns):
            total += binomial * difference[r]
            binomial = binomial * (d + 1 - e) // (e + 1)
        return total % self.modulus

    def _differences(self) -> list[tuple[int, ...]]:
        # S(x) = S(-1-x), so column -1 is the integer table reversed: S(r - p) = S(p-1-r).
        rows = [self.values[::-1], self.values] + [self.column(d) for d in range(1, self.k - 1)]
        out = []
        while rows:
            out.append(rows[0])
            rows = [tuple(map(sub, high, low)) for low, high in zip(rows, rows[1:])]
        return out


# _kernel(p, k, which): four stay cached, a scan's two kernels at the two
# powers it reads at one prime; a kernel that no statement reads is never built.
_kernel = lru_cache(maxsize=4)(_Kernel)


def _series(a: RationalLike, ctx: ModulusContext, which: int, lift: int | None) -> Residue:
    x = reduce_rational(a, ctx).value if lift is None else lift
    return Residue(_kernel(ctx.p, ctx.k, which).at(x), ctx)


def series_2f1_half(a: RationalLike, ctx: ModulusContext, lift: int | None = None) -> Residue:
    """2F1(-a, a+1; 1; 1/2) truncated at p-1, reduced in Z/p^k; ``lift`` is a mod p^k, if known."""
    return _series(a, ctx, 0, lift)


def series_3f2_one(a: RationalLike, ctx: ModulusContext, lift: int | None = None) -> Residue:
    """3F2(1/2, -a, a+1; 1, 1; 1) truncated at p-1, reduced in Z/p^k; ``lift`` is a mod p^k, if known."""
    return _series(a, ctx, 1, lift)
