"""Morita's p-adic Gamma function in Z/p^k, and its logarithmic derivative mod p.

For a non-negative integer m, Gamma_p(m) = (-1)^m F(m) with F(m) the product of
the j in (0, m) coprime to p.  Gamma_p is 1-Lipschitz, so any m = x (mod p^k)
gives Gamma_p(x) mod p^k for a p-adic integer x; values are units of Z/p^k.

F(m) is evaluated in closed form.  The product prod_{0<j<r} (X + j) truncated
mod X^3 is (r-1)! (1 + X H_{r-1} + X^2 e2_{r-1}), with H_n and e2_n the first and
second elementary symmetric sums of 1/1, ..., 1/n; at X = qp it is the partial
block prod_{0<j<r} (qp + j) mod p^3.  For p >= 5, Wolstenholme's theorem gives
H_{p-1} = 0 mod p^2 and e2_{p-1} = 0 mod p, so every full block of p - 1 factors
is (p-1)! mod p^3 and, for m = qp + r with 0 <= r < p (the partial block is 1
when r = 0),

    F(m) = ((p-1)!)^q (r-1)! (1 + qp H_{r-1} + (qp)^2 e2_{r-1})  (mod p^3).

Wilson's theorem gives s = (p-1)! + 1 = 0 mod p, so the binomial expansion
((p-1)!)^q = (-1)^q (1 - s)^q = (-1)^q (1 - q s + C(q, 2) s^2) mod p^3 needs no
power, and Gamma_p(m) = (-1)^m F(m) has the sign (-1)^(m+q) = (-1)^r.
"""

from __future__ import annotations

from functools import lru_cache

from .padic_core import (
    ModulusContext,
    RationalLike,
    Residue,
    _harmonic_table,
    least_residue,
    reduce_rational,
)


class GammaEvaluator:
    """Gamma_p mod p^k by the block formula: one row per residue r, the coefficients
    of prod_{0<j<r} (X + j) mod (X^3, p^k), each row the last times X + r - 1
    ((1, 0, 0) for r = 0); then a few multiplications per call, with ((p-1)!)^q
    from its binomial expansion: no modular power and no inverse.  The first
    column gives n! mod p^k for n < p, up to row p's (p-1)!, and (p-1)! mod p^2
    gives G1 mod p.  Immutable after construction."""

    def __init__(self, ctx: ModulusContext):
        self.ctx = ctx
        p, modulus = ctx.p, ctx.modulus
        c0, c1, c2 = 1, 0, 0  # prod_{0<j<r} (X + j) mod X^3, from the empty product at r = 1
        coeffs = [(1, 0, 0)]  # r = 0: no partial block
        for r in range(1, p + 1):
            coeffs.append((c0, c1, c2))
            c0, c1, c2 = c0 * r % modulus, (c1 * r + c0) % modulus, (c2 * r + c1) % modulus
        self._coeffs = tuple(coeffs)  # row p starts with (p-1)!
        self._s = coeffs[p][0] + 1  # s = (p-1)! + 1, a multiple of p

    def factorial(self, n: int) -> int:
        """n! mod p^k for 0 <= n < p."""
        p = self.ctx.p
        if not 0 <= n < p:
            raise ValueError(f"factorial index {n} outside [0, {p})")
        return self._coeffs[n + 1][0]

    def gamma_at(self, m: int) -> int:
        """Gamma_p at the non-negative integer m, as an int in [0, modulus)."""
        return self.gamma_values([m])[0]

    def gamma_values(self, ms: list[int]) -> list[int]:
        """Gamma_p at each non-negative integer m of ms, as ints in [0, modulus)."""
        p, modulus, s, coeffs = self.ctx.p, self.ctx.modulus, self._s, self._coeffs
        if ms and not (min(ms) >= 0 and max(ms) < modulus):
            bad = next(m for m in ms if not 0 <= m < modulus)
            raise ValueError(f"argument {bad} outside [0, {modulus})")
        out = []
        for m in ms:
            q = m // p
            qp, qs = q * p, q * s
            r = m - qp
            a, b, c = coeffs[r]
            # (-1)^q ((p-1)!)^q = 1 - q s + C(q, 2) s^2, and q (q-1) is even
            prod = (1 - qs + qs * (qs - s) // 2) * (a + qp * (b + qp * c)) % modulus
            out.append(modulus - prod if r & 1 else prod)
        return out

    def g1(self, r: int) -> int:
        """G1 = Gamma_p'/Gamma_p mod p at any x = r (mod p): G1(1) + H_{(r-1) mod p}, with
        G1(1) minus the Wilson quotient ((p-1)! + 1)/p, so k >= 2 (Gamma_p(1+p) = -(1 + G1(1) p))."""
        p = self.ctx.p
        if self.ctx.k < 2:
            raise ValueError(f"G1 needs (p-1)! mod p^2, not mod p^{self.ctx.k}")
        return (_harmonic_table(p)[(r - 1) % p] - self._s // p) % p

    def gamma_p(self, x: RationalLike) -> Residue:
        """Gamma_p(x) mod p^k for a p-adic integer x."""
        return Residue(self.gamma_at(reduce_rational(x, self.ctx).value), self.ctx)


@lru_cache(maxsize=1)
def _evaluator_mod_p2(p: int) -> GammaEvaluator:
    return GammaEvaluator(ModulusContext(p, 2))


def g1(x: RationalLike, p: int) -> int:
    """G1(x) mod p, the logarithmic derivative of Gamma_p at x.  The evaluator
    mod p^2 is kept for one prime, so a loop over x at one p builds it once."""
    return _evaluator_mod_p2(p).g1(least_residue(x, p))
