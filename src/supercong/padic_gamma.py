"""Morita's p-adic Gamma function in Z/p^k, and its logarithmic derivative mod p.

For a non-negative integer m, Gamma_p(m) = (-1)^m F(m) with F(m) the product of
the j in (0, m) coprime to p.  Gamma_p is 1-Lipschitz, so any m = x (mod p^k)
gives Gamma_p(x) mod p^k for a p-adic integer x; values are units of Z/p^k.

F(m) is evaluated in closed form.  Expanding prod_{j<r} (qp + j) in powers of
qp gives (r-1)! (1 + qp H_{r-1} + (qp)^2 e2_{r-1}) mod p^3, with H_n and e2_n
the first and second elementary symmetric sums of 1/1, ..., 1/n.  For p >= 5,
Wolstenholme's theorem gives H_{p-1} = 0 mod p^2 and e2_{p-1} = 0 mod p, so
every full block of p - 1 factors is (p-1)! mod p^3 and, for m = qp + r with
0 <= r < p (the partial block is 1 when r = 0),

    F(m) = ((p-1)!)^q (r-1)! (1 + qp H_{r-1} + (qp)^2 e2_{r-1})  (mod p^3).
"""

from __future__ import annotations

from functools import lru_cache

from .padic_core import (
    ModulusContext,
    RationalLike,
    Residue,
    harmonic_mod,
    least_residue,
    reduce_rational,
    unit_inverse_table,
)


class GammaEvaluator:
    """Gamma_p mod p^k by the block formula: O(p) tables of (r-1)! times
    (1, H_{r-1}, e2_{r-1}) mod p^k, one per residue r (and (1, 0, 0) for r = 0),
    then one modular power per call.  The (r-1)! column gives n! mod p^k for
    n < p.  Immutable after construction."""

    def __init__(self, ctx: ModulusContext):
        self.ctx = ctx
        p, modulus = ctx.p, ctx.modulus
        inverse = unit_inverse_table(p, ctx.k)
        fact, harmonic, e2 = 1, 0, 0  # (r-1)!, H_{r-1}, e2_{r-1}
        coeffs = [(1, 0, 0)]
        for r in range(1, p):
            coeffs.append((fact, fact * harmonic % modulus, fact * e2 % modulus))
            e2 = (e2 + harmonic * inverse[r]) % modulus
            harmonic = (harmonic + inverse[r]) % modulus
            fact = fact * r % modulus
        self._coeffs = tuple(coeffs)
        self._block = fact  # (p-1)!

    def factorial(self, n: int) -> int:
        """n! mod p^k for 0 <= n < p."""
        return self._block if n == self.ctx.p - 1 else self._coeffs[n + 1][0]

    def gamma_at(self, m: int) -> int:
        """Gamma_p at the non-negative integer m, as an int in [0, modulus)."""
        modulus = self.ctx.modulus
        if not 0 <= m < modulus:
            raise ValueError(f"argument {m} outside [0, {modulus})")
        q, r = divmod(m, self.ctx.p)
        a, b, c = self._coeffs[r]
        qp = m - r
        prod = pow(self._block, q, modulus) * (a + qp * (b + qp * c)) % modulus
        return prod if m % 2 == 0 else modulus - prod

    def gamma_p(self, x: RationalLike) -> Residue:
        """Gamma_p(x) mod p^k for a p-adic integer x."""
        return Residue(self.gamma_at(reduce_rational(x, self.ctx).value), self.ctx)


@lru_cache(maxsize=256)
def g1_of_one(p: int) -> int:
    """G1(1) mod p, where G1 = Gamma_p'/Gamma_p: minus the Wilson quotient.

    Gamma_p(1 + p) = (p-1)! = -(1 + G1(1) p) mod p^2, so
    G1(1) = -((p-1)! + 1)/p mod p.
    """
    fact = 1
    for j in range(2, p):
        fact = fact * j % (p * p)
    return -((fact + 1) // p) % p


def g1_at(r: int, p: int) -> int:
    """G1(x) mod p for any p-adic integer x = r (mod p), 0 <= r < p.

    G1(x) = G1(1) + H_{s_p(x)-1}, and s_p(x) - 1 = (r - 1) mod p.
    """
    return (g1_of_one(p) + harmonic_mod((r - 1) % p, p)) % p


def g1(x: RationalLike, p: int) -> int:
    """G1(x) mod p, the logarithmic derivative of Gamma_p at x."""
    return g1_at(least_residue(x, p), p)
