"""Reference computations for checking supercong reports.

Nothing here imports supercong.  Every value is computed by a method other
than the program's own:

* Gamma_p(x) mod p^k is the direct product (-1)^m * prod(j < m, p does not
  divide j) at the lift m of x to [0, p^k), multiplied out for all wanted
  arguments of one (p, k) in a single ascending pass (the program instead
  sweeps a checkpointed running product per evaluator);
* a truncated 2F1 / 3F2 is summed over exact rationals and only then reduced
  mod p^k (the program multiplies residues term by term);
* the identity right-hand sides are their closed forms, built with math.comb;
* the default parameter set is rebuilt from its documented recipe (all
  residues 0..p-1, four named rationals, 20 splitmix64-seeded fractions).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

NAMED = (Fraction(-1, 2), Fraction(-1, 3), Fraction(-1, 4), Fraction(-1, 6))

#: Catalog as stated in the paper: modulus power, kind, hypothesis on the
#: parity of the least residue (None: no parity condition), takes a parameter.
CATALOG = {
    "SUN_A2": (2, "theorem", "odd", True),
    "SUN_A3": (2, "theorem", "odd", True),
    "THM1_A4": (2, "theorem", "even", True),
    "THM2_A5": (2, "theorem", "even", True),
    "THM3_A6": (2, "theorem", None, True),
    "LEMMA_B5": (2, "theorem", None, True),
    "TRACE_C9": (2, "theorem", "even", True),
    "TRACE_C15": (1, "theorem", "even", True),
    "CONJ_S1": (3, "conjecture", None, False),
    "CONJ_S2": (3, "conjecture", None, False),
    "CONJ_S3": (3, "conjecture", None, False),
    "CONJ_S4": (3, "conjecture", "even", True),
}
THEOREMS = [s for s, (_, kind, _, _) in CATALOG.items() if kind == "theorem"]
CONJECTURES = [s for s, (_, kind, _, _) in CATALOG.items() if kind == "conjecture"]

#: Fixed parameter of each parameter-free conjecture, and its right-hand side
#: data: two Gamma arguments, the modulus m and the residue classes of p mod m
#: where the first case applies, and the rational prefactor of the second case.
CONJ_FIXED = {
    "CONJ_S1": (Fraction(-1, 3), Fraction(1, 6), Fraction(1, 3), 6, (1,), Fraction(1, 18)),
    "CONJ_S2": (Fraction(-1, 4), Fraction(1, 8), Fraction(3, 8), 8, (1, 3), Fraction(3, 64)),
    "CONJ_S3": (Fraction(-1, 6), Fraction(1, 12), Fraction(5, 12), 4, (1,), Fraction(5, 144)),
}


def primes_between(lo: int, hi: int) -> list[int]:
    """Primes p with max(lo, 5) <= p <= hi, by trial division."""
    return [n for n in range(max(lo, 5), hi + 1) if all(n % d for d in range(2, int(n**0.5) + 1))]


def lift(x: Fraction, modulus: int) -> int:
    """The integer in [0, modulus) congruent to the p-adic integer x."""
    return x.numerator * pow(x.denominator, -1, modulus) % modulus


def hypothesis(stmt: str, p: int, a: Fraction | None) -> str | None:
    """The skip reason the catalog prescribes at (p, a), or None if it holds."""
    _, _, parity, takes_param = CATALOG[stmt]
    if not takes_param:
        return None
    if a.denominator % p == 0:
        return "not a p-adic integer"
    if parity is not None and (lift(a, p) % 2 == 0) != (parity == "even"):
        return "parity"
    return None


# ---------------------------------------------------------------------------
# Default parameter set
# ---------------------------------------------------------------------------

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + _GOLDEN) & _MASK
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return state, z ^ (z >> 31)


def default_parameters(p: int, seed: int) -> list[Fraction]:
    """Residues 0..p-1, the named rationals, then 20 seeded draws m/n with
    |m|, n <= 20, p not dividing n, distinct from everything before."""
    base = [Fraction(i) for i in range(p)] + list(NAMED)
    seen = set(base)
    out = []
    state = (seed & _MASK) ^ (p * _GOLDEN & _MASK)
    while len(out) < 20:
        state, v1 = _splitmix64(state)
        state, v2 = _splitmix64(state)
        den = v2 % 20 + 1
        f = Fraction(v1 % 41 - 20, den)
        if den % p == 0 or f in seen:  # the drawn n, before reduction
            continue
        seen.add(f)
        out.append(f)
    return base + out


# ---------------------------------------------------------------------------
# Gamma_p by direct product
# ---------------------------------------------------------------------------

_CHUNK = 1 << 20


def _product_mod(values, modulus: int) -> int:
    # Pairwise products of an int64 array; every product is below modulus^2 < 2^62.
    acc = 1
    while len(values) > 1:
        if len(values) % 2:
            acc = acc * int(values[-1]) % modulus
            values = values[:-1]
        values = values[0::2] * values[1::2] % modulus
    return acc * (int(values[0]) if len(values) else 1) % modulus


def _unit_product(lo: int, hi: int, p: int, modulus: int) -> int:
    """prod of j in [lo, hi) with p not dividing j, mod modulus."""
    # Imported here: a benchmark process that has loaded numpy passes its
    # resident size on to every child it starts, through ru_maxrss.
    import numpy as np

    acc = 1
    for start in range(lo, hi, _CHUNK):
        j = np.arange(start, min(hi, start + _CHUNK), dtype=np.int64)
        acc = acc * _product_mod(j[j % p != 0], modulus) % modulus
    return acc


def gamma_values(p: int, k: int, args) -> dict[Fraction, int]:
    """Gamma_p(x) mod p^k for every p-adic integer x in args."""
    modulus = p**k
    if modulus >= 2**31:
        raise ValueError(f"modulus {p}^{k} too large for the int64 product")
    lifted = {Fraction(x): lift(Fraction(x), modulus) for x in args}
    out: dict[int, int] = {}
    pos, acc = 1, 1  # acc = prod of units below pos
    for m in sorted(set(lifted.values())):
        if m > pos:
            acc = acc * _unit_product(pos, m, p, modulus) % modulus
            pos = m
        out[m] = acc if m % 2 == 0 else -acc % modulus
    return {x: out[m] for x, m in lifted.items()}


def g1(x: Fraction, p: int) -> int:
    """G1(x) = Gamma_p'(x)/Gamma_p(x) mod p, as minus the Wilson quotient plus
    the harmonic number H_{s-1}, s the representative of x in 1..p."""
    fact = 1
    for j in range(1, p):
        fact = fact * j % (p * p)
    wilson_quotient = (fact + 1) // p  # (p-1)! = -1 (mod p)
    s = lift(x, p) or p
    return (-wilson_quotient + harmonic_mod(s - 1, p)) % p


def harmonic_mod(n: int, p: int) -> int:
    return sum(pow(j, -1, p) for j in range(1, n + 1)) % p


# ---------------------------------------------------------------------------
# Truncated series over exact rationals
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def series_2f1_half(a: Fraction, p: int) -> Fraction:
    """sum_{j=0}^{p-1} (-a)_j (a+1)_j / j!^2 * (1/2)^j, exactly."""
    total = term = Fraction(1)
    for j in range(p - 1):
        term = term * (-a + j) * (a + 1 + j) / (2 * (j + 1) ** 2)
        total += term
    return total


@lru_cache(maxsize=None)
def series_3f2_one(a: Fraction, p: int) -> Fraction:
    """sum_{j=0}^{p-1} (1/2)_j (-a)_j (a+1)_j / j!^3, exactly."""
    total = term = Fraction(1)
    for j in range(p - 1):
        term = term * (Fraction(1, 2) + j) * (-a + j) * (a + 1 + j) / (j + 1) ** 3
        total += term
    return total


# ---------------------------------------------------------------------------
# Expected (lhs, rhs) of a congruence record
# ---------------------------------------------------------------------------


def gamma_arguments(stmt: str, p: int, a: Fraction | None) -> list[Fraction]:
    """Gamma_p arguments the right-hand side of stmt needs at (p, a)."""
    if stmt == "THM1_A4":
        return [Fraction(1, 2), -a / 2, (a + 1) / 2]
    if stmt in ("THM2_A5", "CONJ_S4"):
        return [-a / 2, (a + 1) / 2]
    if stmt == "LEMMA_B5":
        return [a, a + p]
    if stmt in CONJ_FIXED:
        return list(CONJ_FIXED[stmt][1:3])
    return []


def expected_sides(stmt: str, p: int, a: Fraction | None, gamma: dict[Fraction, int]) -> tuple[int, int]:
    """Both sides of stmt at (p, a) reduced mod p^k.  ``gamma`` maps every
    argument of gamma_arguments(stmt, p, a) to Gamma_p mod p^k."""
    k = CATALOG[stmt][0]
    m = p**k
    sign = 1 if (p + 1) // 2 % 2 == 0 else m - 1  # (-1)^((p+1)/2)
    if stmt in CONJ_FIXED:
        a0, x1, x2, base, first_classes, pref = CONJ_FIXED[stmt]
        lhs = lift(series_3f2_one(a0, p), m)
        gg = (gamma[x1] * gamma[x2]) ** 2 % m
        if stmt == "CONJ_S3":
            sign = sign_second = m - 1
        else:
            sign_second = 1 if (p - 1) // 2 % 2 == 0 else m - 1  # (-1)^((p-1)/2)
        if p % base in first_classes:
            return lhs, sign * gg % m
        return lhs, sign_second * p * p * lift(pref, m) * gg % m
    if stmt == "SUN_A2":
        return lift(series_3f2_one(a, p), m), 0
    if stmt == "SUN_A3":
        return lift(series_2f1_half(a, p), m), 0
    if stmt == "THM1_A4":
        rhs = sign * gamma[Fraction(1, 2)] * gamma[-a / 2] * gamma[(a + 1) / 2] % m
        return lift(series_2f1_half(a, p), m), rhs
    if stmt in ("THM2_A5", "CONJ_S4"):
        rhs = sign * (gamma[-a / 2] * gamma[(a + 1) / 2]) ** 2 % m
        return lift(series_3f2_one(a, p), m), rhs
    if stmt == "THM3_A6":
        return lift(series_3f2_one(a, p), m), lift(series_2f1_half(a, p) ** 2, m)
    if stmt == "LEMMA_B5":
        return gamma[a + p], gamma[a] * (1 + g1(a, p) * p) % m
    r = lift(a, p)  # least residue
    hdiff = harmonic_mod((p - r - 1) // 2, p) - harmonic_mod(r // 2, p)
    if stmt == "TRACE_C9":
        shift = (lift(a, p * p) - r) // p % p  # (a - r)/p mod p
        w = shift * hdiff * pow(2, -1, p) % p
        closed = Fraction(comb(r, r // 2), (-4) ** (r // 2)) * (1 + w * p)
        return lift(series_2f1_half(a, p), m), lift(closed, m)
    if stmt == "TRACE_C15":
        return (hdiff + g1(-a / 2, p) - g1((a + 1) / 2, p)) % p, 0
    raise KeyError(stmt)


# ---------------------------------------------------------------------------
# Identities over exact rationals
# ---------------------------------------------------------------------------

EVEN_IDENTITIES = ("B8", "B9", "B17", "B18", "GAUSS_HALF")


@lru_cache(maxsize=None)
def harmonic(n: int) -> Fraction:
    return sum((Fraction(1, j) for j in range(1, n + 1)), Fraction(0))


def identity_closed_form(ident: str, n: int) -> Fraction:
    """Right-hand side of an identity instance, from its closed form."""
    if ident == "CLAUSEN":
        # Square of Gauss's second summation: 2F1(-n, n+1; 1; 1/2) vanishes
        # for odd n and is C(n, n/2) / (-4)^(n/2) for even n.
        return Fraction(0) if n % 2 else Fraction(comb(n, n // 2) ** 2, 4**n)
    half = n // 2
    if ident in ("B8", "GAUSS_HALF"):
        return Fraction(comb(n, half), (-4) ** half)
    if ident == "B9":
        return Fraction(comb(n, half) ** 2, 4**n)
    if ident == "B17":
        return Fraction(comb(n, half), (-4) ** half) * (harmonic(n) - harmonic(half)) / 2
    if ident == "B18":
        return Fraction(comb(n, half) ** 2, 4**n) * (Fraction(3, 2) * harmonic(n) - harmonic(half))
    raise KeyError(ident)


def identity_sum(ident: str, n: int) -> Fraction:
    """Left-hand side of an identity instance, summed term by term."""
    if ident in ("CLAUSEN", "GAUSS_HALF"):
        # The terminating 3F2(1/2, -n, n+1; 1, 1; 1) and 2F1(-n, n+1; 1; 1/2):
        # (-n)_j (n+1)_j / j!^2 = (-1)^j C(n, j) C(n+j, j), (1/2)_j / j! = C(2j, j) / 4^j.
        half = ident == "CLAUSEN"
        return sum(
            (
                Fraction(comb(2 * j, j) ** half * comb(n, j) * comb(n + j, j) * (-1) ** j, (4 if half else 2) ** j)
                for j in range(n + 1)
            ),
            Fraction(0),
        )
    squared = ident in ("B9", "B18")
    weighted = ident in ("B17", "B18")
    h_n = harmonic(n)
    total = Fraction(0)
    h = h_n
    for j in range(n + 1):
        if j:
            h += Fraction(1, n + j)  # h = H_{n+j}
        c = comb(2 * j, j) ** (2 if squared else 1) * comb(n + j, 2 * j) * (-1) ** j
        term = Fraction(c, (4 if squared else 2) ** j)
        total += term * (h - h_n) if weighted else term
    return total
