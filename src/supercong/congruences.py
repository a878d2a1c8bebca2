"""Statement catalog and verdict engine.

Each catalog entry knows its comparison modulus p^k and its hypothesis on
(p, a); checking evaluates both sides in Z/p^k and compares exactly.  Unmet
hypotheses (wrong parity of the least residue, or a parameter that is not a
p-adic integer at p) yield SKIPPED, never FAIL.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .padic_core import ModulusContext, RationalLike, harmonic_mod
from .padic_gamma import GammaEvaluator
from .hyperseries import series_2f1_half, series_3f2_one

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"

THEOREM = "theorem"
CONJECTURE = "conjecture"


class Statement(
    namedtuple("Statement", "id power kind parity takes_param sides fixed_power", defaults=(False,))
):
    """Catalog entry: modulus power, statement class (THEOREM or CONJECTURE),
    the required parity "even" or "odd" of least_residue(a, p) or None,
    whether it takes a parameter a, and ``sides(checker, a, x, k)``, the
    (lhs, rhs) pair mod p^k from a and its lift x = a mod p^k (None without a
    parameter).  With ``fixed_power`` the statement is checked mod p^power
    whatever --power says.  ``_replace`` gives a changed copy."""

    __slots__ = ()


#: The four classical parameters tied to weight-three modular forms.
NAMED_RATIONALS = (Fraction(-1, 2), Fraction(-1, 3), Fraction(-1, 4), Fraction(-1, 6))


class ReportRecord:
    """One verdict row: statement, prime, power, parameter, both sides.

    Slotted and cheap to build; records compare by value but are mutable and
    not hashable.
    """

    __slots__ = ("statement", "p", "k", "a", "lhs", "rhs", "verdict", "skip_reason")

    def __init__(
        self,
        statement: str,
        p: int | None,
        k: int | None,
        a: Fraction | None,
        lhs: int | str | None,
        rhs: int | str | None,
        verdict: str,
        skip_reason: str | None = None,
    ) -> None:
        self.statement = statement
        self.p = p
        self.k = k
        self.a = a
        self.lhs = lhs
        self.rhs = rhs
        self.verdict = verdict
        self.skip_reason = skip_reason

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        return f"ReportRecord{self._key()!r}"

    def to_dict(self) -> dict:
        return {
            "statement": self.statement,
            "p": self.p,
            "k": self.k,
            "a_num": None if self.a is None else self.a.numerator,
            "a_den": None if self.a is None else self.a.denominator,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "verdict": self.verdict,
            "skip_reason": self.skip_reason,
        }


def _gamma_pair(x: int, ev: GammaEvaluator) -> int:
    """Gamma_p(-a/2) Gamma_p((a+1)/2) mod p^k, from the lift x of a mod p^k."""
    m = ev.ctx.modulus
    half = (m + 1) // 2  # 2^-1 mod p^k
    return ev.gamma_at(-x * half % m) * ev.gamma_at((x + 1) * half % m) % m


# Sides of the statements in Z/p^k, at a parameter a (None for CONJ_S1..S3)
# whose lift x mod p^k meets the hypothesis.  Series are cached per kernel
# object and a, the Gamma side works on x, and r = x mod p.  Each sides
# function looks the kernels up as module globals when it runs, so that a
# kernel patched by name (tracing, tests) is the one every statement reads.


def _thm1_sides(chk: StatementChecker, a: Fraction, x: int, k: int) -> tuple[int, int]:
    # (-1)^((p+1)/2) Gamma_p(1/2) Gamma_p(-a/2) Gamma_p((a+1)/2)
    ev, m = chk.gamma(k), chk.p**k
    free_of_a = pow(-1, (chk.p + 1) // 2, m) * ev.gamma_at((m + 1) // 2) % m
    return chk.series(series_2f1_half, a, k), free_of_a * _gamma_pair(x, ev) % m


def _thm2_sides(chk: StatementChecker, a: Fraction, x: int, k: int) -> tuple[int, int]:
    # (-1)^((p+1)/2) (Gamma_p(-a/2) Gamma_p((a+1)/2))^2, mod p^2 and, for CONJ_S1..S4, mod p^3
    ev, m = chk.gamma(k), chk.p**k
    g = _gamma_pair(x, ev)
    return chk.series(series_3f2_one, a, k), pow(-1, (chk.p + 1) // 2, m) * g % m * g % m


def _thm3_sides(chk: StatementChecker, a: Fraction, x: int, k: int) -> tuple[int, int]:
    sq = chk.series(series_2f1_half, a, k)
    return chk.series(series_3f2_one, a, k), sq * sq % chk.p**k


def _lemma_b5_sides(chk: StatementChecker, a: Fraction, x: int, k: int) -> tuple[int, int]:
    # First-order perturbation of Gamma_p one step of size p away from a.  G1 mod p
    # needs (p-1)! mod p^2; at k = 1 its term vanishes mod p.
    p, ev, m = chk.p, chk.gamma(k), chk.p**k
    return ev.gamma_at((x + p) % m), ev.gamma_at(x) * (1 + chk.gamma(2).g1(x % p) * p) % m


def _trace_c9_sides(chk: StatementChecker, a: Fraction, x: int, k: int) -> tuple[int, int]:
    # The 2F1 against its closed form with first-order p-correction.
    p, ev, m = chk.p, chk.gamma(k), chk.p**k
    r = x % p
    d = (chk.lift(a, 2) - r) // p  # the shift quotient (a - r)/p mod p, whatever k is
    hdiff = harmonic_mod((p - r - 1) // 2, p) - harmonic_mod(r // 2, p)
    w = d * hdiff * ((p + 1) // 2) % p
    # (-1)^(r/2) C(r, r/2) / 4^(r/2) = (-1)^(r/2) r! / ((r/2)!^2 2^r): r < p, all units
    rhs = ev.factorial(r) * pow(ev.factorial(r // 2), -2, m) % m * pow((m + 1) // 2, r, m) % m
    rhs = rhs * pow(-1, r // 2, m) % m
    return chk.series(series_2f1_half, a, k), rhs * (1 + w * p) % m


def _trace_c15_sides(chk: StatementChecker, a: Fraction, x: int, k: int) -> tuple[int, int]:
    # Harmonic/log-derivative cancellation mod p: G1(y) = G1(1) + H_{s_p(y)-1}, so the G1(1)
    # terms cancel.  The least residues s1 of -a/2 and s2 of (a+1)/2 mod p come from r alone.
    p, r = chk.p, x % chk.p
    half = (p + 1) // 2  # 2^-1 mod p
    s1, s2 = -r * half % p, (r + 1) * half % p
    out = harmonic_mod((p - r - 1) // 2, p) - harmonic_mod(r // 2, p)
    out += harmonic_mod((s1 - 1) % p, p) - harmonic_mod((s2 - 1) % p, p)
    return out % p, 0


def _conj_sides(a0: Fraction, n: int, first: tuple[int, ...], c: Fraction):
    """Sides of CONJ_S1/S2/S3: THM2_A5's at the fixed parameter a0, with the
    right side times -c p^2 when p mod n is not in ``first``: there the sign
    is the negative of THM2_A5's (-1)^((p+1)/2)."""

    def sides(chk: StatementChecker, a: None, x: None, k: int) -> tuple[int, int]:
        lhs, rhs = _thm2_sides(chk, a0, chk.lift(a0, k), k)
        if chk.p % n in first:
            return lhs, rhs
        m = chk.p**k
        return lhs, -c.numerator * chk.p**2 * pow(c.denominator, -1, m) * rhs % m

    return sides


STATEMENTS: dict[str, Statement] = {
    s.id: s
    for s in (
        Statement("SUN_A2", 2, THEOREM, "odd", True, lambda chk, a, x, k: (chk.series(series_3f2_one, a, k), 0)),
        Statement("SUN_A3", 2, THEOREM, "odd", True, lambda chk, a, x, k: (chk.series(series_2f1_half, a, k), 0)),
        Statement("THM1_A4", 2, THEOREM, "even", True, _thm1_sides),
        Statement("THM2_A5", 2, THEOREM, "even", True, _thm2_sides),
        Statement("THM3_A6", 2, THEOREM, None, True, _thm3_sides),
        Statement("LEMMA_B5", 2, THEOREM, None, True, _lemma_b5_sides),
        Statement("TRACE_C9", 2, THEOREM, "even", True, _trace_c9_sides),
        # stated mod p only; harmonic and G1 data live there
        Statement("TRACE_C15", 1, THEOREM, "even", True, _trace_c15_sides, fixed_power=True),
        Statement("CONJ_S1", 3, CONJECTURE, None, False, _conj_sides(Fraction(-1, 3), 6, (1,), Fraction(1, 18))),
        Statement("CONJ_S2", 3, CONJECTURE, None, False, _conj_sides(Fraction(-1, 4), 8, (1, 3), Fraction(3, 64))),
        Statement("CONJ_S3", 3, CONJECTURE, None, False, _conj_sides(Fraction(-1, 6), 4, (1,), Fraction(5, 144))),
        Statement("CONJ_S4", 3, CONJECTURE, "even", True, _thm2_sides),
    )
}


class StatementChecker:
    """Per-prime verdict engine owning the caches statement checks share.

    One instance serves every statement and parameter at its prime; Gamma
    evaluators, which carry the contexts, are created per power on first use
    and reused.  Each parameter is lifted mod p^k once per k: the lift gives
    the p-adic hypothesis, the least residue r = x mod p and every Gamma-side
    value, and each truncated series is evaluated once per (k, a) whichever
    statements read it.
    """

    def __init__(self, p: int):
        self.p = p
        self._gamma: dict[int, GammaEvaluator] = {}
        self._lifts: dict[tuple[int, int, int], int | None] = {}
        self._series: dict[tuple, int] = {}

    def gamma(self, k: int) -> GammaEvaluator:
        if k not in self._gamma:
            self._gamma[k] = GammaEvaluator(ModulusContext(self.p, k))
        return self._gamma[k]

    def lift(self, a: Fraction, k: int) -> int | None:
        """a mod p^k, in [0, p^k), computed once per (k, a); None when p divides a's denominator."""
        key = (k, a.numerator, a.denominator)  # hashes far faster than a Fraction
        try:
            return self._lifts[key]
        except KeyError:
            m = self.p**k
            x = None if a.denominator % self.p == 0 else a.numerator * pow(a.denominator, -1, m) % m
            self._lifts[key] = x
            return x

    def series(self, kernel, a: Fraction, k: int) -> int:
        """kernel(a, context mod p^k, lift of a).value for a series kernel, evaluated once per (kernel, k, a)."""
        key = (kernel, k, a.numerator, a.denominator)  # not the lift: -1/6 and 4 agree mod 25
        value = self._series.get(key)
        if value is None:
            value = self._series[key] = kernel(a, self.gamma(k).ctx, self.lift(a, k)).value
        return value

    def check(self, stmt_id: str, a: RationalLike | None = None, power: int | None = None) -> ReportRecord:
        """Evaluate one statement, returning a PASS/FAIL/SKIPPED record.

        Hypothesis failures (parity, p dividing a denominator) are reported
        as SKIPPED.  ``power`` overrides the catalog modulus power, for
        exploratory runs only.
        """
        st = STATEMENTS[stmt_id]
        k = st.power if power is None or st.fixed_power else power
        p = self.p
        x = None
        if st.takes_param:
            if a is None:
                raise ValueError(f"statement {stmt_id} requires a parameter")
            if not isinstance(a, Fraction):  # API callers pass ints
                a = Fraction(a)
            x = self.lift(a, k)
            if x is None:
                return ReportRecord(stmt_id, p, k, a, None, None, SKIPPED, "not a p-adic integer")
            if st.parity is not None and (x % p % 2 == 0) != (st.parity == "even"):
                return ReportRecord(stmt_id, p, k, a, None, None, SKIPPED, "parity")
        elif a is not None:
            raise ValueError(f"statement {stmt_id} takes no parameter")
        lhs, rhs = st.sides(self, a, x, k)
        verdict = PASS if lhs == rhs else FAIL
        return ReportRecord(stmt_id, p, k, a, lhs, rhs, verdict)


def check_statement(stmt_id: str, p: int, a: RationalLike | None = None) -> ReportRecord:
    """One-off statement check; scans should reuse a StatementChecker per prime."""
    return StatementChecker(p).check(stmt_id, a)


# ---------------------------------------------------------------------------
# Deterministic parameter sampling
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

#: Numerator/denominator bound of the sampled fractions.
SAMPLE_BOUND = 20
#: Seeded fractions in each prime's default parameter set.
SAMPLE_COUNT = 20


def _splitmix64(state: int) -> tuple[int, int]:
    # splitmix64: fixed, documented PRNG so reports are stable across runs.
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return state, z ^ (z >> 31)


def sample_fractions(
    p: int,
    count: int,
    seed: int = 0,
    exclude: frozenset[Fraction] | set[Fraction] = frozenset(),
) -> list[Fraction]:
    """Deterministic sample of ``count`` distinct reduced fractions m/n with
    |m|, n <= SAMPLE_BOUND and p not dividing n.

    The stream is splitmix64 seeded with seed XOR (p * golden ratio); each
    draw takes m from [-20, 20] and n from [1, 20], rejecting denominators
    divisible by p, repeats and excluded values.
    """
    state = (seed & _MASK64) ^ (p * _GOLDEN & _MASK64)
    seen: set[Fraction] = set(exclude)
    out: list[Fraction] = []
    guard = 0
    while len(out) < count:
        guard += 1
        if guard > 200_000:
            raise RuntimeError("fraction sampler failed to find enough distinct values")
        state, v1 = _splitmix64(state)
        state, v2 = _splitmix64(state)
        num = v1 % (2 * SAMPLE_BOUND + 1) - SAMPLE_BOUND
        den = v2 % SAMPLE_BOUND + 1
        if den % p == 0:
            continue
        f = Fraction(num, den)
        if f in seen:
            continue
        seen.add(f)
        out.append(f)
    return out


def default_parameters(p: int, seed: int = 0) -> list[Fraction]:
    """Default per-prime parameter set: all integer residues 0..p-1, the four
    named rationals, and SAMPLE_COUNT seeded fractions distinct from both."""
    base = [Fraction(i) for i in range(p)]
    base.extend(NAMED_RATIONALS)
    sampled = sample_fractions(p, SAMPLE_COUNT, seed, exclude=set(base))
    return base + sampled
