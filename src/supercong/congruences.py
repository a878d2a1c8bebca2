"""Statement catalog and verdict engine.

Each catalog entry knows its comparison modulus p^k and its hypothesis on
(p, a); checking evaluates both sides in Z/p^k and compares exactly.  Unmet
hypotheses (wrong parity of the least residue, or a parameter that is not a
p-adic integer at p) yield SKIPPED, never FAIL.  A statement is evaluated
over a column of parameters at once: a prime's whole parameter set in a scan,
a column of one for any other parameter.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm

from .padic_core import ModulusContext, RationalLike, _harmonic_table, _lift
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
    whether it takes a parameter a, and ``sides(checker, at, xs, k)``, the
    lists (lhs, rhs) mod p^k at the positions ``at`` of the checker's column,
    those whose lifts ``xs`` (x = a mod p^k) meet the hypothesis; without a
    parameter the column holds None alone, at = [0] and xs = [None].
    With ``fixed_power`` the statement is checked mod p^power whatever
    --power says.  ``_replace`` gives a changed copy."""

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


def _gamma_pairs(chk: StatementChecker, xs: list[int], k: int) -> list[int]:
    """Gamma_p(-a/2) Gamma_p((a+1)/2) mod p^k at each lift x of xs."""
    ev = chk.gamma(k)
    m = ev.ctx.modulus
    half = (m + 1) // 2  # 2^-1 mod p^k
    first, second = ev.gamma_values([-x * half % m for x in xs]), ev.gamma_values([(x + 1) * half % m for x in xs])
    return [u * v % m for u, v in zip(first, second)]


# Sides of the statements in Z/p^k at the positions `at` of the checker's
# column, whose lifts xs meet the hypothesis.  Series come from chk.series,
# once per (kernel, k, position) whichever statements read them; the Gamma
# side works on the lifts, and r = x mod p.  Each sides function looks the
# kernels up as module globals when it runs, so that a kernel patched by name
# (tracing, tests) is the one every statement reads.


def _thm1_sides(chk: StatementChecker, at: list[int], xs: list[int], k: int) -> tuple[list, list]:
    # (-1)^((p+1)/2) Gamma_p(1/2) Gamma_p(-a/2) Gamma_p((a+1)/2)
    m = chk.p**k
    c = chk._sign * chk.gamma(k).gamma_at((m + 1) // 2)
    return chk.series(series_2f1_half, at, k), [c * g % m for g in _gamma_pairs(chk, xs, k)]


def _thm2_sides(chk: StatementChecker, at: list[int], xs: list[int], k: int) -> tuple[list, list]:
    # (-1)^((p+1)/2) (Gamma_p(-a/2) Gamma_p((a+1)/2))^2, mod p^2 and, for CONJ_S1..S4, mod p^3
    m, sign = chk.p**k, chk._sign
    return chk.series(series_3f2_one, at, k), [sign * g * g % m for g in _gamma_pairs(chk, xs, k)]


def _thm3_sides(chk: StatementChecker, at: list[int], xs: list[int], k: int) -> tuple[list, list]:
    m = chk.p**k
    squares = [u * u % m for u in chk.series(series_2f1_half, at, k)]
    return chk.series(series_3f2_one, at, k), squares


def _lemma_b5_sides(chk: StatementChecker, at: list[int], xs: list[int], k: int) -> tuple[list, list]:
    # First-order perturbation of Gamma_p one step of size p away from a, with G1(x) = G1(1) + H_{r-1} mod p.
    # G1(1) needs (p-1)! mod p^2, which the evaluator at k >= 2 holds; at k = 1 the G1 term vanishes mod p.
    p, ev, m = chk.p, chk.gamma(k), chk.p**k
    lhs, rhs = ev.gamma_values([(x + p) % m for x in xs]), ev.gamma_values(xs)
    if k > 1:
        h, g1_one = _harmonic_table(p), ev.g1(1)
        rhs = [g * (1 + (g1_one + h[(x - 1) % p]) % p * p) % m for g, x in zip(rhs, xs)]
    return lhs, rhs


def _trace_c9_sides(chk: StatementChecker, at: list[int], xs: list[int], k: int) -> tuple[list, list]:
    # The 2F1 against its closed form with first-order p-correction.
    p, m, factorial, h = chk.p, chk.p**k, chk.gamma(k).factorial, _harmonic_table(chk.p)
    half, half_p = (m + 1) // 2, (p + 1) // 2  # 2^-1 mod p^k and mod p
    rhs = []
    for x in xs:
        r = x % p
        # (-1)^(r/2) C(r, r/2) / 4^(r/2) = (-1)^(r/2) r! / ((r/2)!^2 2^r): r < p, all units
        binomial = (-1) ** (r // 2) * factorial(r) * pow(factorial(r // 2), -2, m) * pow(half, r, m) % m
        # the shift quotient (a - r)/p, read mod p, times the halved harmonic difference; 0 at k = 1,
        # where p w vanishes mod p anyway
        w = (x - r) // p * (h[(p - r - 1) // 2] - h[r // 2]) * half_p % p
        rhs.append(binomial * (1 + w * p) % m)
    return chk.series(series_2f1_half, at, k), rhs


def _trace_c15_sides(chk: StatementChecker, at: list[int], xs: list[int], k: int) -> tuple[list, list]:
    # Harmonic/log-derivative cancellation mod p: G1(y) = G1(1) + H_{s_p(y)-1}, so the G1(1)
    # terms cancel.  The least residues s1 of -a/2 and s2 of (a+1)/2 mod p come from r alone,
    # s1 - 1 = -r/2 - 1 and s2 - 1 = (r+1)/2 - 1 mod p.
    p = chk.p
    h, half = _harmonic_table(p), (p + 1) // 2  # H_0..H_{p-1} mod p, 2^-1 mod p
    lhs = [
        (h[(p - r - 1) // 2] - h[r // 2] + h[(-r * half - 1) % p] - h[((r + 1) * half - 1) % p]) % p
        for r in [x % p for x in xs]
    ]
    return lhs, [0] * len(xs)


def _conj_sides(a0: Fraction, n: int, first: tuple[int, ...], c: Fraction):
    """Sides of CONJ_S1/S2/S3: THM2_A5's at the fixed parameter a0, with the
    right side times -c p^2 when p mod n is not in ``first``: there the sign
    is the negative of THM2_A5's (-1)^((p+1)/2).  a0 is read where the checker
    holds it: in a scan's default column, at its own position."""

    def sides(chk: StatementChecker, at: list[int], xs: list, k: int) -> tuple[list, list]:
        owner, i = chk._entry(a0)
        lhs, rhs = _thm2_sides(owner, [i], [owner.lifts(k)[i]], k)
        if chk.p % n in first:
            return lhs, rhs
        return lhs, [-chk.lift(c, k) * chk.p**2 * rhs[0] % chk.p**k]

    return sides


STATEMENTS: dict[str, Statement] = {
    s.id: s
    for s in (
        Statement("SUN_A2", 2, THEOREM, "odd", True,
                  lambda chk, at, xs, k: (chk.series(series_3f2_one, at, k), [0] * len(at))),
        Statement("SUN_A3", 2, THEOREM, "odd", True,
                  lambda chk, at, xs, k: (chk.series(series_2f1_half, at, k), [0] * len(at))),
        Statement("THM1_A4", 2, THEOREM, "even", True, _thm1_sides),
        Statement("THM2_A5", 2, THEOREM, "even", True, _thm2_sides),
        Statement("THM3_A6", 2, THEOREM, None, True, _thm3_sides),
        Statement("LEMMA_B5", 2, THEOREM, None, True, _lemma_b5_sides),
        Statement("TRACE_C9", 2, THEOREM, "even", True, _trace_c9_sides),
        # stated mod p only; harmonic and G1 data live there
        Statement("TRACE_C15", 1, THEOREM, "even", True, _trace_c15_sides, fixed_power=True),
        Statement("CONJ_S1", 3, CONJECTURE, None, False, _conj_sides(NAMED_RATIONALS[1], 6, (1,), Fraction(1, 18))),
        Statement("CONJ_S2", 3, CONJECTURE, None, False, _conj_sides(NAMED_RATIONALS[2], 8, (1, 3), Fraction(3, 64))),
        Statement("CONJ_S3", 3, CONJECTURE, None, False, _conj_sides(NAMED_RATIONALS[3], 4, (1,), Fraction(5, 144))),
        Statement("CONJ_S4", 3, CONJECTURE, "even", True, _thm2_sides),
    )
}


class StatementChecker:
    """Per-prime verdict engine over a column of parameters.

    ``params``, a scan's sorted parameter set at p, is the checker's column.
    The first ``check`` of a statement at a power evaluates it over the whole
    column in one pass: the lifts mod p^k, one list per k that every
    statement shares; the hypothesis as a mask over them; then the
    statement's sides at the positions that meet it, each series value
    computed once per (kernel, k, position) whichever statements read it,
    and never at a skipped position.  Every later ``check`` of that statement
    and power returns the record at the parameter's position, found by
    identity with the column's object.  Any other parameter is evaluated the
    same way by a checker of one, kept per value; a statement without a
    parameter is evaluated at each check, on a column that holds None alone.
    Gamma evaluators, which carry the contexts, are created per power on
    first use and shared with the checkers of one.
    """

    def __init__(self, p: int, params: list[Fraction] | None = None):
        ModulusContext(p, 1)  # refuses a p that is not a prime >= 5
        self.p = p
        self._sign = -1 if p % 4 == 1 else 1  # (-1)^((p+1)/2)
        self._gamma: dict[int, GammaEvaluator] = {}
        self.params = list(params or ())
        self._where = {id(a): i for i, a in enumerate(self.params)}  # the column's objects, by identity
        self._values: dict[Fraction, int] | None = None  # the column's values, on the first other object
        self._ones: dict[Fraction, StatementChecker] = {}  # a checker of one per value outside it
        self._lifts: dict[int, list[int | None]] = {}  # k -> the column's lifts
        self._series: dict[tuple, list[int | None]] = {}  # (kernel, k) -> values at the positions read
        self._records: dict[tuple, list[ReportRecord]] = {}  # (statement with a parameter, power) -> records

    def gamma(self, k: int) -> GammaEvaluator:
        if k not in self._gamma:
            self._gamma[k] = GammaEvaluator(ModulusContext(self.p, k))
        return self._gamma[k]

    def lift(self, a: Fraction, k: int) -> int | None:
        """a mod p^k, in [0, p^k); None when p divides a's denominator."""
        return _lift(a.numerator, a.denominator, self.p, self.p**k)

    def lifts(self, k: int) -> list[int | None]:
        """The lift of each parameter of the column mod p^k, computed once per k."""
        if k not in self._lifts:
            self._lifts[k] = [self.lift(a, k) for a in self.params]
        return self._lifts[k]

    def series(self, kernel, at: list[int], k: int) -> list[int]:
        """kernel(a, context mod p^k, lift of a).value, for a series kernel, at the column's
        positions ``at``: evaluated once per (kernel, k, position)."""
        values = self._series.get((kernel, k))
        if values is None:
            values = self._series[kernel, k] = [None] * len(self.params)
        params, xs, ctx = self.params, self.lifts(k), self.gamma(k).ctx
        for i in at:
            if values[i] is None:
                values[i] = kernel(params[i], ctx, xs[i]).value
        return [values[i] for i in at]

    def _entry(self, a: RationalLike) -> tuple[StatementChecker, int]:
        """The checker and position that hold a: this one if a is one of its column's objects or
        equals one, else a checker of one per value."""
        i = self._where.get(id(a))
        if i is None:
            if not isinstance(a, Fraction):  # API callers pass ints
                a = Fraction(a)
            if self._values is None:
                self._values = {b: i for i, b in enumerate(self.params)}
            i = self._values.get(a)
        if i is not None:
            return self, i
        if a not in self._ones:
            self._ones[a] = one = StatementChecker(self.p, [a])
            one._gamma = self._gamma
        return self._ones[a], 0

    def _evaluate(self, stmt: Statement, k: int) -> list[ReportRecord]:
        """stmt's records mod p^k at every position of the column."""
        stmt_id, _, _, parity, takes_param, sides, _ = stmt
        p = self.p
        if takes_param:
            params, lifts, odd = self.params, self.lifts(k), parity == "odd"
            reasons = ["not a p-adic integer" if x is None else "parity" if parity and x % p % 2 != odd else None
                       for x in lifts]
        else:
            params = lifts = reasons = [None]
        at = [i for i, reason in enumerate(reasons) if reason is None]
        checked = iter([
            ReportRecord(stmt_id, p, k, params[i], lhs, rhs, PASS if lhs == rhs else FAIL)
            for i, lhs, rhs in zip(at, *sides(self, at, [lifts[i] for i in at], k))
        ])
        return [
            next(checked) if reason is None else ReportRecord(stmt_id, p, k, a, None, None, SKIPPED, reason)
            for a, reason in zip(params, reasons)
        ]

    def check(self, stmt_id: str, a: RationalLike | None = None, power: int | None = None) -> ReportRecord:
        """Evaluate one statement, returning a PASS/FAIL/SKIPPED record.

        Hypothesis failures (parity, p dividing a denominator) are reported
        as SKIPPED.  ``power`` overrides the catalog modulus power, for
        exploratory runs only; a power outside 1..3 raises ValueError.  The
        record is read from the statement's pass over the column that holds
        a (see the class), made on its first check at that power.
        """
        i = self._where.get(id(a))  # one of the column's objects: its record, once the pass is made
        records = None if i is None else self._records.get((stmt_id, power))
        if records is None:
            stmt = STATEMENTS[stmt_id]
            if power is not None:
                self.gamma(power)  # refuses a power outside 1..3, by ModulusContext's rule
            k = stmt.power if power is None or stmt.fixed_power else power
            if not stmt.takes_param:
                if a is not None:
                    raise ValueError(f"statement {stmt_id} takes no parameter")
                return self._evaluate(stmt, k)[0]  # on a column of None alone, at each check
            if a is None:
                raise ValueError(f"statement {stmt_id} requires a parameter")
            owner, i = self._entry(a)
            records = owner._records.get((stmt_id, power))
            if records is None:
                records = owner._records[stmt_id, power] = owner._evaluate(stmt, k)
        return records[i]


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
#: A multiple of every default parameter's denominator: a * SCALE is an exact integer sort key.
SCALE = lcm(*range(1, SAMPLE_BOUND + 1), *(a.denominator for a in NAMED_RATIONALS))
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
    seen = {(f.numerator, f.denominator) for f in exclude}  # reduced pairs hash far faster than Fractions
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
        g = gcd(num, den)
        key = (num // g, den // g)
        if key in seen:
            continue
        seen.add(key)
        out.append(Fraction(*key))
    return out


def default_parameters(p: int, seed: int = 0) -> list[Fraction]:
    """Default per-prime parameter set: all integer residues 0..p-1, the four
    named rationals, and SAMPLE_COUNT seeded fractions distinct from both."""
    base = [Fraction(i) for i in range(p)]
    base.extend(NAMED_RATIONALS)
    # the sampler's integers lie in [-SAMPLE_BOUND, SAMPLE_BOUND]: only 0..SAMPLE_BOUND of base can repeat
    sampled = sample_fractions(p, SAMPLE_COUNT, seed, exclude={*base[: SAMPLE_BOUND + 1], *NAMED_RATIONALS})
    return base + sampled
