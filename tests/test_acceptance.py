"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All comparisons are exact residue or rational equality; there are no
tolerances anywhere.  Sweeps follow the stated prime ranges and parameter
sets; the seeded corpora are deterministic.
"""

import time
from fractions import Fraction

from supercong.padic_core import (
    ModulusContext,
    least_residue,
    reduce_rational,
    sieve_primes,
)
from supercong.padic_gamma import GammaEvaluator, g1
from supercong.hyperseries import series_2f1_half, series_3f2_one
from supercong.identities import (
    check_b8,
    check_b9,
    check_b17,
    check_b18,
    check_clausen_truncated,
    check_recurrences,
)
from supercong.congruences import (
    FAIL,
    PASS,
    SKIPPED,
    NAMED_RATIONALS,
    StatementChecker,
    check_statement,
    sample_fractions,
    _splitmix64,
)
from test_hyperseries import pochhammer_mod  # (x)_n factor by factor
from test_padic_core import s_p

SEED = 42


def _report(criterion: int, ok: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} - {detail} [{elapsed:.1f}s]")


def _seeded_arguments(p: int, count: int, seed: int):
    """Deterministic stream of p-adic integer arguments (wide range)."""
    state = (seed ^ (p * 0x9E3779B97F4A7C15)) & (2**64 - 1)
    produced = 0
    while produced < count:
        state, v1 = _splitmix64(state)
        state, v2 = _splitmix64(state)
        state, v3 = _splitmix64(state)
        den = v2 % 1000 + 1
        if den % p == 0:
            continue
        num = v1 % (2 * 10**6 + 1) - 10**6
        produced += 1
        yield Fraction(num, den), v3


def test_criterion_1_identity_sweep():
    start = time.perf_counter()
    failures = []
    for n in range(0, 201, 2):
        for chk in (check_b8(n), check_b9(n), check_b17(n), check_b18(n)):
            if not chk.ok:
                failures.append((chk.identity, n))
    for n in range(61):
        if not check_clausen_truncated(n).ok:
            failures.append(("CLAUSEN", n))
    elapsed = time.perf_counter() - start
    _report(1, not failures and elapsed < 60, "identity sweep: evens to 200, truncated square relation to 60", elapsed)
    assert not failures, failures
    assert elapsed < 60, f"identity sweep took {elapsed:.1f}s"


def test_criterion_2_recurrence_certification():
    start = time.perf_counter()
    report = check_recurrences(100)
    elapsed = time.perf_counter() - start
    _report(2, report.passed, "harmonic-sum sequences a_n and b_n vanish for n = 0..100", elapsed)
    assert report.passed, report


def _theorem_sweep(stmt_id: str, hi: int) -> tuple[list, float, int]:
    start = time.perf_counter()
    failures = []
    checked = 0
    for p in sieve_primes(5, hi):
        checker = StatementChecker(p)
        evens = [Fraction(a) for a in range(0, p, 2)]
        fractions = sample_fractions(p, 20, SEED)
        for a in evens + list(NAMED_RATIONALS) + fractions:
            rec = checker.check(stmt_id, a)
            checked += 1
            if rec.verdict == FAIL:
                failures.append(rec)
            elif least_residue(a, p) % 2 == 0 and rec.verdict != PASS:
                failures.append(rec)  # hypothesis held, so the theorem must verify
    return failures, time.perf_counter() - start, checked


def test_criterion_3_theorem_1():
    failures, elapsed, checked = _theorem_sweep("THM1_A4", 199)
    _report(3, not failures and elapsed < 300, f"2F1 Gamma-product form, {checked} checks, primes to 199", elapsed)
    assert not failures, failures[:5]
    assert elapsed < 300, f"sweep took {elapsed:.1f}s"


def test_criterion_4_theorem_2():
    failures, elapsed, checked = _theorem_sweep("THM2_A5", 199)
    _report(4, not failures and elapsed < 300, f"3F2 Gamma-product form, {checked} checks, primes to 199", elapsed)
    assert not failures, failures[:5]
    assert elapsed < 300, f"sweep took {elapsed:.1f}s"


def test_criterion_5_theorem_3():
    start = time.perf_counter()
    failures = []
    checked = 0
    for p in sieve_primes(5, 199):
        checker = StatementChecker(p)
        params = [Fraction(a) for a in range(p)] + sample_fractions(p, 20, SEED)
        for a in params:
            rec = checker.check("THM3_A6", a)
            checked += 1
            if rec.verdict != PASS:
                failures.append(rec)
    elapsed = time.perf_counter() - start
    _report(5, not failures, f"square relation mod p^2, both parities, {checked} checks", elapsed)
    assert not failures, failures[:5]


def test_criterion_6_vanishing_congruences():
    start = time.perf_counter()
    failures = []
    checked = 0
    for p in sieve_primes(5, 199):
        checker = StatementChecker(p)
        odds = [Fraction(a) for a in range(1, p, 2)]
        params = odds + list(NAMED_RATIONALS) + sample_fractions(p, 20, SEED)
        for a in params:
            odd = least_residue(a, p) % 2 == 1
            for stmt in ("SUN_A2", "SUN_A3"):
                rec = checker.check(stmt, a)
                checked += 1
                if odd:
                    if rec.verdict != PASS or rec.lhs != 0:
                        failures.append(rec)
                elif rec.verdict != SKIPPED:
                    failures.append(rec)
    elapsed = time.perf_counter() - start
    _report(6, not failures, f"odd-residue truncations vanish mod p^2, {checked} checks", elapsed)
    assert not failures, failures[:5]


def test_criterion_7_gamma_property_suite():
    start = time.perf_counter()
    failures = []
    pochhammer_checked = 0
    for p in sieve_primes(5, 97):
        ctx = ModulusContext(p, 2)
        ev = GammaEvaluator(ctx)
        m = ctx.modulus
        if ev.gamma_p(1).value != m - 1:
            failures.append((p, "value at 1"))
        half = ev.gamma_p(Fraction(1, 2)).value
        if half * half % m != (-1) ** ((p + 1) // 2) % m:
            failures.append((p, "half-value square"))
        for x, aux in _seeded_arguments(p, 500, SEED):
            gx = ev.gamma_p(x).value
            # reflection
            if gx * ev.gamma_p(1 - x).value % m != (-1) ** s_p(x, p) % m:
                failures.append((p, x, "reflection"))
            # step ratio
            expected = m - reduce_rational(x, ctx).value if least_residue(x, p) else m - 1
            if ev.gamma_p(x + 1).value != expected * gx % m:
                failures.append((p, x, "ratio"))
            # rising-factorial link, when no factor is divisible by p
            n = aux % 9
            if all(least_residue(x + i, p) for i in range(n)):
                pochhammer_checked += 1
                want = (-1) ** n * ev.gamma_p(x + n).value * pow(gx, -1, m) % m
                if pochhammer_mod(x, n, ctx).value != want:
                    failures.append((p, x, "pochhammer link"))
            # first-order perturbation via the harmonic formula for G1
            b = aux % p
            if ev.gamma_p(x + b * p).value != gx * (1 + g1(x, p) * b * p) % m:
                failures.append((p, x, "perturbation"))
    elapsed = time.perf_counter() - start
    ok = not failures and pochhammer_checked > 5000
    _report(7, ok, f"gamma functional equations, 500 args/prime to 97 ({pochhammer_checked} link checks)", elapsed)
    assert not failures, failures[:5]
    assert pochhammer_checked > 5000


def test_criterion_8_proof_traces():
    start = time.perf_counter()
    failures = []
    checked = 0
    for p in sieve_primes(5, 97):
        checker = StatementChecker(p)
        evens = [Fraction(a) for a in range(0, p, 2)]
        params = evens + list(NAMED_RATIONALS) + sample_fractions(p, 20, SEED)
        for a in params:
            even = least_residue(a, p) % 2 == 0
            for stmt in ("TRACE_C9", "TRACE_C15"):
                rec = checker.check(stmt, a)
                checked += 1
                if even and rec.verdict != PASS:
                    failures.append(rec)
                if not even and rec.verdict != SKIPPED:
                    failures.append(rec)
    elapsed = time.perf_counter() - start
    _report(8, not failures, f"first-order trace congruences, {checked} checks, primes to 97", elapsed)
    assert not failures, failures[:5]


def test_criterion_9_conjecture_evidence():
    start = time.perf_counter()
    findings = []
    s4_checked = 0
    for p in sieve_primes(5, 199):
        checker = StatementChecker(p)
        second_class = {"CONJ_S1": p % 6 == 5, "CONJ_S2": p % 8 in (5, 7), "CONJ_S3": p % 4 == 3}
        for stmt in ("CONJ_S1", "CONJ_S2", "CONJ_S3"):
            rec = checker.check(stmt)
            if rec.verdict != PASS:
                findings.append(rec)
            if second_class[stmt] and rec.lhs % (p * p) != 0:
                findings.append((rec, "second-class value not divisible by p^2"))
        for a in sample_fractions(p, 20, SEED, parity="even"):
            rec = checker.check("CONJ_S4", a)
            s4_checked += 1
            if rec.verdict != PASS:
                findings.append(rec)
    elapsed = time.perf_counter() - start
    ok = not findings and elapsed < 600 and s4_checked == 20 * len(sieve_primes(5, 199))
    _report(9, ok, f"mod p^3 conjecture evidence, primes to 199 (non-blocking; {s4_checked} parameterized checks)", elapsed)
    # A failure here would be a *finding* about the conjectures, surfaced loudly.
    assert not findings, f"conjecture findings: {findings[:5]}"
    assert elapsed < 600, f"conjecture scan took {elapsed:.1f}s"


def test_criterion_10_spot_values():
    start = time.perf_counter()
    ctx = ModulusContext(5, 2)
    ok = True
    ok &= series_2f1_half(2, ctx).value == 12
    ok &= series_3f2_one(2, ctx).value == 19
    thm1_rhs = check_statement("THM1_A4", 5, Fraction(2)).rhs
    thm2_rhs = check_statement("THM2_A5", 5, Fraction(2)).rhs
    ok &= thm1_rhs == 12
    ok &= thm2_rhs == 19
    gamma_at_one = all(
        GammaEvaluator(ModulusContext(p, 2)).gamma_p(1).value == p * p - 1
        for p in sieve_primes(5, 199)
    )
    ok &= gamma_at_one
    elapsed = time.perf_counter() - start
    _report(10, bool(ok), "frozen spot values at (p=5, a=2) and value at 1 across primes", elapsed)
    assert series_2f1_half(2, ctx).value == 12
    assert series_3f2_one(2, ctx).value == 19
    assert thm1_rhs == 12
    assert thm2_rhs == 19
    assert gamma_at_one
