from collections import Counter
from fractions import Fraction
from math import comb, factorial

import pytest

from supercong import cli, congruences, hyperseries, padic_gamma
from supercong.padic_core import ModulusContext, NotPAdicInteger, least_residue, reduce_rational, sieve_primes
from supercong.padic_gamma import g1
from supercong.hyperseries import series_2f1_half, series_3f2_one
from supercong.congruences import (
    FAIL,
    PASS,
    SKIPPED,
    NAMED_RATIONALS,
    STATEMENTS,
    StatementChecker,
    check_statement,
    default_parameters,
    sample_fractions,
)
from test_padic_core import s_p
from test_padic_gamma import gamma_oracle_table  # Gamma_p from its defining product


def test_catalog_shape():
    assert set(STATEMENTS) == {
        "SUN_A2", "SUN_A3", "THM1_A4", "THM2_A5", "THM3_A6", "LEMMA_B5",
        "TRACE_C9", "TRACE_C15", "CONJ_S1", "CONJ_S2", "CONJ_S3", "CONJ_S4",
    }
    assert STATEMENTS["TRACE_C15"].power == 1
    assert all(STATEMENTS[s].power == 2 for s in ("SUN_A2", "SUN_A3", "THM1_A4", "THM2_A5", "THM3_A6", "LEMMA_B5", "TRACE_C9"))
    assert all(STATEMENTS[s].power == 3 for s in ("CONJ_S1", "CONJ_S2", "CONJ_S3", "CONJ_S4"))


def test_spot_examples():
    rec = check_statement("SUN_A2", 7, 1)
    assert rec.verdict == PASS and rec.lhs == 0

    rec = check_statement("THM1_A4", 5, 2)
    assert rec.verdict == PASS and rec.lhs == rec.rhs == 12

    rec = check_statement("THM2_A5", 5, 2)
    assert rec.verdict == PASS and rec.lhs == rec.rhs == 19

    for stmt, a in (("THM1_A4", Fraction(-1, 2)), ("THM2_A5", Fraction(1))):  # least residues 3 and 1
        rec = check_statement(stmt, 7, a)
        assert rec.verdict == SKIPPED and rec.skip_reason == "parity"
        assert rec.lhs is None and rec.rhs is None


def test_rhs_thm1_values():
    # a = 0 collapses to Gamma_p(1/2)^2 times the matching sign, i.e. 1
    for p in (5, 7, 11, 13):
        assert check_statement("THM1_A4", p, 0).rhs == 1
        assert check_statement("THM2_A5", p, 0).rhs == 1
    assert check_statement("THM1_A4", 5, 2).rhs == 12
    # both-sides agreement at a fractional parameter
    rhs = check_statement("THM1_A4", 7, Fraction(-1, 3)).rhs
    assert rhs == series_2f1_half(Fraction(-1, 3), ModulusContext(7, 2)).value


def test_rhs_thm2_is_square_of_thm1_up_to_half_gamma():
    # internal consistency: THM2's rhs = THM1's rhs^2 mod p^2, by the half-value square
    for p in (5, 7, 13, 17):
        checker = StatementChecker(p)
        for a in (Fraction(0), Fraction(2), Fraction(4)):
            t1 = checker.check("THM1_A4", a).rhs
            assert checker.check("THM2_A5", a).rhs == t1 * t1 % (p * p)


def test_thm3_passes_both_parities():
    checker = StatementChecker(11)
    for a in [Fraction(n) for n in range(11)] + [Fraction(1, 2), Fraction(-2, 3), Fraction(7, 5)]:
        rec = checker.check("THM3_A6", a)
        assert rec.verdict == PASS, rec


def test_sun_vanishing_small_sweep():
    for p in (5, 7, 11):
        checker = StatementChecker(p)
        for a in default_parameters(p, seed=3):
            for stmt in ("SUN_A2", "SUN_A3"):
                rec = checker.check(stmt, a)
                if least_residue(a, p) % 2 == 1:
                    assert rec.verdict == PASS and rec.lhs == 0
                else:
                    assert rec.verdict == SKIPPED


def test_trace_checks():
    assert check_statement("TRACE_C9", 7, Fraction(-1, 3)).verdict == PASS
    # -1/4 has least residue 4 at p=17 (even); at p=13 it is 3 (odd) and skips
    assert check_statement("TRACE_C9", 17, Fraction(-1, 4)).verdict == PASS
    assert check_statement("TRACE_C9", 13, Fraction(-1, 4)).verdict == SKIPPED
    assert check_statement("TRACE_C15", 11, Fraction(2)).verdict == PASS
    assert check_statement("TRACE_C15", 13, Fraction(-1, 6)).verdict == PASS
    assert check_statement("TRACE_C15", 7, Fraction(0)).verdict == PASS


def test_trace_wrappers():
    # the cases of the removed check_c9_trace / check_c15, through check_statement
    assert check_statement("TRACE_C9", 7, Fraction(-1, 3)).verdict == PASS
    assert check_statement("TRACE_C15", 13, Fraction(-1, 6)).verdict == PASS
    assert check_statement("TRACE_C9", 7, Fraction(1)).verdict == SKIPPED
    assert check_statement("TRACE_C15", 7, Fraction(1)).skip_reason == "parity"


def test_trace_c9_integer_parameter_reduces_to_exact_value():
    # delta vanishes for integer parameters below p, killing the correction
    rec = check_statement("TRACE_C9", 11, Fraction(4))
    assert rec.verdict == PASS
    from math import comb

    m = 121
    expected = comb(4, 2) * pow(pow(4, -1, m), 2, m) % m  # (-1/4)^2 C(4,2)
    assert rec.rhs == expected


def test_checker_evaluates_each_series_once_per_point(monkeypatch):
    import supercong.congruences as congruences

    calls = Counter()

    def counting(name):
        kernel = getattr(congruences, name)

        def counted(a, ctx, *rest):
            calls[name, ctx.k, Fraction(a)] += 1
            return kernel(a, ctx, *rest)

        return counted

    for name in ("series_2f1_half", "series_3f2_one"):
        monkeypatch.setattr(congruences, name, counting(name))
    p = 23
    params = default_parameters(p, seed=5)
    theorems = [s for s, st in STATEMENTS.items() if st.kind == "theorem"]
    checker = StatementChecker(p)
    records = [checker.check(stmt, a) for stmt in theorems for a in params]
    assert max(calls.values()) == 1
    # each kernel was still reached at every parameter, and only mod p^2
    assert {(name, k) for name, k, _ in calls} == {("series_2f1_half", 2), ("series_3f2_one", 2)}
    assert {a for _, _, a in calls} == set(params)
    # the shared values are the ones a fresh checker per record computes
    for rec in records[::7]:
        assert rec == StatementChecker(p).check(rec.statement, rec.a)


def test_series_cache_keys_on_the_parameter_not_its_lift(monkeypatch):
    # -1/6 and 4 agree mod 25: the kernels see the same lift and return the
    # same value, but they are two points of the scan, each evaluated once.
    import supercong.congruences as congruences

    calls = Counter()
    kernel = congruences.series_3f2_one

    def counted(a, ctx, *rest):
        calls[Fraction(a), ctx.k] += 1
        return kernel(a, ctx, *rest)

    monkeypatch.setattr(congruences, "series_3f2_one", counted)
    checker = StatementChecker(5)
    records = [checker.check("THM2_A5", a) for a in (Fraction(4), Fraction(-1, 6), Fraction(4), Fraction(-1, 6))]
    assert checker.lift(Fraction(-1, 6), 2) == 4
    assert calls == {(Fraction(4), 2): 1, (Fraction(-1, 6), 2): 1}
    assert [r.lhs for r in records] == [records[0].lhs] * 4 and records[1].a == Fraction(-1, 6)


#: The series each row with a parameter has as its left side.
LEFT_SERIES = {
    **dict.fromkeys(("SUN_A2", "THM2_A5", "THM3_A6", "CONJ_S4"), series_3f2_one),
    **dict.fromkeys(("SUN_A3", "THM1_A4", "TRACE_C9"), series_2f1_half),
}
#: The values of tests/test_cli.py's --params file, once each: negative, 2/5 not 5-adic, -1/3 CONJ_S1's.
FILE_PARAMS = sorted({Fraction(v) for v in ("7", "-1/3", "3", "-5/2", "0", "2/5", "-4", "1/2")})


@pytest.mark.parametrize("p", sieve_primes(5, 31))
def test_column_pass_equals_the_one_record_path(monkeypatch, p):
    # A checker over a column evaluates each statement over all of it in one pass and returns the
    # record at the parameter's position; a checker without one evaluates each parameter on a
    # column of one.  Both give the same record for every row, power and parameter, and so does a
    # parameter passed as an equal Fraction that is not the column's object, or as an int.  The
    # column calls each kernel once per (k, a), and only where a record that is not SKIPPED reads it.
    calls = Counter()

    def counting(name):
        kernel = getattr(congruences, name)

        def counted(a, ctx, *rest):
            calls[name, ctx.k, a] += 1
            return kernel(a, ctx, *rest)

        return counted

    oracle = StatementChecker(p)
    for column in [sorted(default_parameters(p, seed)) for seed in range(3)] + [FILE_PARAMS]:
        for power in (None, 1, 2, 3):
            checker = StatementChecker(p, column)
            with monkeypatch.context() as patch:
                for name in ("series_2f1_half", "series_3f2_one"):
                    patch.setattr(congruences, name, counting(name))
                calls.clear()
                records = {
                    (stmt, a): checker.check(stmt, a, power)
                    for stmt, row in STATEMENTS.items()
                    for a in (column if row.takes_param else [None])
                }
            for (stmt, a), record in records.items():
                assert record == oracle.check(stmt, a, power) and record.a is a, (stmt, a, power)
                if a is not None:
                    assert checker.check(stmt, Fraction(a.numerator, a.denominator), power) == record
                    if a.denominator == 1:
                        assert checker.check(stmt, a.numerator, power) == record
            with pytest.raises(ValueError, match="takes no parameter"):  # a column object is still a parameter
                checker.check("CONJ_S1", column[0], power)
            # each left side reads its series at the lift of its own power: the kernel reducing a itself
            for (stmt, a), record in records.items():
                kernel = LEFT_SERIES.get(stmt)
                if kernel is not None and record.verdict != SKIPPED:
                    assert record.lhs == kernel(a, ModulusContext(p, record.k)).value, (stmt, a, power)
            # CONJ_S1..S3 read their fixed parameters, which the column holds or not
            read = {(r.k, r.a) for r in records.values() if r.verdict != SKIPPED}
            read |= {(r.k, a0) for r in records.values() if r.a is None for a0 in NAMED_RATIONALS[1:]}
            assert max(calls.values()) == 1 and {(k, a) for _, k, a in calls} <= read


def test_each_statement_reads_its_kernels(monkeypatch):
    # The sides look the kernels up by name when they run; a row holding a
    # kernel object from import time would bypass the patched name, and the
    # series cache, keyed by kernel object, would evaluate that series twice.
    import supercong.congruences as congruences

    f2, f3 = "series_2f1_half", "series_3f2_one"
    expected = {
        "SUN_A2": {f3}, "THM2_A5": {f3}, "CONJ_S1": {f3}, "CONJ_S2": {f3}, "CONJ_S3": {f3}, "CONJ_S4": {f3},
        "SUN_A3": {f2}, "THM1_A4": {f2}, "TRACE_C9": {f2},
        "THM3_A6": {f2, f3},
        "LEMMA_B5": set(), "TRACE_C15": set(),
    }
    assert set(expected) == set(STATEMENTS)
    reached = set()

    def counting(name):
        kernel = getattr(congruences, name)

        def counted(a, ctx, *rest):
            reached.add(name)
            return kernel(a, ctx, *rest)

        return counted

    for name in (f2, f3):
        monkeypatch.setattr(congruences, name, counting(name))
    for stmt, kernels in expected.items():
        st = STATEMENTS[stmt]
        a = Fraction(1 if st.parity == "odd" else 2) if st.takes_param else None  # meets the hypothesis
        reached.clear()
        assert StatementChecker(13).check(stmt, a).verdict == PASS
        assert reached == kernels, stmt


@pytest.mark.parametrize(
    "which, r, failing",
    [
        (0, 6, {"THM1_A4", "TRACE_C9", "THM3_A6"}),  # u at an even r
        (0, 7, {"SUN_A3", "THM3_A6"}),  # u at an odd r
        (1, 6, {"THM2_A5", "THM3_A6"}),  # v at an even r
        (1, 7, {"SUN_A2", "THM3_A6"}),  # v at an odd r
    ],
)
def test_one_corrupted_table_entry_fails_its_statements(monkeypatch, which, r, failing):
    # The integer points read u_r and v_r from two separate recurrences, and
    # the right sides never read them: v filled as u^2 would make THM3_A6
    # compare a number with itself, and a TRACE_C9 right side from u would
    # pass with u.  One entry off by one must fail exactly its readers.
    import copy

    from supercong import hyperseries

    p, kernels = 13, hyperseries._kernel

    def corrupted(q, k, kernel_index):
        kernel = kernels(q, k, kernel_index)
        if (q, k, kernel_index) == (p, 2, which):
            kernel = copy.copy(kernel)
            values = kernel.values
            kernel.values = values[:r] + ((values[r] + 1) % q**k,) + values[r + 1 :]
        return kernel

    monkeypatch.setattr(hyperseries, "_kernel", corrupted)
    theorems = [s for s, st in STATEMENTS.items() if st.kind == "theorem"]
    checker = StatementChecker(p)
    for x in range(p):
        verdicts = {stmt: checker.check(stmt, x).verdict for stmt in theorems}
        assert {stmt for stmt, v in verdicts.items() if v == FAIL} == (failing if x == r else set()), x


def _lift(x: Fraction, m: int) -> int:
    # the p-adic integer x mod m, straight from its numerator and denominator
    return x.numerator * pow(x.denominator, -1, m) % m


def _sides(record) -> tuple:
    return record.lhs, record.rhs


def _harmonic_brute(n: int, p: int) -> int:
    return sum(pow(j, -1, p) for j in range(1, n + 1)) % p


@pytest.mark.parametrize("p", sieve_primes(5, 31))
def test_gamma_sides_against_direct_product_oracle(p):
    # Every Gamma-side value of the checker, and the public g1, against Gamma_p
    # from its defining product, Gamma arguments built as Fractions, and
    # harmonic numbers summed term by term.  THM1_A4 and TRACE_C9 are read at
    # every power, the oracle lifted mod p, p^2 and p^3.
    m2, m3 = p**2, p**3
    table = {k: gamma_oracle_table(range(p**k), p, p**k) for k in (1, 2, 3)}

    def gamma(x: Fraction, k: int) -> int:
        return table[k][_lift(x, p**k)]

    g1_one = -((factorial(p - 1) + 1) // p) % p  # minus the Wilson quotient

    def g1_oracle(x: Fraction) -> int:
        return (g1_one + _harmonic_brute(s_p(x, p) - 1, p)) % p

    sign = (-1) ** ((p + 1) // 2)
    checker = StatementChecker(p)
    for a in default_parameters(p, seed=3):
        r = least_residue(a, p)
        lemma = (gamma(a + p, 2), gamma(a, 2) * (1 + g1_oracle(a) * p) % m2)
        assert _sides(checker.check("LEMMA_B5", a)) == lemma, a
        assert g1(a, p) == g1_oracle(a)
        if r % 2:
            continue
        pair = {k: gamma(-a / 2, k) * gamma((a + 1) / 2, k) for k in (1, 2, 3)}
        assert checker.check("THM1_A4", a).rhs == sign * gamma(Fraction(1, 2), 2) * pair[2] % m2, a
        assert checker.check("THM2_A5", a).rhs == sign * pair[2] ** 2 % m2, a
        assert checker.check("CONJ_S4", a).rhs == sign * pair[3] ** 2 % m3, a
        hdiff = _harmonic_brute((p - r - 1) // 2, p) - _harmonic_brute(r // 2, p)
        shift = _lift((a - r) / p, p)  # (a - <a>_p)/p mod p
        w = _lift(Fraction(shift * hdiff, 2), p)  # the first-order term, read mod p
        c9 = comb(r, r // 2) * Fraction(-1, 4) ** (r // 2) * (1 + p * w)
        assert checker.check("TRACE_C9", a).rhs == _lift(c9, m2), a
        for k in (1, 2, 3):
            thm1 = sign * gamma(Fraction(1, 2), k) * pair[k] % p**k
            assert checker.check("THM1_A4", a, power=k).rhs == thm1, (a, k)
            assert checker.check("TRACE_C9", a, power=k).rhs == _lift(c9, p**k), (a, k)
        c15 = (hdiff + g1_oracle(-a / 2) - g1_oracle((a + 1) / 2)) % p
        assert _sides(checker.check("TRACE_C15", a)) == (c15, 0), a


def test_lemma_b5_statement():
    for p in (5, 7, 13):
        checker = StatementChecker(p)
        for a in (Fraction(1), Fraction(3), Fraction(-1, 2), Fraction(5, 3)):
            assert checker.check("LEMMA_B5", a).verdict == PASS


def test_conjectures_pass_small_primes():
    for p in sieve_primes(5, 37):
        checker = StatementChecker(p)
        for stmt in ("CONJ_S1", "CONJ_S2", "CONJ_S3"):
            rec = checker.check(stmt)
            assert rec.verdict == PASS, rec


def test_conj_second_class_rhs_divisible_by_p_squared():
    # p = 23 is 5 mod 6, 7 mod 8 and 3 mod 4: second class for all three
    checker = StatementChecker(23)
    for stmt in ("CONJ_S1", "CONJ_S2", "CONJ_S3"):
        rec = checker.check(stmt)
        assert rec.rhs % 23**2 == 0
        assert rec.lhs % 23**2 == 0


def test_conj_s4_reduces_to_s1_first_case():
    # p = 13 is 1 mod 6; the named parameter -1/3 gives exactly the S1 value
    checker = StatementChecker(13)
    s1 = checker.check("CONJ_S1")
    s4 = checker.check("CONJ_S4", Fraction(-1, 3))
    assert s4.verdict == PASS
    assert (s4.lhs, s4.rhs) == (s1.lhs, s1.rhs)


def test_conj_s4_parity_gate():
    rec = check_statement("CONJ_S4", 11, Fraction(-1, 3))  # residue (2p-1)/3 = 7, odd
    assert rec.verdict == SKIPPED and rec.skip_reason == "parity"


def test_conj_case_selection():
    # the first class (p = 1 mod 6) has no p^2 prefactor, the second has
    assert check_statement("CONJ_S1", 13).rhs % 13 != 0
    assert check_statement("CONJ_S1", 11).rhs % 121 == 0


def test_non_p_adic_parameter_is_skipped():
    rec = check_statement("THM1_A4", 5, Fraction(1, 5))
    assert rec.verdict == SKIPPED and "p-adic" in rec.skip_reason


@pytest.mark.parametrize("p", [5, 7, 11, 13, 31])
def test_lift_is_the_checkers_only_reduction(p):
    # one reduction serves the lift and the public reducers: None from the lift exactly where both raise
    checker = StatementChecker(p)
    extra = [Fraction(1, p), Fraction(3, 2 * p), Fraction(-1), Fraction(-p - 3), Fraction(p), Fraction(p * p + 2)]
    extra += [Fraction(num, den) for num in range(-40, 41) for den in range(1, 41)] + list(range(-40, 41))
    for k in (1, 2, 3):
        ctx = ModulusContext(p, k)
        for a in default_parameters(p) + extra:
            x = checker.lift(Fraction(a), k)
            reduced = []
            for reduce in (lambda: reduce_rational(a, ctx).value, lambda: least_residue(a, p)):
                try:
                    reduced.append(reduce())
                except NotPAdicInteger as exc:
                    assert str(exc) == f"{a} is not a p-adic integer at p={p}"
                    reduced.append(None)
            if Fraction(a).denominator % p == 0:
                assert x is None and reduced == [None, None], (p, k, a)
            else:
                assert reduced == [x, x % p], (p, k, a)
    assert type(checker.check("THM1_A4", 2).a) is Fraction  # API callers pass ints
    a = Fraction(-1, 2)
    assert checker.check("THM1_A4", a).a is a


@pytest.mark.parametrize("power", [None, 1, 3])
def test_scan_reduces_parameters_only_through_the_lift(monkeypatch, power):
    def refuse(*args):
        raise AssertionError(f"a rational reduced outside the lift: {args}")

    monkeypatch.setattr(padic_gamma, "least_residue", refuse)
    monkeypatch.setattr(padic_gamma, "g1", refuse)
    monkeypatch.setattr(padic_gamma, "reduce_rational", refuse)
    monkeypatch.setattr(hyperseries, "reduce_rational", refuse)
    monkeypatch.setattr(padic_gamma.GammaEvaluator, "gamma_p", refuse)
    blocks = cli._scan_prime((13, tuple(STATEMENTS), None, 0, power, "jsonl"))
    assert [key for key, _, _ in blocks] == [(s, 13) for s in STATEMENTS]


@pytest.mark.parametrize(
    "power, evaluators, lifts",
    [(None, [2, 3], {1, 2, 3}), (1, [1], {1}), (3, [3], {1, 3})],
)
def test_scan_reads_only_the_powers_it_checks(monkeypatch, power, evaluators, lifts):
    # one Gamma evaluator per power checked, and lifts only at those powers and TRACE_C15's fixed 1;
    # LEMMA_B5 and TRACE_C9 once built an evaluator and lifted mod p^2 under --power 1 and 3 too
    built, lifted = [], set()
    real_init, real_lift = padic_gamma.GammaEvaluator.__init__, StatementChecker.lift

    def counting_init(self, ctx):
        built.append(ctx.k)
        real_init(self, ctx)

    def counting_lift(self, a, k):
        lifted.add(k)
        return real_lift(self, a, k)

    monkeypatch.setattr(padic_gamma.GammaEvaluator, "__init__", counting_init)
    monkeypatch.setattr(StatementChecker, "lift", counting_lift)
    cli._scan_prime((13, tuple(STATEMENTS), None, 0, power, "jsonl"))
    assert sorted(built) == evaluators
    assert lifted == lifts


def test_parameter_arity_enforced():
    with pytest.raises(ValueError):
        check_statement("THM1_A4", 5)
    with pytest.raises(ValueError):
        check_statement("CONJ_S1", 5, Fraction(1))


@pytest.mark.parametrize("p", [1, 3, 4, 9, 15, 25])
def test_checker_refuses_a_p_that_is_not_a_prime_of_at_least_5(p):
    # TRACE_C15 passed at p = 3; the SKIPPED paths (a p-adic non-integer, parity) never build a context
    with pytest.raises(ValueError, match=f"p must be a prime >= 5, got {p}"):
        StatementChecker(p)
    for stmt, a in (("TRACE_C15", 0), ("TRACE_C15", 2), ("SUN_A2", Fraction(1, p)), ("THM1_A4", 1), ("CONJ_S1", None)):
        with pytest.raises(ValueError, match="p must be a prime >= 5"):
            check_statement(stmt, p, a)


def test_power_override():
    # exploratory run of the theorem at k = 1: still a congruence mod p
    rec = check_statement("THM1_A4", 7, 2)
    weak = StatementChecker(7).check("THM1_A4", 2, power=1)
    assert weak.k == 1
    assert weak.verdict == PASS
    assert weak.lhs == rec.lhs % 7
    # TRACE_C15 is stated mod p whatever the override; TRACE_C9 compares mod p^k
    # but reads its shift quotient mod p^2 even at k = 1
    checker = StatementChecker(13)
    assert checker.check("TRACE_C15", 2, power=3).k == 1
    a = Fraction(-1, 3)  # least residue 4 at p = 13
    weak, full = checker.check("TRACE_C9", a, power=1), checker.check("TRACE_C9", a)
    assert (weak.k, full.k) == (1, 2)
    assert (weak.lhs, weak.rhs) == (full.lhs % 13, full.rhs % 13)
    # a power outside 1..3 is refused before the lift, for every row: THM1_A4 at a = 1 gave a parity SKIPPED
    # with k = 4, SUN_A2 one with k = 0
    for stmt, a, power in (("THM1_A4", 1, 4), ("THM1_A4", 2, 4), ("SUN_A2", 2, 0), ("TRACE_C15", 2, 4),
                           ("SUN_A2", Fraction(1, 7), -1), ("CONJ_S1", None, 0)):
        with pytest.raises(ValueError, match=f"exponent k must be 1, 2 or 3, got {power}"):
            StatementChecker(7).check(stmt, a, power)


def test_record_serialization():
    rec = check_statement("THM1_A4", 5, 2)
    row = rec.to_dict()
    assert list(row) == ["statement", "p", "k", "a_num", "a_den", "lhs", "rhs", "verdict", "skip_reason"]
    assert row["a_num"] == 2 and row["a_den"] == 1
    a_free = check_statement("CONJ_S1", 7).to_dict()
    assert a_free["a_num"] is None and a_free["a_den"] is None


def test_sample_fractions_deterministic_and_bounded():
    xs = sample_fractions(13, 20, seed=42)
    ys = sample_fractions(13, 20, seed=42)
    zs = sample_fractions(13, 20, seed=43)
    assert xs == ys
    assert xs != zs
    assert len(set(xs)) == 20
    for f in xs:
        assert abs(f.numerator) <= 20 and 1 <= f.denominator <= 20
        assert f.denominator % 13 != 0


def test_sample_fractions_respects_exclusions():
    base = set(sample_fractions(7, 10, seed=1))
    more = sample_fractions(7, 10, seed=1, exclude=base)
    assert not base & set(more)


def test_default_parameters_layout():
    params = default_parameters(11, seed=0)
    assert params[:11] == [Fraction(i) for i in range(11)]
    assert params[11:15] == list(NAMED_RATIONALS)
    assert len(params) == 11 + 4 + 20
    assert len(set(params)) == len(params)
