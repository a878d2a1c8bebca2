from fractions import Fraction
from math import factorial, gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from supercong.padic_core import ModulusContext, least_residue, reduce_rational, sieve_primes
from supercong.padic_gamma import GammaEvaluator, g1, g1_of_one
from test_hyperseries import pochhammer_mod  # (x)_n factor by factor
from test_padic_core import s_p

SMALL_PRIMES = [5, 7, 11, 13]


def gamma_oracle(m: int, p: int, modulus: int) -> int:
    # literal definition at a non-negative integer: (-1)^m prod_{0<j<m, p notdiv j} j
    prod = 1
    for j in range(1, m):
        if j % p:
            prod = prod * j % modulus
    return (-1) ** m * prod % modulus


def test_gamma_examples():
    for p, k in [(5, 1), (5, 2), (7, 2), (11, 3)]:
        ctx = ModulusContext(p, k)
        ev = GammaEvaluator(ctx)
        assert ev.gamma_p(1).value == ctx.modulus - 1
        assert ev.gamma_p(0).value == 1
    ev5 = GammaEvaluator(ModulusContext(5, 1))
    assert ev5.gamma_p(3).value == 3
    assert ev5.gamma_p(Fraction(1, 2)).value == 3


def test_factorial_tables_against_math_factorial():
    # n = p - 1 reads the full block (p-1)!, every other n a partial block
    for p, k in [(5, 1), (7, 2), (13, 2), (11, 3)]:
        ev, m = GammaEvaluator(ModulusContext(p, k)), p**k
        for n in range(p):
            assert ev.factorial(n) == factorial(n) % m, (p, k, n)


def test_gamma_against_definition_oracle():
    for p, k in [(5, 2), (7, 2), (7, 3), (13, 1)]:
        ctx = ModulusContext(p, k)
        ev = GammaEvaluator(ctx)
        for m in range(0, ctx.modulus, 7):
            assert ev.gamma_at(m) == gamma_oracle(m, p, ctx.modulus), (p, k, m)


def gamma_oracle_table(ms, p: int, modulus: int) -> dict[int, int]:
    # the literal definition at every m in ms, from one ascending running product
    wanted = set(ms)
    out, prod = {}, 1
    for j in range(max(wanted) + 1):
        if j in wanted:
            out[j] = prod if j % 2 == 0 else -prod % modulus
        if j % p:
            prod = prod * j % modulus
    return out


def test_gamma_exhaustive_against_definition():
    # every argument in [0, p^k), so each residue r and block count q is met
    for p in sieve_primes(5, 23):
        for k in (1, 2, 3):
            ctx = ModulusContext(p, k)
            ev = GammaEvaluator(ctx)
            expected = gamma_oracle_table(range(ctx.modulus), p, ctx.modulus)
            assert [ev.gamma_at(m) for m in range(ctx.modulus)] == [
                expected[m] for m in range(ctx.modulus)
            ], (p, k)


def test_gamma_conjecture_arguments_mod_p3():
    # the Gamma arguments of CONJ_S1..S3 at p = 101, against the definition
    ctx = ModulusContext(101, 3)
    ev = GammaEvaluator(ctx)
    args = [Fraction(1, 6), Fraction(1, 3), Fraction(1, 8), Fraction(3, 8), Fraction(1, 12), Fraction(5, 12)]
    lifts = [reduce_rational(x, ctx).value for x in args]
    expected = gamma_oracle_table(lifts, 101, ctx.modulus)
    for x, m in zip(args, lifts):
        assert ev.gamma_p(x).value == expected[m], x


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(sieve_primes(5, 61)),
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
)
def test_gamma_random_fractions_mod_p3(p, x):
    if x.denominator % p == 0:
        return
    ctx = ModulusContext(p, 3)
    m = reduce_rational(x, ctx).value
    assert GammaEvaluator(ctx).gamma_p(x).value == gamma_oracle(m, p, ctx.modulus)


def test_gamma_continuity_of_integer_lifts():
    # The definition itself is stable mod p^k under shifting m by p^k, which
    # justifies evaluating at the reduced argument.
    for p, k in [(5, 1), (5, 2), (7, 2)]:
        modulus = p**k
        for m in range(0, modulus, 5):
            assert gamma_oracle(m, p, modulus) == gamma_oracle(m + modulus, p, modulus)
            assert gamma_oracle(m, p, modulus) == gamma_oracle(m + 3 * modulus, p, modulus)


def test_gamma_out_of_order_queries_match_oracle():
    # results must not depend on query order: descending and interleaved arguments
    ctx = ModulusContext(13, 2)
    ev = GammaEvaluator(ctx)
    order = list(range(ctx.modulus - 1, 0, -11)) + list(range(3, ctx.modulus, 29))
    for m in order:
        assert ev.gamma_at(m) == gamma_oracle(m, 13, ctx.modulus)


def test_gamma_values_are_units():
    ctx = ModulusContext(7, 2)
    ev = GammaEvaluator(ctx)
    for m in range(ctx.modulus):
        assert gcd(ev.gamma_at(m), 7) == 1


def test_gamma_congruent_arguments_agree():
    ctx = ModulusContext(7, 2)
    ev = GammaEvaluator(ctx)
    assert ev.gamma_p(Fraction(3)).value == ev.gamma_p(Fraction(3 + 49)).value
    assert ev.gamma_p(Fraction(1, 2)).value == ev.gamma_p(Fraction(1, 2) + 49).value


def test_reflection_property():
    # Gamma_p(x) Gamma_p(1-x) = (-1)^{s_p(x)}
    for p in SMALL_PRIMES:
        ctx = ModulusContext(p, 2)
        ev = GammaEvaluator(ctx)
        m = ctx.modulus
        for x in [Fraction(0), Fraction(1), Fraction(2, 3), Fraction(-5, 4), Fraction(17, 6)]:
            lhs = ev.gamma_p(x).value * ev.gamma_p(1 - x).value % m
            assert lhs == (-1) ** s_p(x, p) % m


def test_ratio_property():
    # Gamma_p(x+1)/Gamma_p(x) is -x for units, -1 otherwise
    for p in (5, 11):
        ctx = ModulusContext(p, 2)
        ev = GammaEvaluator(ctx)
        m = ctx.modulus
        for x in [Fraction(3), Fraction(p), Fraction(1, 2), Fraction(-2, 3), Fraction(p * 4), Fraction(m - 1)]:
            ratio = ev.gamma_p(x + 1).value * pow(ev.gamma_p(x).value, -1, m) % m
            if least_residue(x, p) == 0:
                assert ratio == m - 1
            else:
                assert ratio == -reduce_rational(x, ctx).value % m


def test_pochhammer_gamma_link():
    # (x)_n = (-1)^n Gamma_p(x+n)/Gamma_p(x) when no factor is divisible by p
    for p in (7, 13):
        ctx = ModulusContext(p, 2)
        ev = GammaEvaluator(ctx)
        m = ctx.modulus
        for x in [Fraction(1), Fraction(2, 3), Fraction(-1, 2), Fraction(5, 4)]:
            for n in range(0, 5):
                if any(least_residue(x + i, p) == 0 for i in range(n)):
                    continue
                expected = (-1) ** n * ev.gamma_p(x + n).value * pow(ev.gamma_p(x).value, -1, m) % m
                assert pochhammer_mod(x, n, ctx).value == expected


def test_half_value_square():
    # Gamma_p(1/2)^2 = (-1)^{(p+1)/2}
    for p in SMALL_PRIMES + [17, 19]:
        ctx = ModulusContext(p, 2)
        ev = GammaEvaluator(ctx)
        assert ev.gamma_p(Fraction(1, 2)).value ** 2 % ctx.modulus == (-1) ** ((p + 1) // 2) % ctx.modulus


def test_g1_of_one_matches_wilson_quotient():
    # Gamma_p(1+p) = -(1 + G1(1) p) mod p^2 pins G1(1) to minus the Wilson quotient.
    for p in SMALL_PRIMES + [17, 19, 23]:
        wilson = (factorial(p - 1) + 1) // p
        assert g1_of_one(p) == -wilson % p


def test_g1_of_one_round_trip():
    for p in SMALL_PRIMES:
        ctx = ModulusContext(p, 2)
        t = GammaEvaluator(ctx).gamma_at(1 + p)
        assert t == -(1 + g1_of_one(p) * p) % ctx.modulus


def test_g1_examples():
    for p in SMALL_PRIMES:
        assert g1(Fraction(1), p) == g1_of_one(p)
        assert g1(Fraction(0), p) == g1_of_one(p)  # H_{p-1} vanishes
    assert g1(Fraction(2), 7) == (g1_of_one(7) + 1) % 7


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(SMALL_PRIMES),
    st.fractions(min_value=-30, max_value=30, max_denominator=25),
    st.fractions(min_value=-30, max_value=30, max_denominator=25),
)
def test_perturbation_property(p, a, b):
    # Gamma_p(a + b p) = Gamma_p(a) (1 + G1(a) b p) mod p^2
    if a.denominator % p == 0 or b.denominator % p == 0:
        return
    ctx = ModulusContext(p, 2)
    ev = GammaEvaluator(ctx)
    m = ctx.modulus
    lhs = ev.gamma_p(a + b * p).value
    rhs = ev.gamma_p(a).value * (1 + g1(a, p) * least_residue(b, p) * p) % m
    assert lhs == rhs
