import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercong.padic_core import (
    IndexOutOfRange,
    ModulusContext,
    NotPAdicInteger,
    Residue,
    harmonic_mod,
    least_residue,
    reduce_rational,
    sieve_primes,
)

SMALL_PRIMES = [5, 7, 11, 13, 17, 19, 23]


def s_p(x, p: int) -> int:
    """Representative of x mod p in {1, ..., p}: least_residue, with 0 mapped to p.

    The exponent of Gamma_p's reflection formula; the tests of Gamma_p read it.
    """
    r = least_residue(x, p)
    return r if r != 0 else p


def test_sieve_examples():
    assert sieve_primes(1, 12) == [5, 7, 11]
    assert sieve_primes(13, 13) == [13]
    assert sieve_primes(24, 28) == []


def test_sieve_never_returns_2_or_3():
    assert sieve_primes(1, 100)[0] == 5
    assert 2 not in sieve_primes(2, 50)
    assert 3 not in sieve_primes(2, 50)


def test_sieve_empty_range_rejected():
    with pytest.raises(ValueError):
        sieve_primes(10, 5)


def test_sieve_matches_trial_division():
    def naive(n):
        return n >= 2 and all(n % d for d in range(2, n))

    assert sieve_primes(5, 250) == [n for n in range(5, 251) if naive(n)]


def test_sieve_memory_follows_the_range_not_hi():
    tracemalloc.start()
    try:
        primes = sieve_primes(10**9, 10**9 + 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert primes == [10**9 + d for d in (7, 9, 21, 33, 87, 93, 97)]
    assert peak < 2**20


def test_context_validation():
    ctx = ModulusContext(5, 2)
    assert ctx.modulus == 25
    with pytest.raises(ValueError):
        ModulusContext(4, 1)  # not prime
    with pytest.raises(ValueError):
        ModulusContext(3, 1)  # below 5
    with pytest.raises(ValueError):
        ModulusContext(5, 4)  # exponent out of range


def test_context_has_no_modulus_bound():
    # p^k at or above 2^31 builds like any other modulus
    assert ModulusContext(1301, 3).modulus == 1301**3
    assert ModulusContext(46349, 2).modulus == 46349**2


def test_residue_range_check():
    ctx = ModulusContext(5, 1)
    with pytest.raises(ValueError):
        Residue(5, ctx)
    assert Residue(3, ctx) == Residue(3, ctx) != Residue(3, ModulusContext(7, 1))
    assert repr(Residue(3, ctx)) == "Residue(3 mod 5)"


def test_reduce_rational_examples():
    assert reduce_rational(Fraction(-1, 3), ModulusContext(7, 1)).value == 2
    assert reduce_rational(Fraction(0), ModulusContext(11, 2)).value == 0
    with pytest.raises(NotPAdicInteger):
        reduce_rational(Fraction(1, 7), ModulusContext(7, 2))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(SMALL_PRIMES),
    st.fractions(min_value=-50, max_value=50, max_denominator=40),
    st.fractions(min_value=-50, max_value=50, max_denominator=40),
)
def test_reduce_rational_is_ring_homomorphism(p, a, b):
    ctx = ModulusContext(p, 2)
    m = ctx.modulus
    if a.denominator % p == 0 or b.denominator % p == 0:
        return
    ra, rb = reduce_rational(a, ctx).value, reduce_rational(b, ctx).value
    if (a + b).denominator % p == 0 or (a * b).denominator % p == 0:
        pytest.fail("sums/products of p-adic integers stay p-adic")
    assert reduce_rational(a + b, ctx) == Residue((ra + rb) % m, ctx)
    assert reduce_rational(a * b, ctx) == Residue(ra * rb % m, ctx)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_PRIMES), st.fractions(min_value=-50, max_value=50, max_denominator=40))
def test_reduce_rational_agrees_with_least_residue(p, a):
    if a.denominator % p == 0:
        return
    ctx = ModulusContext(p, 3)
    assert reduce_rational(a, ctx).value % p == least_residue(a, p)


def test_least_residue_examples():
    assert least_residue(Fraction(-1, 3), 7) == 2
    assert least_residue(Fraction(-1, 2), 5) == 2
    assert least_residue(Fraction(-1, 2), 7) == 3
    # a modulus that is not a prime >= 5 is refused, as by ModulusContext: -7 gave -2, 9 and 0 raised from pow
    for a, p in ((5, -7), (Fraction(1, 3), 9), (Fraction(1, 2), 0), (1, 3), (2, 1)):
        with pytest.raises(ValueError, match=f"p must be a prime >= 5, got {p}"):
            least_residue(a, p)


def test_s_p_examples():
    assert s_p(Fraction(0), 7) == 7
    assert s_p(Fraction(-1, 3), 7) == 2
    assert s_p(Fraction(1), 5) == 1


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_PRIMES), st.fractions(min_value=-50, max_value=50, max_denominator=40))
def test_s_p_vs_least_residue(p, x):
    if x.denominator % p == 0:
        return
    r, s = least_residue(x, p), s_p(x, p)
    assert 1 <= s <= p
    assert s - r in (0, p)
    assert (s - r == p) == (r == 0)


def _harmonic_oracle(n: int, p: int) -> int:
    # direct summation over exact rationals, reduced once at the end
    h = sum(Fraction(1, j) for j in range(1, n + 1))
    return h.numerator * pow(h.denominator, -1, p) % p if n else 0


def test_harmonic_examples():
    assert harmonic_mod(0, 7) == 0
    assert harmonic_mod(4, 5) == _harmonic_oracle(4, 5) == 0
    assert harmonic_mod(2, 7) == _harmonic_oracle(2, 7) == 5
    # a modulus that is not a prime >= 5 is refused: H_1 mod 3 read 1, H_2 mod 9 raised from pow
    for n, p in ((1, 3), (2, 9), (0, 4), (1, -7)):
        with pytest.raises(ValueError, match=f"p must be a prime >= 5, got {p}"):
            harmonic_mod(n, p)


def test_harmonic_full_table_against_oracle():
    for p in (5, 7, 13):
        for n in range(p):
            assert harmonic_mod(n, p) == _harmonic_oracle(n, p)


def test_harmonic_symmetry():
    # H_{p-1-j} = H_j (mod p); in particular H_{p-1} = 0.
    for p in SMALL_PRIMES:
        assert harmonic_mod(p - 1, p) == 0
        for j in range(p):
            assert harmonic_mod(p - 1 - j, p) == harmonic_mod(j, p)


def test_harmonic_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        harmonic_mod(7, 7)
    with pytest.raises(IndexOutOfRange):
        harmonic_mod(-1, 7)
