from collections import Counter
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercong import hyperseries
from supercong.congruences import NAMED_RATIONALS, default_parameters
from supercong.padic_core import ModulusContext, NotPAdicInteger, Residue, reduce_rational, sieve_primes
from supercong.hyperseries import series_2f1_half, series_3f2_one


def poch_oracle(a, k):
    out = Fraction(1)
    for i in range(k):
        out *= Fraction(a) + i
    return out


def pfq_oracle(upper, lower, z, n):
    # term-by-term from explicit Pochhammer products, not the incremental path
    total = Fraction(0)
    for k in range(n + 1):
        term = Fraction(z) ** k / factorial(k)
        for a in upper:
            term *= poch_oracle(a, k)
        for b in lower:
            term /= poch_oracle(b, k)
        total += term
    return total


def pfq_term_sum(upper, lower, z, n):
    # term by term in reduced Fractions, each term from the one before it
    total = term = Fraction(1)
    for k in range(n):
        for a in upper:
            term *= Fraction(a) + k
        for b in lower:
            term /= Fraction(b) + k
        term *= Fraction(z) / (k + 1)
        total += term
    return total


def gen_binom(top, m):
    # C(top, m) for rational top: (top - m + 1)_m / m!
    return poch_oracle(Fraction(top) - m + 1, m) / factorial(m)


def pochhammer_mod(a, n: int, ctx: ModulusContext) -> Residue:
    """(a)_n reduced in Z/p^k, computed factor by factor."""
    m = ctx.modulus
    start = reduce_rational(a, ctx).value
    out = 1
    for i in range(n):
        out = out * (start + i) % m
    return Residue(out, ctx)


def truncated_pfq_mod(upper, lower, z, n_terms: int, ctx: ModulusContext) -> Residue:
    """sum_{k=0..n_terms} (upper)_k / (lower)_k * z^k / k!, reduced in Z/p^k, term by term.

    The slow reference for the series kernel.  Every parameter and z must be
    a p-adic integer; a term ratio whose denominator (k+1 times the lower
    factors) is divisible by p raises ValueError, from pow.
    """
    m = ctx.modulus
    ups = [reduce_rational(a, ctx).value for a in upper]
    lows = [reduce_rational(b, ctx).value for b in lower]
    z = reduce_rational(z, ctx).value
    total = term = 1
    for k in range(n_terms):
        num, den = z, k + 1
        for a in ups:
            num = num * (a + k) % m
        for b in lows:
            den = den * (b + k) % m
        term = term * num * pow(den, -1, m) % m
        total = (total + term) % m
    return Residue(total, ctx)


def test_pochhammer_mod_examples():
    ctx = ModulusContext(7, 2)
    for k in range(7):
        assert pochhammer_mod(1, k, ctx).value == factorial(k) % 49
    assert pochhammer_mod(Fraction(1, 3), 0, ctx).value == 1
    with pytest.raises(NotPAdicInteger):
        pochhammer_mod(Fraction(1, 7), 2, ctx)


def test_pochhammer_central_binomial_ratio():
    # (1/2)_k / (1)_k = C(2k, k) / 4^k, exactly, k <= 200
    for k in range(201):
        lhs = poch_oracle(Fraction(1, 2), k) / poch_oracle(1, k)
        assert lhs == Fraction(comb(2 * k, k), 4**k)


def test_pochhammer_central_binomial_ratio_mod():
    # the same ratio reduced in Z/p^k, k below p so (1)_k stays a unit
    for p, kk in ((7, 2), (13, 3)):
        ctx = ModulusContext(p, kk)
        m = ctx.modulus
        for k in range(p):
            ratio = (
                pochhammer_mod(Fraction(1, 2), k, ctx).value
                * pow(pochhammer_mod(1, k, ctx).value, -1, m)
                % m
            )
            assert ratio == comb(2 * k, k) * pow(pow(4, -1, m), k, m) % m


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([5, 7, 11, 13]),
    st.sampled_from([1, 2, 3]),
    st.fractions(min_value=-30, max_value=30, max_denominator=25),
    st.integers(0, 12),
)
def test_pochhammer_mod_matches_exact(p, kk, a, n):
    if a.denominator % p == 0:
        return
    ctx = ModulusContext(p, kk)
    exact = poch_oracle(a, n)
    if exact.denominator % p:
        assert pochhammer_mod(a, n, ctx) == reduce_rational(exact, ctx)


upper_parameters = st.one_of(
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
    st.integers(-8, -1).map(Fraction),  # the series terminates inside the range
)
lower_parameters = st.fractions(min_value=-6, max_value=6, max_denominator=6).filter(
    lambda b: b.denominator > 1 or b > 0
)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(upper_parameters, min_size=1, max_size=3),
    st.lists(lower_parameters, max_size=3),
    st.fractions(min_value=-5, max_value=5, max_denominator=9),
    st.integers(0, 12),
)
def test_pfq_exact_matches_oracle(upper, lower, z, n):
    # pfq_term_sum is the series kernel test's oracle
    assert pfq_term_sum(upper, lower, z, n) == pfq_oracle(upper, lower, z, n)


def test_pfq_mod_examples():
    ctx = ModulusContext(5, 2)
    upper = (Fraction(-2), Fraction(3))
    assert truncated_pfq_mod(upper, (Fraction(1),), Fraction(1, 2), 4, ctx).value == 12
    ctx7 = ModulusContext(7, 2)
    upper = (Fraction(1, 2), Fraction(-1), Fraction(2))
    assert truncated_pfq_mod(upper, (Fraction(1), Fraction(1)), Fraction(1), 6, ctx7).value == 0
    assert truncated_pfq_mod((Fraction(1, 3),), (Fraction(2, 3),), Fraction(0), 4, ctx7).value == 1


def test_pfq_mod_requires_p_adic_inputs():
    ctx = ModulusContext(5, 2)
    with pytest.raises(NotPAdicInteger):
        truncated_pfq_mod((Fraction(1, 5),), (Fraction(1),), Fraction(1), 2, ctx)
    with pytest.raises(NotPAdicInteger):
        truncated_pfq_mod((Fraction(1),), (Fraction(1),), Fraction(1, 5), 2, ctx)


def test_pfq_mod_rejects_non_unit_denominators():
    ctx = ModulusContext(5, 2)
    # truncation reaching the factorial factor p
    with pytest.raises(ValueError):
        truncated_pfq_mod((Fraction(1, 2),), (Fraction(1),), Fraction(1), 5, ctx)
    # lower parameter hitting a multiple of p inside the range
    with pytest.raises(ValueError):
        truncated_pfq_mod((Fraction(1, 2),), (Fraction(5),), Fraction(1), 2, ctx)


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from([5, 7, 11]),
    st.sampled_from([1, 2]),
    st.integers(0, 6),
)
def test_pfq_mod_matches_exact_for_terminating_series(p, k, n):
    # 2F1(-n, n+1; 1; 1/2) terminates at n <= p-1 terms
    if n >= p:
        return
    ctx = ModulusContext(p, k)
    upper, lower = [Fraction(-n), Fraction(n + 1)], [Fraction(1)]
    exact = pfq_oracle(upper, lower, Fraction(1, 2), p - 1)
    series = truncated_pfq_mod(upper, lower, Fraction(1, 2), p - 1, ctx)
    assert series == reduce_rational(exact, ctx)


def test_pfq_mod_matches_exact_for_fractional_parameters():
    # non-terminating truncations: denominators of the exact sum stay prime to p
    for p in (5, 7):
        for a in (Fraction(1, 3), Fraction(-3, 4)):
            ctx = ModulusContext(p, 2)
            upper = (Fraction(1, 2), -a, a + 1)
            lower = (Fraction(1), Fraction(1))
            exact = pfq_oracle(upper, lower, Fraction(1), p - 1)
            assert exact.denominator % p != 0
            series = truncated_pfq_mod(upper, lower, Fraction(1), p - 1, ctx)
            assert series == reduce_rational(exact, ctx)


def test_series_2f1_half_examples():
    assert series_2f1_half(0, ModulusContext(7, 2)).value == 1
    assert series_2f1_half(2, ModulusContext(5, 2)).value == 12
    assert series_2f1_half(2, ModulusContext(7, 2)).value == 24


def test_series_3f2_one_examples():
    assert series_3f2_one(0, ModulusContext(5, 2)).value == 1
    assert series_3f2_one(1, ModulusContext(7, 2)).value == 0
    assert series_3f2_one(2, ModulusContext(5, 2)).value == 19


def test_series_wrappers_match_generic_evaluator():
    for p, k in [(5, 2), (7, 2), (11, 1), (7, 3)]:
        ctx = ModulusContext(p, k)
        for a in (Fraction(0), Fraction(3), Fraction(-1, 2), Fraction(2, 3), Fraction(-5, 6)):
            spec2 = ((-a, a + 1), (Fraction(1),), Fraction(1, 2), p - 1)
            assert series_2f1_half(a, ctx) == truncated_pfq_mod(*spec2, ctx)
            spec3 = ((Fraction(1, 2), -a, a + 1), (Fraction(1), Fraction(1)), Fraction(1), p - 1)
            assert series_3f2_one(a, ctx) == truncated_pfq_mod(*spec3, ctx)


def test_term_equivalence_binomial_form_2f1():
    # k-th term of 2F1(-a, a+1; 1; 1/2) = C(2k,k) C(a+k, 2k) (-1/2)^k
    for a in (Fraction(0), Fraction(4), Fraction(1, 3), Fraction(-7, 2), Fraction(2, 5)):
        for k in range(12):
            term = (
                poch_oracle(-a, k)
                * poch_oracle(a + 1, k)
                / poch_oracle(1, k)
                * Fraction(1, 2) ** k
                / factorial(k)
            )
            closed = comb(2 * k, k) * gen_binom(a + k, 2 * k) * Fraction(-1, 2) ** k
            assert term == closed


def test_term_equivalence_binomial_form_3f2():
    # k-th term of 3F2(1/2, -a, a+1; 1, 1; 1) = C(2k,k)^2 C(a+k, 2k) (-1/4)^k
    for a in (Fraction(2), Fraction(1, 3), Fraction(-7, 2), Fraction(5, 4)):
        for k in range(12):
            term = (
                poch_oracle(Fraction(1, 2), k)
                * poch_oracle(-a, k)
                * poch_oracle(a + 1, k)
                / poch_oracle(1, k) ** 2
                / factorial(k)
            )
            closed = comb(2 * k, k) ** 2 * gen_binom(a + k, 2 * k) * Fraction(-1, 4) ** k
            assert term == closed


@st.composite
def kernel_points(draw):
    # a prime to 61, a power, and a parameter that is an integer residue
    # (where the kernel stops early), a non-integer a = r (mod p), or named
    p = draw(st.sampled_from(sieve_primes(5, 61)))
    k = draw(st.integers(1, 3))
    r = draw(st.integers(0, p - 1))
    kind = draw(st.sampled_from(["residue", "shifted", "named"]))
    if kind == "residue":
        return p, k, Fraction(r)
    if kind == "named":
        return p, k, draw(st.sampled_from(NAMED_RATIONALS))
    den = draw(st.integers(2, 12).filter(lambda d: d % p))
    num = draw(st.integers(-40, 40).filter(lambda n: n % den))
    return p, k, r + p * Fraction(num, den)


@settings(max_examples=150, deadline=None)
@given(kernel_points())
def test_series_kernel_matches_exact_sum(point):
    p, k, a = point
    ctx = ModulusContext(p, k)
    exact2 = pfq_term_sum((-a, a + 1), (1,), Fraction(1, 2), p - 1)
    assert series_2f1_half(a, ctx) == reduce_rational(exact2, ctx)
    exact3 = pfq_term_sum((Fraction(1, 2), -a, a + 1), (1, 1), 1, p - 1)
    assert series_3f2_one(a, ctx) == reduce_rational(exact3, ctx)


# The integer tables.  For r < p, u_r = 2F1(-r, r+1; 1; 1/2) = sum_j F2(r, j)
# and v_r = 3F2(1/2, -r, r+1; 1, 1; 1) = sum_j F3(r, j) terminate at j = r.
# Each summand has a Zeilberger telescoper with a rational certificate R = G/F:
#   (r+1) F2(r, j) + (r+2) F2(r+2, j) = G2(r, j+1) - G2(r, j),
#   (r+1)^2 F3(r, j) - (r+2)^2 F3(r+2, j) = G3(r, j+1) - G3(r, j),
# so, summed over j, (r+2) u_{r+2} = -(r+1) u_r and (r+2)^2 v_{r+2} = (r+1)^2 v_r.
# Per summand (-1)^j C(r+j, 2j) C(2j, j)^e0 / b^j: (e0, b, the telescoper's two
# coefficients, c(r) and e of R(r, j) = c(r) j^e / ((r+1-j)(r+2-j))).
TELESCOPERS = {
    "2F1": (1, 2, lambda r: (r + 1, r + 2), lambda r: -2 * (2 * r + 3), 2),
    "3F2": (2, 4, lambda r: ((r + 1) ** 2, -((r + 2) ** 2)), lambda r: 2 * (2 * r + 3), 3),
}


def summand(name, binomial, one):
    # F(r, j) with the given binomial and exact 1 (Fraction or sympy)
    e0, b = TELESCOPERS[name][:2]
    return lambda r, j: (-1) ** j * binomial(r + j, 2 * j) * binomial(2 * j, j) ** e0 * one / b**j


@pytest.mark.parametrize("name", sorted(TELESCOPERS))
def test_telescoper_certificate_is_a_rational_identity(name):
    # Divided by F(r, j), the telescoping relation is an identity of rational
    # functions in r and j; sympy derives the two term ratios from binomials.
    import sympy

    r, j = sympy.symbols("r j", integer=True, nonnegative=True)
    F = summand(name, sympy.binomial, sympy.Integer(1))
    _, _, coefficients, c, e = TELESCOPERS[name]
    a0, a2 = coefficients(r)
    R = lambda j: c(r) * j**e / ((r + 1 - j) * (r + 2 - j))  # noqa: E731
    shift = sympy.combsimp(F(r + 2, j) / F(r, j))
    step = sympy.combsimp(F(r, j + 1) / F(r, j))
    assert shift.is_rational_function(r, j) and step.is_rational_function(r, j)
    assert sympy.cancel(a0 + a2 * shift - (R(j + 1) * step - R(j))) == 0


@pytest.mark.parametrize("name", sorted(TELESCOPERS))
def test_telescoper_certificate_pole_free_and_bounded(name):
    # G(r, j) = c(r) j^e F(r+2, j) / ((r+j+1)(r+j+2)) is R(r, j) F(r, j) without
    # its poles at j = r+1, r+2.  It is 0 at j = 0 and for every j >= r+3, so
    # summing the relation over j = 0..r+2 gives the recurrence, exactly.
    F = summand(name, comb, Fraction(1))
    _, _, coefficients, c, e = TELESCOPERS[name]

    def G(r, j):
        return c(r) * j**e * F(r + 2, j) / ((r + j + 1) * (r + j + 2))

    for r in range(40):
        a0, a2 = coefficients(r)
        assert G(r, 0) == 0
        assert all(G(r, j) == 0 for j in range(r + 3, r + 12))
        for j in range(r + 12):
            if j not in (r + 1, r + 2):
                assert G(r, j) == c(r) * j**e * F(r, j) / ((r + 1 - j) * (r + 2 - j))
            assert a0 * F(r, j) + a2 * F(r + 2, j) == G(r, j + 1) - G(r, j)
        assert a0 * sum(F(r, j) for j in range(r + 1)) + a2 * sum(F(r + 2, j) for j in range(r + 3)) == 0


def _oracles(a, ctx):
    # both catalog series at a, term by term in Z/p^k
    n = ctx.p - 1
    return (
        truncated_pfq_mod((-a, a + 1), (1,), Fraction(1, 2), n, ctx),
        truncated_pfq_mod((Fraction(1, 2), -a, a + 1), (1, 1), 1, n, ctx),
    )


@pytest.mark.parametrize("p", sieve_primes(5, 61))
def test_integer_tables_match_term_by_term_series(p):
    for k in (1, 2, 3):
        ctx = ModulusContext(p, k)
        u, v = (hyperseries._kernel(p, k, which).values for which in (0, 1))
        assert len(u) == len(v) == p
        for r in range(p):
            f2, f3 = _oracles(Fraction(r), ctx)
            assert (u[r], v[r]) == (f2.value, f3.value), (p, k, r)
            assert (series_2f1_half(r, ctx), series_3f2_one(r, ctx)) == (f2, f3)


@pytest.mark.parametrize("p", sieve_primes(5, 61))
def test_lifts_below_p_that_are_not_integers(p):
    # The series depends on a only through its lift x = a mod p^k, so a
    # non-integer a with x < p reads the table at r = x: every parameter at
    # k = 1, and a = (2r + p^k)/2 at k = 2, 3.
    points = [(1, a) for a in default_parameters(p, seed=p)]
    points += [(k, Fraction(2 * r + p**k, 2)) for k in (2, 3) for r in range(p)]
    for k, a in points:
        ctx = ModulusContext(p, k)
        x = reduce_rational(a, ctx).value
        assert x < p
        f2, f3 = _oracles(a, ctx)
        assert (series_2f1_half(a, ctx), series_3f2_one(a, ctx)) == (f2, f3), (p, k, a)
        assert (series_2f1_half(a, ctx, x), series_3f2_one(a, ctx, x)) == (f2, f3), (p, k, a)


def _fresh_kernels(p, k):
    # the 2F1 and 3F2 kernels of (p, k), with no loop run and no column built
    hyperseries._kernel.cache_clear()
    return hyperseries._kernel(p, k, 0), hyperseries._kernel(p, k, 1)


@pytest.mark.parametrize("p", sieve_primes(5, 31))
def test_columns_match_the_term_loop(p, monkeypatch):
    # Every lift x in [0, p^k), both kernels, k = 1, 2, 3: the table below p,
    # the columns above it (mod p^3 after the term loop has run more than k
    # times) must each give what the term loop gives.  At k = 1 every lift is
    # below p; the 2F1 mod p^3 never builds columns, the other kernels of k = 2, 3 do.
    for k in (1, 2, 3):
        for kernel in _fresh_kernels(p, k):
            assert [kernel.at(x) for x in range(p**k)] == [kernel.loop(x) for x in range(p**k)], (p, k)
            assert (kernel.columns is not None) == (k > 1 and not (k == 3 and kernel.exponent == 1)), (p, k)
    # Poisoned columns: the 3F2 mod p^3 reads them and fails, the 2F1 mod p^3 takes the loop and does not.
    monkeypatch.setattr(hyperseries._Kernel, "_differences", lambda self: [(1,) * p] * self.k)
    f2, f3 = _fresh_kernels(p, 3)
    lifts = range(p, p**3, 7)
    assert [f2.at(x) for x in lifts] == [f2.loop(x) for x in lifts]
    assert [f3.at(x) for x in lifts] != [f3.loop(x) for x in lifts]
    assert f2.columns is None and f3.columns is not None


def test_columns_are_built_lazily(monkeypatch):
    # Mod p^2 the reflection S(x) = S(-1-x) gives the columns from the integer
    # table alone: no term loop and no recurrence column.  Mod p^3 the 3F2 also
    # needs column 1, two term loops and p recurrence steps: it builds it only
    # after it has run its loop more than k = 3 times at (p, 3), and once.
    from supercong import cli
    from supercong.congruences import STATEMENTS, StatementChecker

    built = Counter()
    column = hyperseries._Kernel.column

    def counted(kernel, d):
        if d:  # column 0 is the integer table, which every kernel builds
            built[kernel.p, kernel.k, kernel.exponent, d] += 1
        return column(kernel, d)

    monkeypatch.setattr(hyperseries._Kernel, "column", counted)
    hyperseries._kernel.cache_clear()
    for p in sieve_primes(5, 97):  # CONJ_S1..S3: one point each per prime, three 3F2 loops mod p^3
        checker = StatementChecker(p)
        for stmt in ("CONJ_S1", "CONJ_S2", "CONJ_S3"):
            checker.check(stmt)
        assert hyperseries._kernel(p, 3, 1).loops == 3
    assert not built
    theorems = tuple(s for s, st in STATEMENTS.items() if st.kind == "theorem")
    for p in (13, 61):
        cli._scan_prime((p, theorems, None, 0, None, "jsonl"))
        kernels = [hyperseries._kernel(p, 2, which) for which in (0, 1)]
        assert [(kernel.loops, kernel.columns is None) for kernel in kernels] == [(0, False)] * 2
        cli._scan_prime((p, ("CONJ_S4",), None, 0, None, "jsonl"))
        assert hyperseries._kernel(p, 3, 1).loops == 4
        assert {key: n for key, n in built.items() if key[0] == p} == {(p, 3, 2, 1): 1}
