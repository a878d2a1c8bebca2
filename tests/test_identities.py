import json
from fractions import Fraction
from math import comb, factorial

import pytest

from supercong import cli, identities, telescoping
from supercong.cli import EXIT_FAIL
from supercong.identities import (
    IdentityCheck,
    IdentityReport,
    OddInput,
    _binomial_sum,
    a_n,
    b_n,
    check_b8,
    check_b9,
    check_b17,
    check_b18,
    check_clausen_truncated,
    check_gauss_half,
    check_recurrences,
    harmonic,
)
from test_hyperseries import TELESCOPERS, pfq_oracle  # a pFq from explicit Pochhammer products


def harmonic_oracle(n):
    return sum((Fraction(1, j) for j in range(1, n + 1)), Fraction(0))


def test_harmonic_cache():
    for n in (0, 1, 5, 30, 12):
        assert harmonic(n) == harmonic_oracle(n)


def test_b8_values():
    assert check_b8(0).lhs == check_b8(0).rhs == 1
    assert check_b8(2).lhs == check_b8(2).rhs == Fraction(-1, 2)
    chk = check_b8(4)
    assert chk.ok and chk.rhs == Fraction(comb(4, 2), 16) == Fraction(3, 8)


def test_b9_values():
    assert check_b9(0).lhs == 1
    chk = check_b9(2)
    assert chk.ok and chk.lhs == Fraction(1, 4)
    assert check_b9(6).ok


def test_b17_values():
    assert check_b17(0).lhs == check_b17(0).rhs == 0
    chk = check_b17(2)
    # direct summation: -1 + 7/8 on the left, (-1/2)(H_2 - H_1)/2 on the right
    assert chk.lhs == Fraction(-1, 8)
    assert chk.ok
    assert check_b17(8).ok


def test_b18_values():
    assert check_b18(0).lhs == check_b18(0).rhs == 0
    assert check_b18(2).ok
    assert check_b18(10).ok


def test_b17_weight_rewriting():
    # sum_{i=1..k} 1/(n+i) telescopes to H_{n+k} - H_n; the identity's left
    # side is the same whichever form is summed.
    n = 6
    direct = Fraction(0)
    for k in range(n + 1):
        inner = sum((Fraction(1, n + i) for i in range(1, k + 1)), Fraction(0))
        direct += Fraction(comb(2 * k, k) * comb(n + k, 2 * k) * (-1) ** k, 2**k) * inner
    assert direct == check_b17(n).lhs


def test_even_identities_reject_odd_input():
    for checker in (check_b8, check_b9, check_b17, check_b18, check_gauss_half):
        with pytest.raises(OddInput):
            checker(3)


def test_a_n_b_n_base_values():
    assert a_n(0) == 0
    assert b_n(0) == 0
    assert b_n(1) == 0
    assert a_n(1) == 0
    assert b_n(2) == 0


def binomial_sum_oracle(n, e, weight=None):
    # the Fraction loops the identity left sides used to be: one reduced
    # Fraction per term, harmonic numbers summed from scratch
    base = 2**e
    h_n, h_half = harmonic_oracle(n), harmonic_oracle(n // 2)
    total = Fraction(0)
    for k in range(n + 1):
        term = Fraction(comb(2 * k, k) ** e * comb(n + k, 2 * k) * (-1) ** k, base**k)
        if weight is not None:
            c_run, c_n, c_half = weight
            term *= c_run * harmonic_oracle(n + k) + c_n * h_n + c_half * h_half
        total += term
    return total


def test_identity_left_sides_match_fraction_loops():
    for n in range(0, 61, 2):
        assert check_b8(n).lhs == binomial_sum_oracle(n, 1)
        assert check_b9(n).lhs == binomial_sum_oracle(n, 2)
        assert check_b17(n).lhs == binomial_sum_oracle(n, 1, (1, -1, 0))
        assert check_b18(n).lhs == binomial_sum_oracle(n, 2, (1, -1, 0))


@pytest.mark.parametrize("e, weight", [(1, (2, -3, 1)), (2, (2, -5, 2))])
def test_harmonic_sum_kernel_off_the_vanishing_weights(e, weight):
    # a_n and b_n vanish only at their own weights; perturbing one
    # coefficient gives nonzero sums the kernel must reproduce exactly.
    # The n fractions T_j/(n+j) are added pairwise, level by level: n = 0
    # has none, 6, 14, 30 and 62 leave one over on one level, 100 on three.
    for n in [*range(0, 26, 2), 30, 62, 100]:
        assert _binomial_sum(n, e, weight) == binomial_sum_oracle(n, e, weight) == 0
        for i in range(3):
            perturbed = tuple(c + (j == i) for j, c in enumerate(weight))
            value = _binomial_sum(n, e, perturbed)
            assert value == binomial_sum_oracle(n, e, perturbed)
            assert (value != 0) == (n > 0)  # at n = 0 every weight is 0


#: (e, weight) of each identity's left side, as binomial_sum_oracle takes them
LEFT_SIDES = {
    "B8": (1, None), "GAUSS_HALF": (1, None), "B9": (2, None), "CLAUSEN": (2, None),
    "B17": (1, (1, -1, 0)), "B18": (2, (1, -1, 0)),
}


def _sweep_records(n_max):
    return [json.loads(line) for _, text, _ in cli._identity_records(n_max, "jsonl") for line in text.splitlines()]


@pytest.mark.parametrize("n_max", [0, 1, 9, 40])
def test_sweep_records_equal_direct_checks_and_the_oracle(n_max):
    # A sweep makes the parts of each (n, e) sum once, in RECURRENCES, and its
    # checks read them; each record must be what a call outside any sweep
    # returns, which computes afresh, and each left side the Fraction loop's.
    records = _sweep_records(n_max)
    assert identities._shared is None
    rows = [r for r in records if r["statement"] != "RECURRENCES"]
    assert len(rows) == 5 * (n_max // 2 + 1) + n_max + 1
    for r in rows:
        chk = identities._CHECKERS[r["statement"]](r["a_num"])
        assert (r["lhs"], r["rhs"], r["verdict"]) == (str(chk.lhs), str(chk.rhs), "PASS")
        assert chk.lhs == binomial_sum_oracle(r["a_num"], *LEFT_SIDES[r["statement"]])
    assert [(r["lhs"], r["verdict"]) for r in records if r["statement"] == "RECURRENCES"] == [("0", "PASS")]


def test_sharing_ends_with_the_sweep(monkeypatch):
    # A fault injected after a sweep, finished or stopped by Ctrl-C, must show
    # at once: no part the sweep made may serve a later call.
    real = identities.accumulate

    def corrupt(iterable):  # T_n off by one, as in the CLI's faulty-tail test
        tails = list(real(iterable))
        tails[0] += 1
        return tails

    def interrupt(n):
        raise KeyboardInterrupt

    _sweep_records(12)
    monkeypatch.setattr(identities, "accumulate", corrupt)
    assert not check_b17(4).ok
    monkeypatch.setattr(identities, "accumulate", real)
    monkeypatch.setitem(identities._CHECKERS, "B9", interrupt)
    with pytest.raises(KeyboardInterrupt):
        _sweep_records(12)
    assert identities._shared is None
    monkeypatch.setattr(identities, "accumulate", corrupt)
    assert not check_b17(4).ok


def test_recurrences_fail_at_the_first_n_reading_a_wrong_harmonic_number(monkeypatch):
    # a_n(n) reads H_{2n} and H_n, so H_30 is first read at n = 15
    real = identities.harmonic
    monkeypatch.setattr(identities, "harmonic", lambda m: real(m) + Fraction(m == 30, 10**9))
    report = check_recurrences(40)
    assert not report.passed
    assert (report.first_failure.identity, report.first_failure.n) == ("A_VANISH", 15)
    assert report.first_failure.lhs != 0


def test_check_recurrences_sweep():
    report = check_recurrences(25)
    assert report.passed
    assert report.n_min == 0 and report.n_max == 25
    with pytest.raises(ValueError):
        check_recurrences(-3)  # an empty range certifies nothing


def test_clausen_examples():
    assert check_clausen_truncated(0).lhs == 1
    chk = check_clausen_truncated(2)
    assert chk.lhs == Fraction(1, 4) and chk.rhs == Fraction(-1, 2) ** 2
    assert check_clausen_truncated(7).ok  # no parity restriction


def test_gauss_half_examples():
    assert check_gauss_half(0).lhs == 1
    assert check_gauss_half(2).lhs == Fraction(-1, 2)
    chk = check_gauss_half(12)
    assert chk.ok and chk.rhs == Fraction(comb(12, 6), 4**6)


def test_gauss_half_agrees_with_b8():
    # the binomial sum against the 2F1 in Pochhammer form, and both against
    # B8's closed form
    for n in range(0, 61, 2):
        series = pfq_oracle((-n, n + 1), (1,), Fraction(1, 2), n)
        assert check_gauss_half(n).lhs == series == check_b8(n).rhs


def test_clausen_sides_match_pochhammer_oracle(monkeypatch):
    # the 3F2 and the squared 2F1, each summed from its Pochhammer form
    for n in range(61):
        chk = check_clausen_truncated(n)
        assert chk.lhs == pfq_oracle((Fraction(1, 2), -n, n + 1), (1, 1), 1, n)
        assert chk.rhs == pfq_oracle((-n, n + 1), (1,), Fraction(1, 2), n) ** 2
    # the sides are two different sums: a fault in either one shows
    for faulty in (1, 2):
        monkeypatch.setattr(
            "supercong.identities._binomial_sum", lambda n, e: _binomial_sum(n, e) + (e == faulty)
        )
        assert not check_clausen_truncated(4).ok and not check_clausen_truncated(5).ok


# The proof that a_n and b_n vanish for every n: the certificate in telescoping.


def recurrences_oracle(n_max):
    # RECURRENCES without the proof: a_n and b_n summed at every n in 0..n_max
    zero = Fraction(0)
    for n in range(n_max + 1):
        for name, value in (("A_VANISH", a_n(n)), ("B_VANISH", b_n(n))):
            if value != 0:
                return IdentityReport("RECURRENCES", 0, n_max, IdentityCheck(name, n, value, zero))
    return IdentityReport("RECURRENCES", 0, n_max)


def test_check_recurrences_equals_the_direct_loop(monkeypatch):
    for n_max in range(61):
        assert check_recurrences(n_max) == recurrences_oracle(n_max)
    # the faults of test_faulty_tail_fails_recurrences_and_exit_code and of the wrong H_30
    real_accumulate, real_harmonic = identities.accumulate, identities.harmonic

    def corrupt(iterable):
        tails = list(real_accumulate(iterable))
        if len(tails) > 1:
            tails[0] += 1
        return tails

    for patch, n_max, n in (
        (("accumulate", corrupt), 12, 1),
        (("harmonic", lambda m: real_harmonic(m) + Fraction(m == 30, 10**9)), 40, 15),
    ):
        with monkeypatch.context() as mp:
            mp.setattr(identities, *patch)
            report = check_recurrences(n_max)
            assert report == recurrences_oracle(n_max)
            assert (report.first_failure.identity, report.first_failure.n) == ("A_VANISH", n)


def _certificate(e):
    # the tables of c0, c1, c2 and g for e
    return (*telescoping.TELESCOPERS[e], telescoping.G_NUMERATOR)


def _poly(table, m, eps):
    return sum(c * m**i * eps**j for i, row in enumerate(table) for j, c in enumerate(row))


def _summand(e, m, k, eps):
    # T(m, k; eps) = (-1)^k C(2k,k)^e (m-k+1)_k (m+1+eps)_k / ((2k)! 2^(e k)), from its definition
    value = Fraction((-1) ** k * comb(2 * k, k) ** e, factorial(2 * k) << e * k)
    for i in range(k):
        value *= (m - i) * (m + 1 + eps + i)
    return value


def _sympy_certificate(e):
    import sympy

    m, k, eps = sympy.symbols("m k eps")
    return (m, k, eps), [_poly(table, m, eps) for table in _certificate(e)]


@pytest.mark.parametrize("e", [1, 2])
def test_recurrence_certificate_is_a_rational_identity(e):
    # Divided by T(m+2, k), the summand relation c0 T(m,k) + c1 T(m+1,k) + c2 T(m+2,k)
    # = G(m,k+1) - G(m,k) is an identity of rational functions in (m, k, eps); sympy
    # derives the term ratios from the Pochhammer symbols.
    import sympy

    (m, k, eps), (c0, c1, c2, g) = _sympy_certificate(e)

    def T(mm, kk):
        rising = sympy.rf(mm - kk + 1, kk) * sympy.rf(mm + 1 + eps, kk)
        return (-1) ** kk * sympy.binomial(2 * kk, kk) ** e * rising / (sympy.factorial(2 * kk) * 2 ** (e * kk))

    def G_over_T(kk):  # G(m, kk) / T(m+2, kk)
        return g * kk ** (e + 1) / ((m + 2) * (m + 1 + eps + kk) * (m + 2 + eps + kk))

    ratios = ((T(m, k), T(m + 2, k)), (T(m + 1, k), T(m + 2, k)), (T(m + 2, k + 1), T(m + 2, k)))
    r0, r1, step = (sympy.combsimp(a / b) for a, b in ratios)
    assert all(r.is_rational_function(m, k, eps) for r in (r0, r1, step))
    assert sympy.cancel(c0 * r0 + c1 * r1 + c2 - (G_over_T(k + 1) * step - G_over_T(k))) == 0


@pytest.mark.parametrize("e", [1, 2])
def test_recurrence_certificate_at_eps_0_is_the_series_telescoper(e):
    # at eps = 0, T is the summand of the TELESCOPERS entry, and the certificate is
    # that entry's times 4 (m+1) (m+2) for e = 1 and -4 (m+1) (m+2) for e = 2
    import sympy

    (m, k, eps), (c0, c1, c2, g) = _sympy_certificate(e)
    e0, b, coefficients, c, exponent = TELESCOPERS[{1: "2F1", 2: "3F2"}[e]]
    assert (e0, b, exponent) == (e, 2**e, e + 1)
    a0, a2 = coefficients(m)
    scale = (-1) ** (e - 1) * 4 * (m + 1) * (m + 2)
    at_0 = [sympy.expand(p.subs(eps, 0)) for p in (c0, c1, c2, g)]
    assert at_0[1] == 0
    assert sympy.expand(at_0[0] - scale * a0) == sympy.expand(at_0[2] - scale * a2) == 0
    assert sympy.cancel(at_0[3] / (m + 2) - scale * c(m)) == 0


@pytest.mark.parametrize("e", [1, 2])
def test_grid_degrees_bound_the_cleared_relation(e):
    # The runtime's cleared relation is the summand relation over T(m+2, k) times
    # 2 (m+1) (m+2) (m+1+eps+k) (m+2+eps+k), written here from the formula; the
    # degree bounds it derives from the tables cover each term, and each term's
    # factor beside its table stays within the degrees added to any table.
    import sympy

    (m, k, eps), tables = _sympy_certificate(e)
    P = (2 * m + 2 + eps) * (2 * m + 3 + eps) * (2 * m + 4 + eps)
    bracket = (2 * k + 1) ** (e - 1) * (m + 2 - k) * (m + 1 + eps + k) + 2 * k ** (e + 1)
    cofactors = [
        (m + 1 - k) * (m + 2 - k) * (m + 1 + eps) * (m + 2 + eps),
        (m + 1) * (m + 2 - k) * (m + 2 + eps) * (m + 1 + eps + k),
        (m + 1) * (m + 2) * (m + 1 + eps + k) * (m + 2 + eps + k),
        (m + 1) * bracket / 2,
    ]
    terms = [t * f for t, f in zip(tables, cofactors)]
    assert sympy.expand(sum(terms[:3]) - (m + 1) * P * (m + 2 + eps) * bracket) == 0  # lhs = rhs
    assert sympy.expand(2 * sum(terms) - telescoping.cleared_relation(e, m, k, eps, *tables)) == 0
    bounds = telescoping.relation_degrees(e, _certificate(e))
    assert bounds == ((7, 2, 5) if e == 1 else (8, 3, 5))
    for term in terms:
        assert all(sympy.Poly(term, m, k, eps).degree(v) <= d for v, d in zip((m, k, eps), bounds))
    for f, (dm, deps) in zip(cofactors, telescoping.COFACTOR_DEGREES):
        f = sympy.Poly(f, m, k, eps)
        assert f.degree(m) <= dm and f.degree(eps) <= deps and f.degree(k) <= bounds[1]


@pytest.mark.parametrize("e", [1, 2])
def test_certificate_pole_free_boundaries_and_summand_relation(e):
    # G(m, k) = g k^(e+1) T(m+2, k) / ((m+2) (m+1+eps+k) (m+2+eps+k)) is 0 at k = 0 and
    # for every k >= m+3, so summing the relation over k = 0..m+2 gives the recurrence.
    c0, c1, c2, g = _certificate(e)
    for eps in (Fraction(0), Fraction(1), Fraction(2), Fraction(1, 3)):
        for m in range(30):
            c = [_poly(t, m, eps) for t in (c0, c1, c2, g)]

            def G(k):
                denominator = (m + 2) * (m + 1 + eps + k) * (m + 2 + eps + k)
                return c[3] * k ** (e + 1) * _summand(e, m + 2, k, eps) / denominator

            assert G(0) == 0
            assert all(G(k) == 0 for k in range(m + 3, m + 11))
            for k in range(m + 3):
                lhs = sum(c[i] * _summand(e, m + i, k, eps) for i in range(3))
                assert lhs == G(k + 1) - G(k)
            U = [sum(_summand(e, m + i, k, eps) for k in range(m + i + 1)) for i in range(3)]
            assert c[0] * U[0] + c[1] * U[1] + c[2] * U[2] == 0
            if eps == 0:
                assert U[0] == _binomial_sum(m, e)


@pytest.mark.parametrize("e", [1, 2])
def test_eps_parts_of_the_recurrence_hold_for_the_program_sums(e):
    # With U = u + eps w + O(eps^2): the eps^0 and eps^1 parts of the recurrence, both
    # parities, for the program's u_m (_binomial_sum) and w_m (the weighted _parts).
    c0, c1, c2 = telescoping.TELESCOPERS[e]

    def col(table, j, m):
        return sum(row[j] * m**i for i, row in enumerate(table))

    def uw(m):
        total, (num, den) = identities._parts(m, e, True)
        return Fraction(total, 1 << e * m), Fraction(num, den << e * m)

    for m in range(40):
        (u0, w0), (u1, w1), (u2, w2) = uw(m), uw(m + 1), uw(m + 2)
        assert u0 == _binomial_sum(m, e) and w0 == binomial_sum_oracle(m, e, (1, -1, 0))
        assert col(c0, 0, m) * u0 + col(c1, 0, m) * u1 + col(c2, 0, m) * u2 == 0
        eps_1 = col(c0, 1, m) * u0 + col(c0, 0, m) * w0 + col(c1, 1, m) * u1 + col(c1, 0, m) * w1
        assert eps_1 + col(c2, 1, m) * u2 + col(c2, 0, m) * w2 == 0
        assert (u0 == 0) == (m % 2 == 1)


def _install(mp, e, t, table):
    # put a mutated table t (0..2: c0..c2 of e, 3: g) in place of the stored one
    if t == 3:
        mp.setattr(telescoping, "G_NUMERATOR", table)
    else:
        tables = list(telescoping.TELESCOPERS[e])
        tables[t] = table
        mp.setitem(telescoping.TELESCOPERS, e, tuple(tables))


def _added(table, delta):
    # table + delta, delta a dict {(i, j): c}, grown as needed and kept rectangular
    rows = max(len(table), 1 + max(i for i, _ in delta))
    cols = max(len(table[0]), 1 + max(j for _, j in delta))
    return tuple(
        tuple((table[i][j] if i < len(table) and j < len(table[i]) else 0) + delta.get((i, j), 0) for j in range(cols))
        for i in range(rows)
    )


def _proof_fails(tmp_path, capsys):
    # the name check_recurrences(10) fails with, after the CLI exits 1 on the same mutation
    out = tmp_path / "identities.jsonl"
    assert cli.main(["--statements", "identities", "--n-max", "10", "--out", str(out)]) == EXIT_FAIL
    capsys.readouterr()
    report = check_recurrences(10)
    assert not report.passed and report.first_failure.lhs != 0
    return report.first_failure


@pytest.mark.parametrize("e, t", [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2), (1, 3)])
def test_every_certificate_coefficient_is_needed(e, t, monkeypatch, tmp_path, capsys):
    # each stored coefficient off by one fails the proof: A_PROOF for e = 1 and g, which both
    # proofs read and A_PROOF checks first, B_PROOF for e = 2
    table = _certificate(e)[t]
    for i, row in enumerate(table):
        for j in range(len(row)):
            for delta in (1, -1):
                with monkeypatch.context() as mp:
                    _install(mp, e, t, _added(table, {(i, j): delta}))
                    failure = _proof_fails(tmp_path, capsys)
                    assert failure.identity == "AB"[e - 1] + "_PROOF", (t, i, j, delta)


def test_c2_must_stay_positive_at_eps_0(monkeypatch):
    # the induction divides by c2(m, 0): its constant must be >= 1 and no coefficient < 0
    c2 = telescoping.TELESCOPERS[1][2]
    for (i, value), shortfall in (((0, 0), -1), ((1, -3), -3)):
        with monkeypatch.context() as mp:
            _install(mp, 1, 2, _added(c2, {(i, 0): value - c2[i][0]}))
            assert check_recurrences(4).first_failure == IdentityCheck("A_PROOF", i, shortfall, 0)


def _falling(d):
    # the coefficients of x (x-1) ... (x-d), lowest first
    coefficients = [1]
    for i in range(d + 1):
        coefficients = [a - i * b for a, b in zip([0, *coefficients], [*coefficients, 0])]
    return coefficients


def _zero_on_grid(e, tables, grid):
    return all(
        telescoping.cleared_relation(e, m, k, eps, *(_poly(t, m, eps) for t in tables))
        == telescoping.cleared_relation(e, m, k, eps, *(_poly(t, m, eps) for t in _certificate(e)))
        for m in range(grid[0] + 1)
        for k in range(grid[1] + 1)
        for eps in range(grid[2] + 1)
    )


@pytest.mark.parametrize("e", [1, 2])
@pytest.mark.parametrize("var", [0, 2])
def test_a_mutation_that_raises_a_degree_grows_the_grid(e, var, monkeypatch, tmp_path, capsys):
    # eps^2 m (m-1) ... (m-d_m) added to c2, or eps (eps-1) ... (eps-d_eps) added to c1: the
    # residual is 0 on the grid of the stored tables' degrees, so a grid of fixed size would
    # pass it; the grid read from the mutated tables is larger and fails it.  Neither touches
    # the eps^0 and eps^1 columns that the other steps of the proof read.
    grid = telescoping.relation_degrees(e, _certificate(e))
    t = 2 if var == 0 else 1
    if var == 0:
        delta = {(i, 2): c for i, c in enumerate(_falling(grid[0]))}
    else:
        delta = {(0, j): c for j, c in enumerate(_falling(grid[2]))}
    mutated = list(_certificate(e))
    mutated[t] = _added(mutated[t], delta)
    assert _zero_on_grid(e, mutated, grid)
    assert telescoping.relation_degrees(e, mutated)[var] > grid[var]
    with monkeypatch.context() as mp:
        _install(mp, e, t, mutated[t])
        failure = _proof_fails(tmp_path, capsys)
    assert failure.identity == "AB"[e - 1] + "_PROOF"
    if var == 0:
        assert failure.n > grid[0]  # failed where only the grown grid looks


def test_a_mutation_zero_but_on_the_last_k_layer_is_caught(monkeypatch, tmp_path, capsys):
    # eps^2 (-1, 1, -1) added to (c0, c1, c2) and 2 eps^2 (m+2+eps) to g: for e = 1 the
    # residual is 0 at k = 0 and 1 and not at k = 2, the last layer of the grid (its k degree
    # is 2); the eps^0 and eps^1 columns stay as they are
    grid = telescoping.relation_degrees(1, _certificate(1))
    deltas = ({(0, 2): -1}, {(0, 2): 1}, {(0, 2): -1}, {(0, 2): 4, (1, 2): 2, (0, 3): 2})
    mutated = [_added(t, d) for t, d in zip(_certificate(1), deltas)]
    assert _zero_on_grid(1, mutated, (grid[0], grid[1] - 1, grid[2]))
    assert not _zero_on_grid(1, mutated, grid)
    with monkeypatch.context() as mp:
        for t in range(4):
            _install(mp, 1, t, mutated[t])
        assert _proof_fails(tmp_path, capsys).identity == "A_PROOF"
