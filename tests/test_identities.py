import json
from fractions import Fraction
from math import comb

import pytest

from supercong import cli, identities
from supercong.identities import (
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
from test_hyperseries import pfq_oracle  # a pFq from explicit Pochhammer products


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
