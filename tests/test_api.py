"""The package's public names, written out so that adding or removing one is a
deliberate change to this list (and to README's "Removed from the API")."""

import copy
import pickle
import types
from fractions import Fraction

import pytest

import supercong
from supercong import (
    STATEMENTS,
    IdentityCheck,
    IdentityReport,
    ModulusContext,
    ReportRecord,
    Residue,
)
from supercong.cli import ScanConfig

PUBLIC_API = {
    # padic_core
    "IndexOutOfRange", "ModulusContext", "NotPAdicInteger",
    "PadicError", "Residue", "harmonic_mod", "is_prime", "least_residue", "reduce_rational", "sieve_primes",
    # padic_gamma
    "GammaEvaluator", "g1", "g1_of_one",
    # hyperseries
    "series_2f1_half", "series_3f2_one",
    # identities
    "IdentityCheck", "IdentityReport", "OddInput", "a_n", "b_n", "check_b8", "check_b9", "check_b17",
    "check_b18", "check_clausen_truncated", "check_gauss_half", "check_recurrences",
    # congruences
    "PASS", "FAIL", "SKIPPED", "NAMED_RATIONALS", "STATEMENTS", "ReportRecord", "StatementChecker",
    "check_statement", "default_parameters", "rhs_conj", "sample_fractions",
}


def test_public_api_is_pinned():
    names = {
        name
        for name in dir(supercong)
        if not name.startswith("_") and not isinstance(getattr(supercong, name), types.ModuleType)
    }
    assert names == PUBLIC_API


CTX = ModulusContext(5, 2)


@pytest.mark.parametrize(
    "make, make_other, field",
    [
        (lambda: ModulusContext(5, 2), lambda: ModulusContext(7, 2), "p"),
        (lambda: Residue(3, CTX), lambda: Residue(3, ModulusContext(5, 1)), "value"),
        (lambda: IdentityCheck("B8", 2, Fraction(-1, 2), Fraction(-1, 2)),
         lambda: IdentityCheck("B8", 2, Fraction(-1, 2), Fraction(1, 2)), "lhs"),
        (lambda: IdentityReport("RECURRENCES", 0, 4), lambda: IdentityReport("RECURRENCES", 0, 6), "n_max"),
        (lambda: STATEMENTS["THM1_A4"]._replace(), lambda: STATEMENTS["THM1_A4"]._replace(power=3), "power"),
    ],
    ids=["ModulusContext", "Residue", "IdentityCheck", "IdentityReport", "Statement"],
)
def test_frozen_value_types(make, make_other, field):
    # equal and hashed by their fields, immutable, and copied and pickled as values
    a, b, other = make(), make(), make_other()
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert a != other and {a, b, other} == {a, other}
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(other, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == make()
    assert copy.deepcopy(a) == a
    if field != "power":  # a Statement's sides may be a lambda, which does not pickle
        assert pickle.loads(pickle.dumps(a)) == a


def test_modulus_is_derived_and_not_compared():
    ctx = ModulusContext(7, 3)
    assert ctx.modulus == 343 and repr(ctx) == "ModulusContext(p=7, k=3)"
    with pytest.raises(TypeError):
        ModulusContext(7, 3, 343)
    assert IdentityReport("RECURRENCES", 0, 4).first_failure is None
    assert STATEMENTS["SUN_A2"].fixed_power is False and STATEMENTS["TRACE_C15"].fixed_power is True


def test_report_records_are_slotted_mutable_and_unhashable():
    record = ReportRecord("THM1_A4", 5, 2, Fraction(2), 12, 12, "PASS")
    same = ReportRecord("THM1_A4", 5, 2, Fraction(2), 12, 12, "PASS", None)
    assert record == same and not record != same and record is not same
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(TypeError):
        hash(record)
    same.verdict = "FAIL"
    assert record != same and same.verdict == "FAIL"
    assert pickle.loads(pickle.dumps(record)) == record
    assert repr(record) == "ReportRecord('THM1_A4', 5, 2, Fraction(2, 1), 12, 12, 'PASS', None)"


def test_scan_configs_compare_by_value_and_are_unhashable():
    def make(**kw):
        return ScanConfig(lo=5, hi=13, statements=["SUN_A2", "SUN_A2"], run_identities=False, **kw)

    assert make() == make() and make() != make(seed=1)
    assert make().statements == ["SUN_A2"]
    with pytest.raises(TypeError):
        hash(make())
