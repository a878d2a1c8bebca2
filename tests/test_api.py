"""The package's public names, written out so that adding or removing one is a
deliberate change to this list (and to README's "Removed from the API")."""

import types

import supercong

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
