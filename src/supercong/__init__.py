"""Exact verification of truncated hypergeometric supercongruences.

The package evaluates Morita's p-adic Gamma function and truncated pFq series
in residue rings Z/p^k, certifies the underlying combinatorial identities with
exact rational arithmetic, and checks a catalog of congruence statements over
ranges of primes and p-adic parameters.
"""

from importlib import import_module as _import_module

# Each module is imported on the first read of one of its names, so that a
# congruence scan never loads identities.
_NAMES = {
    "padic_core": "IndexOutOfRange ModulusContext NotPAdicInteger PadicError Residue harmonic_mod is_prime "
    "least_residue reduce_rational sieve_primes",
    "padic_gamma": "GammaEvaluator g1",
    "hyperseries": "series_2f1_half series_3f2_one",
    "identities": "IdentityCheck IdentityReport OddInput a_n b_n check_b8 check_b9 check_b17 check_b18 "
    "check_clausen_truncated check_gauss_half check_recurrences",
    "congruences": "PASS FAIL SKIPPED NAMED_RATIONALS STATEMENTS ReportRecord StatementChecker check_statement "
    "default_parameters sample_fractions",
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names.split()}
__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _NAMES:  # a submodule, as after an eager import
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF, *_NAMES})
