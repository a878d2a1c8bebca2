"""Exact verification of truncated hypergeometric supercongruences.

The package evaluates Morita's p-adic Gamma function and truncated pFq series
in residue rings Z/p^k, certifies the underlying combinatorial identities with
exact rational arithmetic, and checks a catalog of congruence statements over
ranges of primes and p-adic parameters.
"""

from .padic_core import (
    IndexOutOfRange,
    ModulusContext,
    NotPAdicInteger,
    PadicError,
    Residue,
    harmonic_mod,
    is_prime,
    least_residue,
    reduce_rational,
    sieve_primes,
)
from .padic_gamma import GammaEvaluator, g1, g1_of_one
from .hyperseries import series_2f1_half, series_3f2_one
from .identities import (
    IdentityCheck,
    IdentityReport,
    OddInput,
    a_n,
    b_n,
    check_b8,
    check_b9,
    check_b17,
    check_b18,
    check_clausen_truncated,
    check_gauss_half,
    check_recurrences,
)
from .congruences import (
    PASS,
    FAIL,
    SKIPPED,
    NAMED_RATIONALS,
    STATEMENTS,
    ReportRecord,
    StatementChecker,
    check_statement,
    default_parameters,
    rhs_conj,
    sample_fractions,
)

__version__ = "0.1.0"
