"""Cold single-layer probes, each run in a fresh interpreter.

    python3 perfbench/probes.py NAME SEED

prints the seconds the probe's calls took, measured inside the process so
that interpreter start-up and imports are left out.  The program's caches are
empty when the timed calls start.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction


def gamma_p199_k3(seed: int) -> float:
    from supercong.padic_core import ModulusContext
    from supercong.padic_gamma import GammaEvaluator

    start = time.perf_counter()
    GammaEvaluator(ModulusContext(199, 3)).gamma_p(Fraction(1, 6))
    return time.perf_counter() - start


def series_p199(seed: int) -> float:
    from supercong.congruences import default_parameters
    from supercong.hyperseries import series_2f1_half, series_3f2_one
    from supercong.padic_core import ModulusContext

    params = default_parameters(199, seed)
    ctx = ModulusContext(199, 2)
    start = time.perf_counter()
    for a in params:
        series_2f1_half(a, ctx)
        series_3f2_one(a, ctx)
    return time.perf_counter() - start


def b18_n200(seed: int) -> float:
    from supercong.identities import check_b18

    start = time.perf_counter()
    check_b18(200)
    return time.perf_counter() - start


def recurrences_n200(seed: int) -> float:
    from supercong.identities import check_recurrences

    start = time.perf_counter()
    check_recurrences(200)
    return time.perf_counter() - start


PROBES = {
    "padic_gamma.probe_p199_k3_s": gamma_p199_k3,
    "hyperseries.probe_p199_s": series_p199,
    "identities.probe_b18_n200_s": b18_n200,
    "identities.probe_recurrences_n200_s": recurrences_n200,
}

if __name__ == "__main__":
    print(repr(PROBES[sys.argv[1]](int(sys.argv[2]))))
