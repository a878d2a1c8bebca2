"""Checks a supercong JSON-lines report against oracles.py.

Every record is checked for its shape, its place in the sort order, its
modulus power, its skip decision and skip reason, and the agreement of its
verdict with its two sides.  The set of (statement, p, a) keys must equal the
one the configuration prescribes, so a dropped, duplicated or stray record is
caught and an empty report cannot pass.  At every prime a seeded sample of
parameters is recomputed in full by the reference computations; every
identity right-hand side is compared with its closed form.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import oracles

FIELDS = ["statement", "p", "k", "a_num", "a_den", "lhs", "rhs", "verdict", "skip_reason"]

#: Parameters per prime whose records are recomputed in full.
SAMPLES_PER_PRIME = 3
#: Instances per identity whose left-hand sums are recomputed.
IDENTITY_SAMPLES = 2
#: A report stops being checked after this many mismatches.
MAX_ERRORS = 20


@dataclass(frozen=True)
class Scan:
    """What a report must contain: the configuration it was made from."""

    statements: tuple[str, ...]
    lo: int = 5
    hi: int = 4
    n_max: int | None = None
    seed: int = 0


class _Errors(list):
    def add(self, message: str) -> None:
        self.append(message)
        if len(self) >= MAX_ERRORS:
            raise _TooMany


class _TooMany(Exception):
    pass


def _parse(text: str, errors: _Errors) -> list[dict]:
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        try:
            row = json.loads(line)
        except ValueError:
            errors.add(f"line {lineno}: not JSON")
            continue
        if not isinstance(row, dict) or list(row) != FIELDS:
            errors.add(f"line {lineno}: fields {list(row) if isinstance(row, dict) else row!r}")
            continue
        if not (
            isinstance(row["statement"], str)
            and all(row[f] is None or type(row[f]) is int for f in ("p", "k", "a_num", "a_den"))
            and (row["a_num"] is None) == (row["a_den"] is None)
            and (row["a_den"] is None or row["a_den"] > 0)
        ):
            errors.add(f"line {lineno}: malformed record")
            continue
        row["a"] = None if row["a_num"] is None else Fraction(row["a_num"], row["a_den"])
        records.append(row)
    return records


def _expected_keys(scan: Scan) -> Counter:
    keys = Counter()
    for p in oracles.primes_between(scan.lo, scan.hi) if scan.statements else ():
        params = oracles.default_parameters(p, scan.seed)
        for stmt in scan.statements:
            for a in params if oracles.CATALOG[stmt][3] else (None,):
                keys[(stmt, p, a)] += 1
    if scan.n_max is not None:
        for n in range(scan.n_max + 1):
            for ident in oracles.EVEN_IDENTITIES if n % 2 == 0 else ():
                keys[(ident, None, Fraction(n))] += 1
            keys[("CLAUSEN", None, Fraction(n))] += 1
        keys[("RECURRENCES", None, Fraction(scan.n_max))] += 1
    return keys


def _sort_key(row: dict):
    a = row["a"]
    return (row["statement"], row["p"] or 0, a is not None, a if a is not None else Fraction(0))


def _check_congruence(row: dict, errors: _Errors) -> None:
    stmt, p, a = row["statement"], row["p"], row["a"]
    power, kind, _, _ = oracles.CATALOG[stmt]
    where = f"{stmt} p={p} a={a}"
    if row["k"] != power:
        errors.add(f"{where}: k={row['k']}, expected {power}")
    reason = oracles.hypothesis(stmt, p, a)
    if reason is not None:
        if (row["verdict"], row["skip_reason"], row["lhs"], row["rhs"]) != ("SKIPPED", reason, None, None):
            errors.add(f"{where}: expected SKIPPED ({reason}), got {row['verdict']} ({row['skip_reason']})")
        return
    lhs, rhs, modulus = row["lhs"], row["rhs"], p**power
    if row["verdict"] == "SKIPPED" or row["skip_reason"] is not None:
        errors.add(f"{where}: SKIPPED ({row['skip_reason']}) but the hypothesis holds")
    elif not all(type(v) is int and 0 <= v < modulus for v in (lhs, rhs)):
        errors.add(f"{where}: sides {lhs!r}, {rhs!r} are not residues mod {modulus}")
    elif row["verdict"] != ("PASS" if lhs == rhs else "FAIL"):
        errors.add(f"{where}: verdict {row['verdict']} with lhs={lhs} rhs={rhs}")
    elif kind == "theorem" and row["verdict"] != "PASS":
        errors.add(f"{where}: theorem FAIL")


def _check_samples(by_key: dict, scan: Scan, errors: _Errors) -> None:
    """Recompute every non-skipped record at a seeded sample of (p, a)."""
    for p in oracles.primes_between(scan.lo, scan.hi) if scan.statements else ():
        rng = random.Random(f"{scan.seed}/{p}")
        sample = rng.sample(oracles.default_parameters(p, scan.seed), SAMPLES_PER_PRIME)
        wanted = []
        for stmt in scan.statements:
            for a in sample if oracles.CATALOG[stmt][3] else (None,):
                row = by_key.get((stmt, p, a))
                if row is not None and row["verdict"] != "SKIPPED":
                    wanted.append(row)
        gamma_args: dict[int, set] = {}
        for row in wanted:
            k = oracles.CATALOG[row["statement"]][0]
            gamma_args.setdefault(k, set()).update(oracles.gamma_arguments(row["statement"], p, row["a"]))
        gamma = {k: oracles.gamma_values(p, k, args) for k, args in gamma_args.items()}
        for row in wanted:
            stmt, a = row["statement"], row["a"]
            k = oracles.CATALOG[stmt][0]
            expected = oracles.expected_sides(stmt, p, a, gamma.get(k, {}))
            if (row["lhs"], row["rhs"]) != expected:
                errors.add(f"{stmt} p={p} a={a}: sides {row['lhs']}, {row['rhs']}, reference {expected}")


def _check_conj_s4(by_key: dict, errors: _Errors) -> None:
    """CONJ_S4 strengthens THM2_A5 to p^3, so mod p^2 it must agree with it."""
    for (stmt, p, a), row in by_key.items():
        if stmt != "CONJ_S4" or not all(type(row[side]) is int for side in ("lhs", "rhs")):
            continue
        m2 = p * p
        lhs, rhs = row["lhs"] % m2, row["rhs"] % m2
        if lhs != rhs:
            errors.add(f"CONJ_S4 p={p} a={a}: sides differ mod p^2")
        thm = by_key.get(("THM2_A5", p, a))
        if thm is not None and (thm["lhs"], thm["rhs"]) != (lhs, rhs):
            errors.add(f"CONJ_S4 p={p} a={a}: mod p^2 sides differ from THM2_A5")


def _check_identities(rows: list[dict], scan: Scan, errors: _Errors) -> None:
    rng = random.Random(f"{scan.seed}/identities")
    sampled = set()
    for ident in oracles.EVEN_IDENTITIES + ("CLAUSEN",):
        ns = range(0, scan.n_max + 1, 1 if ident == "CLAUSEN" else 2)
        sampled.update((ident, Fraction(n)) for n in rng.sample(ns, min(IDENTITY_SAMPLES, len(ns))))
    for row in rows:
        ident, a = row["statement"], row["a"]
        where = f"{ident} n={a}"
        if (row["p"], row["k"], row["verdict"], row["skip_reason"]) != (None, None, "PASS", None):
            errors.add(f"{where}: p={row['p']} k={row['k']} {row['verdict']} ({row['skip_reason']})")
        if ident == "RECURRENCES":
            if (row["lhs"], row["rhs"]) != ("0", "0"):
                errors.add(f"{where}: sides {row['lhs']}, {row['rhs']}")
            continue
        n = int(a)
        closed = str(oracles.identity_closed_form(ident, n))
        if row["rhs"] != closed or row["lhs"] != closed:
            errors.add(f"{where}: sides {row['lhs']}, {row['rhs']}, closed form {closed}")
        elif (ident, a) in sampled and str(oracles.identity_sum(ident, n)) != row["lhs"]:
            errors.add(f"{where}: lhs differs from the reference sum")


def check_report(text: str, scan: Scan) -> list[str]:
    """Every mismatch between the report and the reference, at most MAX_ERRORS."""
    errors = _Errors()
    try:
        rows = _parse(text, errors)
        keys = [_sort_key(r) for r in rows]
        if keys != sorted(keys):
            errors.add("records are not in canonical order")
        actual = Counter((r["statement"], r["p"], r["a"]) for r in rows)
        expected = _expected_keys(scan)
        for key, n in (actual - expected).items():
            errors.add(f"unexpected or repeated record {key} (x{n})")
        for key, n in (expected - actual).items():
            errors.add(f"missing record {key} (x{n})")
        by_key = {}
        identity_rows = []
        for row in rows:
            key = (row["statement"], row["p"], row["a"])
            if key not in expected:
                continue
            if row["p"] is not None:
                _check_congruence(row, errors)
                by_key[key] = row
            else:
                identity_rows.append(row)
        _check_samples(by_key, scan, errors)
        _check_conj_s4(by_key, errors)
        if scan.n_max is not None:
            _check_identities(identity_rows, scan, errors)
    except _TooMany:
        errors.append("(further checks skipped)")
    return list(errors)
