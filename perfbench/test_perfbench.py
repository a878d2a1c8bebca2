"""Tests of the benchmark itself: the reference computations agree with the
program on small primes, and every report check rejects what it must.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
from supercong import cli, identities  # noqa: E402
from supercong.congruences import StatementChecker, default_parameters  # noqa: E402
from supercong.hyperseries import series_2f1_half, series_3f2_one  # noqa: E402
from supercong.padic_core import ModulusContext  # noqa: E402
from supercong.padic_gamma import GammaEvaluator, g1  # noqa: E402

SMALL_PRIMES = [5, 7, 11, 13, 17, 19, 23, 29, 31]


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_oracles_agree_with_program(p):
    for seed in range(4):
        assert oracles.default_parameters(p, seed) == default_parameters(p, seed)
    params = default_parameters(p, 1)
    for k in (1, 2, 3):
        ctx = ModulusContext(p, k)
        evaluator = GammaEvaluator(ctx)
        args = [Fraction(m) for m in range(0, p**k, max(1, p**k // 500))] + params
        gamma = oracles.gamma_values(p, k, args)
        assert all(gamma[x] == evaluator.gamma_p(x).value for x in args)
        for a in params:
            assert oracles.lift(oracles.series_2f1_half(a, p), p**k) == series_2f1_half(a, ctx).value
            assert oracles.lift(oracles.series_3f2_one(a, p), p**k) == series_3f2_one(a, ctx).value
    assert all(oracles.g1(a, p) == g1(a, p) for a in params)


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_expected_sides_agree_with_checker(p):
    checker = StatementChecker(p)
    for stmt, (k, _, _, takes_param) in oracles.CATALOG.items():
        for a in default_parameters(p, 2) if takes_param else [None]:
            record = checker.check(stmt, a)
            reason = oracles.hypothesis(stmt, p, a)
            assert record.skip_reason == reason
            if reason is None:
                gamma = oracles.gamma_values(p, k, oracles.gamma_arguments(stmt, p, a))
                assert oracles.expected_sides(stmt, p, a, gamma) == (record.lhs, record.rhs)


def test_identity_references_agree_with_program():
    for n in range(41):
        for ident in ("CLAUSEN",) + (oracles.EVEN_IDENTITIES if n % 2 == 0 else ()):
            check = identities._CHECKERS[ident](n)
            assert oracles.identity_closed_form(ident, n) == check.rhs
            assert oracles.identity_sum(ident, n) == check.lhs


SMALL = checks.Scan(tuple(oracles.CATALOG), 5, 23, n_max=12, seed=5)


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("report") / "small.jsonl"
    argv = ["--statements", "all", "--primes", "5..23", "--n-max", "12", "--seed", "5", "--out", str(out)]
    assert cli.main(argv) == 0
    return out.read_text()


def _edit(text: str, match, change) -> str:
    """Apply ``change`` to the first record for which ``match`` holds."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        row = json.loads(line)
        if match(row):
            lines[i] = json.dumps(change(row)) + "\n"
            return "".join(lines)
    raise AssertionError("no record matched")


def test_clean_report_passes(report):
    assert checks.check_report(report, SMALL) == []


def test_rejects_empty_and_truncated_reports(report):
    assert checks.check_report("", SMALL)
    lines = report.splitlines(keepends=True)
    assert checks.check_report("".join(lines[: len(lines) // 2]), SMALL)
    assert checks.check_report("".join(lines[:-1]), SMALL)  # the RECURRENCES record


def test_rejects_dropped_and_repeated_records(report):
    lines = report.splitlines(keepends=True)
    middle = len(lines) // 2
    assert checks.check_report("".join(lines[:middle] + lines[middle + 1 :]), SMALL)
    assert checks.check_report("".join(lines[: middle + 1] + lines[middle:]), SMALL)
    assert checks.check_report("".join(lines[1:2] + lines[:1] + lines[2:]), SMALL)  # order


def test_rejects_corrupted_residues(report):
    def bump(side):
        def change(row):
            row[side] = (row[side] + 1) % row["p"] ** row["k"]
            row["verdict"] = "PASS" if row["lhs"] == row["rhs"] else "FAIL"
            return row

        return change

    # A conjecture may FAIL, so only the reference value catches these.
    for side in ("lhs", "rhs"):
        assert checks.check_report(_edit(report, lambda r: r["statement"] == "CONJ_S1", bump(side)), SMALL)
    # A theorem side changed alone contradicts its verdict.
    assert checks.check_report(
        _edit(report, lambda r: r["statement"] == "THM1_A4" and r["verdict"] == "PASS",
              lambda r: {**r, "rhs": (r["rhs"] + 1) % r["p"] ** 2}),
        SMALL,
    )
    # CONJ_S4 must agree with THM2_A5 mod p^2.
    assert checks.check_report(
        _edit(report, lambda r: r["statement"] == "CONJ_S4" and r["verdict"] == "PASS",
              lambda r: {**r, "lhs": (r["lhs"] + r["p"]) % r["p"] ** 3, "verdict": "FAIL"}),
        SMALL,
    )


def test_rejects_wrong_skip_decisions(report):
    skipped = lambda r: r["verdict"] == "SKIPPED"  # noqa: E731
    assert checks.check_report(_edit(report, skipped, lambda r: {**r, "skip_reason": "not a p-adic integer"}), SMALL)
    assert checks.check_report(
        _edit(report, skipped, lambda r: {**r, "lhs": 0, "rhs": 0, "verdict": "PASS", "skip_reason": None}),
        SMALL,
    )
    assert checks.check_report(
        _edit(report, lambda r: r["statement"] == "THM3_A6",
              lambda r: {**r, "lhs": None, "rhs": None, "verdict": "SKIPPED", "skip_reason": "parity"}),
        SMALL,
    )


def test_rejects_wrong_power_seed_and_identity(report):
    assert checks.check_report(_edit(report, lambda r: r["statement"] == "LEMMA_B5", lambda r: {**r, "k": 3}), SMALL)
    assert checks.check_report(report, checks.Scan(SMALL.statements, 5, 23, n_max=12, seed=6))
    assert checks.check_report(
        _edit(report, lambda r: r["statement"] == "B9" and r["a_num"] == 6,
              lambda r: {**r, "lhs": "1/2", "rhs": "1/2"}),
        SMALL,
    )


def _traced_scan(tmp_path: Path, jobs: str) -> tuple[dict, list[dict]]:
    trace_dir = tmp_path / f"trace-{jobs}"
    trace_dir.mkdir()
    out = tmp_path / f"traced-{jobs}.jsonl"
    argv = ["--statements", "all", "--primes", "5..31", "--n-max", "10", "--jobs", jobs, "--out", str(out)]
    env = run._environment(trace_dir)
    subprocess.run([sys.executable, "-c", run.SCAN_ENTRY, *argv], env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=120)
    return run.layer_metrics(trace_dir), [json.loads(line) for line in out.read_text().splitlines()]


def test_traced_counts_match_report_and_jobs(tmp_path):
    serial, records = _traced_scan(tmp_path, "1")
    parallel, _ = _traced_scan(tmp_path, "2")
    congruence = [r for r in records if r["p"] is not None]
    assert serial["congruences.checks"] == len(congruence)
    assert serial["identities.checks"] == len(records) - len(congruence)
    key = lambda r: (r["p"], r["a_num"], r["a_den"])  # noqa: E731
    points = {(2, key(r)) for r in congruence if r["statement"] == "THM3_A6"}
    points |= {(3, key(r)) for r in congruence if r["statement"] == "CONJ_S4" and r["verdict"] != "SKIPPED"}
    points |= {
        (3, (r["p"], fixed[0].numerator, fixed[0].denominator))
        for r in congruence
        for stmt, fixed in oracles.CONJ_FIXED.items()
        if r["statement"] == stmt
    }
    assert serial["hyperseries.distinct_points"] == len(points)
    for name in run.COUNT_METRICS:
        assert serial[name] == parallel[name], name
    assert serial["cli.pool_wait_s"] == 0 and parallel["cli.pool_wait_s"] > 0
    assert parallel["cli.worker_busy_min_s"] > 0 and parallel["cli.serial_tail_s"] > 0


def test_without_source_the_benchmark_refuses(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "theorem-scan", "--seed", "0", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
