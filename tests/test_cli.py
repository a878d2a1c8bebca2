import collections
import contextlib
import csv
import hashlib
import io
import json
import os
import pickle
import signal
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from supercong import cli, identities
from supercong.cli import (
    ConfigError,
    EXIT_FAIL,
    EXIT_INTERRUPT,
    EXIT_OK,
    EXIT_PIPE,
    EXIT_USAGE,
    ScanConfig,
    build_parser,
    collect_records,
    config_from_args,
    main,
    parse_params,
    resolve_statements,
    run_scan,
    summarize,
    write_records,
)
from supercong.congruences import (
    CONJECTURE,
    FAIL,
    PASS,
    SKIPPED,
    STATEMENTS,
    ReportRecord,
    StatementChecker,
    default_parameters,
)
from supercong.padic_core import sieve_primes

COLUMNS = ["statement", "p", "k", "a_num", "a_den", "lhs", "rhs", "verdict", "skip_reason"]


def _texts(index: list[tuple], spool: io.BytesIO) -> list[str]:
    """Each indexed block's text, read back from the spool."""
    data = spool.getvalue()
    return [data[offset : offset + length].decode() for _, (offset, length), _ in index]


def _spooled(blocks: list[tuple]) -> tuple[list[tuple], io.BytesIO]:
    """Rendered blocks as collect_records leaves them: an index and its spool."""
    spool, index = io.BytesIO(), []
    for key, text, counts in blocks:
        data = text.encode()
        index.append((key, (spool.tell(), len(data)), counts))
        spool.write(data)
    return index, spool


def test_parse_params(tmp_path):
    path = tmp_path / "params.txt"
    path.write_text("# comment\n-1/3\n\n4\n 7/2  # trailing comment\n−1/6\n")
    assert parse_params(str(path)) == [
        Fraction(-1, 3),
        Fraction(4),
        Fraction(7, 2),
        Fraction(-1, 6),
    ]
    path.write_bytes(b"\xef\xbb\xbf1/2\r\n3\r\n")  # a byte-order mark and CRLF, as Windows editors write
    assert parse_params(str(path)) == [Fraction(1, 2), Fraction(3)]


def test_parse_params_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1/2\n1/0\n")
    with pytest.raises(ConfigError, match="bad.txt:2"):
        parse_params(str(path))
    path.write_text("x/y\n")
    with pytest.raises(ConfigError, match="bad.txt:1"):
        parse_params(str(path))


def test_non_utf8_params_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bin.txt"
    path.write_bytes(b"\xff\xfe1/2\n")
    assert main(["--params", str(path), "--primes", "5..7"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not UTF-8 text") and err.count("\n") == 1


def test_resolve_statements_groups():
    ids, idents = resolve_statements("theorems")
    assert idents is False
    assert "THM1_A4" in ids and "CONJ_S1" not in ids
    ids, idents = resolve_statements("conjectures")
    assert set(ids) == {"CONJ_S1", "CONJ_S2", "CONJ_S3", "CONJ_S4"}
    ids, idents = resolve_statements("identities")
    assert ids == [] and idents is True
    ids, idents = resolve_statements("all")
    assert len(ids) == 12 and idents is True
    ids, _ = resolve_statements("THM1_A4, SUN_A2,THM1_A4,NOT_A_STATEMENT")
    assert ids == ["THM1_A4", "SUN_A2", "THM1_A4", "NOT_A_STATEMENT"]  # checked by ScanConfig


def test_statement_selection_is_checked_by_scan_config(capsys):
    args = build_parser().parse_args(["--statements", "THM1_A4, SUN_A2,THM1_A4,theorems"])
    assert config_from_args(args).statements == [  # deduplicated, first-seen order kept
        "THM1_A4", "SUN_A2", "SUN_A3", "THM2_A5", "THM3_A6", "LEMMA_B5", "TRACE_C9", "TRACE_C15",
    ]
    assert main(["--statements", "THM1_A4,NOT_A_STATEMENT,NOT_A_STATEMENT"]) == EXIT_USAGE
    assert _usage_error_line(capsys) == "error: unknown statements: NOT_A_STATEMENT\n"


def test_scan_config_validation():
    with pytest.raises(ConfigError):
        ScanConfig(lo=20, hi=10, statements=[], run_identities=True)
    with pytest.raises(ConfigError):
        ScanConfig(lo=5, hi=10, statements=["BOGUS"], run_identities=False)
    with pytest.raises(ConfigError):
        ScanConfig(lo=5, hi=10, statements=[], run_identities=False, fmt="xml")
    for power in (0, 4, 5):  # argparse guards the flag; library callers reach ScanConfig directly
        with pytest.raises(ConfigError, match="power must be 1, 2 or 3"):
            ScanConfig(lo=5, hi=10, statements=["SUN_A2"], run_identities=False, power=power)


def test_repeated_statement_ids_give_one_record_per_point():
    config = ScanConfig(lo=5, hi=5, statements=["SUN_A2", "SUN_A2"], run_identities=False)
    assert config.statements == ["SUN_A2"]
    spool = io.BytesIO()
    blocks = collect_records(config, spool)
    assert [key for key, _, _ in blocks] == [("SUN_A2", 5)]
    rows = [json.loads(line) for text in _texts(blocks, spool) for line in text.splitlines()]
    assert len(rows) == len({(r["statement"], r["p"], r["a_num"], r["a_den"]) for r in rows}) == 29


def test_small_scan_jsonl(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    code = main(["--primes", "5..11", "--statements", "THM1_A4", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert records
    assert all(list(r) == COLUMNS for r in records)
    assert all(r["verdict"] in ("PASS", "SKIPPED") for r in records)
    assert {r["p"] for r in records} == {5, 7, 11}
    # one record per (statement, p, a)
    keys = [(r["statement"], r["p"], r["a_num"], r["a_den"]) for r in records]
    assert len(keys) == len(set(keys))
    summary = capsys.readouterr().out
    assert "THM1_A4" in summary and "report:" in summary


def test_scan_stdout_and_summary_split(capsys):
    code = main(["--primes", "5..7", "--statements", "CONJ_S1"])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.out.splitlines()]
    assert {r["statement"] for r in records} == {"CONJ_S1"}
    assert all(r["a_num"] is None for r in records)
    assert "CONJ_S1" in captured.err  # summary goes to stderr when records use stdout


def test_csv_format(tmp_path):
    out = tmp_path / "report.csv"
    code = main(["--primes", "5..7", "--statements", "SUN_A3", "--format", "csv", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(COLUMNS)
    assert len(lines) > 1


def test_determinism_across_jobs(tmp_path):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["--primes", "5..17", "--statements", "THM2_A5,SUN_A2", "--seed", "9"]
    assert main(argv + ["--out", str(out1), "--jobs", "1"]) == EXIT_OK
    assert main(argv + ["--out", str(out2), "--jobs", "3"]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("jobs, workers", [("4000", 4), ("2", 2)])
def test_pool_workers_bounded_by_prime_tasks(tmp_path, monkeypatch, jobs, workers):
    # a fork pool starts all max_workers at once: one task per prime caps it
    sizes = []

    class InlinePool:  # records max_workers, runs the tasks in this process
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            assert (initializer, initargs) == (signal.signal, (signal.SIGINT, signal.SIG_IGN))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    argv = ["--primes", "5..13", "--statements", "CONJ_S1,SUN_A2"]
    assert main(argv + ["--jobs", jobs, "--out", str(tmp_path / "pool.jsonl")]) == EXIT_OK
    assert sizes == [workers]
    assert main(argv + ["--jobs", "1", "--out", str(tmp_path / "serial.jsonl")]) == EXIT_OK
    assert (tmp_path / "pool.jsonl").read_bytes() == (tmp_path / "serial.jsonl").read_bytes()


def test_seed_changes_report(tmp_path):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["--primes", "13..13", "--statements", "THM1_A4"]
    main(argv + ["--out", str(out1), "--seed", "1"])
    main(argv + ["--out", str(out2), "--seed", "2"])
    assert out1.read_bytes() != out2.read_bytes()


def test_params_file_scan(tmp_path):
    params = tmp_path / "params.txt"
    params.write_text("2\n-1/3\n1/5\n4/2\n")  # 4/2 reduces to the duplicate 2 and is dropped
    out = tmp_path / "report.jsonl"
    code = main(
        ["--primes", "5..5", "--statements", "THM1_A4", "--params", str(params), "--out", str(out)]
    )
    assert code == EXIT_OK
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 3
    by_a = {(r["a_num"], r["a_den"]): r for r in records}
    assert by_a[(2, 1)]["verdict"] == "PASS"
    assert by_a[(2, 1)]["lhs"] == 12
    assert by_a[(1, 5)]["verdict"] == "SKIPPED"
    assert by_a[(1, 5)]["skip_reason"] == "not a p-adic integer"


def test_jsonl_lines_equal_json_dumps_of_each_record():
    checker = StatementChecker(5)
    records = [
        checker.check("THM1_A4", Fraction(2)),  # PASS, both sides residues
        checker.check("THM1_A4", Fraction(1)),  # SKIPPED: parity
        checker.check("THM1_A4", Fraction(-3, 10)),  # SKIPPED: not a p-adic integer
        checker.check("CONJ_S1"),  # no parameter
        ReportRecord("THM2_A5", 5, 2, Fraction(-7, 3), 3, 4, FAIL),
        ReportRecord("RECURRENCES", None, None, Fraction(12), "A_VANISH[7]=-1/2", "0", FAIL),
        ReportRecord("B8", None, None, Fraction(0), 'say "\\é"\t', "0", FAIL),  # escapes
    ]
    assert {r.skip_reason for r in records if r.verdict == SKIPPED} == {"parity", "not a p-adic integer"}
    singles = [cli._render([r], "jsonl") for r in records]
    index, spool = _spooled(singles)
    stream = io.StringIO()
    write_records(index, "jsonl", stream, spool)
    assert stream.getvalue() == "".join(json.dumps(r.to_dict()) + "\n" for r in records)
    assert [key for key, _, _ in singles[-3:]] == [("THM2_A5", 5), ("RECURRENCES", 0), ("B8", 0)]
    # one (statement, p) run: the line head is rendered once, verdicts and skip reasons per line
    key, text, counts = cli._render(records[:3], "jsonl")
    assert text.splitlines() == [json.dumps(r.to_dict()) for r in records[:3]]
    assert key == ("THM1_A4", 5) and counts == {"PASS": 1, "FAIL": 0, "SKIPPED": 2}
    # exact-rational string sides of the identity sweep
    blocks = cli._identity_records(4, "jsonl")
    lines = [line for _, text, _ in blocks for line in text.splitlines(keepends=True)]
    assert len(lines) == 21 and all(json.dumps(json.loads(line)) + "\n" == line for line in lines)
    assert any(isinstance(json.loads(line)["lhs"], str) and "/" in line for line in lines)


def _oracle_records(statements, primes, seed=0, power=None, params=None, n_max=None) -> list[ReportRecord]:
    """The report's records by a plain loop: one check per (statement, p, a), sorted."""
    runs = {}
    checkers = {p: StatementChecker(p) for p in primes}
    for stmt_id in statements:
        runs[stmt_id] = []
        for p, checker in checkers.items():
            if not STATEMENTS[stmt_id].takes_param:
                runs[stmt_id].append(checker.check(stmt_id, power=power))
                continue
            for a in sorted(set(params) if params is not None else default_parameters(p, seed)):
                runs[stmt_id].append(checker.check(stmt_id, a, power=power))
    if n_max is not None:
        for ident, check in identities._CHECKERS.items():
            ns = range(n_max + 1) if ident == "CLAUSEN" else range(0, n_max + 1, 2)
            runs[ident] = [
                ReportRecord(ident, None, None, Fraction(n), str(c.lhs), str(c.rhs), PASS if c.ok else FAIL)
                for n, c in zip(ns, map(check, ns))
            ]
        assert identities.check_recurrences(n_max).passed
        runs["RECURRENCES"] = [ReportRecord("RECURRENCES", None, None, Fraction(n_max), "0", "0", PASS)]
    return [r for name in sorted(runs) for r in runs[name]]


def _oracle_report(records: list[ReportRecord], fmt: str) -> bytes:
    if fmt == "jsonl":
        return "".join(json.dumps(r.to_dict()) + "\n" for r in records).encode()
    stream = io.StringIO()
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(COLUMNS)
    for r in records:
        writer.writerow(["" if v is None else v for v in r.to_dict().values()])
    return stream.getvalue().encode()


@pytest.mark.parametrize(
    "selection, primes, extra",
    [
        ("theorems", "5..199", []),
        ("conjectures", "5..199", []),
        ("all", "5..61", ["--power", "1", "--n-max", "20"]),
        ("all", "5..61", ["--power", "3", "--n-max", "20"]),
        ("all", "5..31", ["--format", "csv", "--n-max", "12"]),
        ("all", "5..13", ["--params", "PARAMS", "--n-max", "4"]),
    ],
    ids=["theorems", "conjectures", "power1", "power3", "csv", "params"],
)
def test_report_equals_slow_path_oracle(tmp_path, selection, primes, extra):
    # The writer against a plain loop: check each point, sort, json.dumps or
    # csv.writer each record, under both the serial and the pool path.
    params = tmp_path / "params.txt"
    params.write_text("7\n-1/3\n3\n-5/2\n0\n7\n2/5\n-1/3\n-4\n1/2\n")  # repeated, negative, 2/5 not 5-adic
    extra = [str(params) if arg == "PARAMS" else arg for arg in extra]
    args = build_parser().parse_args(["--statements", selection, "--primes", primes] + extra)
    config = config_from_args(args)
    records = _oracle_records(
        config.statements, sieve_primes(config.lo, config.hi), config.seed, config.power,
        config.file_params, config.n_max if config.run_identities else None,
    )
    fails = {r.statement for r in records if r.verdict == FAIL}
    exit_code = EXIT_FAIL if any(s not in STATEMENTS or STATEMENTS[s].kind != CONJECTURE for s in fails) else EXIT_OK
    expected = _oracle_report(records, config.fmt)
    for jobs in ("1", "2"):
        out = tmp_path / f"report-{jobs}"
        argv = ["--statements", selection, "--primes", primes, "--jobs", jobs, "--out", str(out)] + extra
        assert main(argv) == exit_code
        assert out.read_bytes() == expected


def test_prime_task_ships_no_record_and_no_fraction():
    # a pool worker's result is pickled: report text and verdict counts only
    blocks = cli._scan_prime((31, tuple(STATEMENTS), None, 0, None, "jsonl"))
    payload = pickle.dumps(blocks)
    assert b"ReportRecord" not in payload and b"fractions" not in payload
    # eight theorems and CONJ_S4 over 31 + 24 parameters, CONJ_S1..S3 once each
    assert sum(sum(counts.values()) for _, _, counts in blocks) == 9 * (31 + 24) + 3


@pytest.mark.parametrize(
    "stmt_id, strict, code",
    [("SUN_A2", False, EXIT_FAIL), ("CONJ_S1", False, EXIT_OK), ("CONJ_S1", True, EXIT_FAIL)],
)
def test_failures_in_pool_workers_set_the_exit_code(tmp_path, monkeypatch, stmt_id, strict, code):
    # the pool forks after the patch, so every worker's checks see unequal sides
    broken = STATEMENTS[stmt_id]._replace(sides=lambda *args: (0, 1))
    monkeypatch.setitem(STATEMENTS, stmt_id, broken)
    out = tmp_path / "report.jsonl"
    argv = ["--statements", stmt_id, "--primes", "5..13", "--jobs", "2", "--out", str(out)]
    assert main(argv + (["--strict"] if strict else [])) == code
    verdicts = [json.loads(line)["verdict"] for line in out.read_text().splitlines()]
    assert FAIL in verdicts and PASS not in verdicts


def _full_key(row: dict) -> tuple:
    # the report order: statement, then prime, then parameter (records without one first)
    a = None if row["a_num"] is None else Fraction(row["a_num"], row["a_den"])
    return (row["statement"], row["p"] or 0, a is not None, a or 0)


def test_params_file_out_of_order_is_reported_in_order(tmp_path):
    params = tmp_path / "params.txt"
    params.write_text("7\n-1/3\n3\n-5/2\n0\n7\n2/5\n-1/3\n-4\n1/2\n")
    argv = ["--primes", "5..13", "--statements", "all", "--n-max", "4", "--params", str(params)]
    reports = []
    for jobs in ("1", "2"):
        out = tmp_path / f"report-{jobs}.jsonl"
        assert main(argv + ["--jobs", jobs, "--out", str(out)]) == EXIT_OK
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    keys = [_full_key(json.loads(line)) for line in reports[0].decode().splitlines()]
    assert all(x < y for x, y in zip(keys, keys[1:]))  # ascending, each key once
    params_at_5 = [k[3] for k in keys if k[:2] == ("THM1_A4", 5)]
    assert params_at_5 == sorted({Fraction(t) for t in params.read_text().split()})


def test_identity_sweep_records(tmp_path):
    out = tmp_path / "identities.jsonl"
    code = main(["--statements", "identities", "--n-max", "12", "--out", str(out)])
    assert code == EXIT_OK
    records = [json.loads(line) for line in out.read_text().splitlines()]
    names = {r["statement"] for r in records}
    assert names == {"B8", "B9", "B17", "B18", "GAUSS_HALF", "CLAUSEN", "RECURRENCES"}
    assert all(r["verdict"] == "PASS" for r in records)
    b8 = [r for r in records if r["statement"] == "B8"]
    assert [r["a_num"] for r in b8] == list(range(0, 13, 2))
    assert all(r["p"] is None and r["k"] is None for r in records)
    chk = next(r for r in records if r["statement"] == "B8" and r["a_num"] == 2)
    assert chk["lhs"] == "-1/2" and chk["rhs"] == "-1/2"


def test_identity_sweep_calls_each_checker_once_per_record(monkeypatch):
    # the benchmark's hook counts identity checks by wrapping _CHECKERS' entries and check_recurrences
    calls = collections.Counter()

    def counting(name, check):
        def wrapper(n):
            calls[name] += 1
            return check(n)

        return wrapper

    for ident, check in list(identities._CHECKERS.items()):
        monkeypatch.setitem(identities._CHECKERS, ident, counting(ident, check))
    monkeypatch.setattr(identities, "check_recurrences", counting("RECURRENCES", identities.check_recurrences))
    blocks = cli._identity_records(10, "jsonl")
    records = collections.Counter(json.loads(line)["statement"] for _, text, _ in blocks for line in text.splitlines())
    assert calls == records
    assert records["RECURRENCES"] == 1 and sum(records.values()) == 42


def test_identity_sides_past_the_str_digit_limit(monkeypatch, tmp_path):
    # Python >= 3.10.7 refuses str() of an int of more than 4,300 digits; B9's sides pass it near n = 7,150
    big = Fraction(10**5000 + 1, 3)
    monkeypatch.setitem(identities._CHECKERS, "B8", lambda n: identities.IdentityCheck("B8", n, big, big))
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(4300)  # a fresh interpreter's limit, which earlier main() calls lifted
    out = tmp_path / "identities.jsonl"
    assert main(["--statements", "identities", "--n-max", "0", "--out", str(out)]) == EXIT_OK
    b8 = [json.loads(line) for line in out.read_text().splitlines() if '"B8"' in line]
    assert len(b8) == 1 and len(b8[0]["lhs"]) > 5000


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int str() digit limit before 3.10.7")
def test_main_puts_the_str_digit_limit_back(tmp_path, capsys):
    # main lifts the limit for the identity sides; left lifted, a second main in
    # the same process took a --params value that a fresh process refuses
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # a fresh interpreter's limit
    try:
        argv = ["--statements", "SUN_A2", "--primes", "5..7", "--out", str(tmp_path / "r.jsonl")]
        assert main(argv) == EXIT_OK
        assert sys.get_int_max_str_digits() == 4300
        params = tmp_path / "params.txt"
        params.write_text("1" * 5000 + "\n")
        capsys.readouterr()
        assert main(argv + ["--params", str(params)]) == EXIT_USAGE
        assert "bad parameter" in _usage_error_line(capsys)
    finally:
        sys.set_int_max_str_digits(before)


def test_usage_errors():
    assert main(["--primes", "nonsense"]) == EXIT_USAGE
    assert main(["--primes", "9..5"]) == EXIT_USAGE
    assert main(["--statements", "MADE_UP"]) == EXIT_USAGE


def _usage_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def test_negative_n_max_is_a_usage_error(monkeypatch, capsys):
    # an empty sweep range would otherwise report RECURRENCES as a PASS
    assert main(["--statements", "identities", "--n-max", "-3"]) == EXIT_USAGE
    assert "--n-max" in _usage_error_line(capsys)
    monkeypatch.setenv("SUPERCONG_N_MAX", "-3")
    assert main(["--statements", "identities"]) == EXIT_USAGE
    assert "SUPERCONG_N_MAX" in _usage_error_line(capsys)
    assert main(["--statements", "identities", "--n-max", "0", "--out", os.devnull]) == EXIT_OK


def test_empty_selection_is_a_usage_error(capsys):
    assert main(["--primes", "5..7", "--statements", ""]) == EXIT_USAGE
    assert "no statements selected" in _usage_error_line(capsys)
    assert main(["--primes", "5..7", "--statements", " , "]) == EXIT_USAGE
    _usage_error_line(capsys)


def test_scan_without_primes_is_a_usage_error(tmp_path, capsys):
    cases = (("1..3", "THM1_A4"), ("24..28", "CONJ_S1"), ("1..3", "identities,SUN_A2"))
    for primes, statements in cases:
        assert main(["--primes", primes, "--statements", statements]) == EXIT_USAGE
        assert f"no primes >= 5 in {primes}" in _usage_error_line(capsys)
    # the identity sweep needs no primes
    out = tmp_path / "identities.jsonl"
    argv = ["--primes", "1..3", "--statements", "identities", "--n-max", "4", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert len(out.read_text().splitlines()) == 21


def test_empty_params_file_is_a_usage_error(tmp_path, capsys):
    params = tmp_path / "params.txt"
    params.write_text("# nothing but a comment\n\n")
    argv = ["--primes", "5..7", "--params", str(params), "--out", str(tmp_path / "r.jsonl")]
    assert main(argv + ["--statements", "THM1_A4"]) == EXIT_USAGE
    assert "--params" in _usage_error_line(capsys)
    assert main(argv + ["--statements", "CONJ_S1,SUN_A2"]) == EXIT_USAGE
    _usage_error_line(capsys)
    # statements without a parameter do not read the file
    assert main(argv + ["--statements", "CONJ_S1"]) == EXIT_OK


@pytest.mark.parametrize(
    "argv, start",
    [
        (["--n-max", "x"], "error: argument --n-max: invalid int value: 'x'\n"),
        (["--power", "5"], "error: argument --power: invalid choice: "),
        (["--format", "xml"], "error: argument --format: invalid choice: "),
        (["--bogus"], "error: unrecognized arguments: --bogus\n"),
    ],
    ids=["n-max", "power", "format", "bogus"],
)
def test_bad_flag_is_a_one_line_usage_error(capsys, argv, start):
    # argparse's own handler would print its usage text too and raise SystemExit
    assert main(argv) == EXIT_USAGE
    assert _usage_error_line(capsys).startswith(start)


def test_power2_scan_past_p46340_runs(tmp_path):
    # 46349^2 > 2^31; Python integers need no bound on the modulus
    params = tmp_path / "params.txt"
    params.write_text("1\n2\n-1/2\n-1/6\n7/5\n")
    argv = ["--statements", "theorems", "--primes", "46349..46349", "--seed", "0", "--params", str(params)]
    digests = set()
    for jobs in ("1", "2"):
        out = tmp_path / f"report{jobs}.jsonl"
        assert main(argv + ["--jobs", jobs, "--out", str(out)]) == EXIT_OK
        assert len(out.read_text().splitlines()) == 40
        digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests == {"b43df6e15454f1406d48d17dbe89d3bffbbc7dd2521b7083e542c84242f79c8a"}


def test_power3_scan_above_p1000_runs_without_force(tmp_path):
    out = tmp_path / "conj.jsonl"
    argv = ["--primes", "1009..1013", "--statements", "CONJ_S1", "--out", str(out)]
    assert main(argv) == EXIT_OK
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [(r["p"], r["k"]) for r in records] == [(1009, 3), (1013, 3)]
    # 1291^3 > 2^31: the conjectures there run as any others do
    out = tmp_path / "conj1291.jsonl"
    argv = ["--statements", "conjectures", "--primes", "1291..1301", "--seed", "0", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert len(out.read_text().splitlines()) == 3970
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "99d0fe64a723364a3390079e27a5929729f24cc2774b5e8302c62fd3d3748b2a"


@pytest.mark.parametrize(
    "power, code, fails, digest",
    [
        ("1", EXIT_OK, 0, "73bfbf43a35d4070259c723e8ecf0416e1892048fc922ef89ffcb7c3e12df23f"),
        ("3", EXIT_FAIL, 1830, "6caf2a51adab9c89781c287f5f88903f0346477e059e85c8685c7a1f1585bd88"),
    ],
    ids=["power1", "power3"],
)
def test_theorem_report_hash_under_power_override(tmp_path, power, code, fails, digest):
    # LEMMA_B5's G1 term vanishes mod p and is first-order only mod p^3; both reports are frozen
    out = tmp_path / "theorems.jsonl"
    argv = ["--statements", "theorems", "--primes", "5..61", "--seed", "0", "--power", power]
    assert main(argv + ["--out", str(out)]) == code
    report = out.read_bytes()
    assert report.count(b"\n") == 7040
    assert report.count(b'"verdict": "FAIL"') == fails
    assert hashlib.sha256(report).hexdigest() == digest


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_behaviour_gate_report_hash(tmp_path, jobs):
    # the frozen whole-catalog report; a change to it must be deliberate
    out = tmp_path / "all.jsonl"
    argv = ["--primes", "5..97", "--statements", "all", "--seed", "0", "--jobs", jobs]
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "363a52eb7d5e57376c2a09666d264b325f75bee83a6e5e2f6491c3adef764c64"


def test_identity_sweep_report_hash(tmp_path):
    # the frozen identity report to n = 200, twice as far as the gate above
    out = tmp_path / "identities.jsonl"
    assert main(["--statements", "identities", "--n-max", "200", "--out", str(out)]) == EXIT_OK
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "7fcb3d92bb97b94b745324ce174ced27e93205d9723beb2d7f123d1bcb3b67e7"


def test_identity_sweep_report_hash_at_n400(tmp_path):
    # the weighted sums at twice the tree sizes of the n = 200 pin
    out = tmp_path / "identities.jsonl"
    assert main(["--statements", "identities", "--n-max", "400", "--out", str(out)]) == EXIT_OK
    report = out.read_bytes()
    assert report.count(b"\n") == 1407
    digest = hashlib.sha256(report).hexdigest()
    assert digest == "a5fecd334955b0efba47b8d7ed559ace8e59e5804a77a10c5234f14bd82f8849"


@pytest.mark.parametrize("fault", ["corrupt", "drop"])
def test_faulty_tail_fails_recurrences_and_exit_code(tmp_path, monkeypatch, fault):
    # The weighted sums add (T_j, n+j) for the tails T_j; one tail off by one
    # (T_n) or one pair left out (T_1, n+1) must fail every weighted record.
    real = identities.accumulate

    def faulty(iterable):
        tails = list(real(iterable))  # T_n, ..., T_1, T_0
        if len(tails) > 1:
            if fault == "corrupt":
                tails[0] += 1
            else:
                del tails[-2]
        return tails

    monkeypatch.setattr(identities, "accumulate", faulty)
    out = tmp_path / "identities.jsonl"
    assert main(["--statements", "identities", "--n-max", "12", "--out", str(out)]) == EXIT_FAIL
    records = [json.loads(line) for line in out.read_text().splitlines()]
    recurrences = next(r for r in records if r["statement"] == "RECURRENCES")
    assert recurrences["verdict"] == "FAIL" and recurrences["lhs"].startswith("A_VANISH[1]=")
    failing = {r["statement"] for r in records if r["verdict"] == "FAIL"}
    assert failing == {"B17", "B18", "RECURRENCES"}


def test_env_overrides(monkeypatch):
    monkeypatch.setenv("SUPERCONG_SEED", "77")
    monkeypatch.setenv("SUPERCONG_PRIMES", "5..7")
    monkeypatch.setenv("SUPERCONG_STRICT", "1")
    args = build_parser().parse_args([])
    assert args.seed == 77
    assert args.primes == "5..7"
    assert args.strict is True


@pytest.mark.parametrize(
    "name, value",
    [
        ("POWER", "5"), ("SEED", "x"), ("JOBS", "2.5"), ("N_MAX", "ten"),
        ("STRICT", "maybe"), ("FORMAT", "xml"),
    ],
)
def test_bad_env_default_is_a_usage_error(monkeypatch, capsys, name, value):
    monkeypatch.setenv("SUPERCONG_" + name, value)
    assert main(["--primes", "5..7", "--statements", "SUN_A2"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"error: SUPERCONG_{name}=") and err.count("\n") == 1


def _cli_env(tmp_path):
    """A CLI subprocess's environment: this checkout's source, and an empty
    TMPDIR, where the scan keeps its spool of report text."""
    spool_dir = tmp_path / "tmpdir"
    spool_dir.mkdir()
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return dict(os.environ, PYTHONPATH=src, TMPDIR=str(spool_dir)), spool_dir


@pytest.mark.parametrize(
    "extra, code",
    [([], EXIT_OK), (["--jobs", "2"], EXIT_OK), (["--power", "3"], EXIT_FAIL), (["--out", "/dev/full"], EXIT_USAGE)],
    ids=["ok", "jobs2", "fail", "out-full"],
)
def test_spool_is_removed_on_exit(tmp_path, extra, code):
    # the broken pipe (141) and Ctrl-C (130) cases are in the two tests below
    if "/dev/full" in extra and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    env, spool_dir = _cli_env(tmp_path)
    argv = [sys.executable, "-m", "supercong.cli", "--statements", "THM1_A4", "--primes", "5..13",
            "--out", str(tmp_path / "r.jsonl")]
    assert subprocess.run(argv + extra, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode == code
    assert list(spool_dir.iterdir()) == []


def test_reader_closing_the_pipe_early(tmp_path):
    # about 400 kB of records: far more than a pipe holds, so the writer
    # is still writing when the reader goes away after the first line
    env, spool_dir = _cli_env(tmp_path)
    argv = [sys.executable, "-m", "supercong.cli", "--primes", "5..97", "--statements", "THM1_A4"]
    err = tmp_path / "stderr.txt"
    with open(err, "wb") as err_handle:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err_handle, env=env)
        assert json.loads(proc.stdout.readline())["statement"] == "THM1_A4"
        proc.stdout.close()
        assert proc.wait(timeout=120) == EXIT_PIPE
    assert err.read_bytes() == b""
    assert list(spool_dir.iterdir()) == []


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_ctrl_c_ends_a_scan_with_one_line(tmp_path, jobs):
    # a terminal sends Ctrl-C to the whole process group, pool workers too
    env, spool_dir = _cli_env(tmp_path)
    out = tmp_path / "r.jsonl"
    argv = [sys.executable, "-m", "supercong.cli", "--statements", "theorems", "--primes", "5..1999",
            "--jobs", jobs, "--out", str(out)]
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env, start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        while not out.exists() and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.01)  # --out is opened inside main's try, before the scan starts
        time.sleep(0.5)  # the workers of --jobs 2 are mid-task by then
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert (proc.returncode, err) == (EXIT_INTERRUPT, b"error: interrupted\n")
    assert list(spool_dir.iterdir()) == []


def test_cli_import_leaves_sympy_out():
    # sympy checks the series certificates in the tests; importing it costs
    # about 0.7 s, so the program itself must never load it
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, supercong.cli; print(*sorted({m.split('.')[0] for m in sys.modules} & {'supercong', 'sympy'}))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["supercong"]


def test_cli_import_loads_only_what_a_scan_runs():
    # -S: no site module, which may preload typing; the pool is imported on
    # first read of cli.ProcessPoolExecutor, that is by --jobs N > 1 only, and
    # identities by a scan that runs the identity sweep
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = """if True:
        import json, os, sys
        import supercong.cli as cli
        names = ["dataclasses", "inspect", "typing", "multiprocessing", "concurrent.futures.process", "csv",
                 "supercong.identities"]
        loaded = [name for name in names if name in sys.modules]
        cli.main(["--statements", "THM1_A4", "--primes", "5..7", "--out", os.devnull])
        after_scan = "supercong.identities" in sys.modules
        cli.main(["--statements", "identities", "--n-max", "2", "--out", os.devnull])
        after_sweep = "supercong.identities" in sys.modules
        import concurrent.futures
        try:
            cli.no_such_name
            unknown = "no error"
        except AttributeError as exc:
            unknown = str(exc)
        same_pool = cli.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor
        print(json.dumps([loaded, after_scan, after_sweep, same_pool, unknown]))
    """
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded, after_scan, after_sweep, same_pool, unknown = json.loads(out.stdout.splitlines()[-1])  # after summaries
    assert loaded == []
    assert (after_scan, after_sweep) == (False, True)
    assert same_pool is True
    assert unknown == "module 'supercong.cli' has no attribute 'no_such_name'"


def test_exit_code_blocks_on_theorem_failures(tmp_path, monkeypatch):
    # force a FAIL by corrupting one verdict before exit-code evaluation
    config = ScanConfig(lo=5, hi=5, statements=["THM1_A4"], run_identities=False)
    blocks = collect_records(config, io.BytesIO())
    bad = cli._render([ReportRecord("THM1_A4", 5, 2, Fraction(0), 1, 2, FAIL)], "jsonl")
    assert cli._exit_code(blocks + [bad], strict=False) == 1
    assert cli._exit_code(blocks, strict=False) == 0
    conj_bad = cli._render([ReportRecord("CONJ_S1", 5, 3, None, 1, 2, FAIL)], "jsonl")
    assert cli._exit_code(blocks + [conj_bad], strict=False) == 0  # finding, not failure
    assert cli._exit_code(blocks + [conj_bad], strict=True) == 1
    ident_bad = cli._render([ReportRecord("RECURRENCES", None, None, Fraction(4), "x", "0", FAIL)], "jsonl")
    assert cli._exit_code(blocks + [ident_bad], strict=False) == 1


def test_power_override_keeps_theorem_exit_status(tmp_path):
    # --power is exploratory, but a theorem that fails under it still exits 1
    argv = ["--statements", "THM1_A4", "--primes", "5..13", "--out", str(tmp_path / "r.jsonl")]
    assert main(argv + ["--power", "3"]) == EXIT_FAIL
    assert main(argv + ["--power", "2"]) == EXIT_OK


def test_summary_counts():
    config = ScanConfig(lo=5, hi=7, statements=["SUN_A2"], run_identities=False)
    spool = io.BytesIO()
    blocks = collect_records(config, spool)
    assert [key for key, _, _ in blocks] == [("SUN_A2", 5), ("SUN_A2", 7)]
    rows = [json.loads(line) for text in _texts(blocks, spool) for line in text.splitlines()]
    n = {v: sum(r["verdict"] == v for r in rows) for v in ("PASS", "FAIL", "SKIPPED")}
    assert n["PASS"] and n["SKIPPED"] and len(rows) == sum(n.values())
    row = f"{n['PASS']:>7} {n['FAIL']:>7} {n['SKIPPED']:>8}"
    assert summarize(blocks).splitlines()[1:] == [f"{'SUN_A2':<12} {row}", f"{'total':<12} {row}"]


def test_scan_memory_is_one_prime_not_the_report(tmp_path):
    # blocks go to the spool as they arrive: the scan holds one prime's text and an index
    out = tmp_path / "r.jsonl"
    argv = ["--statements", "theorems", "--primes", "5..97", "--out", str(out)]
    assert main(argv) == EXIT_OK  # imports and caches first
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.stat().st_size / 4


def test_stdout_report_into_a_text_stream(tmp_path):
    # stdout need not have a binary buffer: the report is written as text
    argv = ["--statements", "all", "--primes", "5..31", "--n-max", "10"]
    out = tmp_path / "r.jsonl"
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    stream = io.StringIO()
    with contextlib.redirect_stdout(stream):
        assert main(argv) == EXIT_OK
    assert stream.getvalue().encode() == out.read_bytes()


def test_run_scan_unwritable_path(tmp_path):
    config = ScanConfig(
        lo=5, hi=5, statements=["SUN_A2"], run_identities=False,
        out=str(tmp_path / "missing_dir" / "report.jsonl"),
    )
    with pytest.raises(OSError):
        run_scan(config)
    assert main(
        ["--primes", "5..5", "--statements", "SUN_A2", "--out", str(tmp_path / "nope" / "r.jsonl")]
    ) == EXIT_USAGE


def test_unwritable_out_fails_before_the_scan(tmp_path, monkeypatch, capsys):
    # the report is opened first: a bad path costs no scan, however long
    def no_scan(config, spool):
        raise AssertionError("the scan ran before the report was opened")

    monkeypatch.setattr(cli, "collect_records", no_scan)
    out = tmp_path / "missing_dir" / "r.jsonl"
    assert main(["--statements", "theorems", "--primes", "5..1999", "--out", str(out)]) == EXIT_USAGE
    assert "missing_dir" in _usage_error_line(capsys)
    assert not out.parent.exists()
