"""Batch driver: configuration, parallel prime scan, report emission.

The report holds one record per (statement, prime, parameter), in that
order, as JSON lines (canonical) or CSV.  Each (statement, prime) run of
records is rendered to report text and written to a temporary spool file
where it is computed: under --jobs N, in a worker forked by the scan, to a
spool of its own (where os.fork does not exist, --jobs N scans serially).
Only an index of the blocks is sorted, and the report is copied out of the
spools in that order.  Identical configuration, including the seed,
produces byte-identical reports regardless of the worker count.
"""

from __future__ import annotations

import argparse
import io
import json
import marshal
import os
import re
import sys
from collections import Counter, defaultdict, namedtuple
from contextlib import ExitStack, nullcontext
from fractions import Fraction

from .congruences import (
    CONJECTURE,
    FAIL,
    PASS,
    SCALE,
    SKIPPED,
    STATEMENTS,
    StatementChecker,
    default_parameters,
    ReportRecord,
)
from .padic_core import is_prime, sieve_primes

ENV_PREFIX = "SUPERCONG_"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
#: The report's reader closed the pipe early; 128 + SIGPIPE, as a shell reports it.
EXIT_PIPE = 141
EXIT_INTERRUPT = 130  # Ctrl-C: 128 + SIGINT


class ConfigError(Exception):
    pass


class ProcessPoolExecutor:
    """The worker pool of --jobs N, started by os.fork.  map(fn, tasks) runs fn(tasks[i::n], spool) in
    worker i of n, on a temporary spool file of its own, which then gets the result, marshalled (no
    record, no Fraction), and its 8-byte length: nothing else passes between the processes.  map waits
    for the workers in order and yields each one's (spool, result), or raises its exception or early
    end as a RuntimeError.  Workers ignore SIGINT.  Leaving the with-block kills and reaps every worker
    not yet reaped, and closes the spools if it raised."""

    def __init__(self, max_workers: int):
        self._max_workers = max_workers
        self._pids: list = []  # a pid leaves only once waitpid has returned it
        self._spools: list = []

    def __enter__(self):
        return self

    def __exit__(self, failed, *exc) -> None:
        for pid in self._pids:
            os.kill(pid, 9)  # SIGKILL
        while self._pids:
            os.waitpid(self._pids[0], 0)
            del self._pids[0]
        for spool in self._spools if failed else ():  # else they pass, with their indexes, to map's caller
            spool.close()

    def map(self, fn, tasks: list):
        import signal
        import tempfile

        n = self._max_workers
        self._spools = [tempfile.TemporaryFile() for _ in range(n)]
        for i, spool in enumerate(self._spools):
            pid = os.fork()
            if not pid:  # the worker leaves only through os._exit: into none of the parent's code or exit handlers
                try:
                    signal.signal(signal.SIGINT, signal.SIG_IGN)  # a terminal's Ctrl-C is the parent's to act on
                    try:
                        result = True, fn(tasks[i::n], spool)
                    except Exception:
                        import traceback

                        result = False, traceback.format_exc()
                    data = marshal.dumps(result)
                    spool.write(data + len(data).to_bytes(8, "little"))
                    spool.flush()
                    os._exit(0)
                finally:
                    os._exit(1)
            self._pids.append(pid)
        for spool in self._spools:
            pid, status = os.waitpid(self._pids[0], 0)
            del self._pids[0]
            if status:  # it did not get as far as its result
                raise RuntimeError(f"pool worker {pid} ended with exit code {os.waitstatus_to_exitcode(status)}")
            spool.seek(-8, os.SEEK_END)
            size = int.from_bytes(spool.read(8), "little")
            spool.seek(-8 - size, os.SEEK_END)
            ok, value = marshal.loads(spool.read(size))
            if not ok:
                raise RuntimeError(f"pool worker {pid} failed:\n{value}")
            yield spool, value


class ScanConfig(
    namedtuple("ScanConfig", "lo hi statements run_identities seed jobs out fmt strict n_max power file_params",
               defaults=(0, 1, "-", "jsonl", False, 100, None, None))
):
    """One scan's settings, checked when it is built: a bad value raises ConfigError.
    Configurations compare by value.  The CLI's flags take their defaults from these."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        row = super().__new__(cls, *args, **kwargs)
        lo, hi, statements, run_identities, seed, jobs, out, fmt, strict, n_max, power, file_params = row
        if lo > hi:
            raise ConfigError(f"empty prime range {lo}..{hi}")
        if jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if fmt not in ("jsonl", "csv"):
            raise ConfigError(f"unknown format {fmt!r}")
        if power not in (None, 1, 2, 3):
            raise ConfigError(f"power must be 1, 2 or 3, got {power}")
        statements = list(dict.fromkeys(statements))  # one record per (statement, p, a)
        if file_params is not None:  # likewise: 1 and Fraction(1) are one parameter
            file_params = list(dict.fromkeys(file_params))
        unknown = [s for s in statements if s not in STATEMENTS]
        if unknown:
            raise ConfigError(f"unknown statements: {', '.join(unknown)}")
        if n_max < 0:
            raise ConfigError(f"--n-max (SUPERCONG_N_MAX) must be >= 0, got {n_max}")
        # a scan that checks nothing would report nothing and still exit 0
        if not statements and not run_identities:
            raise ConfigError("no statements selected")
        if statements and not any(is_prime(n) for n in range(max(lo, 5), hi + 1)):
            raise ConfigError(f"no primes >= 5 in {lo}..{hi}")
        if file_params == [] and any(STATEMENTS[s].takes_param for s in statements):
            raise ConfigError("the --params file holds no parameters")
        return row._replace(statements=statements, file_params=file_params)


def parse_params(path: str) -> list[Fraction]:
    """Read one fraction per line (num/den, integer or decimal); '#' comments
    and blank lines are ignored.  Malformed lines are reported with their number."""
    try:
        with open(path, encoding="utf-8-sig") as handle:  # a byte-order mark is not a parameter
            lines = handle.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
    params = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip().replace("−", "-")
        if not text:
            continue
        try:
            params.append(_fraction(text, limit))
        except ValueError as exc:
            shown = text if len(text) <= 40 else text[:20] + "..."  # a refused line may hold thousands of digits
            raise ConfigError(f"{path}:{lineno}: bad parameter {shown!r}: {exc}") from None
    return params


def _fraction(text: str, limit: int) -> Fraction:
    """text as a Fraction whose numerator and denominator have at most `limit` digits (0: any number),
    whatever its notation; else a ValueError that does not repeat the text.  An exponent that passes the
    limit by more than len(text) passes it in the value too, and is refused before Fraction builds 10**e."""
    try:
        exponent = int(text.lower().partition("e")[2])
    except ValueError:  # none, or one that Fraction refuses
        exponent = 0
    digits = max(map(len, re.findall(r"\d+", text.replace("_", ""))), default=0)
    if limit and (digits > limit or abs(exponent) > limit + len(text)):
        raise ValueError(f"more than {limit} digits")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError("not an integer, decimal or num/den with den != 0") from None
    if limit and max(abs(value.numerator), value.denominator) >= 10**limit:
        raise ValueError(f"more than {limit} digits")
    return value


def resolve_statements(selection: str) -> tuple[list[str], bool]:
    """Expand a comma-separated list of ids and group names.

    Returns the congruence statement ids plus a flag for the identity sweep.
    Ids are passed through as given: ScanConfig drops repeats and refuses
    unknown ids.
    """
    ids: list[str] = []
    run_identities = False
    for token in selection.split(","):
        token = token.strip()
        if not token:
            continue
        if token == "all":
            ids.extend(STATEMENTS)
            run_identities = True
        elif token == "theorems":
            ids.extend(s.id for s in STATEMENTS.values() if s.kind != CONJECTURE)
        elif token == "conjectures":
            ids.extend(s.id for s in STATEMENTS.values() if s.kind == CONJECTURE)
        elif token == "identities":
            run_identities = True
        else:
            ids.append(token)
    return ids, run_identities


def _json(value) -> str:
    if value.__class__ is int:
        return str(value)
    return "null" if value is None else json.dumps(value)


def _a_text(a: Fraction | None) -> str:
    """A JSONL line's parameter fields, with the separator after them."""
    return '"a_num": null, "a_den": null, ' if a is None else f'"a_num": {a.numerator}, "a_den": {a.denominator}, '


def _render(
    records: list[ReportRecord], fmt: str, a_texts: list[str] | None = None
) -> tuple[tuple[str, int], str, dict[str, int]]:
    """One block of the report from a run of records that share statement, p
    and k, in report order: its sort key (statement, p, with 0 for no p), its
    report text and its verdict counts.  Each JSONL line is byte-equal to
    json.dumps(record.to_dict()); statement, p and k are rendered once, a
    line with int sides and no skip reason is one f-string, and ``a_texts``,
    if given, holds each record's _a_text, which a prime's runs share."""
    first = records[0]
    counts = {PASS: 0, FAIL: 0, SKIPPED: 0}
    if fmt == "csv":
        import csv  # loaded only by a CSV report

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        for r in records:
            counts[r.verdict] += 1
            writer.writerow(["" if value is None else value for value in r.to_dict().values()])
        text = buffer.getvalue()
    else:
        head = f'{{"statement": {json.dumps(first.statement)}, "p": {_json(first.p)}, "k": {_json(first.k)}, '
        ends: dict = {}  # (verdict, skip reason) -> the end of the line
        lines = []
        for r, a_text in zip(records, a_texts or [_a_text(r.a) for r in records]):
            verdict, lhs, rhs = r.verdict, r.lhs, r.rhs
            counts[verdict] += 1
            if lhs.__class__ is int and rhs.__class__ is int and r.skip_reason is None:
                lines.append(f'{head}{a_text}"lhs": {lhs}, "rhs": {rhs}, "verdict": "{verdict}", '
                             f'"skip_reason": null}}\n')
                continue
            end = ends.get((verdict, r.skip_reason))
            if end is None:
                end = ends[verdict, r.skip_reason] = (
                    f'"verdict": {json.dumps(verdict)}, "skip_reason": {_json(r.skip_reason)}}}\n'
                )
            if lhs.__class__ is not int:
                lhs = _json(lhs)
            if rhs.__class__ is not int:
                rhs = _json(rhs)
            lines.append(f'{head}{a_text}"lhs": {lhs}, "rhs": {rhs}, {end}')
        text = "".join(lines)
    return (first.statement, first.p or 0), text, counts


def _scan_prime(task: tuple) -> list[tuple]:
    """The report blocks of one prime, one per statement."""
    p, stmt_ids, file_params, seed, power, fmt = task
    params = a_texts = None
    if any(STATEMENTS[stmt_id].takes_param for stmt_id in stmt_ids):
        # ascending, each (statement, p) run in report order; a * SCALE is an exact key
        params = sorted(file_params) if file_params is not None else sorted(
            default_parameters(p, seed), key=lambda a: a.numerator * (SCALE // a.denominator))
        a_texts = [_a_text(a) for a in params]
    check = StatementChecker(p, params).check  # the column: each statement is evaluated over it at once
    blocks = []
    for stmt_id in stmt_ids:
        if STATEMENTS[stmt_id].takes_param:
            blocks.append(_render([check(stmt_id, a, power) for a in params], fmt, a_texts))
        else:
            blocks.append(_render([check(stmt_id, None, power)], fmt))
    return blocks


def _identity_records(n_max: int, fmt: str) -> list[tuple]:
    """The report blocks of the identity sweep: one per entry of identities._CHECKERS, then RECURRENCES.

    RECURRENCES runs first: its direct sums at every even n <= n_max make the
    parts of every sum the identities read, which the sweep shares."""
    from . import identities  # loaded only by a scan that runs the sweep

    # Identity sides outgrow the 4,300-digit int str() limit of Python 3.10.7+ (B9 near n = 7,150).  Every str()
    # of a side is made here, under the limit lifted and put back on return: a --params value is still held to it.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    set_digit_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    set_digit_limit(0)
    blocks = []
    try:
        with identities.sweep(n_max):
            rec_report = identities.check_recurrences(n_max)
            for ident, check in identities._CHECKERS.items():
                ns = range(0, n_max + 1, 1 if ident == "CLAUSEN" else 2)  # CLAUSEN holds at odd n too
                run = [
                    ReportRecord(ident, None, None, Fraction(n), str(c.lhs), str(c.rhs), PASS if c.ok else FAIL)
                    for n, c in zip(ns, map(check, ns))
                ]
                blocks.append(_render(run, fmt))
        failure = rec_report.first_failure
        lhs = "0" if failure is None else f"{failure.identity}[{failure.n}]={failure.lhs}"
    finally:
        set_digit_limit(digit_limit)
    record = ReportRecord("RECURRENCES", None, None, Fraction(n_max), lhs, "0", PASS if rec_report.passed else FAIL)
    blocks.append(_render([record], fmt))
    return blocks


def _spool(blocks, spool) -> list[tuple]:
    """Write each block's text to the binary spool as it comes; return the blocks' index: each one's key,
    its (offset, length) in the spool and its verdict counts, in ints, strs, tuples and dicts."""
    index = []
    for key, text, counts in blocks:
        data = text.encode()
        index.append((key, (spool.tell(), len(data)), counts))
        spool.write(data)
    return index


def _spool_primes(tasks: list[tuple], spool) -> list[tuple]:
    """The tasks' primes scanned in turn, their blocks spooled: the serial scan, or one pool worker's share."""
    return _spool((block for task in tasks for block in _scan_prime(task)), spool)


def collect_records(config: ScanConfig, spool) -> list[tuple]:
    """Scan, spooling each block as it is made: to ``spool``, or under --jobs N to each pool worker's own.
    Return the report's index in report order, by statement, then prime: each block's key, its (spool,
    offset, length) and its verdict counts."""
    parts: list[tuple] = []  # (spool, its index)
    if config.statements:
        tasks = [(p, tuple(config.statements), config.file_params, config.seed, config.power, config.fmt)
                 for p in reversed(sieve_primes(config.lo, config.hi))]  # largest, that is costliest, first
        jobs = min(config.jobs, len(tasks))  # the pool starts every worker up front: no more than there are tasks
        if jobs > 1 and hasattr(os, "fork"):
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                parts += pool.map(_spool_primes, tasks)
        else:
            parts.append((spool, _spool_primes(tasks, spool)))
    if config.run_identities:
        parts.append((spool, _spool(_identity_records(config.n_max, config.fmt), spool)))
    index = [(key, (part, *at), counts) for part, entries in parts for key, at, counts in entries]
    index.sort(key=lambda block: block[0])  # each (statement, p) key once
    return index


def write_records(blocks: list[tuple], fmt: str, stream) -> None:
    """Copy the indexed blocks out of their spools to the text stream, in index order: the spools'
    UTF-8 bytes go to the stream's binary buffer, after its text layer is flushed; only a stream
    without one (io.StringIO) gets them decoded."""
    # Write block by block: with the whole report in one write, a reader that
    # closed the pipe early went unnoticed and the scan exited 0.
    if fmt == "csv":
        stream.write("statement,p,k,a_num,a_den,lhs,rhs,verdict,skip_reason\n")
    buffer = getattr(stream, "buffer", None)
    if buffer is None:
        write = lambda data: stream.write(data.decode())  # noqa: E731
    else:
        stream.flush()
        write = buffer.write
    for _, (spool, offset, length), _ in blocks:
        spool.seek(offset)
        write(spool.read(length))


def summarize(blocks: list[tuple]) -> str:
    counts: dict[str, Counter] = defaultdict(Counter)
    for (statement, _), _, block_counts in blocks:
        counts[statement].update(block_counts)
    rows = [*sorted(counts.items()), ("total", sum(counts.values(), Counter()))]
    row = "{:<12} {:>7} {:>7} {:>8}".format
    lines = [row(name, c[PASS], c[FAIL], c[SKIPPED]) for name, c in rows]
    return "\n".join([row("statement", PASS, FAIL, SKIPPED), *lines])


def _exit_code(blocks: list[tuple], strict: bool) -> int:
    for (statement, _), _, counts in blocks:
        stmt = STATEMENTS.get(statement)  # None for the identity sweep
        if counts[FAIL] and (strict or stmt is None or stmt.kind != CONJECTURE):
            return EXIT_FAIL
    return EXIT_OK


def run_scan(config: ScanConfig) -> int:
    """Execute the configured checks, write the report, print the summary."""
    # The spool holds the report's text until the end, in TMPDIR: on Linux a
    # file with no name, which no exit path can leave behind.
    import tempfile

    to_stdout = config.out == "-"
    # a path is opened before the scan, as a shell redirection is: one that
    # cannot be written fails at once, not after the whole scan
    report = nullcontext(sys.stdout) if to_stdout else open(config.out, "w", encoding="utf-8", newline="")
    with report as stream, tempfile.TemporaryFile() as spool, ExitStack() as spools:
        blocks = collect_records(config, spool)
        for part in {location[0] for _, location, _ in blocks} - {spool}:  # the pool workers' spools
            spools.enter_context(part)
        write_records(blocks, config.fmt, stream)
        stream.flush()  # a closed pipe shows here, not at interpreter exit
    print(summarize(blocks), file=sys.stderr if to_stdout else sys.stdout)
    if not to_stdout:
        n_records = sum(sum(counts.values()) for _, _, counts in blocks)
        print(f"report: {config.out} ({n_records} records)")
    return _exit_code(blocks, config.strict)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        # main prints one line and exits 2, not argparse's usage text and SystemExit
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    """The CLI's flags, each preset by SUPERCONG_<FLAG> and held to the flag's own type and choices."""
    parser = _Parser(prog="supercong", description="Verify truncated hypergeometric congruences and the exact "
                     "identities behind them.  A flag --x-y can be preset by the environment variable SUPERCONG_X_Y.")
    add, default = parser.add_argument, ScanConfig._field_defaults
    flags = [
        add("--primes", default="5..97", help="prime range LO..HI (default %(default)s)"),
        add("--power", type=int, choices=(1, 2, 3), help="override the comparison modulus power (exploratory)"),
        add("--statements", default="theorems", help="comma list of ids, or all/theorems/conjectures/identities"),
        add("--params", help="file with one parameter per line (num/den, integer or decimal)"),
        add("--seed", type=int, default=default["seed"], help="seed of the fraction sampler (default %(default)s)"),
        add("--jobs", type=int, default=default["jobs"], help="worker processes, partitioned by prime"),
        add("--out", default=default["out"], help="report path, '-' for stdout (default)"),
        add("--format", dest="fmt", choices=("jsonl", "csv"), default=default["fmt"]),
        add("--strict", action="store_true", help="conjecture failures also flip the exit status"),
        add("--n-max", type=int, default=default["n_max"], help="identity sweep bound (default %(default)s)"),
    ]
    for flag in flags:
        name = ENV_PREFIX + flag.option_strings[0][2:].upper().replace("-", "_")
        text = os.environ.get(name)
        if text is None:
            continue
        if flag.nargs == 0:  # --strict: 1/true/yes or 0/false/no/empty, in any case
            value = text.lower() in ("1", "true", "yes")
            if not value and text.lower() not in ("0", "false", "no", ""):
                raise ConfigError(f"{name}={text!r} is not 1/true/yes or 0/false/no")
        else:
            try:
                value = (flag.type or str)(text)
            except ValueError:
                raise ConfigError(f"{name}={text!r}: invalid {flag.type.__name__} value") from None
            # argparse holds a flag given on the command line to its choices, but not a default
            if flag.choices is not None and value not in flag.choices:
                raise ConfigError(f"{name}={text!r} is not one of {', '.join(map(str, flag.choices))}")
        flag.default = value
    return parser


def config_from_args(args: argparse.Namespace) -> ScanConfig:
    lo_text, _, hi_text = args.primes.replace(" ", "").partition("..")
    try:
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise ConfigError(f"bad prime range {args.primes!r}, expected LO..HI") from None
    statements, run_identities = resolve_statements(args.statements)
    return ScanConfig(lo, hi, statements, run_identities, args.seed, args.jobs, args.out, args.fmt, args.strict,
                      args.n_max, args.power, parse_params(args.params) if args.params else None)


def main(argv: list[str] | None = None) -> int:
    try:
        return run_scan(config_from_args(build_parser().parse_args(argv)))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader closed stdout early (say `| head`): drop the rest quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:  # a report named by --out keeps what was written, as after a shell redirection
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPT


if __name__ == "__main__":
    sys.exit(main())
