"""Batch driver: configuration, parallel prime scan, report emission.

The report holds one record per (statement, prime, parameter), in that
order, as JSON lines (canonical) or CSV.  Each (statement, prime) run of
records is rendered to report text where it is computed, in a pool worker
under --jobs N, and only these blocks are sorted and written.  Identical
configuration, including the seed, produces byte-identical reports
regardless of the worker count.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from collections import namedtuple
from fractions import Fraction

from .congruences import (
    CONJECTURE,
    FAIL,
    PASS,
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


def __getattr__(name: str):
    # ProcessPoolExecutor loads multiprocessing, pickle and socket: it is
    # imported on first read, which only a scan with --jobs N > 1 makes.
    # Stored as a module global, it can then be read and patched as before.
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


class ScanConfig(
    namedtuple("ScanConfig", "lo hi statements run_identities seed jobs out fmt strict n_max power file_params")
):
    """One scan's settings, checked when it is built: a bad value raises
    ConfigError.  Configurations compare by value."""

    __slots__ = ()

    def __new__(cls, lo: int, hi: int, statements: list[str], run_identities: bool, seed: int = 0, jobs: int = 1,
                out: str = "-", fmt: str = "jsonl", strict: bool = False, n_max: int = 100,
                power: int | None = None, file_params: list[Fraction] | None = None):
        if lo > hi:
            raise ConfigError(f"empty prime range {lo}..{hi}")
        if jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if fmt not in ("jsonl", "csv"):
            raise ConfigError(f"unknown format {fmt!r}")
        if power not in (None, 1, 2, 3):
            raise ConfigError(f"power must be 1, 2 or 3, got {power}")
        statements = list(dict.fromkeys(statements))  # one record per (statement, p, a)
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
        return super().__new__(
            cls, lo, hi, statements, run_identities, seed, jobs, out, fmt, strict, n_max, power, file_params
        )


def parse_params(path: str) -> list[Fraction]:
    """Read one fraction per line (num/den or int); '#' comments and blank
    lines are ignored.  Malformed lines are reported with their number."""
    try:
        with open(path, encoding="utf-8-sig") as handle:  # a byte-order mark is not a parameter
            lines = handle.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    params = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip().replace("−", "-")
        if not text:
            continue
        try:
            f = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad parameter {text!r}: {exc}") from None
        params.append(f)
    return params


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


def _render(records: list[ReportRecord], fmt: str) -> tuple[tuple[str, int], str, dict[str, int]]:
    """One block of the report from a run of records that share statement, p
    and k, in report order: its sort key (statement, p, with 0 for no p), its
    report text and its verdict counts.  Each JSONL line is byte-equal to
    json.dumps(record.to_dict()); statement, p and k are rendered once."""
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
        for r in records:
            counts[r.verdict] += 1
            end = ends.get((r.verdict, r.skip_reason))
            if end is None:
                end = ends[r.verdict, r.skip_reason] = (
                    f'"verdict": {json.dumps(r.verdict)}, "skip_reason": {_json(r.skip_reason)}}}\n'
                )
            a_num, a_den = ("null", "null") if r.a is None else (r.a.numerator, r.a.denominator)
            lines.append(
                f'{head}"a_num": {a_num}, "a_den": {a_den}, "lhs": {_json(r.lhs)}, "rhs": {_json(r.rhs)}, {end}'
            )
        text = "".join(lines)
    return (first.statement, first.p or 0), text, counts


def _scan_prime(task: tuple) -> list[tuple]:
    """The report blocks of one prime, one per statement: plain strings and
    dicts, so that a pool worker ships no record and no Fraction."""
    p, stmt_ids, file_params, seed, power, fmt = task
    checker = StatementChecker(p)
    params = None
    blocks = []
    for stmt_id in stmt_ids:
        if STATEMENTS[stmt_id].takes_param:
            if params is None:  # ascending: each (statement, p) run of records is in report order
                params = sorted(file_params if file_params is not None else default_parameters(p, seed))
            run = [checker.check(stmt_id, a, power=power) for a in params]
        else:
            run = [checker.check(stmt_id, power=power)]
        blocks.append(_render(run, fmt))
    return blocks


def _identity_records(n_max: int, fmt: str) -> list[tuple]:
    """The report blocks of the identity sweep: one per identity, then RECURRENCES."""
    from . import identities  # loaded only by a scan that runs the sweep

    blocks = []
    evens = range(0, n_max + 1, 2)
    for ident, ns in (
        ("B8", evens),
        ("B9", evens),
        ("B17", evens),
        ("B18", evens),
        ("GAUSS_HALF", evens),
        ("CLAUSEN", range(n_max + 1)),
    ):
        run = []
        for n in ns:
            chk = identities._CHECKERS[ident](n)
            run.append(
                ReportRecord(
                    ident, None, None, Fraction(n), str(chk.lhs), str(chk.rhs),
                    PASS if chk.ok else FAIL,
                )
            )
        blocks.append(_render(run, fmt))
    rec_report = identities.check_recurrences(n_max)
    failure = rec_report.first_failure
    lhs = "0" if failure is None else f"{failure.identity}[{failure.n}]={failure.lhs}"
    record = ReportRecord("RECURRENCES", None, None, Fraction(n_max), lhs, "0", PASS if rec_report.passed else FAIL)
    blocks.append(_render([record], fmt))
    return blocks


def collect_records(config: ScanConfig) -> list[tuple]:
    """The report's blocks in report order: by statement, then prime."""
    blocks: list[tuple] = []
    if config.statements:
        primes = sieve_primes(config.lo, config.hi)
        tasks = [  # largest, that is costliest, primes first
            (p, tuple(config.statements), config.file_params, config.seed, config.power, config.fmt)
            for p in reversed(primes)
        ]
        if config.jobs > 1 and len(tasks) > 1:
            import signal

            # Under fork the pool starts every worker up front: no more than there are tasks.  Workers ignore
            # the Ctrl-C a terminal sends them too: a worker stopped mid-task can hang the pool's shutdown.
            pool_class = globals().get("ProcessPoolExecutor") or __getattr__("ProcessPoolExecutor")
            with pool_class(max_workers=min(config.jobs, len(tasks)), initializer=signal.signal,
                            initargs=(signal.SIGINT, signal.SIG_IGN)) as pool:
                for batch in pool.map(_scan_prime, tasks):
                    blocks.extend(batch)
        else:
            for task in tasks:
                blocks.extend(_scan_prime(task))
    if config.run_identities:
        blocks.extend(_identity_records(config.n_max, config.fmt))
    blocks.sort(key=lambda block: block[0])  # each (statement, p) key once
    return blocks


def write_records(blocks: list[tuple], fmt: str, stream) -> None:
    # Write block by block: with the whole report in one write, a reader that
    # closed the pipe early went unnoticed and the scan exited 0.
    if fmt == "csv":
        stream.write("statement,p,k,a_num,a_den,lhs,rhs,verdict,skip_reason\n")
    for _, text, _ in blocks:
        stream.write(text)


def summarize(blocks: list[tuple]) -> str:
    counts: dict[str, dict[str, int]] = {}
    for (statement, _), _, block_counts in blocks:
        slot = counts.setdefault(statement, {PASS: 0, FAIL: 0, SKIPPED: 0})
        for verdict, n in block_counts.items():
            slot[verdict] += n
    lines = [f"{'statement':<12} {'PASS':>7} {'FAIL':>7} {'SKIPPED':>8}"]
    total = {PASS: 0, FAIL: 0, SKIPPED: 0}
    for name in sorted(counts):
        slot = counts[name]
        lines.append(f"{name:<12} {slot[PASS]:>7} {slot[FAIL]:>7} {slot[SKIPPED]:>8}")
        for key in total:
            total[key] += slot[key]
    lines.append(f"{'total':<12} {total[PASS]:>7} {total[FAIL]:>7} {total[SKIPPED]:>8}")
    return "\n".join(lines)


def _exit_code(blocks: list[tuple], strict: bool) -> int:
    for (statement, _), _, counts in blocks:
        stmt = STATEMENTS.get(statement)  # None for the identity sweep
        if counts[FAIL] and (strict or stmt is None or stmt.kind != CONJECTURE):
            return EXIT_FAIL
    return EXIT_OK


def run_scan(config: ScanConfig) -> int:
    """Execute the configured checks, write the report, print the summary."""
    if config.out == "-":
        blocks = collect_records(config)
        write_records(blocks, config.fmt, sys.stdout)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        print(summarize(blocks), file=sys.stderr)
    else:
        # opened before the scan, as a shell redirection is: a path that
        # cannot be written fails at once, not after the whole scan
        with open(config.out, "w", encoding="utf-8", newline="") as handle:
            blocks = collect_records(config)
            write_records(blocks, config.fmt, handle)
        print(summarize(blocks))
        n_records = sum(sum(counts.values()) for _, _, counts in blocks)
        print(f"report: {config.out} ({n_records} records)")
    return _exit_code(blocks, config.strict)


def _env_default(name: str, fallback):
    return os.environ.get(ENV_PREFIX + name, fallback)


def _env_int(name: str, fallback: int | None, choices: tuple[int, ...] | None = None) -> int | None:
    """An integer default from SUPERCONG_<name>, held to the flag's own checks."""
    text = os.environ.get(ENV_PREFIX + name)
    if text is None:
        return fallback
    try:
        value = int(text)
    except ValueError:
        raise ConfigError(f"{ENV_PREFIX}{name}={text!r} is not an integer") from None
    if choices is not None and value not in choices:
        raise ConfigError(f"{ENV_PREFIX}{name}={value} is not one of {', '.join(map(str, choices))}")
    return value


def _env_flag(name: str) -> bool:
    """A boolean default from SUPERCONG_<name>: 1/true/yes or 0/false/no/empty, in any case."""
    text = os.environ.get(ENV_PREFIX + name, "")
    if text.lower() in ("1", "true", "yes"):
        return True
    if text.lower() in ("0", "false", "no", ""):
        return False
    raise ConfigError(f"{ENV_PREFIX}{name}={text!r} is not 1/true/yes or 0/false/no")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        # main prints one line and exits 2, not argparse's usage text and SystemExit
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="supercong",
        description="Verify truncated hypergeometric congruences and the exact "
        "identities behind them.  Flags can be preset via SUPERCONG_* "
        "environment variables (e.g. SUPERCONG_SEED).",
    )
    parser.add_argument("--primes", default=_env_default("PRIMES", "5..97"),
                        help="prime range LO..HI (default %(default)s)")
    parser.add_argument("--power", type=int, choices=(1, 2, 3),
                        default=_env_int("POWER", None, (1, 2, 3)),
                        help="override the comparison modulus power (exploratory)")
    parser.add_argument("--statements", default=_env_default("STATEMENTS", "theorems"),
                        help="comma list of statement ids, or all/theorems/conjectures/identities")
    parser.add_argument("--params", default=_env_default("PARAMS", None),
                        help="file with one parameter per line (num/den or int)")
    parser.add_argument("--seed", type=int, default=_env_int("SEED", 0),
                        help="seed of the fraction sampler (default %(default)s)")
    parser.add_argument("--jobs", type=int, default=_env_int("JOBS", 1),
                        help="worker processes, partitioned by prime")
    parser.add_argument("--out", default=_env_default("OUT", "-"),
                        help="report path, '-' for stdout (default)")
    parser.add_argument("--format", dest="fmt", choices=("jsonl", "csv"),
                        default=_env_default("FORMAT", "jsonl"))
    parser.add_argument("--strict", action="store_true", default=_env_flag("STRICT"),
                        help="conjecture failures also flip the exit status")
    parser.add_argument("--n-max", type=int, default=_env_int("N_MAX", 100),
                        help="sweep bound for identity checks (default %(default)s)")
    return parser


def config_from_args(args: argparse.Namespace) -> ScanConfig:
    text = args.primes.replace(" ", "")
    if ".." not in text:
        raise ConfigError(f"bad prime range {args.primes!r}, expected LO..HI")
    lo_text, hi_text = text.split("..", 1)
    try:
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise ConfigError(f"bad prime range {args.primes!r}, expected LO..HI") from None
    statements, run_identities = resolve_statements(args.statements)
    file_params = None
    if args.params:
        # keep each (statement, p, a) triple unique even if the file repeats values
        file_params = list(dict.fromkeys(parse_params(args.params)))
    return ScanConfig(
        lo=lo,
        hi=hi,
        statements=statements,
        run_identities=run_identities,
        seed=args.seed,
        jobs=args.jobs,
        out=args.out,
        fmt=args.fmt,
        strict=args.strict,
        n_max=args.n_max,
        power=args.power,
        file_params=file_params,
    )


def main(argv: list[str] | None = None) -> int:
    # Identity sides outgrow the 4,300-digit int str() limit of Python 3.10.7+ (B9 near n = 7,150).
    # Lifted only after the --params parse, which keeps it as a guard on outside input, and put back on return.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    set_digit_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    try:
        config = config_from_args(build_parser().parse_args(argv))
        set_digit_limit(0)
        return run_scan(config)
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
    finally:
        set_digit_limit(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
