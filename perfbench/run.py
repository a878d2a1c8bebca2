"""Benchmark of supercong's CLI scans.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
src/ directory.  Every scan runs in a fresh interpreter, as the installed
`supercong` command does, so the program's per-process caches never carry
over between scans.  The seed goes to the CLI as --seed.

--trace 0 times set-up, then repeats the workload's scan for S seconds,
and prints the medians of the end-to-end metrics.  --trace 1 alternates
untraced and traced scans (hook/sitecustomize.py wraps each module's entry
points), runs the cold layer probes of probes.py, and prints the per-layer
metrics.  Either way every report is then checked against the reference
computations of oracles.py (see checks.py), outside the timed region.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A scan counts as failed when it exits with a
status other than 0 or its report fails a check; a failed check also makes
correct false.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

import checks
import oracles
import probes

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HOOK = Path(__file__).resolve().parent / "hook"
WORK = ROOT / ".perfbench-work"

#: Why each workload is here is in README.md.
WORKLOADS = {
    "theorem-scan": (
        ["--statements", "theorems", "--primes", "5..199", "--jobs", "1"],
        checks.Scan(tuple(oracles.THEOREMS), 5, 199),
    ),
    "conjecture-scan": (
        ["--statements", "conjectures", "--primes", "5..199", "--jobs", "1"],
        checks.Scan(tuple(oracles.CONJECTURES), 5, 199),
    ),
    "identity-sweep": (
        ["--statements", "identities", "--n-max", "200"],
        checks.Scan((), n_max=200),
    ),
    "catalog-parallel": (
        ["--statements", "all", "--primes", "5..97", "--jobs", "2", "--n-max", "100"],
        checks.Scan(tuple(oracles.CATALOG), 5, 97, n_max=100),
    ),
}

SCAN_ENTRY = "import sys; from supercong.cli import main; sys.exit(main())"
SETUP_ENTRY = (
    "import sys; from supercong.cli import build_parser, config_from_args; "
    "config_from_args(build_parser().parse_args(sys.argv[1:]))"
)
#: Fresh interpreters timed for setup_s; the median is reported.
SETUP_REPEATS = 7
#: A run stops starting work after this many seconds, so that it ends
#: within three minutes whatever the machine does.
BUDGET_S = 150.0


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mib: float
    status: int


def _environment(traced_dir: Path | None = None) -> dict:
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith(("SUPERCONG_", "PERFBENCH_")) and k != "PYTHONPATH"
    }
    env["PYTHONPATH"] = str(SRC)
    if traced_dir is not None:
        env["PYTHONPATH"] = f"{HOOK}{os.pathsep}{SRC}"
        env["PERFBENCH_TRACE_DIR"] = str(traced_dir)
    return env


def _kill_group(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pid, signal.SIGKILL)


def run_child(args: list[str], env: dict, deadline: float, stdout: Path | None = None) -> Child:
    """Run one fresh interpreter to its end; wall time from launch to exit,
    CPU time and peak RSS over it and every child it waited for.

    Linux counts the resident size this process has at the launch in the
    child's ru_maxrss, so nothing large is loaded here before the scans.
    """
    with open(stdout or os.devnull, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
            stdout=out, start_new_session=True,
        )
        timer = threading.Timer(max(0.0, deadline - start), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode)


class Run:
    """One benchmark run: its scans, their reports, and the checks on them."""

    def __init__(self, workload: str, seed: int, seconds: float, work: Path):
        argv, scan = WORKLOADS[workload]
        self.workload = workload
        self.argv = argv + ["--seed", str(seed)]
        self.scan = replace(scan, seed=seed)
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.deadline = time.perf_counter() + BUDGET_S
        self.reports: list[tuple[Child, Path]] = []
        self.errors: list[str] = []  # check mismatches; they make the run incorrect

    def scan_once(self, traced: bool = False) -> Child:
        n = len(self.reports)
        out = self.work / f"report-{n}.jsonl"
        trace_dir = self.work / f"trace-{n}" if traced else None
        if trace_dir is not None:
            trace_dir.mkdir()
        child = run_child(
            ["-c", SCAN_ENTRY, *self.argv, "--out", str(out)], _environment(trace_dir), self.deadline
        )
        self.reports.append((child, out))
        print(f"{self.workload} scan {n}{' traced' if traced else ''}: {child.wall:.3f} s wall, "
              f"{child.cpu:.3f} s cpu, {child.rss_mib:.1f} MiB, exit {child.status}", file=sys.stderr)
        return child

    def repeat(self, round_) -> list:
        """Run whole rounds until the next one would pass the run length."""
        results, longest = [], 0.0
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            results.append(round_())
            longest = max(longest, time.perf_counter() - t)
            now = time.perf_counter()
            if now - start + longest > self.seconds or now + longest > self.deadline:
                return results

    def verify(self) -> int:
        """Check every report and return the number of failed scans.

        A report made with --jobs N > 1 must also equal, byte for byte, one
        the benchmark makes with --jobs 1.
        """
        failed = 0
        found: dict[str, list[str]] = {}  # report text -> its mismatches
        first = None
        for child, path in self.reports:
            if child.status != 0:
                print(f"{self.workload}: {path.name}: exit status {child.status}", file=sys.stderr)
                failed += 1
                continue
            text = path.read_text(encoding="utf-8")
            if text not in found:
                found[text] = [f"{path.name}: {e}" for e in checks.check_report(text, self.scan)]
                if first is not None:
                    found[text].append(f"{path.name}: differs from {first.name}")
                self.errors += found[text]
            first = first or path
            failed += bool(found[text])
        jobs = self.argv.index("--jobs") + 1 if "--jobs" in self.argv else None
        if first is not None and jobs is not None and self.argv[jobs] != "1":
            serial = self.work / "report-jobs1.jsonl"
            argv = self.argv[:jobs] + ["1"] + self.argv[jobs + 1 :]
            child = run_child(["-c", SCAN_ENTRY, *argv, "--out", str(serial)], _environment(), self.deadline)
            if child.status != 0 or serial.read_bytes() != first.read_bytes():
                self.errors.append(f"report differs from the --jobs 1 report (exit {child.status})")
                failed = len(self.reports)
        return failed


def end_to_end(run: Run) -> dict:
    setup_argv = ["-c", SETUP_ENTRY, *run.argv, "--out", str(run.work / "unused.jsonl")]
    setups = [run_child(setup_argv, _environment(), run.deadline) for _ in range(SETUP_REPEATS)]
    if any(c.status for c in setups):
        raise SystemExit(f"perfbench: set-up exited with {[c.status for c in setups]}")
    scans = run.repeat(run.scan_once)
    return {
        "scan_s": (statistics.median(c.wall for c in scans), "s"),
        "cpu_s": (statistics.median(c.cpu for c in scans), "s"),
        "peak_rss_mib": (statistics.median(c.rss_mib for c in scans), "MiB"),
        "setup_s": (statistics.median(c.wall for c in setups), "s"),
    }


COUNT_METRICS = (
    "padic_core.inverse_tables", "padic_core.reduce_calls", "padic_gamma.evaluators",
    "padic_gamma.calls", "padic_gamma.distinct_args", "padic_gamma.sweep_steps",
    "hyperseries.calls_2f1", "hyperseries.calls_3f2", "hyperseries.distinct_points",
    "hyperseries.term_steps", "identities.checks", "congruences.checks",
)


def layer_metrics(trace_dir: Path) -> dict:
    """Per-layer totals of one traced scan, summed over its processes.

    Distinct counts are summed per process: each prime is scanned whole by
    one process, so no (p, k, argument) is seen by two of them.
    """
    procs = [json.loads(p.read_text()) for p in sorted(trace_dir.glob("spans-*.json"))]
    if any(p["extra"].get("hook_errors") for p in procs):
        print(f"perfbench: some trace hooks failed in {trace_dir.name}; counts are partial", file=sys.stderr)

    def total(section: str, key: str):
        return sum(p[section].get(key, 0) for p in procs)

    workers = [p["extra"].get("worker_busy_s", 0.0) for p in procs if p["role"] == "worker"]
    series_calls = total("calls", "series_2f1") + total("calls", "series_3f2")
    points = sum(p["series_points"] for p in procs)
    return {
        "padic_core.inverse_tables": total("extra", "inverse_tables"),
        "padic_core.inverse_table_s": total("extra", "inverse_table_s"),
        "padic_core.reduce_calls": total("calls", "reduce"),
        "padic_core.reduce_s": total("span_s", "reduce"),
        "padic_gamma.evaluators": total("extra", "gamma_evaluators"),
        "padic_gamma.calls": total("outer_calls", "gamma"),
        "padic_gamma.distinct_args": sum(p["gamma_args"] for p in procs),
        "padic_gamma.sweep_steps": sum(p["sweep_steps"] for p in procs),
        "padic_gamma.busy_s": total("layer_s", "padic_gamma"),
        "padic_gamma.g1_s": total("span_s", "g1"),
        "hyperseries.calls_2f1": total("calls", "series_2f1"),
        "hyperseries.calls_3f2": total("calls", "series_3f2"),
        "hyperseries.distinct_points": points,
        "hyperseries.reuse_ratio": points / series_calls if series_calls else 0.0,
        "hyperseries.term_steps": total("extra", "term_steps"),
        "hyperseries.busy_s": total("layer_s", "hyperseries"),
        "identities.checks": total("calls", "identity_sum") + total("calls", "recurrences"),
        "identities.sums_s": total("span_s", "identity_sum"),
        "identities.recurrences_s": total("span_s", "recurrences"),
        "congruences.checks": total("calls", "check"),
        "congruences.self_s": total("self_s", "check"),
        "congruences.sampling_s": total("span_s", "sampling"),
        "cli.collect_s": total("span_s", "collect"),
        "cli.write_s": total("span_s", "write"),
        "cli.summary_s": total("span_s", "summary"),
        "cli.pool_wait_s": total("extra", "pool_wait_s"),
        "cli.worker_busy_max_s": max(workers, default=0.0),
        "cli.worker_busy_min_s": min(workers, default=0.0),
        "cli.serial_tail_s": total("extra", "serial_tail_s"),
    }


def _unit(name: str) -> str:
    if name in COUNT_METRICS:
        return "count"
    return "ratio" if name.endswith("_ratio") else "s"


def per_layer(run: Run) -> dict:
    pairs = run.repeat(lambda: (run.scan_once(), run.scan_once(traced=True)))
    traced = [layer_metrics(run.work / f"trace-{2 * i + 1}") for i in range(len(pairs))]
    for other in traced[1:]:
        changed = [m for m in COUNT_METRICS if other[m] != traced[0][m]]
        if changed:
            run.errors.append(f"layer counts differ between traced scans: {changed}")
    # Counts repeat exactly (checked above); times are medians.
    metrics = {
        name: (statistics.median(t[name] for t in traced) if _unit(name) == "s" else value, _unit(name))
        for name, value in traced[0].items()
    }
    overhead = statistics.median(t.wall for _, t in pairs) - statistics.median(u.wall for u, _ in pairs)
    metrics["trace.overhead_s"] = (overhead, "s")
    for name in probes.PROBES:
        out = run.work / "probe.txt"
        child = run_child([str(Path(probes.__file__)), name, str(run.seed)], _environment(), run.deadline, out)
        # A probe is a timing, not a check: one the program no longer supports reads 0.
        if child.status != 0:
            print(f"perfbench: probe {name} exited with {child.status}", file=sys.stderr)
        metrics[name] = (float(out.read_text()) if child.status == 0 else 0.0, "s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "supercong" / "cli.py").is_file():
        print(f"perfbench: no supercong source at {SRC}", file=sys.stderr)
        return 2
    work = WORK / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(args.workload, args.seed, args.seconds, work)
        metrics = per_layer(run) if args.trace else end_to_end(run)
        failed = run.verify()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    for error in run.errors:
        print(f"{args.workload}: {error}", file=sys.stderr)
    result = {
        "correct": not run.errors,
        "attempted": len(run.reports),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
