"""Layer tracer for supercong scans, installed at interpreter start-up.

The benchmark puts this directory on PYTHONPATH of traced scans only, and sets
PERFBENCH_TRACE_DIR; without that variable importing this module does nothing.
The tracer wraps the public entry points of each supercong module at the names
their callers bind, times every call and counts work, all in memory.  Each
process writes its totals to PERFBENCH_TRACE_DIR/spans-<pid>.json: the scan's
main process when it exits, a pool worker after every task, because forked
workers leave through os._exit and skip atexit.

Spans nest: a span's self time is its duration minus that of the wrapped
calls made inside it, and a layer's busy time counts only its outermost spans.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import sys
import time
import weakref

_clock = time.perf_counter


class Tracer:
    """Span totals of one process."""

    def __init__(self, out_dir: str, role: str):
        self.out_dir = out_dir
        self.role = role
        self.calls: dict[str, int] = {}  # span -> calls, nested ones included
        self.outer_calls: dict[str, int] = {}  # span -> calls not inside the same span
        self.span_s: dict[str, float] = {}  # span -> time of its outermost calls
        self.self_s: dict[str, float] = {}  # span -> duration minus wrapped children
        self.layer_s: dict[str, float] = {}  # layer -> time of its outermost spans
        self.extra: dict[str, float] = {}  # named totals: builds, steps, pool, tail
        self.gamma_args: set = set()
        self.series_points: set = set()
        self.sweep_slots: list[list[int]] = []  # per evaluator: [largest argument]
        self.sweep = weakref.WeakKeyDictionary()  # evaluator -> its slot
        self.pool_closed = False
        self._stack: list[list] = []  # [span, layer, start, child time]
        self._depth: dict[str, int] = {}

    def add(self, name: str, value: float) -> None:
        self.extra[name] = self.extra.get(name, 0) + value

    def enter(self, span: str, layer: str) -> None:
        self._depth[span] = self._depth.get(span, 0) + 1
        self._depth[layer] = self._depth.get(layer, 0) + 1
        self._stack.append([span, layer, _clock(), 0.0])

    def leave(self) -> float:
        span, layer, start, child = self._stack.pop()
        duration = _clock() - start
        if self._stack:
            self._stack[-1][3] += duration
        self.calls[span] = self.calls.get(span, 0) + 1
        self.self_s[span] = self.self_s.get(span, 0.0) + duration - child
        self._depth[span] -= 1
        if not self._depth[span]:
            self.outer_calls[span] = self.outer_calls.get(span, 0) + 1
            self.span_s[span] = self.span_s.get(span, 0.0) + duration
        self._depth[layer] -= 1
        if not self._depth[layer]:
            self.layer_s[layer] = self.layer_s.get(layer, 0.0) + duration
        return duration

    def dump(self) -> None:
        data = {
            "role": self.role,
            "calls": self.calls,
            "outer_calls": self.outer_calls,
            "span_s": self.span_s,
            "self_s": self.self_s,
            "layer_s": self.layer_s,
            "extra": self.extra,
            "gamma_args": len(self.gamma_args),
            "series_points": len(self.series_points),
            "sweep_steps": sum(slot[0] for slot in self.sweep_slots),
        }
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        os.replace(path + ".tmp", path)


_tracer: Tracer | None = None


def _wrap(fn, span: str, layer: str, before=None, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer = _tracer
        if before is not None:
            _hook(before, tracer, *args, **kwargs)
        tracer.enter(span, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = tracer.leave()
        if after is not None:
            _hook(after, tracer, duration, *args, **kwargs)
        return result

    return traced


def _hook(hook, tracer, *args, **kwargs) -> None:
    # A hook that no longer fits the program's call costs a count, not the scan.
    try:
        hook(tracer, *args, **kwargs)
    except (TypeError, AttributeError, ValueError):
        tracer.add("hook_errors", 1)


def _patch(owner, name: str, span: str, layer: str, before=None, after=None) -> None:
    fn = getattr(owner, name, None)
    if fn is None:
        print(f"perfbench trace: {getattr(owner, '__name__', owner)}.{name} not found", file=sys.stderr)
        return
    setattr(owner, name, _wrap(fn, span, layer, before, after))


def _on_gamma_init(tracer, evaluator, ctx, *args, **kwargs):
    tracer.add("gamma_evaluators", 1)


def _on_gamma_at(tracer, evaluator, m, *args, **kwargs):
    ctx = evaluator.ctx
    tracer.gamma_args.add((ctx.p, ctx.k, m))
    slot = tracer.sweep.get(evaluator)
    if slot is None:
        slot = tracer.sweep[evaluator] = [0]
        tracer.sweep_slots.append(slot)
    slot[0] = max(slot[0], m)


def _on_series(tracer, a, ctx, *args, **kwargs):
    tracer.series_points.add((ctx.p, ctx.k, a))
    tracer.add("term_steps", ctx.p - 1)


def install(out_dir: str) -> None:
    """Wrap supercong's entry points in this process and register the dump."""
    global _tracer
    from supercong import cli, congruences, hyperseries, identities, padic_core, padic_gamma

    main_pid = os.environ.setdefault("PERFBENCH_TRACE_MAIN_PID", str(os.getpid()))
    role = "main" if main_pid == str(os.getpid()) else "worker"
    _tracer = Tracer(out_dir, role)

    # padic_core: reduce_rational wherever it is bound, and inverse-table builds.
    for module in (padic_core, hyperseries, padic_gamma):
        _patch(module, "reduce_rational", "reduce", "padic_core")
    table = getattr(hyperseries, "unit_inverse_table", None)
    if table is not None and hasattr(table, "cache_info"):
        misses = table.cache_info().misses

        def count_build(tracer, duration, *args, **kwargs):
            # A call that missed the program's own cache built a table.
            nonlocal misses
            if table.cache_info().misses != misses:
                misses = table.cache_info().misses
                tracer.add("inverse_tables", 1)
                tracer.add("inverse_table_s", duration)

        _patch(hyperseries, "unit_inverse_table", "inverse_table", "padic_core", after=count_build)

    # padic_gamma: evaluators and their calls, and G1 as congruences binds it.
    evaluator = getattr(congruences, "GammaEvaluator", None)
    if evaluator is not None:
        _patch(evaluator, "__init__", "gamma_init", "padic_gamma", before=_on_gamma_init)
        _patch(evaluator, "gamma_at", "gamma", "padic_gamma", before=_on_gamma_at)
        _patch(evaluator, "gamma_p", "gamma", "padic_gamma")
    _patch(congruences, "g1", "g1", "padic_gamma")

    # hyperseries: the two kernels as congruences binds them.
    _patch(congruences, "series_2f1_half", "series_2f1", "hyperseries", before=_on_series)
    _patch(congruences, "series_3f2_one", "series_3f2", "hyperseries", before=_on_series)

    # identities: the checkers as the CLI reaches them.
    checkers = getattr(identities, "_CHECKERS", {})
    for name in list(checkers):
        checkers[name] = _wrap(checkers[name], "identity_sum", "identities")
    _patch(identities, "check_recurrences", "recurrences", "identities")

    # congruences: statement checks and parameter sampling.
    _patch(congruences.StatementChecker, "check", "check", "congruences")
    _patch(cli, "default_parameters", "sampling", "congruences")

    # cli: stages, pool tasks, the pool itself, and identity work after it.
    _patch(cli, "collect_records", "collect", "cli")
    _patch(cli, "write_records", "write", "cli")
    _patch(cli, "summarize", "summary", "cli")

    def after_task(tracer, duration, *args, **kwargs):
        if tracer.role == "worker":
            tracer.add("worker_busy_s", duration)
            tracer.dump()

    _patch(cli, "_scan_prime", "scan_prime", "cli", after=after_task)

    def after_identities(tracer, duration, *args, **kwargs):
        if tracer.pool_closed:
            tracer.add("serial_tail_s", duration)

    _patch(cli, "_identity_records", "identity_records", "cli", after=after_identities)

    pool_class = getattr(cli, "ProcessPoolExecutor", None)
    if pool_class is not None:

        class TimedPool(pool_class):
            def __enter__(self):
                self._perfbench_start = _clock()
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    _tracer.add("pool_wait_s", _clock() - self._perfbench_start)
                    _tracer.pool_closed = True

        cli.ProcessPoolExecutor = TimedPool

    def become_worker():
        global _tracer
        _tracer = Tracer(out_dir, "worker")

    os.register_at_fork(after_in_child=become_worker)
    atexit.register(lambda: _tracer.dump())


if os.environ.get("PERFBENCH_TRACE_DIR"):
    install(os.environ["PERFBENCH_TRACE_DIR"])
