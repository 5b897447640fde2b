"""Span tracing of determ's layers from outside the package.

``Tracer.install()`` replaces the public entry points of each layer with
wrappers that record one span per call: name, start, end, parent span,
thread and op id, plus the time the call spent blocked and one small
count (cells shipped, states explored, ...). Nothing inside ``determ`` is
edited; ``uninstall()`` puts the originals back.

Blocking is measured where it happens: the registry's condition variable
and ``threading.Thread.join`` are swapped for timed versions, and the
blocked time goes to the innermost open span on that thread. A span's
busy self time is its duration minus its children's footprints minus its
own blocked time, so waiting in ``claim`` or ``join`` never shows as work.
"""
from __future__ import annotations

import itertools
import json
import threading
import time
from statistics import median
from typing import NamedTuple

from determ import oracle, script, store, sync
from determ import runtime as rt_mod

perf = time.perf_counter


def _len_writes(args, result, pre):
    return len(result.writes)


def _apply_pre(args):
    return dict(args[0].cells)


def _apply_info(args, result, before):
    """Cells whose stamp changed, and cells shipped."""
    ws, diff = args[0], args[1]
    cells = ws.cells
    adopted = 0
    for addr, cell in diff.writes.items():
        old = before.get(addr)
        if (old is None or old.stamp != cell.stamp) and cells[addr].stamp == cell.stamp:
            adopted += 1
    return adopted, len(diff.writes)


def _states(args, result, pre):
    return result.states


def _members(args, result, pre):
    return len(args[1])


def _task_tid(args, result, pre):
    return result.tid


def _handle_tid(args, result, pre):
    return args[1].tid


#: (owner, attribute, span name, pre hook, info hook) for every entry point.
ENTRY_POINTS = [
    (store.Workspace, "extract_diff", "store.extract_diff", None, _len_writes),
    (store.Workspace, "apply_diff", "store.apply_diff", _apply_pre, _apply_info),
    (sync.Endpoint, "release_set", "sync.release_set", None, None),
    (sync.Endpoint, "release_terminal", "sync.release_terminal", None, None),
    (sync.Endpoint, "acquire_set", "sync.acquire_set", None, None),
    (sync.ChannelRegistry, "deposit", "sync.deposit", None, None),
    (sync.ChannelRegistry, "claim", "sync.claim", None, None),
    (rt_mod.ThreadCtx, "fork", "runtime.fork", None, _members),
    (rt_mod.ThreadCtx, "join", "runtime.join", None, None),
    (rt_mod.ThreadCtx, "barrier", "runtime.barrier", None, None),
    (rt_mod.ThreadCtx, "spawn_task", "runtime.spawn_task", None, _task_tid),
    (rt_mod.ThreadCtx, "taskwait", "runtime.taskwait", None, _handle_tid),
    (oracle, "enumerate_dc", "oracle.enumerate_dc", None, _states),
    (oracle, "enumerate_sc", "oracle.enumerate_sc", None, _states),
    (oracle, "run_on_runtime", "oracle.run_on_runtime", None, None),
    (script, "parse_script", "script.parse_script", None, None),
]

class Span(NamedTuple):
    id: int
    name: str
    thread: int  # the tracer's own thread number, never reused
    op: int  # epoch the span belongs to; 0 for set-up and warm-up
    parent: int  # enclosing span on the same thread; 0 at top level
    start: float
    end: float
    busy: float  # self time not blocked: end - start - children - wait
    wait: float  # time blocked in a wait, outside any child span
    info: object  # the entry point's count, or None

    @property
    def dur(self) -> float:
        return self.end - self.start


class _Frame:
    __slots__ = ("id", "children", "wait")

    def __init__(self, span_id: int) -> None:
        self.id = span_id
        self.children = 0.0  # summed footprints of child spans
        self.wait = 0.0  # blocked time not inside any child span


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0  # set by the single main thread before each op
        self.threads_started = 0
        self._ids = itertools.count(1)
        self._thread_ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple] = []

    # -- per-thread span stack ---------------------------------------------

    def _stack(self) -> list[_Frame]:
        loc = self._local
        stack = getattr(loc, "stack", None)
        if stack is None:
            stack = loc.stack = []
            loc.tid = next(self._thread_ids)
        return stack

    def add_wait(self, seconds: float) -> None:
        stack = self._stack()
        if stack:
            stack[-1].wait += seconds

    def wrap(self, fn, name: str, pre=None, info=None):
        tracer = self

        def traced(*args, **kwargs):
            t_in = perf()
            before = pre(args) if pre is not None else None
            stack = tracer._stack()
            frame = _Frame(next(tracer._ids))
            parent = stack[-1].id if stack else 0
            stack.append(frame)
            t0 = perf()
            result = extra = None
            try:
                result = fn(*args, **kwargs)
                t1 = perf()
                if info is not None:
                    extra = info(args, result, before)
                return result
            except BaseException:
                t1 = perf()
                raise
            finally:
                stack.pop()
                busy = (t1 - t0) - frame.children - frame.wait
                tracer.spans.append(
                    Span(frame.id, name, tracer._local.tid, tracer.op, parent, t0, t1, busy, frame.wait, extra)
                )
                if stack:
                    stack[-1].children += perf() - t_in

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        tracer = self
        for owner, attr, name, pre, info in ENTRY_POINTS:
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self.wrap(orig, name, pre, info))

        class TimedCondition(threading.Condition):
            def wait(self, timeout=None):
                t = perf()
                try:
                    return super().wait(timeout)
                finally:
                    tracer.add_wait(perf() - t)

        reg_init = sync.ChannelRegistry.__init__

        def registry_init(reg) -> None:
            reg_init(reg)
            reg._cond = TimedCondition()

        thread_start = threading.Thread.start
        thread_join = threading.Thread.join

        def start(th) -> None:
            tracer.threads_started += 1
            thread_start(th)

        def join(th, timeout=None) -> None:
            t = perf()
            try:
                thread_join(th, timeout)
            finally:
                tracer.add_wait(perf() - t)

        for owner, attr, new in (
            (sync.ChannelRegistry, "__init__", registry_init),
            (threading.Thread, "start", start),
            (threading.Thread, "join", join),
        ):
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- output ----------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": Span._fields, "spans": self.spans}, fh)

    def lifetime_violations(self) -> int:
        """Threads whose spans' self times (busy plus blocked) sum to more
        than the thread's traced lifetime, first span start to last end."""
        per: dict[int, list[float]] = {}
        for s in self.spans:
            acc = per.setdefault(s.thread, [s.start, s.end, 0.0])
            acc[0], acc[1] = min(acc[0], s.start), max(acc[1], s.end)
            acc[2] += s.busy + s.wait
        # 1 us of slack for the clock reads between a span's edges.
        return sum(1 for lo, hi, total in per.values() if total > hi - lo + 1e-6)

    def busiest(self) -> list[tuple[str, float]]:
        """The three span names with the largest busy self time."""
        totals: dict[str, float] = {}
        for s in self.spans:
            totals[s.name] = totals.get(s.name, 0.0) + s.busy
        return sorted(totals.items(), key=lambda kv: -kv[1])[:3]

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics from the recorded spans; ``rounds`` is the
        number of barrier rounds (or check trials) the traced work ran."""
        by: dict[str, list[Span]] = {}
        for s in self.spans:
            by.setdefault(s.name, []).append(s)

        def spans(*names: str) -> list[Span]:
            return [s for name in names for s in by.get(name, ())]

        def p50_us(values) -> float:
            return median(values) * 1e6 if values else 0.0

        def dur(name: str) -> list[float]:
            return [s.dur for s in spans(name)]

        def total(name: str) -> int:
            return sum(s.info or 0 for s in spans(name))

        def us_per(name: str, count: int) -> float:
            return sum(dur(name)) * 1e6 / count if count else 0.0

        apply, extract = spans("store.apply_diff"), spans("store.extract_diff")
        shipped = sum(s.info[1] for s in apply if s.info)
        adopted = sum(s.info[0] for s in apply if s.info)
        releases = spans("sync.release_set", "sync.release_terminal")
        acquires, claims = spans("sync.acquire_set"), spans("sync.claim")
        barriers = spans("runtime.barrier")
        spawned = {s.info: s.dur for s in spans("runtime.spawn_task")}
        spawn_wait = [spawned[s.info] + s.dur for s in spans("runtime.taskwait") if s.info in spawned]
        dc_states, sc_states = total("oracle.enumerate_dc"), total("oracle.enumerate_sc")
        return {
            "store.apply_diff.calls": len(apply),
            "store.apply_diff.us.p50": p50_us(dur("store.apply_diff")),
            "store.apply_diff.cells": shipped,
            "store.apply_diff.adopted_ratio": adopted / shipped if shipped else 0.0,
            "store.extract_diff.calls": len(extract),
            "store.extract_diff.us.p50": p50_us(dur("store.extract_diff")),
            "store.extract_diff.cells": total("store.extract_diff"),
            "store.self_s": sum(s.busy for s in apply + extract),
            "sync.release.calls": len(releases),
            "sync.release.self_us.p50": p50_us([s.busy for s in releases]),
            "sync.acquire.calls": len(acquires),
            "sync.acquire.self_us.p50": p50_us([s.busy for s in acquires]),
            "sync.deposit.us.p50": p50_us(dur("sync.deposit")),
            "sync.claim.blocked_s": sum(s.wait for s in claims),
            "sync.claim.blocked_us.p50": p50_us([s.wait for s in claims]),
            "sync.events_per_round": (len(releases) + len(acquires)) / rounds,
            "runtime.barrier.calls": len(barriers),
            "runtime.barrier.us.p50": p50_us([s.dur for s in barriers]),
            "runtime.barrier.self_us.p50": p50_us([s.busy for s in barriers]),
            "runtime.fork.us_per_member": us_per("runtime.fork", total("runtime.fork")),
            "runtime.join.us.p50": p50_us(dur("runtime.join")),
            "runtime.spawn_wait.us.p50": p50_us(spawn_wait),
            "runtime.threads_started": self.threads_started,
            "oracle.enumerate_dc.states": dc_states,
            "oracle.enumerate_dc.us_per_state": us_per("oracle.enumerate_dc", dc_states),
            "oracle.enumerate_sc.states": sc_states,
            "oracle.enumerate_sc.us_per_state": us_per("oracle.enumerate_sc", sc_states),
            "oracle.run_on_runtime.ms.p50": p50_us(dur("oracle.run_on_runtime")) / 1e3,
            "script.parse_script.us.p50": p50_us(dur("script.parse_script")),
        }
