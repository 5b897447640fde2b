"""High-level deterministic constructs over workspaces and channels.

Every construct here is sugar for release/acquire patterns:

* fork/join and tasks: team members and tasks are born and awaited
  alike. ``ThreadCtx._start`` releases the parent's state to the
  children's birth acquires in one release set, so a task's snapshot is
  isolated at spawn time; each child dies with a terminal release (a
  task's carries its result), which ``ThreadCtx._await`` claims in one
  acquire set. A doomed waiter waits for the children to unwind, then
  raises the most specific non-deadlock error they recorded (by
  ``_ERROR_ORDER``, then rank), else its own ``DeadlockError``.
* barrier: physically a combining tree over ranks (two phases, up then
  down) whose final member states are byte-identical to the logical
  everyone-releases-to-everyone form; the pairwise form stays available
  as ``algorithm="pairwise"`` so the two can be checked against each
  other. Rank 0 folds reductions once it holds every member's raw
  accumulator, just before its first release after an acquire.
* ordered regions: a chain of handoff channels through iteration space,
  so section i runs only after section i-1 released.
* reductions: thread-private accumulator cells that rank 0 of a barrier,
  or the joining parent, reads raw and folds through ``_fold_partials``
  over a fixed binary tree of ranks; the fold absorbs the reduction
  variable's current value as its leftmost operand and the folder writes
  the result back, so fold points compound. The variable is read-only in
  the team and in every thread its members start: ``ThreadCtx.write``
  rejects it there, and ``fork`` refuses to reduce it again in a nested
  team, so only folds write it.

Every collective is a template of release-set and acquire-set steps,
fixed by the team size (and an ordered region's schedule), whose labels
are offsets from their members' label counters. Threads never read each
other's counters: ``ThreadCtx._plan`` labels the calling rank's steps
from a per-member model of every member's counter, advanced identically
on all members because collectives are executed in the same order by
all of them (SPMD discipline), and ``ThreadCtx._take`` runs them. Sync
operations outside collectives must be performed uniformly by all
members, otherwise the mismatch surfaces as a deterministic ConfigError
or deadlock, never as a silent wrong answer.

Ids follow the program, not the schedule: the k-th child, member or
task, that thread t starts gets ``t * 2**32 + k``, so the root's
children are 1, 2, 3, ... whichever of two spawning members runs first.

A logical thread's results do not depend on the OS thread that runs
it, and this module alone decides which one does; the registry only
lends. A member or task is launched on a parked daemon OS thread,
shared by every ``Runtime`` in the process: a launch queues it for the
idle workers and starts a new one only when none is idle. Launches are
lazy where a wait can take their place. A task is held unlaunched by
its spawner, and ``fork_join`` holds its last member; a held child goes
to a worker at its spawner's next operation, data op or sync event, or
when the spawner's body ends or the root calls ``finish``, unless that
operation is the ``_await`` that names it: then the waiter, which
cannot go on before the child ends, posts its claim and runs the child
on its own OS thread if its stack is shallow (``_LEND_STACK_SHARE``).
So a task overlaps nothing its spawner does outside determ between the
spawn and its next operation. A ``Runtime`` tracks logical threads
only, through its registry: a thread is live from its launch or hold
until it is done, and ``finish`` returns once every thread started on
it is done.
"""
from __future__ import annotations

import functools
import math
import operator
import os
import queue
import random
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .errors import ConfigError, DeadlockError, UnallocatedError
from .store import Address, Record, Workspace, global_addresses
from .sync import TERMINAL_SEQ, ChannelRegistry, Endpoint, SyncLabel, trace_lines

_JOIN_TIMEOUT = 60.0

_label = tuple.__new__  # builds a SyncLabel in C, skipping its Python-level __new__

# Ids per parent: the k-th child of thread t is t * _CHILDREN + k.
_CHILDREN = 2**32

# A thread lends its OS thread only while its stack holds at most this
# share of the recursion limit (62 frames of the default 1000). A child
# run inline starts on top of its lender's stack, so at any nesting depth
# it has at most about that many frames fewer to recurse in than on a worker.
_LEND_STACK_SHARE = 16

# Error precedence when several threads of a team failed: report the most
# specific cause, then the lowest rank. Deadlocks are usually collateral.
_ERROR_ORDER = {"DataRaceError": 0, "PairingError": 1, "ConfigError": 2}


@dataclass(frozen=True)
class Reduction:
    """Declares that ``var`` collects contributions under ``combine``.

    ``combine`` must be associative (commutativity is not required); the
    fold shape is a fixed balanced tree over ranks, which for associative
    operators equals the sequential left fold in rank order, seeded with
    the variable's current value. ``identity`` initializes each member's
    private accumulator, so members that contribute nothing drop out.
    """

    var: str
    identity: Any
    combine: Callable[[Any, Any], Any]


@dataclass(frozen=True)
class Team:
    members: tuple[int, ...]
    parent: int
    reductions: tuple[Reduction, ...] = ()

    @property
    def size(self) -> int:
        return len(self.members)

    @functools.cached_property
    def _accumulators(self) -> dict[str, tuple[Reduction, tuple[Address, ...]]]:
        """Per reduction variable, its declaration and each rank's accumulator."""
        return {
            spec.var: (spec, tuple(Address(t, idx) for t in self.members))
            for idx, spec in enumerate(self.reductions, 1)
        }


@dataclass(frozen=True)
class TaskHandle:
    """Names one spawned task; must be waited exactly once."""

    tid: int
    completion: SyncLabel
    result: Address


@dataclass(frozen=True)
class StaticSchedule:
    """Static block-cyclic iteration schedule; the only kind supported.

    ``chunk=None`` means one contiguous block per thread. Ownership is a
    pure function of (iteration, team size), so every member derives the
    same map without communicating.
    """

    iterations: int
    chunk: int | None = None

    def __post_init__(self) -> None:
        try:  # any integer type, held as a plain int
            iterations = operator.index(self.iterations)
            chunk = None if self.chunk is None else operator.index(self.chunk)
        except TypeError:
            iterations = chunk = -1
        if iterations < 0 or (chunk is not None and chunk < 1):
            raise ConfigError(f"{self} needs integer iterations >= 0 and chunk >= 1 or None")
        object.__setattr__(self, "iterations", iterations)
        object.__setattr__(self, "chunk", chunk)

    def chunk_size(self, nthreads: int) -> int:
        return self.chunk or max(1, math.ceil(self.iterations / nthreads))

    def owner(self, i: int, nthreads: int) -> int:
        return (i // self.chunk_size(nthreads)) % nthreads

    def owned(self, rank: int, nthreads: int) -> list[int]:
        c = self.chunk_size(nthreads)
        return [i for i in range(self.iterations) if (i // c) % nthreads == rank]


# ----------------------------------------------------------------------
# label planning
# ----------------------------------------------------------------------


# One planned sync event, a release set or an acquire set: ("rel" | "acq",
# the seq it must carry, its partners). Plain, as each round builds its own.
_Step = tuple[str, int, tuple[SyncLabel, ...]]


# Every collective is a template: per rank, its steps as (kind, seq
# offset, ((partner rank, partner's seq offset), ...)), plus the count of
# labels each rank consumes. Offsets count from the rank's counter on
# entry; ``ThreadCtx._plan`` turns one rank's steps into labels.
_Template = tuple[tuple[tuple, ...], tuple[int, ...]]


def _chain(n: int, links: Iterable[tuple[int, int]]) -> _Template:
    """The template of ``links``, (releasing rank, acquiring rank) pairs
    in order: each end of a link takes its rank's next label."""
    steps: list[list] = [[] for _ in range(n)]
    used = [0] * n
    for rel, acq in links:
        used[rel] += 1
        used[acq] += 1
        steps[rel].append(("rel", used[rel], ((acq, used[acq]),)))
        steps[acq].append(("acq", used[acq], ((rel, used[rel]),)))
    return tuple(map(tuple, steps)), tuple(used)


@functools.lru_cache(maxsize=None)
def _tree_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Binomial merge pairs (low rank, high rank), level by level."""
    pairs: list[tuple[int, int]] = []
    half = 1
    while half < n:
        pairs += [(lo, lo + half) for lo in range(0, n - half, 2 * half)]
        half *= 2
    return tuple(pairs)


@functools.lru_cache(maxsize=None)
def _tree_template(n: int) -> _Template:
    """One combining-tree round: up the merge pairs, high rank to low,
    then back down in reverse."""
    pairs = _tree_pairs(n)
    return _chain(n, [(hi, lo) for lo, hi in pairs] + [(lo, hi) for lo, hi in reversed(pairs)])


@functools.lru_cache(maxsize=None)
def _pairwise_template(n: int, rounds: int) -> _Template:
    """The quadratic reference form, ``rounds`` times: each member
    releases to every other member, then acquires from every other
    member. A team of one has no partners, so no steps."""
    if n == 1:
        return ((),), (0,)
    steps = []
    for r in range(n):
        others = [p for p in range(n) if p != r]
        mine = []
        for k in range(1, 2 * rounds, 2):
            mine.append(("rel", k, tuple((p, k + 1) for p in others)))
            mine.append(("acq", k + 1, tuple((p, k) for p in others)))
        steps.append(tuple(mine))
    return tuple(steps), (2 * rounds,) * n


def _ordered_template(schedule: "StaticSchedule", n: int) -> _Template:
    """The handoffs of an ordered region: owner(i-1) releases on leaving
    i-1 and owner(i) acquires on entering i. Equal owners need none, as
    program order already serializes them."""
    owners = [schedule.owner(i, n) for i in range(schedule.iterations)]
    return _chain(n, [(a, b) for a, b in zip(owners, owners[1:]) if a != b])


def check_delay(delay: float) -> None:
    if not 0 <= delay < math.inf:  # also false for nan
        raise ConfigError(f"delay must be finite and non-negative, got {delay!r}")


def perturb_hook(
    seed: int | None, tid: int, delay: float
) -> Callable[[], None] | None:
    """The seeded schedule perturbation of one thread, or None when off.

    Each call sleeps a pseudo-random fraction of ``delay`` drawn from a
    stream that depends only on (seed, tid), so one seed replays the same
    delays on every run.
    """
    if seed is None or delay <= 0:
        return None
    rng = random.Random(seed * 1_000_003 + tid * 7919 + 17)

    def hook() -> None:
        time.sleep(rng.random() * delay)

    return hook


def _shallow() -> bool:
    """Whether the calling thread's stack is shallow enough to lend its
    OS thread: at most 1/``_LEND_STACK_SHARE`` of the recursion limit."""
    try:
        sys._getframe(sys.getrecursionlimit() // _LEND_STACK_SHARE)
    except ValueError:
        return True
    return False


def tree_fold(values: Sequence[Any], combine: Callable[[Any, Any], Any]) -> Any:
    """Fold over the merge pairs of the combining tree, so the fold has
    the same shape as the tree barrier."""
    vals = list(values)
    if not vals:
        raise ConfigError("nothing to fold")
    for lo, hi in _tree_pairs(len(vals)):
        vals[lo] = combine(vals[lo], vals[hi])
    return vals[0]


class OrderedRegion:
    """Cross-thread ordering of iteration bodies inside a parallel loop.

    Creation is collective: every member labels the same chain of handoff
    channels from the schedule and keeps its own handoffs, which it runs
    as it enters and leaves its sections. Skipping an owned section
    leaves its successor's channel forever empty. If the rank enters no
    later section, the deadlock detector reports that; if it does, its
    next handoff is out of step with the plan, a drift ConfigError.
    """

    def __init__(self, ctx: "ThreadCtx", schedule: StaticSchedule) -> None:
        team = ctx._require_team()
        self._ctx = ctx
        self._schedule = schedule
        self._n = schedule.iterations
        self._owner = {i: schedule.owner(i, team.size) for i in range(self._n)}
        # This rank's steps, in iteration order: an entry acquire where a
        # section's predecessor has another owner, an exit release where
        # its successor has.
        steps = iter(ctx._plan(_ordered_template(schedule, team.size)))
        self._entry: dict[int, _Step] = {}
        self._exit: dict[int, _Step] = {}
        for i in schedule.owned(ctx.rank, team.size):
            if i > 0 and self._owner[i - 1] != ctx.rank:
                self._entry[i] = next(steps)
            if i + 1 < self._n and self._owner[i + 1] != ctx.rank:
                self._exit[i] = next(steps)
        self._last_done: int | None = None

    def my_iterations(self) -> list[int]:
        ctx = self._ctx
        return self._schedule.owned(ctx.rank, ctx.team.size)

    @contextmanager
    def section(self, i: int) -> Iterator[None]:
        ctx = self._ctx
        if not 0 <= i < self._n:
            raise ConfigError(f"iteration {i} outside schedule")
        if self._owner[i] != ctx.rank:
            raise ConfigError(f"iteration {i} is owned by rank {self._owner[i]}")
        if self._last_done is not None and i <= self._last_done:
            raise ConfigError("ordered sections must be entered in ascending order")
        entry = self._entry.get(i)
        if entry is not None:
            ctx._take(entry, "ordered region")
        yield
        self._last_done = i
        exit_ = self._exit.get(i)
        if exit_ is not None:
            ctx._take(exit_, "ordered region")


# ----------------------------------------------------------------------
# runtime and thread contexts
# ----------------------------------------------------------------------


class _Workers:
    """Parked daemon OS threads that take logical threads' jobs from one queue.

    ``_idle`` counts the workers parked, or about to park, on the queue,
    less the jobs waiting in it. A job is queued for an idle worker if
    there is one, else for a new one, so the pool never holds more
    workers than the most jobs ever in flight at once. A worker drops its
    job before it parks: a parked worker keeps nothing of a finished
    ``Runtime`` alive.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._jobs: queue.SimpleQueue[Callable[[], None]] = queue.SimpleQueue()
        self._idle = 0

    def run(self, job: Callable[[], None]) -> None:
        with self._lock:
            start = not self._idle
            if self._idle:
                self._idle -= 1
        if start:  # started before the job is queued, so a failed start queues none
            threading.Thread(target=self._serve, name="determ-worker", daemon=True).start()
        self._jobs.put(job)

    def _serve(self) -> None:
        while True:
            job = self._jobs.get()
            job()
            job = None
            with self._lock:
                self._idle += 1


_WORKERS = _Workers()
# A forked child inherits the queue, the idle count and maybe a held
# lock, but none of the threads: it starts over with an empty pool.
os.register_at_fork(after_in_child=_WORKERS.__init__)


class Runtime:
    """Owns the registry, the store's record, the threads' event logs and errors."""

    def __init__(
        self,
        globals: dict[str, Any] | None = None,
        seed: int | None = None,
        delay: float = 0.002,
        trace: bool = False,
    ) -> None:
        check_delay(delay)
        self.registry = ChannelRegistry()
        self._globals = dict(globals or {})
        self.names = global_addresses(self._globals)
        self._record = Record()
        self._lock = threading.Lock()
        self._seed = seed
        self._delay = delay
        self._logs: dict[int, list] | None = {} if trace else None
        self.errors: dict[int, BaseException] = {}
        # Tasks that team members spawned and have not waited for, which
        # their team's join checks; a task's spawner is tid // _CHILDREN.
        self._unwaited: set[int] = set()
        self._root = ThreadCtx(self, 0, seeded=True)
        self.registry.register(0)
        self._finished = False

    # -- plumbing ------------------------------------------------------

    def _record_error(self, tid: int, err: BaseException) -> None:
        with self._lock:
            self.errors[tid] = err

    def _run(self, ctx: "ThreadCtx", main: Callable[["ThreadCtx"], Any]) -> None:
        """Run ``main(ctx)`` to its end on the calling thread, then launch
        the child it left held, if any.

        An error is recorded strictly before the thread is marked done, so
        whoever waits for done can read it.
        """
        try:
            try:
                main(ctx)
            finally:
                if ctx._held is not None:
                    self._launch(*ctx._take_held())
        except BaseException as err:  # noqa: BLE001 - collected, not dropped
            self._record_error(ctx.tid, err)
        finally:
            self.registry.mark_done(ctx.tid)

    def _launch(self, ctx: "ThreadCtx", main: Callable[["ThreadCtx"], Any]) -> None:
        """Register ``ctx``'s thread, then run ``main(ctx)`` on a parked
        worker. Its starter counts as running meanwhile, so quiescence
        cannot come before the thread is live. A launch that fails marks
        the thread done, so it holds off neither quiescence nor
        ``finish``.
        """
        self.registry.register(ctx.tid)
        try:
            _WORKERS.run(functools.partial(self._run, ctx, main))
        except BaseException:
            self.registry.mark_done(ctx.tid)
            raise

    # -- public surface -------------------------------------------------

    def root(self) -> "ThreadCtx":
        return self._root

    @property
    def trace(self) -> tuple[str, ...]:
        """Each thread's ``trace_lines``, by ascending tid: no schedule decides it."""
        logs = self._logs or {}
        return tuple(line for tid in sorted(logs) for line in trace_lines(tid, logs[tid]))

    def finish(self) -> None:
        """Declare the root thread done and wait until every launched
        thread is done too: finished, or doomed and unwound, its error
        recorded. Blocked threads are doomed once the root is done and
        nobody else can run."""
        if self._finished:
            return
        if self._root._held is not None:  # a task the root never waited for
            self._launch(*self._root._take_held())
        self._finished = True
        self.registry.mark_done(0)
        if not self.registry.wait_all_done(timeout=_JOIN_TIMEOUT):  # pragma: no cover
            raise RuntimeError("threads failed to settle")  # runtime bug guard
        self.registry.audit()


class ThreadCtx:
    """One logical thread: its workspace, its endpoint, its team role."""

    def __init__(
        self,
        rt: Runtime,
        tid: int,
        team: Team | None = None,
        rank: int = -1,
        read_only: Mapping[Address, str] = {},
        seeded: bool = False,
    ) -> None:
        """Build the whole thread: a workspace seeded with the globals,
        or empty until its birth acquire, and one perturbation stream,
        which its endpoint shares. The thread is not live until it is
        launched or held."""
        self.rt = rt
        self.tid = tid
        self.team = team
        self.rank = rank
        if seeded:
            self.ws = Workspace(tid, rt._globals, names=rt.names, record=rt._record)
        else:
            self.ws = Workspace(tid, record=rt._record)
        self._perturb = perturb_hook(rt._seed, tid, rt._delay)
        # Runs before each data op, as ``ep.hook`` before each sync event:
        # the perturbation, or ``_launch_held`` while a child is held.
        self._hook = self._perturb
        log = None if rt._logs is None else rt._logs.setdefault(tid, [])
        self.ep = Endpoint(rt.registry, tid, hook=self._perturb, log=log)
        # The started child not launched yet, with its main, if any.
        self._held: tuple[ThreadCtx, Callable[[ThreadCtx], Any]] | None = None
        # Whether this thread ran on its waiter's OS thread: tells the
        # waiter's ``_await`` that the lent child did run.
        self._inline = False
        # Reduction variables of the teams this thread runs in, by
        # address: a member's parent's plus its own team's; a task's
        # spawner's. Only folds write them, bypassing ``write``. Never
        # changed, so threads share it.
        self._read_only = read_only
        # Every member's first sync event is its birth acquire, seq 1.
        self._counters = [1] * team.size if team else []
        self._children = 0
        self._names = rt.names

    # -- data operations -------------------------------------------------

    def addr(self, target: str | Address) -> Address:
        if isinstance(target, Address):
            return target
        try:
            return self._names[target]
        except KeyError:
            raise ConfigError(f"unknown global {target!r}") from None

    # read and write inline the hook and ``addr``, and read the cell map,
    # since a kernel calls them per element. A name is looked up first:
    # the table holds no Address, so an address misses and is then
    # taken as it is.

    def read(self, target: str | Address) -> Any:
        if self._hook is not None:
            self._hook()
        addr = self._names.get(target)
        if addr is None:
            if not isinstance(target, Address):
                raise ConfigError(f"unknown global {target!r}")
            addr = target
        try:
            return self.ws.cells[addr][1]
        except KeyError:
            raise UnallocatedError(addr) from None

    def write(self, target: str | Address, value: Any) -> None:
        if self._hook is not None:
            self._hook()
        addr = self._names.get(target)
        if addr is None:
            if not isinstance(target, Address):
                raise ConfigError(f"unknown global {target!r}")
            addr = target
        if addr in self._read_only:
            raise ConfigError(
                f"reduction variable {self._read_only[addr]!r} was written inside the region"
            )
        self.ws.write(addr, value)

    def alloc(self, value: Any = None) -> Address:
        if self._hook is not None:
            self._hook()
        return self.ws.alloc(value)

    # -- held children -------------------------------------------------

    def _hold(self, ctx: "ThreadCtx", main: Callable[["ThreadCtx"], Any]) -> None:
        """Hold started child ``ctx`` unlaunched, live, until this
        thread's next operation of any kind, which launches it."""
        self.rt.registry.register(ctx.tid)
        self._held = (ctx, main)
        self._hook = self.ep.hook = self._launch_held

    def _take_held(self) -> tuple["ThreadCtx", Callable[["ThreadCtx"], Any]]:
        held, self._held = self._held, None
        self._hook = self.ep.hook = self._perturb
        return held  # type: ignore[return-value]

    def _launch_held(self) -> None:
        """The hook of every operation while a child is held: launch the
        child on a worker, then perturb."""
        self.rt._launch(*self._take_held())
        if self._perturb is not None:
            self._perturb()

    def _run_inline(self, ctx: "ThreadCtx", main: Callable[["ThreadCtx"], Any]) -> None:
        """Run child ``ctx`` to its end on this OS thread."""
        ctx._inline = True
        self.rt._run(ctx, main)

    # -- child threads -----------------------------------------------------

    def _child_tids(self, count: int) -> tuple[int, ...]:
        """The ids of this thread's next ``count`` children."""
        if self._children + count >= _CHILDREN:
            raise ConfigError(f"thread {self.tid} cannot start {_CHILDREN} children")
        base = self.tid * _CHILDREN + self._children
        self._children += count
        return tuple(range(base + 1, base + count + 1))

    def _start(
        self,
        tids: Sequence[int],
        bodies: Sequence[Callable],
        team: Team | None = None,
        hold: bool = False,
    ) -> None:
        """Release to the birth labels of ``tids`` in one event, then launch
        each on its body: as the ranks of ``team``, or as tasks if None.
        With ``hold``, the last is held instead (``_hold``)."""
        read_only = self._read_only
        if team is not None and team.reductions:
            read_only = {**read_only, **{self.addr(s.var): s.var for s in team.reductions}}
        rt = self.rt
        # Deposit birth diffs before the children start looking for them.
        birth = self.ep.release_set(self.ws, [SyncLabel(t, 1) for t in tids])
        for rank, (tid, body) in enumerate(zip(tids, bodies)):
            ctx = ThreadCtx(rt, tid, team, rank if team else -1, read_only)
            main = functools.partial(ThreadCtx._child_main, body=body, birth=birth)
            if hold and tid == tids[-1]:
                self._hold(ctx, main)
            else:
                rt._launch(ctx, main)

    def _child_main(self, body: Callable[["ThreadCtx"], Any], birth: SyncLabel) -> None:
        """Acquire the birth release, run ``body`` and die with a terminal
        release. A task keeps the body's value at ``Address(tid, 1)``; a
        member first allocates its accumulator for reduction idx at
        ``Address(tid, idx + 1)``, where every reader computes it."""
        self.ep.acquire(self.ws, birth)
        if self.team is None:
            result = self.ws.alloc(None)
            self.ws.write(result, body(self))
        else:
            for spec in self.team.reductions:
                self.ws.alloc(spec.identity)
            body(self)
        self.ep.release_terminal(self.ws)

    def _await(self, tids: Sequence[int]) -> None:
        """Claim the terminal releases of ``tids`` in one acquire set. If
        the held child is among them and ``_shallow()``, take it first and
        lend it this OS thread; a claim that faults before it runs holds it
        again. A doomed wait raises by the module docstring's waiter rule."""
        lend = None
        held = self._held
        if held is not None and held[0].tid in tids and _shallow():
            self._take_held()
            lend = (held[0].tid, functools.partial(self._run_inline, *held))
        try:
            self.ep.acquire_set(self.ws, [SyncLabel(t, TERMINAL_SEQ) for t in tids], lend)
        except DeadlockError:
            if not self.rt.registry.wait_unwound(tids, timeout=_JOIN_TIMEOUT, waiter=self.tid):
                raise RuntimeError("threads failed to settle") from None  # runtime bug guard
            failed = [
                (_ERROR_ORDER.get(type(err).__name__, 3), rank, err)
                for rank, err in enumerate(map(self.rt.errors.get, tids))
                if err is not None and not isinstance(err, DeadlockError)
            ]
            if failed:
                raise min(failed, key=lambda f: f[:2])[2] from None
            raise
        finally:
            if lend is not None and not held[0]._inline:
                self._hold(*held)

    def fork(
        self,
        bodies: Sequence[Callable[["ThreadCtx"], Any]],
        reductions: Sequence[Reduction] = (),
        *,
        _hold: bool = False,
    ) -> Team:
        """Start a team, one member per body. Every member is launched,
        so work before the join stalls none; ``fork_join`` alone passes
        ``_hold``, to hold the last member for its join to run."""
        bodies = tuple(bodies)
        if not bodies:
            raise ConfigError("fork needs at least one body")
        specs = tuple(reductions)
        seen = set()
        for spec in specs:
            if spec.var in seen:
                raise ConfigError(f"reduction variable {spec.var!r} redeclared")
            seen.add(spec.var)
            if self.addr(spec.var) in self._read_only:  # must be a known global
                raise ConfigError(f"reduction variable {spec.var!r} is reduced by an outer team")
        tids = self._child_tids(len(bodies))
        team = Team(members=tids, parent=self.tid, reductions=specs)
        self._start(tids, bodies, team, _hold)
        return team

    def join(self, team: Team) -> None:
        if self.tid != team.parent:
            raise ConfigError("only the forking thread may join a team")
        try:
            self._await(team.members)
        finally:
            # The members' tasks are forgotten however the wait ends.
            with self.rt._lock:
                pending = sorted(t for t in self.rt._unwaited if t // _CHILDREN in team.members)
                self.rt._unwaited.difference_update(pending)
        if pending:
            raise ConfigError(f"tasks {pending} were never waited before team join")
        self._fold_partials(team)
        # The members, and every task they waited for, are done: nothing
        # that can still run holds an accumulator, and nobody reads one.
        self.ws.drop(acc for _, accs in team._accumulators.values() for acc in accs)

    def fork_join(
        self,
        bodies: Sequence[Callable[["ThreadCtx"], Any]],
        reductions: Sequence[Reduction] = (),
    ) -> None:
        self.join(self.fork(bodies, reductions, _hold=True))

    # -- collectives -------------------------------------------------------

    def _require_team(self) -> Team:
        if self.team is None or self.rank < 0:
            raise ConfigError("collective operation outside a team")
        return self.team

    def _plan(self, template: _Template) -> list[_Step]:
        """This rank's steps of ``template``, labelled from the team's
        counters, which then advance past the whole template.

        Sync events performed since the last collective are absorbed
        first. They must have been uniform across members (SPMD
        discipline); divergence shows up later as a deterministic
        pairing error or deadlock.
        """
        steps, used = template
        counters = self._counters
        delta = self.ep.seq - counters[self.rank]
        if delta:
            counters = [s + delta for s in counters]
        self._counters = list(map(operator.add, counters, used))
        members = self.team.members
        base = counters[self.rank]
        out = []
        for kind, off, partners in steps[self.rank]:
            labels = tuple([_label(SyncLabel, (members[p], counters[p] + o)) for p, o in partners])
            out.append((kind, base + off, labels))
        return out

    def _take(self, step: _Step, what: str) -> None:
        """Run one planned step, after checking it carries its seq. Its
        partners go to the endpoint unchecked (``_planned``)."""
        kind, seq, partners = step
        ep = self.ep
        if seq != ep.seq + 1:
            raise ConfigError(
                f"synchronization drift in {what}: planned {SyncLabel(self.tid, seq)}, "
                f"next actual seq {ep.next_seq()}"
            )
        if kind == "rel":
            ep.release_set(self.ws, partners, _planned=True)
        else:
            ep.acquire_set(self.ws, partners, _planned=True)

    def contribute(self, var: str, value: Any) -> None:
        team = self._require_team()
        try:
            spec, accs = team._accumulators[var]
        except KeyError:
            raise ConfigError(f"no reduction declared for {var!r}") from None
        acc = accs[self.rank]
        self.write(acc, spec.combine(self.ws.read(acc), value))

    def barrier(self, algorithm: str = "tree") -> None:
        """One team-wide barrier round; folds pending reductions."""
        team = self._require_team()
        if algorithm == "tree":
            template = _tree_template(team.size)
        elif algorithm == "pairwise":
            # The flat form needs a second exchange to publish the fold.
            template = _pairwise_template(team.size, 2 if team.reductions else 1)
        else:
            raise ConfigError(f"unknown barrier algorithm {algorithm!r}")
        steps = self._plan(template)
        fold = self.rank == 0 and bool(team.reductions)
        acquired = False
        for step in steps:
            if step[0] == "acq":
                acquired = True
            elif fold and acquired:
                # Rank 0 now holds every member's accumulator: fold once,
                # before anything flows back out.
                self._fold_partials(team)
                fold = False
            self._take(step, "barrier")
        if fold:  # a team of one has no steps
            self._fold_partials(team)
        for spec, accs in team._accumulators.values():  # reset for the next round
            self.write(accs[self.rank], spec.identity)

    def _fold_partials(self, team: Team) -> None:
        """Fold every member's accumulator into each reduction variable,
        over the rank tree; the folder (a joining parent, or rank 0 of a
        barrier) holds every member's accumulator as written. It writes
        through the workspace, since ``write`` rejects the variable under
        a live team."""
        for spec, accs in team._accumulators.values():
            var_addr = self._names[spec.var]
            partials = [self.ws.read(acc) for acc in accs]
            folded = spec.combine(self.ws.read(var_addr), tree_fold(partials, spec.combine))
            self.ws.write(var_addr, folded)

    # -- ordered regions and loops -----------------------------------------

    def ordered_region(self, schedule: StaticSchedule) -> OrderedRegion:
        return OrderedRegion(self, schedule)

    def my_iterations(self, schedule: StaticSchedule) -> list[int]:
        team = self._require_team()
        return schedule.owned(self.rank, team.size)

    def parallel_for(
        self, schedule: StaticSchedule, body: Callable[[int], None]
    ) -> None:
        for i in self.my_iterations(schedule):
            body(i)

    # -- tasks ---------------------------------------------------------------

    def spawn_task(self, body: Callable[["ThreadCtx"], Any]) -> TaskHandle:
        (tid,) = self._child_tids(1)
        self._start((tid,), (body,), hold=True)
        if self.team is not None:  # no join checks other spawners' tasks
            with self.rt._lock:
                self.rt._unwaited.add(tid)
        return TaskHandle(tid, SyncLabel(tid, TERMINAL_SEQ), Address(tid, 1))

    def taskwait(self, handle: TaskHandle) -> Any:
        """Claim the task's terminal release; returns the body's value."""
        try:
            self._await((handle.tid,))
        finally:
            with self.rt._lock:
                self.rt._unwaited.discard(handle.tid)
        return self.ws.read(handle.result)
