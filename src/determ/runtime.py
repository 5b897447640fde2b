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
  rejects it there, so only folds write it.

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

Logical threads run on parked daemon OS threads shared by every
``Runtime`` in the process: a launch hands the thread to an idle worker
and starts a new one only when none is idle. A ``Runtime`` tracks
logical threads only, through its registry: ``finish`` returns once
every thread launched on it is done.
"""
from __future__ import annotations

import functools
import math
import os
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import ConfigError, DeadlockError, UnallocatedError
from .store import Address, Record, Workspace, global_addresses
from .sync import TERMINAL_SEQ, ChannelRegistry, Endpoint, SyncLabel

_JOIN_TIMEOUT = 60.0

# Ids per parent: the k-th child of thread t is t * _CHILDREN + k.
_CHILDREN = 2**32

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

    def chunk_size(self, nthreads: int) -> int:
        if self.chunk is not None:
            if self.chunk < 1:
                raise ConfigError("chunk must be >= 1")
            return self.chunk
        return max(1, math.ceil(self.iterations / nthreads))

    def owner(self, i: int, nthreads: int) -> int:
        return (i // self.chunk_size(nthreads)) % nthreads

    def owned(self, rank: int, nthreads: int) -> list[int]:
        c = self.chunk_size(nthreads)
        return [i for i in range(self.iterations) if (i // c) % nthreads == rank]


# ----------------------------------------------------------------------
# label planning
# ----------------------------------------------------------------------


class _Step(NamedTuple):
    """One planned sync event: a release set or an acquire set."""

    kind: str  # "rel" | "acq"
    mine: SyncLabel
    partners: tuple[SyncLabel, ...]


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
    leaves its successor's channel forever empty, which the deadlock
    detector reports.
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


class _Worker:
    __slots__ = ("job", "wake")

    def __init__(self, job: Callable[[], None]) -> None:
        self.job: Callable[[], None] | None = job
        self.wake = threading.Lock()
        self.wake.acquire()  # held while parked; released to hand a job over


class _Workers:
    """Parked daemon OS threads that run logical threads' jobs.

    A job goes to an idle worker if there is one, else to a new one, so
    the pool never holds more workers than the most jobs ever in flight
    at once. A worker drops its job before it parks: a parked worker
    keeps nothing of a finished ``Runtime`` alive.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: list[_Worker] = []

    def run(self, job: Callable[[], None]) -> None:
        with self._lock:
            worker = self._idle.pop() if self._idle else None
        if worker is None:
            # The job travels on the worker, not in the Thread's args,
            # which the Thread would hold until the worker exits.
            threading.Thread(
                target=self._serve, args=(_Worker(job),), name="determ-worker", daemon=True
            ).start()
        else:
            worker.job = job
            worker.wake.release()

    def _serve(self, worker: _Worker) -> None:
        while True:
            job, worker.job = worker.job, None
            job()
            job = None
            with self._lock:
                self._idle.append(worker)
            worker.wake.acquire()


_WORKERS = _Workers()
# A forked child inherits the idle list, and maybe a held lock, but none
# of the threads: it starts over with an empty pool.
os.register_at_fork(after_in_child=_WORKERS.__init__)


class Runtime:
    """Owns the registry, the store's record, tracing, and error collection."""

    def __init__(
        self,
        globals: dict[str, Any] | None = None,
        seed: int | None = None,
        delay: float = 0.002,
        trace: bool = False,
    ) -> None:
        self.registry = ChannelRegistry()
        self._globals = dict(globals or {})
        self.names = global_addresses(self._globals)
        self._record = Record()
        self._lock = threading.Lock()
        self._seed = seed
        self._delay = delay
        self._trace_lines: list[str] | None = [] if trace else None
        self.errors: dict[int, BaseException] = {}
        # Spawned tasks not yet waited for; a task's spawner is tid // _CHILDREN.
        self._unwaited: set[int] = set()
        self._root = self._peer(0, seeded=True)
        self.registry.register(0)
        self._finished = False

    # -- plumbing ------------------------------------------------------

    def _record_trace(self, line: str) -> None:
        with self._lock:
            if self._trace_lines is not None:
                self._trace_lines.append(line)

    def _endpoint(self, tid: int) -> Endpoint:
        recorder = self._record_trace if self._trace_lines is not None else None
        hook = perturb_hook(self._seed, tid, self._delay)
        return Endpoint(self.registry, tid, hook=hook, recorder=recorder)

    def _record_error(self, tid: int, err: BaseException) -> None:
        with self._lock:
            self.errors[tid] = err

    def _peer(
        self,
        tid: int,
        seeded: bool = False,
        team: Team | None = None,
        rank: int | None = None,
    ) -> "ThreadCtx":
        """Build ``tid``'s context over an empty workspace, or over one
        holding the globals when ``seeded``."""
        start, names = (self._globals, self.names) if seeded else ((), None)
        ws = Workspace(tid, start, names=names, record=self._record)
        return ThreadCtx(self, tid, ws, self._endpoint(tid), team, rank)

    def _run(self, ctx: "ThreadCtx", main: Callable[["ThreadCtx"], Any]) -> None:
        """Run ``main(ctx)`` to its end on the calling thread.

        An error is recorded strictly before the thread is marked done, so
        whoever waits for done can read it.
        """
        try:
            main(ctx)
        except BaseException as err:  # noqa: BLE001 - collected, not dropped
            self._record_error(ctx.tid, err)
        finally:
            self.registry.mark_done(ctx.tid)

    def _launch(self, ctx: "ThreadCtx", main: Callable[["ThreadCtx"], Any]) -> None:
        """Register ``ctx.tid`` and run ``main(ctx)`` on a parked worker.

        A thread is live from its launch until it is done, so a peer that
        was built but never launched (a fork failing halfway) holds off
        neither quiescence nor `finish`. Launch is early enough: the
        launcher itself stays live and running until its launches are
        over, so no thread is doomed for waiting on a peer yet to come.
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
        with self._lock:
            return tuple(self._trace_lines or ())

    def finish(self) -> None:
        """Declare the root thread done and wait until every launched
        thread is done too: finished, or doomed and unwound, its error
        recorded. Blocked threads are doomed once the root is done and
        nobody else can run."""
        if self._finished:
            return
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
        ws: Workspace,
        ep: Endpoint,
        team: Team | None = None,
        rank: int | None = None,
    ) -> None:
        self.rt = rt
        self.tid = tid
        self.ws = ws
        self.ep = ep
        self.team = team
        self.rank = rank if rank is not None else -1
        # Every member's first sync event is its birth acquire, seq 1.
        self._counters = [1] * team.size if team else []
        self._children = 0
        # Reduction variables of the teams this thread runs in, by
        # address: a member's parent's plus its own team's; a task's
        # spawner's. Only folds write them, bypassing ``write``.
        self._read_only: dict[Address, str] = {}
        self._hook = ep._hook
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

    # -- child threads -----------------------------------------------------

    def _child_tids(self, count: int) -> tuple[int, ...]:
        """The ids of this thread's next ``count`` children."""
        if self._children + count >= _CHILDREN:
            raise ConfigError(f"thread {self.tid} cannot start {_CHILDREN} children")
        base = self.tid * _CHILDREN + self._children
        self._children += count
        return tuple(range(base + 1, base + count + 1))

    def _start(
        self, tids: Sequence[int], bodies: Sequence[Callable], team: Team | None = None
    ) -> None:
        """Release to the birth labels of ``tids`` in one event, then launch
        each on its body: as the ranks of ``team``, or as tasks if None."""
        read_only = self._read_only
        if team is not None and team.reductions:
            read_only = {**read_only, **{self.addr(s.var): s.var for s in team.reductions}}
        children = [
            self.rt._peer(tid, team=team, rank=rank if team else None)
            for rank, tid in enumerate(tids)
        ]
        # Deposit birth diffs before the children start looking for them.
        birth = self.ep.release_set(self.ws, [SyncLabel(t, 1) for t in tids])
        for ctx, body in zip(children, bodies):
            ctx._read_only = read_only
            self.rt._launch(ctx, lambda c, b=body: c._child_main(b, birth))

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
        """Claim the terminal releases of ``tids`` in one acquire set; a
        doomed wait raises by the waiter's rule in the module docstring."""
        try:
            self.ep.acquire_set(self.ws, [SyncLabel(t, TERMINAL_SEQ) for t in tids])
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

    def fork(
        self,
        bodies: Sequence[Callable[["ThreadCtx"], Any]],
        reductions: Sequence[Reduction] = (),
    ) -> Team:
        bodies = tuple(bodies)
        if not bodies:
            raise ConfigError("fork needs at least one body")
        specs = tuple(reductions)
        seen = set()
        for spec in specs:
            if spec.var in seen:
                raise ConfigError(f"reduction variable {spec.var!r} redeclared")
            seen.add(spec.var)
            self.addr(spec.var)  # must be a known global
        tids = self._child_tids(len(bodies))
        team = Team(members=tids, parent=self.tid, reductions=specs)
        self._start(tids, bodies, team)
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
        self.ws.drop(
            Address(t, idx + 1) for t in team.members for idx in range(len(team.reductions))
        )

    def fork_join(
        self,
        bodies: Sequence[Callable[["ThreadCtx"], Any]],
        reductions: Sequence[Reduction] = (),
    ) -> None:
        self.join(self.fork(bodies, reductions))

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
        self._counters = [s + u for s, u in zip(counters, used)]
        members = self.team.members
        base = counters[self.rank]
        return [
            _Step(
                kind,
                SyncLabel(self.tid, base + off),
                tuple([SyncLabel(members[p], counters[p] + poff) for p, poff in partners]),
            )
            for kind, off, partners in steps[self.rank]
        ]

    def _expect_label(self, planned: SyncLabel, what: str) -> None:
        if planned.thread != self.tid or planned.seq != self.ep.next_seq():
            raise ConfigError(
                f"synchronization drift in {what}: planned {planned}, "
                f"next actual seq {self.ep.next_seq()}"
            )

    def _take(self, step: _Step, what: str) -> None:
        """Run one planned step, after checking it carries its label."""
        self._expect_label(step.mine, what)
        if step.kind == "rel":
            self.ep.release_set(self.ws, step.partners)
        else:
            self.ep.acquire_set(self.ws, step.partners)

    def contribute(self, var: str, value: Any) -> None:
        team = self._require_team()
        idx = next((i for i, s in enumerate(team.reductions) if s.var == var), None)
        if idx is None:
            raise ConfigError(f"no reduction declared for {var!r}")
        acc = Address(self.tid, idx + 1)
        self.write(acc, team.reductions[idx].combine(self.ws.read(acc), value))

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
            if step.kind == "acq":
                acquired = True
            elif fold and acquired:
                # Rank 0 now holds every member's accumulator: fold once,
                # before anything flows back out.
                self._fold_partials(team)
                fold = False
            self._take(step, "barrier")
        if fold:  # a team of one has no steps
            self._fold_partials(team)
        if team.reductions:
            self._reset_accumulators(team)

    def _fold_partials(self, team: Team) -> None:
        """Fold every member's accumulator into each reduction variable,
        over the rank tree; the folder (a joining parent, or rank 0 of a
        barrier) holds every member's accumulator as written. It writes
        through the workspace, since ``write`` rejects the variable under
        a live team."""
        for idx, spec in enumerate(team.reductions):
            var_addr = self.addr(spec.var)
            partials = [self.ws.read(Address(t, idx + 1)) for t in team.members]
            folded = spec.combine(self.ws.read(var_addr), tree_fold(partials, spec.combine))
            self.ws.write(var_addr, folded)

    def _reset_accumulators(self, team: Team) -> None:
        for idx, spec in enumerate(team.reductions):
            self.write(Address(self.tid, idx + 1), spec.identity)

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
        self._start((tid,), (body,))
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
