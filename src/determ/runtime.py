"""High-level deterministic constructs over workspaces and channels.

Every construct here is sugar for release/acquire patterns:

* fork: the parent broadcast-releases its state to a birth acquire in
  each child; join: the parent acquire-sets over the children's terminal
  releases in rank order.
* barrier: physically a combining tree over ranks (two phases, up then
  down) whose final member states are byte-identical to the logical
  everyone-releases-to-everyone form; the pairwise form stays available
  as ``algorithm="pairwise"`` so the two can be checked against each
  other.
* ordered regions: a chain of handoff channels through iteration space,
  so section i runs only after section i-1 released.
* reductions: thread-private accumulator cells folded over a fixed
  binary tree of ranks at the next barrier or join; the fold absorbs the
  reduction variable's current value as its leftmost operand and the
  folder writes the result back with a fresh stamp, so fold points
  compound and any other write to the variable under a live team is
  rejected.
* tasks: each task is a fresh logical thread; the spawn release gives it
  a snapshot isolated at spawn time, and its terminal release carries the
  result to whichever single waiter claims the handle.

Threads never read each other's counters. Partner labels for collectives
are computed from a per-member model of every member's label counter,
advanced identically on all members because collectives are executed in
the same order by all of them (SPMD discipline). Sync operations outside
collectives must be performed uniformly by all members, otherwise the
mismatch surfaces as a deterministic ConfigError or deadlock, never as a
silent wrong answer.

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
from typing import Any, Callable, Iterator, NamedTuple, Sequence

from .errors import ConfigError, DeadlockError, UnallocatedError
from .store import Address, Workspace, global_addresses
from .sync import TERMINAL_SEQ, ChannelRegistry, Endpoint, SyncLabel

_JOIN_TIMEOUT = 60.0

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
    spawn: SyncLabel
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
    kind: str  # "rel" | "acq"
    phase: str  # "up" | "down"
    partner_rank: int
    mine: SyncLabel
    partner: SyncLabel


def _tree_pairs(n: int) -> list[tuple[int, int, int]]:
    """Binomial merge pairs (level, low rank, high rank), level ascending."""
    pairs = []
    k = 0
    while (1 << k) < n:
        span = 1 << (k + 1)
        half = 1 << k
        for lo in range(0, n, span):
            if lo + half < n:
                pairs.append((k, lo, lo + half))
        k += 1
    return pairs


def plan_tree_barrier(
    tids: Sequence[int], seqs: dict[int, int]
) -> tuple[dict[int, list[_Step]], dict[int, int]]:
    """Both phases of one combining-tree round, with concrete labels.

    ``seqs`` maps rank to the member's last used label seq; the plan is a
    pure function of (tids, seqs) so every member computes it alone.
    """
    seqs = dict(seqs)
    steps: dict[int, list[_Step]] = {r: [] for r in range(len(tids))}
    pairs = _tree_pairs(len(tids))
    for _, lo, hi in pairs:
        seqs[hi] += 1
        rel = SyncLabel(tids[hi], seqs[hi])
        seqs[lo] += 1
        acq = SyncLabel(tids[lo], seqs[lo])
        steps[hi].append(_Step("rel", "up", lo, rel, acq))
        steps[lo].append(_Step("acq", "up", hi, acq, rel))
    for _, lo, hi in reversed(pairs):
        seqs[lo] += 1
        rel = SyncLabel(tids[lo], seqs[lo])
        seqs[hi] += 1
        acq = SyncLabel(tids[hi], seqs[hi])
        steps[lo].append(_Step("rel", "down", hi, rel, acq))
        steps[hi].append(_Step("acq", "down", lo, acq, rel))
    return steps, seqs


@functools.lru_cache(maxsize=None)
def _tree_template(n: int) -> tuple[tuple[tuple[_Step, ...], ...], tuple[int, ...]]:
    """``plan_tree_barrier`` for ``n`` ranks from all-zero counters: per
    rank, its steps with seq offsets in place of seqs (and ranks in place
    of tids), and the count of labels each rank consumes."""
    steps, seqs = plan_tree_barrier(range(n), dict.fromkeys(range(n), 0))
    return tuple(tuple(steps[r]) for r in range(n)), tuple(seqs[r] for r in range(n))


def plan_tree_rank(
    tids: Sequence[int], seqs: dict[int, int], rank: int
) -> tuple[list[_Step], dict[int, int]]:
    """``rank``'s steps of ``plan_tree_barrier(tids, seqs)`` and its next
    counters, without planning the other ranks: every label is its
    owner's counter plus an offset fixed by the team size."""
    template, used = _tree_template(len(tids))
    me, base = tids[rank], seqs[rank]
    steps = [
        _Step(
            kind,
            phase,
            pr,
            SyncLabel(me, base + mine.seq),
            SyncLabel(tids[pr], seqs[pr] + partner.seq),
        )
        for kind, phase, pr, mine, partner in template[rank]
    ]
    return steps, {r: s + used[r] for r, s in seqs.items()}


def plan_pairwise_barrier(
    tids: Sequence[int], seqs: dict[int, int]
) -> tuple[dict[int, list[_Step]], dict[int, int]]:
    """The quadratic reference form: everyone broadcasts to everyone.

    Each member consumes exactly two labels: one release set, one acquire
    set. Returned per-rank steps list the release first; acquire steps
    are expanded per partner but share one label (a broadcast counts as a
    single event).
    """
    n = len(tids)
    rel = {r: SyncLabel(tids[r], seqs[r] + 1) for r in range(n)}
    acq = {r: SyncLabel(tids[r], seqs[r] + 2) for r in range(n)}
    steps: dict[int, list[_Step]] = {}
    for r in range(n):
        mine = [
            _Step("rel", "up", q, rel[r], acq[q]) for q in range(n) if q != r
        ]
        mine += [
            _Step("acq", "down", q, acq[r], rel[q]) for q in range(n) if q != r
        ]
        steps[r] = mine
    return steps, {r: seqs[r] + 2 for r in range(n)}


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
    """Fold by adjacent pairing, the same shape the combining tree uses."""
    vals = list(values)
    if not vals:
        raise ConfigError("nothing to fold")
    while len(vals) > 1:
        nxt = []
        for i in range(0, len(vals), 2):
            if i + 1 < len(vals):
                nxt.append(combine(vals[i], vals[i + 1]))
            else:
                nxt.append(vals[i])
        vals = nxt
    return vals[0]


class OrderedRegion:
    """Cross-thread ordering of iteration bodies inside a parallel loop.

    Creation is collective: every member plans the same chain of handoff
    channels from the schedule, then only the planned owners execute each
    handoff. Skipping an owned section leaves its successor's channel
    forever empty, which the deadlock detector reports.
    """

    def __init__(self, ctx: "ThreadCtx", schedule: StaticSchedule) -> None:
        team = ctx._require_team()
        self._ctx = ctx
        self._schedule = schedule
        self._n = schedule.iterations
        nthreads = team.size
        self._owner = {i: schedule.owner(i, nthreads) for i in range(self._n)}
        seqs = dict(ctx._counters)
        # handoffs[i]: (release label of owner(i-1), acquire label of owner(i))
        self._entry: dict[int, tuple[SyncLabel, SyncLabel]] = {}
        self._exit: dict[int, tuple[SyncLabel, SyncLabel]] = {}
        for i in range(1, self._n):
            prev, cur = self._owner[i - 1], self._owner[i]
            if prev == cur:
                continue  # program order already serializes these
            seqs[prev] += 1
            rel = SyncLabel(team.members[prev], seqs[prev])
            seqs[cur] += 1
            acq = SyncLabel(team.members[cur], seqs[cur])
            self._exit[i - 1] = (rel, acq)
            self._entry[i] = (rel, acq)
        ctx._counters = seqs
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
            rel, acq = entry
            ctx._expect_label(acq, "ordered region")
            ctx.ep.acquire(ctx.ws, rel)
        yield
        self._last_done = i
        exit_ = self._exit.get(i)
        if exit_ is not None:
            rel, acq = exit_
            ctx._expect_label(rel, "ordered region")
            ctx.ep.release(ctx.ws, acq)


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
    """Owns the registry, thread ids, tracing, and error collection."""

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
        self._lock = threading.Lock()
        self._next_tid = 1
        self._seed = seed
        self._delay = delay
        self._trace_lines: list[str] | None = [] if trace else None
        self.errors: dict[int, BaseException] = {}
        # Spawned tasks not yet waited for: task tid -> spawning tid.
        self._spawned_by: dict[int, int] = {}
        # Stamps minted by reduction folds; a reduction variable may only
        # change underneath a team through one of these.
        self._fold_stamps: set = set()
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

    def _claim_tids(self, count: int) -> tuple[int, ...]:
        # Consecutive ids per spawn call; deterministic whenever spawns are
        # causally ordered, which every construct here guarantees.
        with self._lock:
            base = self._next_tid
            self._next_tid += count
        return tuple(range(base, base + count))

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
        ws = Workspace(tid, self._globals, names=self.names) if seeded else Workspace(tid)
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

    def wait_settled(self, tids: Sequence[int], waiter: int) -> None:
        """Block until each tid has fully unwound (error reporting aid).

        Errors are recorded strictly before a thread is marked done, so
        once this returns every tid's error (if any) is readable. Waiting
        merely for doomed would race: a doomed thread is still alive and
        records its error only when its blocked acquire wakes up.
        ``waiter``, the calling thread, counts as blocked meanwhile.
        """
        self.registry.wait_unwound(tids, timeout=_JOIN_TIMEOUT, waiter=waiter)


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
        self._counters = {r: 1 for r in range(team.size)} if team else {}
        self._acc_addrs: dict[str, Address] = {}
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
        self.ws.write(addr, value)

    def alloc(self, value: Any = None) -> Address:
        if self._hook is not None:
            self._hook()
        return self.ws.alloc(value)

    # -- fork / join ------------------------------------------------------

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
        tids = self.rt._claim_tids(len(bodies))
        team = Team(members=tids, parent=self.tid, reductions=specs)
        members = [
            self.rt._peer(tid, team=team, rank=rank) for rank, tid in enumerate(tids)
        ]
        fork_label = SyncLabel(self.tid, self.ep.next_seq())
        # Deposit birth diffs before the children start looking for them.
        self.ep.release_set(self.ws, [SyncLabel(t, 1) for t in tids])
        for ctx, body in zip(members, bodies):
            self.rt._launch(ctx, lambda c, b=body: c._member_main(b, fork_label))
        return team

    def _member_main(
        self, body: Callable[["ThreadCtx"], Any], birth: SyncLabel
    ) -> None:
        self.ep.acquire(self.ws, birth)
        self._setup_accumulators()
        body(self)
        self.ep.release_terminal(self.ws)

    def join(self, team: Team) -> None:
        if self.tid != team.parent:
            raise ConfigError("only the forking thread may join a team")
        partners = [SyncLabel(t, TERMINAL_SEQ) for t in team.members]
        pre_stamps = self._reduction_prestamps(team)
        try:
            self.ep.acquire_set(self.ws, partners)
        except DeadlockError:
            self.rt.wait_settled(team.members, waiter=self.tid)
            err = self._team_error(team)
            if err is not None:
                raise err from None
            raise
        with self.rt._lock:
            pending = sorted(
                t for t, spawner in self.rt._spawned_by.items() if spawner in team.members
            )
        if pending:
            raise ConfigError(f"tasks {pending} were never waited before team join")
        self._fold_partials(team, pre_stamps)
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

    def _team_error(self, team: Team) -> BaseException | None:
        candidates = []
        for rank, tid in enumerate(team.members):
            err = self.rt.errors.get(tid)
            if err is not None and not isinstance(err, DeadlockError):
                order = _ERROR_ORDER.get(type(err).__name__, 3)
                candidates.append((order, rank, err))
        if not candidates:
            return None
        candidates.sort(key=lambda c: (c[0], c[1]))
        return candidates[0][2]

    # -- collectives -------------------------------------------------------

    def _require_team(self) -> Team:
        if self.team is None or self.rank < 0:
            raise ConfigError("collective operation outside a team")
        return self.team

    def _collective_entry(self) -> None:
        # Absorb sync events performed since the last collective. They must
        # have been uniform across members (SPMD discipline); divergence
        # shows up later as a deterministic pairing error or deadlock.
        delta = self.ep.seq - self._counters[self.rank]
        if delta:
            self._counters = {r: s + delta for r, s in self._counters.items()}

    def _expect_label(self, planned: SyncLabel, what: str) -> None:
        if planned.thread != self.tid or planned.seq != self.ep.next_seq():
            raise ConfigError(
                f"synchronization drift in {what}: planned {planned}, "
                f"next actual seq {self.ep.next_seq()}"
            )

    def _setup_accumulators(self) -> None:
        team = self.team
        if team is None:
            return
        for idx, spec in enumerate(team.reductions):
            addr = self.ws.alloc(spec.identity)
            assert addr == Address(self.tid, idx + 1)
            self._acc_addrs[spec.var] = addr

    def contribute(self, var: str, value: Any) -> None:
        team = self._require_team()
        spec = next((s for s in team.reductions if s.var == var), None)
        if spec is None:
            raise ConfigError(f"no reduction declared for {var!r}")
        acc = self._acc_addrs[var]
        self.write(acc, spec.combine(self.ws.read(acc), value))

    def barrier(self, algorithm: str = "tree") -> None:
        """One team-wide barrier round; folds pending reductions."""
        team = self._require_team()
        self._collective_entry()
        if algorithm == "tree":
            steps, seqs = plan_tree_rank(team.members, self._counters, self.rank)
            self._run_tree_round(steps, team)
        elif algorithm == "pairwise":
            steps, seqs = plan_pairwise_barrier(team.members, self._counters)
            self._run_pairwise_round(steps[self.rank], team)
            if team.reductions:
                # The flat form needs a second exchange to publish the fold.
                steps2, seqs = plan_pairwise_barrier(team.members, seqs)
                self._run_pairwise_round(steps2[self.rank], team, fold=False)
        else:
            raise ConfigError(f"unknown barrier algorithm {algorithm!r}")
        self._counters = seqs
        if team.reductions:
            self._reset_accumulators(team)

    def _run_tree_round(self, steps: list[_Step], team: Team) -> None:
        reductions = bool(team.reductions)
        pre = self._reduction_prestamps(team) if self.rank == 0 else {}
        for step in steps:
            if step.kind == "rel":
                if step.phase == "down" and self.rank == 0 and reductions:
                    # Fold exactly once, before anything flows back down.
                    self._fold_reductions(team, pre)
                    reductions = False
                self._expect_label(step.mine, "barrier")
                self.ep.release(self.ws, step.partner)
            else:
                self._expect_label(step.mine, "barrier")
                self.ep.acquire(self.ws, step.partner)
                if step.phase == "up" and reductions:
                    self._combine_from(team, step.partner_rank)
        # A root with no down steps (team of one) still folds.
        if self.rank == 0 and reductions:
            self._fold_reductions(team, pre)

    def _run_pairwise_round(
        self, steps: list[_Step], team: Team, fold: bool = True
    ) -> None:
        pre = self._reduction_prestamps(team) if self.rank == 0 and fold else {}
        rel_steps = [s for s in steps if s.kind == "rel"]
        acq_steps = [s for s in steps if s.kind == "acq"]
        if rel_steps:
            self._expect_label(rel_steps[0].mine, "barrier")
            self.ep.release_set(self.ws, [s.partner for s in rel_steps])
        if acq_steps:
            self._expect_label(acq_steps[0].mine, "barrier")
            self.ep.acquire_set(self.ws, [s.partner for s in acq_steps])
        if fold and self.rank == 0:
            self._fold_partials(team, pre)

    def _reduction_prestamps(self, team: Team) -> dict[str, Any]:
        return {
            spec.var: self.ws.cells[self.addr(spec.var)].stamp
            for spec in team.reductions
        }

    def _check_fold_safe(self, spec: Reduction, pre_stamp: Any) -> Address:
        """Reject user writes to a reduction variable under a live team.

        The variable's stamp may move only through earlier folds, whose
        stamps the runtime remembers.
        """
        var_addr = self.addr(spec.var)
        current = self.ws.cells[var_addr].stamp
        if current != pre_stamp:
            with self.rt._lock:
                blessed = current in self.rt._fold_stamps
            if not blessed:
                raise ConfigError(
                    f"reduction variable {spec.var!r} was written inside the region"
                )
        return var_addr

    def _write_fold(self, var_addr: Address, value: Any) -> None:
        stamp = self.ws.write(var_addr, value)
        with self.rt._lock:
            self.rt._fold_stamps.add(stamp)

    def _fold_partials(self, team: Team, pre: dict[str, Any]) -> None:
        """Fold every member's accumulator into each reduction variable,
        over the rank tree; used where the folder holds all partials (a
        join, a pairwise barrier)."""
        for idx, spec in enumerate(team.reductions):
            var_addr = self._check_fold_safe(spec, pre[spec.var])
            partials = [
                self.ws.read(Address(t, idx + 1)) for t in team.members
            ]
            folded = spec.combine(
                self.ws.read(var_addr), tree_fold(partials, spec.combine)
            )
            self._write_fold(var_addr, folded)

    def _combine_from(self, team: Team, partner_rank: int) -> None:
        for idx, spec in enumerate(team.reductions):
            mine = self._acc_addrs[spec.var]
            theirs = Address(team.members[partner_rank], idx + 1)
            merged = spec.combine(self.ws.read(mine), self.ws.read(theirs))
            self.write(mine, merged)

    def _fold_reductions(self, team: Team, pre: dict[str, Any]) -> None:
        # After the up phase the root's accumulators hold the full fold.
        for spec in team.reductions:
            var_addr = self._check_fold_safe(spec, pre[spec.var])
            folded = spec.combine(
                self.ws.read(var_addr), self.ws.read(self._acc_addrs[spec.var])
            )
            self._write_fold(var_addr, folded)

    def _reset_accumulators(self, team: Team) -> None:
        for spec in team.reductions:
            self.write(self._acc_addrs[spec.var], spec.identity)

    # -- ordered regions and loops -----------------------------------------

    def ordered_region(self, schedule: StaticSchedule) -> OrderedRegion:
        self._require_team()
        self._collective_entry()
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
        (tid,) = self.rt._claim_tids(1)
        ctx = self.rt._peer(tid)
        spawn_label = SyncLabel(self.tid, self.ep.next_seq())
        handle = TaskHandle(
            tid=tid,
            spawn=spawn_label,
            completion=SyncLabel(tid, TERMINAL_SEQ),
            result=Address(tid, 1),
        )
        with self.rt._lock:
            self.rt._spawned_by[tid] = self.tid
        self.ep.release(self.ws, SyncLabel(tid, 1))
        self.rt._launch(ctx, lambda c: c._task_main(body, spawn_label))
        return handle

    def _task_main(self, body: Callable[["ThreadCtx"], Any], birth: SyncLabel) -> None:
        self.ep.acquire(self.ws, birth)
        result_addr = self.ws.alloc(None)
        assert result_addr == Address(self.tid, 1)
        self.ws.write(result_addr, body(self))
        self.ep.release_terminal(self.ws)

    def taskwait(self, handle: TaskHandle) -> Any:
        """Claim the task's terminal release; returns the body's value."""
        try:
            self.ep.acquire(self.ws, handle.completion)
        except DeadlockError:
            self.rt.wait_settled([handle.tid], waiter=self.tid)
            err = self.rt.errors.get(handle.tid)
            if err is not None:
                raise err from None
            raise
        with self.rt._lock:
            self.rt._spawned_by.pop(handle.tid, None)
        return self.ws.read(handle.result)
