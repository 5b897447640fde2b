"""Exhaustive schedule enumeration for small scripted programs.

Two engines answer "what outcomes can this program produce?":

* :func:`enumerate_dc` explores the schedules of the paired-channel
  model. It is written as an independent simulator: where workspaces
  compress causal history into per-writer version vectors, the simulator
  carries explicit sets of observed write events and decides staleness by
  set membership. Agreement between the two is therefore evidence, not
  tautology.
* :func:`enumerate_sc` explores the same program under a conventional
  shared store, where a release is a no-op and an acquire merely waits for
  its partner's event counter. The gap between the two outcome sets is
  what the paired-channel model buys.

Both run on one depth-first driver, :func:`_explore`, with state
deduplication and partial-order reduction in its simplest static form,
a singleton persistent set (Flanagan & Godefroid, POPL 2005). Before a
state is deduplicated, its ``settle`` step runs, in place, every step
that commutes with all other threads' steps and that no step can
disable:

* paired-channel model: READ, WRITE and ALLOC, which touch only the
  thread's private workspace;
* shared store: enabled REL and ACQ, which only advance the thread's own
  event counter. That can enable another thread's acquire but changes
  nothing else.

Such a step is taken in every complete schedule from the state where it
is enabled, and running it early only moves it across steps it commutes
with. So every terminal state, deadlocks included, stays reachable: the
outcome set is exact and only the count of states shrinks. What is left
to interleave is what can interact: sync events under the paired-channel
model, memory operations under the shared store.

A state costs what its step changed. A clone shares its parent's
per-thread parts: a paired-channel thread (pc, status, locals, store,
observed set), or a shared-store thread's locals. The first change to
such a part after a clone copies it, whichever step makes it, and from
then on the clone alone owns it; the parent gives up ownership at the
clone, so neither can change what the other sees. Each part caches its
share of the dedup key, and a paired-channel thread also its release
snapshot; a copy starts with empty caches and an owned part clears them
before every change. The ops are decoded once per enumeration, with the
labels, stamps and addresses they mint.

:func:`run_on_runtime` executes the program on :class:`Runtime`, the
same executor library programs run on, under a seeded schedule
perturbation, and :func:`check_program` cross-checks many such runs
against the enumeration.

Enumeration treats each scripted operation as atomic. That matches the
runtime, whose registry updates happen under one lock, with one knowing
exception: a release set that is simultaneously mis-paired with a blocked
acquire and aimed at several channels can report its (identical-kind)
violation with claimant lists of different widths depending on intra-event
timing. Such programs are doubly broken; the checker still reports a
pairing outcome for them but is only advertised as exact for programs
whose violations are intra-event unambiguous.
"""
from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Any, Iterable, Mapping, Sequence

from .errors import (
    DataRaceError,
    DeadlockError,
    LimitError,
    PairingError,
)
from .runtime import Runtime, ThreadCtx
from .script import (
    AcquireOp,
    AllocOp,
    ReadOp,
    ReleaseOp,
    ScriptProgram,
    WriteOp,
    eval_expr,
    parse_script,
)
from .store import (
    INITIAL,
    ROOT_THREAD,
    Address,
    Conflict,
    VersionStamp,
    global_addresses,
)
from .sync import SyncLabel

#: Enumeration is only offered for programs this small.
MAX_THREADS = 4
MAX_OPS = 12  # per thread
DEFAULT_MAX_STATES = 200_000


# ----------------------------------------------------------------------
# outcomes and canonical rendering
# ----------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class Outcome:
    """One canonical program result.

    ``kind`` is STATE, RACE, PAIRING or DEADLOCK; ``body`` is a canonical
    rendering that two runs (or a run and an enumeration) can be compared
    on byte-for-byte.
    """

    kind: str
    body: str

    @property
    def text(self) -> str:
        return f"{self.kind} {self.body}" if self.body else self.kind

    def __str__(self) -> str:
        return self.text


def _reverse_names(program: ScriptProgram) -> dict[Address, str]:
    table = global_addresses(name for name, _ in program.globals)
    return {addr: name for name, addr in table.items()}


def state_body(view: Mapping[Address, Any], rev: Mapping[Address, str]) -> str:
    """Render a store as ``name=value`` pairs: globals first, then
    allocated cells by address."""
    ordered = sorted(view, key=lambda a: (a not in rev, a))
    parts = []
    for addr in ordered:
        label = rev.get(addr, str(addr))
        parts.append(f"{label}={view[addr]!r}")
    return " ".join(parts)


def race_body(
    conflicts: Sequence[Conflict], rev: Mapping[Address, str]
) -> str:
    """Render conflicting stamp pairs; the pair is sorted so the rendering
    does not depend on which side happened to be local."""
    parts = []
    for c in sorted(conflicts, key=lambda c: c.addr):
        lo, hi = sorted((c.local, c.incoming))
        parts.append(f"{rev.get(c.addr, str(c.addr))}:{lo}/{hi}")
    return " ".join(parts)


def pairing_body(violations: Iterable[Any]) -> str:
    return "; ".join(sorted({str(v) for v in violations}))


def deadlock_body(tids: Iterable[int]) -> str:
    return ",".join(str(t) for t in sorted(set(tids)))


def derive_outcome(
    view: Mapping[Address, Any],
    races: Mapping[int, Sequence[Conflict]],
    violations: Iterable[Any],
    doomed: Iterable[int],
    rev: Mapping[Address, str],
    crashes: Mapping[int, BaseException] | None = None,
) -> Outcome:
    """Fold one run's artifacts into a canonical outcome.

    Precedence: a data race outranks a pairing violation outranks a
    deadlock outranks plain state. The same rule is applied to enumerated
    and executed runs so the two routes stay comparable.
    """
    if crashes:
        raise crashes[min(crashes)]
    if races:
        return Outcome("RACE", race_body(races[min(races)], rev))
    violations = list(violations)
    if violations:
        return Outcome("PAIRING", pairing_body(violations))
    doomed = sorted(set(doomed))
    if doomed:
        return Outcome("DEADLOCK", deadlock_body(doomed))
    return Outcome("STATE", state_body(view, rev))


@dataclass(frozen=True)
class EnumerationResult:
    outcomes: tuple[Outcome, ...]
    states: int

    @property
    def unique(self) -> bool:
        return len(self.outcomes) == 1


def _check_limits(program: ScriptProgram) -> None:
    if program.nthreads > MAX_THREADS:
        raise LimitError(
            f"enumeration supports at most {MAX_THREADS} threads, "
            f"got {program.nthreads}"
        )
    if program.max_ops() > MAX_OPS:
        raise LimitError(
            f"enumeration supports at most {MAX_OPS} operations per thread, "
            f"got {program.max_ops()}"
        )


# ----------------------------------------------------------------------
# programs decoded once per enumeration
# ----------------------------------------------------------------------

# Kinds of decoded operations; see _decode.
_READ, _WRITE, _ALLOC, _REL, _ACQ = range(5)

# Steps that touch only the running thread's own state in the
# paired-channel model; the shared-store model interleaves exactly these.
_PRIVATE = (_READ, _WRITE, _ALLOC)

# Decoded operations, indexed by thread, then by pc.
_Plan = tuple[tuple[tuple, ...], ...]


def _decode(program: ScriptProgram) -> _Plan:
    """Every thread's ops as flat tuples, decoded once per enumeration.

    What an op mints depends on its position alone: thread ``t``'s k-th
    write or allocation is stamped ``VersionStamp(t, k)``, its k-th
    allocation takes its k-th slot and its k-th sync event is labelled
    ``SyncLabel(t, k)``. So stamps, addresses and labels are built here,
    not on every state. The tuples are::

        (_READ, global address or None, cell, into)
        (_WRITE, global address or None, cell, expr, stamp)
        (_ALLOC, address, into, stamp)
        (_REL, label, partners, frozenset(partners))
        (_ACQ, label, frozenset(partners), sorted(partners), waits)

    A cell that is not a global is resolved through the thread's locals
    when the op runs. ``waits`` serves the shared-store model: one
    ``(u, pc)`` per partner ``(u, k)``, where ``pc`` is the first pc of
    thread ``u`` past its k-th sync event (past its last op if it has
    fewer).
    """
    table = global_addresses(name for name, _ in program.globals)
    # per thread: the first pc past its k-th sync event, at index k
    passed = [
        [0] + [pc + 1 for pc, op in enumerate(ops) if isinstance(op, (ReleaseOp, AcquireOp))]
        for ops in program.threads
    ]

    def past(label: SyncLabel) -> int:
        syncs = passed[label.thread]
        if label.seq < len(syncs):
            return syncs[label.seq]
        return len(program.threads[label.thread]) + 1

    plan = []
    for t, ops in enumerate(program.threads):
        base = len(program.globals) if t == ROOT_THREAD else 0
        nwrite = nalloc = nsync = 0
        decoded: list[tuple] = []
        for op in ops:
            if isinstance(op, ReadOp):
                decoded.append((_READ, table.get(op.cell), op.cell, op.into))
            elif isinstance(op, WriteOp):
                nwrite += 1
                stamp = VersionStamp(t, nwrite)
                decoded.append((_WRITE, table.get(op.cell), op.cell, op.expr, stamp))
            elif isinstance(op, AllocOp):
                nwrite += 1
                nalloc += 1
                stamp = VersionStamp(t, nwrite)
                decoded.append((_ALLOC, Address(t, base + nalloc), op.into, stamp))
            elif isinstance(op, ReleaseOp):
                nsync += 1
                partners = op.partners
                decoded.append((_REL, SyncLabel(t, nsync), partners, frozenset(partners)))
            elif isinstance(op, AcquireOp):
                nsync += 1
                partners = op.partners
                waits = tuple((label.thread, past(label)) for label in partners)
                decoded.append(
                    (_ACQ, SyncLabel(t, nsync), frozenset(partners), tuple(sorted(partners)), waits)
                )
            else:  # pragma: no cover - parser emits no other ops
                raise AssertionError(op)
        plan.append(tuple(decoded))
    return tuple(plan)


# ----------------------------------------------------------------------
# paired-channel simulator (observed-event-set semantics)
# ----------------------------------------------------------------------

# A release snapshot: (sorted (address, (event, value)) items, observed set)
_Snap = tuple[tuple[tuple[Address, tuple[VersionStamp, Any]], ...], frozenset]


class _SimThread:
    """One thread of a paired-channel state.

    Its write counter, allocation count and sync count are not kept: they
    follow from ``pc`` and ``status`` (see :func:`_decode`). ``_snap``
    and ``_key`` cache :meth:`snapshot` and :meth:`key`; only the owning
    state changes a thread, and it clears both first.
    """

    __slots__ = ("pc", "status", "locals", "store", "observed", "race", "_snap", "_key")

    def __init__(self, nops: int, init_store: dict[Address, tuple[VersionStamp, Any]]):
        self.pc = 0
        self.status = "run" if nops else "done"
        self.locals: dict[str, Any] = {}
        self.store = init_store
        self.observed: set[VersionStamp] = set()
        self.race: tuple[Conflict, ...] = ()
        self._snap: _Snap | None = None
        self._key: tuple | None = None

    def clone(self) -> "_SimThread":
        c = _SimThread.__new__(_SimThread)
        c.pc = self.pc
        c.status = self.status
        c.locals = dict(self.locals)
        c.store = dict(self.store)
        c.observed = set(self.observed)
        c.race = self.race
        c._snap = c._key = None
        return c

    def snapshot(self) -> _Snap:
        """What a release by this thread ships: its sorted store items and
        its observed set."""
        snap = self._snap
        if snap is None:
            snap = self._snap = (tuple(sorted(self.store.items())), frozenset(self.observed))
        return snap

    def key(self) -> tuple:
        key = self._key
        if key is None:
            key = self._key = (
                self.pc,
                self.status,
                tuple(sorted(self.locals.items())),
                self.snapshot(),
                self.race,
            )
        return key

    def seen(self, event: VersionStamp) -> bool:
        return event == INITIAL or event in self.observed


class _DcState:
    """A paired-channel state. Its threads are shared with the state it
    was cloned from until :meth:`_own` copies them; ``owned`` has bit
    ``t`` set once thread ``t`` belongs to this state alone."""

    __slots__ = ("plan", "threads", "owned", "targeted", "rel_targets", "claims", "violations")

    def __init__(self, program: ScriptProgram):
        self.plan = _decode(program)
        table = global_addresses(name for name, _ in program.globals)
        seed = {
            table[name]: (INITIAL, value) for name, value in program.globals
        }
        self.threads = [
            _SimThread(len(ops), dict(seed)) for ops in program.threads
        ]
        self.owned = (1 << len(self.threads)) - 1
        # acquire label -> {release label -> snapshot}; the inner maps are
        # replaced, never changed, so clones share them
        self.targeted: dict[SyncLabel, dict[SyncLabel, _Snap]] = {}
        # release label -> every acquire label it was aimed at
        self.rel_targets: dict[SyncLabel, frozenset[SyncLabel]] = {}
        # executed acquires -> the release labels they named
        self.claims: dict[SyncLabel, frozenset[SyncLabel]] = {}
        self.violations: tuple[str, ...] = ()

    def clone(self) -> "_DcState":
        c = _DcState.__new__(_DcState)
        c.plan = self.plan
        c.threads = list(self.threads)
        c.owned = self.owned = 0  # every thread is shared from now on
        c.targeted = dict(self.targeted)
        c.rel_targets = dict(self.rel_targets)
        c.claims = dict(self.claims)
        c.violations = self.violations
        return c

    def _own(self, t: int) -> _SimThread:
        """Thread ``t``, ready to be changed in place: copied on its first
        change since the last clone, its cached keys cleared."""
        th = self.threads[t]
        if self.owned >> t & 1:
            th._snap = th._key = None
        else:
            th = self.threads[t] = th.clone()
            self.owned |= 1 << t
        return th

    def key(self) -> tuple:
        return (
            tuple([th.key() for th in self.threads]),
            tuple([
                (acq, tuple(sorted(rels.items())))
                for acq, rels in sorted(self.targeted.items())
            ]),
            tuple(sorted(self.rel_targets.items())),
            tuple(sorted(self.claims.items())),
            tuple(sorted(self.violations)),
        )

    # -- scheduling ------------------------------------------------------

    def runnable(self) -> list[int]:
        out = []
        for t, th in enumerate(self.threads):
            if th.status != "run":
                continue
            op = self.plan[t][th.pc]
            if op[0] == _ACQ and self._acq_mode(op) == "blocked":
                continue
            out.append(t)
        return out

    def _acq_mode(self, op: tuple) -> str:
        """ready: all named releases deposited; error: the event would
        fault on a pairing check the moment it runs; blocked: otherwise."""
        _, acq, named, ordered, _ = op
        pending = self.targeted.get(acq, {})
        if not pending.keys() <= named:
            return "error"
        for rel in ordered:
            aimed = self.rel_targets.get(rel)
            if aimed and acq not in aimed:
                return "error"
        if len(pending) == len(named):
            return "ready"
        return "blocked"

    # -- transition -------------------------------------------------------

    def settle(self) -> None:
        """Run every thread's leading READ/WRITE/ALLOC ops in place.

        They read and write only the thread's own store, locals and
        observed set, which no other thread's step reads, and nothing can
        disable them; so they commute with every other step.
        """
        for t, ops in enumerate(self.plan):
            th = self.threads[t]
            while th.status == "run" and ops[th.pc][0] in _PRIVATE:
                self.step(t)
                th = self.threads[t]  # step() copies a shared thread

    def step(self, t: int) -> None:
        """Run thread ``t``'s next operation in place."""
        th = self._own(t)
        ops = self.plan[t]
        op = ops[th.pc]
        kind = op[0]
        if kind == _READ:
            _, addr, cell, into = op
            th.locals[into] = th.store[addr or th.locals[cell]][1]
        elif kind == _WRITE:
            _, addr, cell, expr, event = op
            addr = addr or th.locals[cell]
            th.store[addr] = (event, eval_expr(expr, th.locals))
            th.observed.add(event)
        elif kind == _ALLOC:
            _, addr, into, event = op
            th.store[addr] = (event, None)
            th.observed.add(event)
            th.locals[into] = addr
        elif kind == _REL:
            self._release(t, th, op)
        else:
            self._acquire(t, th, op)
        if th.status == "run":
            th.pc += 1
            if th.pc == len(ops):
                th.status = "done"

    def _fault(self, t: int, err: PairingError) -> None:
        self.violations = self.violations + (str(err),)
        self._own(t).status = "error"

    def _release(self, t: int, th: _SimThread, op: tuple) -> None:
        _, rel, partners, aimed = op
        snap = th.snapshot()
        self.rel_targets[rel] = aimed
        for target in partners:
            claimed = self.claims.get(target)
            if claimed is not None and rel not in claimed:
                self._fault(
                    t, PairingError("acquire", target, tuple(claimed) + (rel,))
                )
                return
            pending = self.targeted.get(target)
            self.targeted[target] = {**pending, rel: snap} if pending else {rel: snap}

    def _acquire(self, t: int, th: _SimThread, op: tuple) -> None:
        _, acq, named, ordered, _ = op
        self.claims[acq] = named
        pending = self.targeted.get(acq, {})
        extras = pending.keys() - named
        if extras:
            self._fault(t, PairingError("acquire", acq, tuple(named | extras)))
            return
        for rel in ordered:
            aimed = self.rel_targets.get(rel)
            if aimed and acq not in aimed:
                self._fault(t, PairingError("release", rel, tuple(aimed) + (acq,)))
                return
        snaps = [pending[rel] for rel in ordered]
        self.targeted.pop(acq, None)
        for snap in snaps:
            conflicts = self._apply(th, snap)
            if conflicts:
                th.race = conflicts
                th.status = "error"
                return

    def _apply(self, th: _SimThread, snap: _Snap) -> tuple[Conflict, ...]:
        """Merge one snapshot: per cell, keep what the reader already saw,
        adopt what the sender provably postdates, and call everything else
        a conflict. All cells merge or none do."""
        items, sender_seen = snap
        adopt: list[tuple[Address, tuple[VersionStamp, Any]]] = []
        conflicts: list[Conflict] = []
        for addr, (event, value) in items:
            local = th.store.get(addr)
            if local is None:
                adopt.append((addr, (event, value)))
                continue
            if th.seen(event):
                continue
            if local[0] == INITIAL or local[0] in sender_seen:
                adopt.append((addr, (event, value)))
            else:
                conflicts.append(Conflict(addr, local[0], event))
        if conflicts:
            return tuple(conflicts)
        for addr, cell in adopt:
            th.store[addr] = cell
        th.observed |= sender_seen
        return ()

    # -- terminal ----------------------------------------------------------

    def outcome(self, rev: Mapping[Address, str]) -> Outcome:
        violations = list(self.violations)
        for target, pending in self.targeted.items():
            if target not in self.claims and len(pending) > 1:
                violations.append(
                    str(PairingError("acquire", target, tuple(pending)))
                )
        races = {
            t: th.race for t, th in enumerate(self.threads) if th.race
        }
        doomed = [t for t, th in enumerate(self.threads) if th.status == "run"]
        view = {addr: value for addr, (_, value) in self.threads[0].store.items()}
        return derive_outcome(view, races, violations, doomed, rev)


def _explore(
    init: "_DcState | _ScState", program: ScriptProgram, max_states: int
) -> EnumerationResult:
    """Depth-first search over whole-operation interleavings from ``init``,
    with state deduplication.

    Every state is settled before its key is taken, so only the steps
    that can interact are interleaved; ``states`` counts distinct settled
    states.
    """
    _check_limits(program)
    rev = _reverse_names(program)
    init.settle()
    seen = {init.key()}
    stack = [init]
    outcomes: set[Outcome] = set()
    while stack:
        st = stack.pop()
        frontier = st.runnable()
        if not frontier:
            outcomes.add(st.outcome(rev))
            continue
        for t in frontier:
            nxt = st.clone()
            nxt.step(t)
            nxt.settle()
            known = len(seen)
            seen.add(nxt.key())  # one hash of the key: a repeat leaves len as is
            if len(seen) == known:
                continue
            if known >= max_states:
                raise LimitError(f"state budget exceeded ({max_states})")
            stack.append(nxt)
    return EnumerationResult(tuple(sorted(outcomes)), len(seen))


def enumerate_dc(
    program: ScriptProgram, max_states: int = DEFAULT_MAX_STATES
) -> EnumerationResult:
    """All outcomes reachable under any schedule of the paired-channel
    model.

    Each thread's READ/WRITE/ALLOC ops run eagerly, since they touch only
    its private workspace; the search interleaves the sync events alone.
    """
    return _explore(_DcState(program), program, max_states)


# ----------------------------------------------------------------------
# sequentially consistent simulator
# ----------------------------------------------------------------------


class _ScState:
    """A shared-store state. A thread's event counter is not kept: it
    follows from its pc (see :func:`_decode`). Per-thread locals are
    shared with the state this one was cloned from until
    :meth:`_own_locals` copies them; ``lkeys`` caches each thread's part
    of the key, None once it may be stale."""

    __slots__ = ("plan", "pcs", "locals", "lkeys", "owned", "shared")

    def __init__(self, program: ScriptProgram):
        self.plan = _decode(program)
        n = program.nthreads
        table = global_addresses(name for name, _ in program.globals)
        self.pcs = [0] * n
        self.locals: list[dict[str, Any]] = [{} for _ in range(n)]
        self.lkeys: list[tuple | None] = [None] * n
        self.owned = (1 << n) - 1
        self.shared: dict[Address, Any] = {
            table[name]: value for name, value in program.globals
        }

    def clone(self) -> "_ScState":
        c = _ScState.__new__(_ScState)
        c.plan = self.plan
        c.pcs = list(self.pcs)
        c.locals = list(self.locals)
        c.lkeys = list(self.lkeys)
        c.owned = self.owned = 0  # every locals map is shared from now on
        c.shared = dict(self.shared)
        return c

    def _own_locals(self, t: int) -> dict[str, Any]:
        """Thread ``t``'s locals, ready to be changed in place: copied on
        their first change since the last clone, their key part cleared."""
        locals_ = self.locals[t]
        if not self.owned >> t & 1:
            locals_ = self.locals[t] = locals_.copy()
            self.owned |= 1 << t
        self.lkeys[t] = None
        return locals_

    def key(self) -> tuple:
        lkeys = self.lkeys
        for t, part in enumerate(lkeys):
            if part is None:
                lkeys[t] = tuple(sorted(self.locals[t].items()))
        return (tuple(self.pcs), tuple(lkeys), tuple(sorted(self.shared.items())))

    def _enabled(self, op: tuple) -> bool:
        pcs = self.pcs
        return op[0] != _ACQ or all(pcs[u] >= pc for u, pc in op[4])

    def runnable(self) -> list[int]:
        pcs = self.pcs
        return [
            t
            for t, ops in enumerate(self.plan)
            if pcs[t] < len(ops) and self._enabled(ops[pcs[t]])
        ]

    def settle(self) -> None:
        """Run every enabled REL/ACQ in place, until none is left.

        A sync op only increments its own thread's event counter: that can
        enable another thread's acquire but can disable or change nothing,
        so it commutes with every other step.
        """
        pcs = self.pcs
        progress = True
        while progress:
            progress = False
            for t, ops in enumerate(self.plan):
                pc = pcs[t]
                while pc < len(ops) and ops[pc][0] not in _PRIVATE and self._enabled(ops[pc]):
                    pc += 1  # all that step() does for a sync op
                if pc != pcs[t]:
                    pcs[t] = pc
                    progress = True

    def step(self, t: int) -> None:
        """Run thread ``t``'s next operation in place."""
        op = self.plan[t][self.pcs[t]]
        kind = op[0]
        if kind == _READ:
            _, addr, cell, into = op
            locals_ = self._own_locals(t)
            locals_[into] = self.shared[addr or locals_[cell]]
        elif kind == _WRITE:
            _, addr, cell, expr, _ = op
            locals_ = self.locals[t]
            addr = addr or locals_[cell]
            self.shared[addr] = eval_expr(expr, locals_)
        elif kind == _ALLOC:
            _, addr, into, _ = op
            self.shared[addr] = None
            self._own_locals(t)[into] = addr
        # Under the flat model a sync event only advances the counter an
        # acquire waits on, which is the pc; no payload moves because
        # memory is shared.
        self.pcs[t] += 1

    def outcome(self, rev: Mapping[Address, str]) -> Outcome:
        blocked = [
            t for t, ops in enumerate(self.plan) if self.pcs[t] < len(ops)
        ]
        if blocked:
            return Outcome("DEADLOCK", deadlock_body(blocked))
        return Outcome("STATE", state_body(self.shared, rev))


def enumerate_sc(
    program: ScriptProgram, max_states: int = DEFAULT_MAX_STATES
) -> EnumerationResult:
    """All outcomes of the same script over a single shared store.

    Enabled REL/ACQ ops run eagerly, since they only advance their own
    thread's event counter; the search interleaves the memory operations
    alone.
    """
    return _explore(_ScState(program), program, max_states)


# ----------------------------------------------------------------------
# execution on the real stack
# ----------------------------------------------------------------------


def run_on_runtime(
    program: ScriptProgram, seed: int | None = None, delay: float = 0.002
) -> Outcome:
    """Execute the script on :class:`Runtime`, one logical thread per
    script thread.

    Thread 0 is the runtime's root and runs on the calling thread; the
    others run on OS threads the runtime launches. Every thread sleeps a
    seeded pseudo-random amount before each operation, so different seeds
    exercise genuinely different schedules. The result is folded by the
    same rule as the enumerators.
    """
    rt = Runtime(dict(program.globals), seed=seed, delay=delay)
    names = rt.names

    def script_main(ctx: ThreadCtx) -> None:
        locals_: dict[str, Any] = {}
        for op in program.threads[ctx.tid]:
            if isinstance(op, ReadOp):
                locals_[op.into] = ctx.read(names.get(op.cell) or locals_[op.cell])
            elif isinstance(op, WriteOp):
                addr = names.get(op.cell) or locals_[op.cell]
                ctx.write(addr, eval_expr(op.expr, locals_))
            elif isinstance(op, AllocOp):
                locals_[op.into] = ctx.alloc(None)
            elif isinstance(op, ReleaseOp):
                ctx.ep.release_set(ctx.ws, op.partners)
            elif isinstance(op, AcquireOp):
                ctx.ep.acquire_set(ctx.ws, op.partners)

    root = rt.root()
    peers = [rt._peer(t, seeded=True) for t in rt._claim_tids(program.nthreads - 1)]
    for ctx in peers:
        rt._launch(ctx, script_main)
    rt._run(root, script_main)
    rt.finish()

    errors = rt.errors
    races = {
        t: e.conflicts for t, e in errors.items() if isinstance(e, DataRaceError)
    }
    crashes = {
        t: e
        for t, e in errors.items()
        if not isinstance(e, (DataRaceError, PairingError, DeadlockError))
    }
    view = {addr: cell.value for addr, cell in root.ws.cells.items()}
    return derive_outcome(
        view,
        races,
        rt.registry.violations(),
        rt.registry.doomed(),
        _reverse_names(program),
        crashes,
    )


# ----------------------------------------------------------------------
# cross-checking
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CheckReport:
    """Enumeration versus many perturbed executions of one program."""

    program: str
    dc: EnumerationResult
    trials: int
    trial_outcomes: tuple[Outcome, ...]  # distinct, sorted

    @property
    def deterministic(self) -> bool:
        return self.dc.unique and self.trial_outcomes == self.dc.outcomes


def check_program(
    program: ScriptProgram,
    trials: int = 100,
    seed: int = 0,
    delay: float = 0.002,
    max_states: int = DEFAULT_MAX_STATES,
) -> CheckReport:
    dc = enumerate_dc(program, max_states)
    seen: set[Outcome] = set()
    for i in range(trials):
        seen.add(run_on_runtime(program, seed=seed + i, delay=delay))
    return CheckReport(
        program=program.name,
        dc=dc,
        trials=trials,
        trial_outcomes=tuple(sorted(seen)),
    )


# ----------------------------------------------------------------------
# bundled example programs
# ----------------------------------------------------------------------


def corpus_names() -> list[str]:
    root = resources.files("determ") / "corpus"
    return sorted(
        p.name[: -len(".txt")] for p in root.iterdir() if p.name.endswith(".txt")
    )


def load_corpus(name: str) -> ScriptProgram:
    root = resources.files("determ") / "corpus"
    path = root / f"{name}.txt"
    return parse_script(path.read_text(), name=name)
