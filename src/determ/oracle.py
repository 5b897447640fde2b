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
a singleton persistent set (Godefroid 1996; Flanagan & Godefroid, POPL
2005). Before a state is deduplicated, its ``settle`` step runs, in
place, every step of a thread ``t`` that

* is enabled, and cannot be disabled by another thread's step;
* conflicts with no op of any other live thread from that thread's pc
  onward.

Along any path from the state that does not take such a step, the other
threads run only ops it does not conflict with, and it stays enabled;
so a terminal state, deadlocks included, is only reached once it has
run, and moving it to the front of the path crosses only steps it
commutes with. Every terminal state stays reachable: the outcome set is
exact and only the count of states shrinks.

Two ops of different threads conflict when running them in the other
order may change what either does:

* paired-channel model: READ, WRITE and ALLOC touch only the thread's
  private workspace and conflict with nothing. Neither do two sync
  events of one kind:

  - Two RELs commute. A REL reads only ``claims``, which only ACQs
    write, and its own thread. It writes only entries keyed by its own
    label (``rel_targets[r]``, ``targeted[L][r]``), its own status and
    the violations, which are compared as a set. A REL is always
    enabled.
  - Two ACQs commute. An ACQ reads ``targeted`` at its own label and
    ``rel_targets``, which only RELs write. It writes ``claims`` at its
    own label, which only RELs read, and pops its own ``targeted``
    entry. So whether it is ready, or faults, depends on RELs alone.

  A REL ``r`` and an ACQ at ``L`` conflict unless "``L`` names ``r``"
  and "``r`` targets ``L``" are both true or both false. Both false,
  they touch disjoint channel entries. Both true, they are a matched
  pair: the ACQ cannot complete before ``r`` is deposited, and if it
  faults on another label first, ``r`` still finds itself among its
  claims and deposits as it would have, while the fault names the same
  labels in either order. So once an ACQ is ready, only a REL aimed at
  it that it does not name, a conflict, can make it fault instead.
* shared store: REL and ACQ only advance their thread's event counter,
  which can enable another thread's acquire but disable or change
  nothing, so every enabled one settles. READ ``g`` conflicts with
  WRITE ``g``, and WRITE ``g`` with any access to ``g``. An access
  through a local and an ALLOC conflict with nothing: handles never
  leave their thread. The parser forbids computing with a handle; a
  WRITE stores an integer expression over value locals and an ALLOC
  ``None``, so no cell ever holds an address, and a handle reaches only
  its own thread's fresh cells. A ``@t.k`` name for another thread's
  cell would break this premise and must bring a rule back. An inert
  READ (below) conflicts with nothing.

The shared-store model also prunes by liveness (Bozga, Fernandez &
Ghirvu, SAS 1999). A local of thread ``t`` is live at a pc when some op
of ``t`` from that pc on reads it before binding it again; an op reads
the local its cell is reached through, and a WRITE also the locals of
its expression. :func:`_liveness` computes this once per enumeration.
Two states that agree on every pc, on the store and on every live local
reach the same outcomes: an op reads live locals alone, whether it is
enabled depends on the pcs alone, and an outcome, the final store or the
blocked set, reads no local at all. So ``settle`` drops each thread's
dead locals before the key is taken, and states that differ only in
dead values merge. A READ whose local is dead right after it is
*inert*: all it changes of the pcs, the store and the live locals is its
own pc. It is always enabled, and run in either order with any other
step it leaves states that agree on all three; so it joins no conflict
pool, has an empty horizon and settles at once. The unreduced explorer
never settles, so it keeps every local and stays the reference. The
paired-channel model keeps every local: its reads conflict with nothing
already.

:func:`_decode` sums up each op's conflicts once per enumeration as its
horizon: for every other thread that holds ops it conflicts with, the
first pc past the last of them. The op is free of conflicts once every
other live thread has reached its horizon, a test of O(threads) per
step.

A paired-channel state copies its threads at a clone. Every other part
a clone shares is replaced, never changed in place, so neither side can
change what the other sees: a shared-store step builds its thread's new
locals, or the new store, and leaves the old one to whoever still holds
it. The shared-store state caches each part's share of the dedup key
and drops it when the part is replaced; the paired-channel state caches
no key, since settling leaves its search one state per well-paired
script. Over perfbench's seed-1001 verify pool, all 512 paired-channel
enumerations end at their first state without a clone, while the 256
shared-store ones reach 4,634 states through 7,081 clones. The ops are
decoded once per enumeration (:func:`_ops`), with the labels, stamps
and addresses they mint.

:func:`run_on_runtime` executes the program on :class:`Runtime`, the
same executor library programs run on, under a seeded schedule
perturbation, and :func:`check_program` cross-checks many such runs
against the enumeration.

Enumeration treats each scripted operation as atomic. That matches the
runtime, whose registry updates happen under one lock.
"""
from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    ConfigError,
    DataRaceError,
    DeadlockError,
    LimitError,
    PairingError,
)
from .runtime import Runtime, ThreadCtx, check_delay
from .script import (
    AcquireOp,
    AllocOp,
    ReadOp,
    ReleaseOp,
    ScriptProgram,
    WriteOp,
    eval_expr,
    expr_locals,
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

# Kinds of decoded operations; see _ops.
_READ, _WRITE, _ALLOC, _REL, _ACQ = range(5)
# The ops that can conflict: sync events in the paired-channel model,
# memory operations in the shared-store model.
_SYNC = (_REL, _ACQ)
_MEMORY = (_READ, _WRITE, _ALLOC)

# Decoded operations, indexed by thread, then by pc.
_Plan = tuple[tuple[tuple, ...], ...]

# Per thread, per pc: ((u, pc), ...) for each other thread u that holds
# an op the op conflicts with, pc being the first pc of u past all of them.
_Horizons = tuple[tuple[tuple[tuple[int, int], ...], ...], ...]

# Per thread, per pc up to its end: the locals live there.
_Live = tuple[tuple[frozenset[str], ...], ...]


class _Decoded(NamedTuple):
    """What :func:`_ops` decodes: the plan, each global's initial value
    by address, and each global's name by address."""

    plan: _Plan
    cells: dict[Address, Any]
    rev: dict[Address, str]


def _decode(plan: _Plan, pooled: Sequence[Sequence[bool]], conflict) -> _Horizons:
    """Each op's horizon under the model's ``conflict`` rule, computed
    once per enumeration. ``pooled[t][pc]`` says whether thread ``t``'s
    op at ``pc`` joins the conflict pool; an op outside it conflicts with
    nothing and gets an empty horizon."""
    # per thread: (first pc past it, op) for each pooled op, last first
    backwards = [
        [(pc, op) for pc, (op, joins) in enumerate(zip(ops, pool), 1) if joins][::-1]
        for ops, pool in zip(plan, pooled)
    ]
    return tuple(
        tuple(
            _horizon(backwards, t, op, conflict) if joins else ()
            for op, joins in zip(ops, pool)
        )
        for t, (ops, pool) in enumerate(zip(plan, pooled))
    )


def _horizon(backwards: list, t: int, op: tuple, conflict) -> tuple[tuple[int, int], ...]:
    """For each thread but ``t`` that holds an op conflicting with
    ``op``: the thread and the first pc past the last such op."""
    out = []
    for u, ops in enumerate(backwards):
        if u != t:
            for pc, other in ops:
                if conflict(op, other):
                    out.append((u, pc))
                    break
    return tuple(out)


def _liveness(plan: _Plan) -> _Live:
    """Per thread, per pc up to and including its end, the locals that
    are live there (see the module docstring). Nothing is live at a
    thread's end."""
    out = []
    for ops in plan:
        live: set[str] = set()
        at = [frozenset()]
        for op in reversed(ops):
            kind = op[0]
            if kind == _ALLOC:
                live.discard(op[2])
            elif kind in (_READ, _WRITE):
                if kind == _READ:
                    live.discard(op[3])
                else:
                    live.update(expr_locals(op[3]))
                if op[1] is None:  # the cell is reached through a local
                    live.add(op[2])
            at.append(frozenset(live))
        out.append(tuple(reversed(at)))
    return tuple(out)


def _dc_conflict(a: tuple, b: tuple) -> bool:
    """Paired-channel conflicts, between a REL and an ACQ alone: unless
    each names the other or neither does. Two sync events of one kind
    commute (see the module docstring)."""
    if a[0] == b[0]:
        return False
    rel, acq = (a, b) if a[0] == _REL else (b, a)
    return (rel[1] in acq[2]) != (acq[1] in rel[3])


def _sc_conflict(a: tuple, b: tuple) -> bool:
    """Shared-store conflicts: on one global when either writes it. An
    access through a handle and an ALLOC reach only their own thread's
    fresh cells, so they conflict with nothing."""
    return a[1] is not None and a[1] == b[1] and _WRITE in (a[0], b[0])


def _ops(program: ScriptProgram) -> _Decoded:
    """Every thread's ops as flat tuples, decoded once per enumeration,
    with the global table they were decoded against.

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
    return _Decoded(
        tuple(plan),
        {table[name]: value for name, value in program.globals},
        {addr: name for name, addr in table.items()},
    )


# ----------------------------------------------------------------------
# paired-channel simulator (observed-event-set semantics)
# ----------------------------------------------------------------------

# A release snapshot: (sorted (address, (event, value)) items, observed set)
_Snap = tuple[tuple[tuple[Address, tuple[VersionStamp, Any]], ...], frozenset]


class _SimThread:
    """One thread of a paired-channel state.

    Its write counter, allocation count and sync count are not kept: they
    follow from ``pc`` and ``status`` (see :func:`_ops`). ``observed``
    holds the initial stamp from the start, as every thread has seen the
    globals' initial values.
    """

    __slots__ = ("pc", "status", "locals", "store", "observed", "race")

    def __init__(self, nops: int, init_store: dict[Address, tuple[VersionStamp, Any]]):
        self.pc = 0
        self.status = "run" if nops else "done"
        self.locals: dict[str, Any] = {}
        self.store = init_store
        self.observed: set[VersionStamp] = {INITIAL}
        self.race: tuple[Conflict, ...] = ()

    def clone(self) -> "_SimThread":
        c = _SimThread.__new__(_SimThread)
        c.pc = self.pc
        c.status = self.status
        c.locals = dict(self.locals)
        c.store = dict(self.store)
        c.observed = set(self.observed)
        c.race = self.race
        return c

    def snapshot(self) -> _Snap:
        """What a release by this thread ships: its sorted store items and
        its observed set."""
        return (tuple(sorted(self.store.items())), frozenset(self.observed))

    def key(self) -> tuple:
        locals_ = tuple(sorted(self.locals.items()))
        return (self.pc, self.status, locals_, self.snapshot(), self.race)


class _DcState:
    """A paired-channel state, a plain value: a clone copies every
    thread, and a step changes its thread in place."""

    __slots__ = ("plan", "horizons", "threads", "targeted", "rel_targets", "claims", "violations")

    def __init__(self, decoded: _Decoded):
        self.plan = decoded.plan
        pooled = [[op[0] in _SYNC for op in ops] for ops in self.plan]
        self.horizons = _decode(self.plan, pooled, _dc_conflict)
        seed = {addr: (INITIAL, value) for addr, value in decoded.cells.items()}
        self.threads = [_SimThread(len(ops), dict(seed)) for ops in self.plan]
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
        c.horizons = self.horizons
        c.threads = [th.clone() for th in self.threads]
        c.targeted = dict(self.targeted)
        c.rel_targets = dict(self.rel_targets)
        c.claims = dict(self.claims)
        c.violations = self.violations
        return c

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
        if self._acq_fault(op) is not None:
            return "error"
        if len(self.targeted.get(op[1], ())) == len(op[2]):
            return "ready"
        return "blocked"

    def _acq_fault(self, op: tuple) -> PairingError | None:
        """The pairing fault the ACQ ``op`` raises if it runs now: a
        deposit aimed at it that it does not name, or a release it names
        that is aimed elsewhere; None if there is none."""
        _, acq, named, ordered, _ = op
        pending = self.targeted.get(acq, {})
        if not pending.keys() <= named:
            return PairingError("acquire", acq, tuple(named.union(pending)))
        for rel in ordered:
            aimed = self.rel_targets.get(rel)
            if aimed and acq not in aimed:
                return PairingError("release", rel, tuple(aimed) + (acq,))
        return None

    # -- transition -------------------------------------------------------

    def settle(self) -> None:
        """Run in place, until none is left, every step no other thread
        can interact with: every READ, WRITE and ALLOC, which touch only
        the thread's own parts, and every REL, and every ready ACQ, once
        every other live thread is past its horizon (see the module
        docstring)."""
        plan, horizons, threads = self.plan, self.horizons, self.threads
        n = len(plan)
        t = idle = 0
        while idle < n:  # stop once every thread was found stuck in a row
            ops, th = plan[t], threads[t]
            synced = False  # private steps concern no other thread
            while th.status == "run":
                pc = th.pc
                kind = ops[pc][0]
                if kind >= _REL:
                    if kind == _ACQ and self._acq_mode(ops[pc]) != "ready":
                        break
                    if not self._past(horizons[t][pc]):
                        break
                    synced = True
                self.step(t)
            idle = 1 if synced else idle + 1
            t = t + 1 if t + 1 < n else 0

    def _past(self, horizon: tuple[tuple[int, int], ...]) -> bool:
        """Whether every live thread is past ``horizon``."""
        threads = self.threads
        for u, pc in horizon:
            th = threads[u]
            if th.pc < pc and th.status == "run":
                return False
        return True

    def step(self, t: int) -> None:
        """Run thread ``t``'s next operation in place."""
        th = self.threads[t]
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
        self.threads[t].status = "error"

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
        err = self._acq_fault(op)
        if err is not None:
            self._fault(t, err)
            return
        pending = self.targeted.get(acq, {})
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
            if event in th.observed:
                continue
            if local[0] in sender_seen:
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
        doomed = [t for t, th in enumerate(self.threads) if th.status == "run"]
        # A doomed thread's pending ACQ counts as claimed with its named
        # set, as the runtime posts a claim before it blocks.
        claimed = self.claims.keys() | {self.plan[t][self.threads[t].pc][1] for t in doomed}
        violations = list(self.violations)
        for target, pending in self.targeted.items():
            if target not in claimed and len(pending) > 1:
                violations.append(
                    str(PairingError("acquire", target, tuple(pending)))
                )
        races = {
            t: th.race for t, th in enumerate(self.threads) if th.race
        }
        view = {addr: value for addr, (_, value) in self.threads[0].store.items()}
        return derive_outcome(view, races, violations, doomed, rev)


def _explore(
    model: "type[_DcState] | type[_ScState]", program: ScriptProgram, max_states: int
) -> EnumerationResult:
    """Depth-first search over whole-operation interleavings from the
    ``model``'s initial state of ``program``, with state deduplication.

    Every state is settled before its key is taken, so only the steps
    that can interact are interleaved; ``states`` counts distinct settled
    states, the initial one included. Only successors are keyed: a step
    moves a pc or ends a thread, so no path comes back to a state it
    passed, and the initial state's key would never be matched.
    """
    if max_states < 1:
        raise ConfigError(f"max_states must be at least 1, got {max_states}")
    _check_limits(program)
    decoded = _ops(program)
    init = model(decoded)
    init.settle()
    seen: set[tuple] = set()
    stack = [init]
    outcomes: set[Outcome] = set()
    while stack:
        st = stack.pop()
        frontier = st.runnable()
        if not frontier:
            outcomes.add(st.outcome(decoded.rev))
            continue
        for t in frontier:
            nxt = st.clone()
            nxt.step(t)
            nxt.settle()
            known = len(seen)
            seen.add(nxt.key())  # one hash of the key: a repeat leaves len as is
            if len(seen) == known:
                continue
            if known + 1 >= max_states:
                raise LimitError(f"state budget exceeded ({max_states})")
            stack.append(nxt)
    return EnumerationResult(tuple(sorted(outcomes)), len(seen) + 1)


def enumerate_dc(
    program: ScriptProgram, max_states: int = DEFAULT_MAX_STATES
) -> EnumerationResult:
    """All outcomes reachable under any schedule of the paired-channel
    model.

    Each thread's READ/WRITE/ALLOC ops run eagerly, since they touch only
    its private workspace, and so does each enabled sync event that is
    mis-paired with no other thread's remaining sync event; the search
    interleaves the rest.
    """
    return _explore(_DcState, program, max_states)


# ----------------------------------------------------------------------
# sequentially consistent simulator
# ----------------------------------------------------------------------


class _ScState:
    """A shared-store state. A thread's event counter is not kept: it
    follows from its pc (see :func:`_ops`). A clone shares each
    thread's locals and the store with the state it was cloned from, so
    a step replaces such a part and never changes it in place. ``lkeys``
    caches each thread's part of the key and ``skey`` the store's, None
    once their part is replaced. A settled state keeps only the live
    locals of each thread (see :meth:`settle`)."""

    __slots__ = ("plan", "steps", "gates", "live", "pcs", "locals", "lkeys", "shared", "skey")

    def __init__(self, decoded: _Decoded):
        self.plan = decoded.plan
        self.live = _liveness(self.plan)
        # per thread, per pc: True for a memory operation whose effect is
        # kept, which joins the conflict pool and which settling runs;
        # False for a REL, an ACQ or an inert READ, which settling only
        # moves the pc past
        self.steps = tuple(
            tuple(
                op[0] in _MEMORY and not (op[0] == _READ and op[3] not in live[pc + 1])
                for pc, op in enumerate(ops)
            )
            for ops, live in zip(self.plan, self.live)
        )
        horizons = _decode(self.plan, self.steps, _sc_conflict)
        # per thread, per pc: the ((u, pc), ...) that settling the op
        # waits for, each thread u to reach pc: an ACQ's partner events,
        # a memory operation's horizon, nothing for a REL
        self.gates = tuple(
            tuple(op[4] if op[0] == _ACQ else h for op, h in zip(ops, hs))
            for ops, hs in zip(self.plan, horizons)
        )
        n = len(self.plan)
        self.pcs = [0] * n
        self.locals: list[dict[str, Any]] = [{} for _ in range(n)]
        self.lkeys: list[tuple | None] = [None] * n
        self.shared: dict[Address, Any] = dict(decoded.cells)
        self.skey: tuple | None = None

    def clone(self) -> "_ScState":
        c = _ScState.__new__(_ScState)
        c.plan = self.plan
        c.steps = self.steps
        c.gates = self.gates
        c.live = self.live
        c.pcs = list(self.pcs)
        c.locals = list(self.locals)
        c.lkeys = list(self.lkeys)
        c.shared = self.shared
        c.skey = self.skey
        return c

    def key(self) -> tuple:
        lkeys = self.lkeys
        for t, part in enumerate(lkeys):
            if part is None:
                lkeys[t] = tuple(sorted(self.locals[t].items()))
        skey = self.skey
        if skey is None:
            skey = self.skey = tuple(sorted(self.shared.items()))
        return (tuple(self.pcs), tuple(lkeys), skey)

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
        """Run in place, until none is left, every enabled REL/ACQ,
        every inert READ and every memory operation whose horizon every
        other unfinished thread is past; then drop every thread's dead
        locals (see the module docstring)."""
        steps, gates, pcs = self.steps, self.gates, self.pcs
        n = len(gates)
        t = idle = 0
        while idle < n:  # stop once every thread was found stuck in a row
            gate = gates[t]
            pc = start = pcs[t]
            end = len(gate)
            while pc < end:
                for u, need in gate[pc]:
                    if pcs[u] < need:
                        break
                else:
                    if steps[t][pc]:
                        self.step(t)
                    else:
                        pcs[t] = pc + 1  # all a sync op does; an inert READ binds a dead local
                    pc += 1
                    continue
                break
            idle = 1 if pc != start else idle + 1
            t = t + 1 if t + 1 < n else 0
        for t, (locals_, live) in enumerate(zip(self.locals, self.live)):
            live = live[pcs[t]]
            if not live.issuperset(locals_):
                self.locals[t] = {k: v for k, v in locals_.items() if k in live}
                self.lkeys[t] = None

    def step(self, t: int) -> None:
        """Run thread ``t``'s next operation in place."""
        op = self.plan[t][self.pcs[t]]
        kind = op[0]
        if kind == _READ:
            _, addr, cell, into = op
            locals_ = self.locals[t]
            self.locals[t] = {**locals_, into: self.shared[addr or locals_[cell]]}
            self.lkeys[t] = None
        elif kind == _WRITE:
            _, addr, cell, expr, _ = op
            locals_ = self.locals[t]
            self.shared = {**self.shared, addr or locals_[cell]: eval_expr(expr, locals_)}
            self.skey = None
        elif kind == _ALLOC:
            _, addr, into, _ = op
            self.shared = {**self.shared, addr: None}
            self.skey = None
            self.locals[t] = {**self.locals[t], into: addr}
            self.lkeys[t] = None
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
    thread's event counter, and so do READs whose value is never used,
    accesses through handles and ALLOCs, which reach only their own
    thread's cells, and accesses to a global that no other thread's
    remaining accesses can interact with; the search interleaves the
    rest. States that differ only in values no op will read are one state.
    """
    return _explore(_ScState, program, max_states)


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
    try:
        for t in root._child_tids(program.nthreads - 1):
            rt._launch(ThreadCtx(rt, t, seeded=True), script_main)
    except BaseException:
        rt.finish()  # ends the root, so the launched peers settle
        raise
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
        {addr: name for name, addr in names.items()},
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
    if trials < 1:
        raise ConfigError(f"trials must be at least 1, got {trials}")
    check_delay(delay)
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
