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
whose violations are intra-event unambiguous. Separately, the runtime
dooms a thread caught in a wait cycle at once, while the model still
lets a later mis-paired release fault it, so a run of such a program can
report fewer pairing violations than the enumeration.
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
# paired-channel simulator (observed-event-set semantics)
# ----------------------------------------------------------------------

# Steps that touch only the running thread's own state in the
# paired-channel model; the shared-store model interleaves exactly these.
_PRIVATE_OPS = (ReadOp, WriteOp, AllocOp)

# A release snapshot: (sorted (address, (event, value)) items, observed set)
_Snap = tuple[tuple[tuple[Address, tuple[VersionStamp, Any]], ...], frozenset]


class _SimThread:
    __slots__ = (
        "pc",
        "status",
        "locals",
        "store",
        "observed",
        "wseq",
        "nalloc",
        "nsync",
        "race",
    )

    def __init__(self, nops: int, init_store: dict[Address, tuple[VersionStamp, Any]]):
        self.pc = 0
        self.status = "run" if nops else "done"
        self.locals: dict[str, Any] = {}
        self.store = init_store
        self.observed: set[VersionStamp] = set()
        self.wseq = 0
        self.nalloc = 0
        self.nsync = 0
        self.race: tuple[Conflict, ...] = ()

    def clone(self) -> "_SimThread":
        c = _SimThread.__new__(_SimThread)
        c.pc = self.pc
        c.status = self.status
        c.locals = dict(self.locals)
        c.store = dict(self.store)
        c.observed = set(self.observed)
        c.wseq = self.wseq
        c.nalloc = self.nalloc
        c.nsync = self.nsync
        c.race = self.race
        return c

    def key(self) -> tuple:
        return (
            self.pc,
            self.status,
            tuple(sorted(self.locals.items())),
            tuple(sorted(self.store.items())),
            tuple(sorted(self.observed)),
            self.wseq,
            self.nalloc,
            self.nsync,
            self.race,
        )

    def seen(self, event: VersionStamp) -> bool:
        return event == INITIAL or event in self.observed


class _DcState:
    __slots__ = ("threads", "targeted", "rel_targets", "claims", "violations", "table")

    def __init__(self, program: ScriptProgram | None):
        if program is None:
            return
        table = global_addresses(name for name, _ in program.globals)
        self.table = table
        seed = {
            table[name]: (INITIAL, value) for name, value in program.globals
        }
        self.threads = [
            _SimThread(len(ops), dict(seed)) for ops in program.threads
        ]
        # acquire label -> {release label -> snapshot}
        self.targeted: dict[SyncLabel, dict[SyncLabel, _Snap]] = {}
        # release label -> every acquire label it was aimed at
        self.rel_targets: dict[SyncLabel, set[SyncLabel]] = {}
        # executed acquires -> the release labels they named
        self.claims: dict[SyncLabel, frozenset] = {}
        self.violations: tuple[str, ...] = ()

    def clone(self) -> "_DcState":
        c = _DcState(None)
        c.threads = [t.clone() for t in self.threads]
        c.targeted = {acq: dict(rels) for acq, rels in self.targeted.items()}
        c.rel_targets = {rel: set(ts) for rel, ts in self.rel_targets.items()}
        c.claims = dict(self.claims)
        c.violations = self.violations
        c.table = self.table
        return c

    def key(self) -> tuple:
        return (
            tuple(t.key() for t in self.threads),
            tuple(
                (acq, tuple(sorted(rels.items())))
                for acq, rels in sorted(self.targeted.items())
            ),
            tuple(
                (rel, tuple(sorted(ts)))
                for rel, ts in sorted(self.rel_targets.items())
            ),
            tuple(sorted(self.claims.items())),
            tuple(sorted(self.violations)),
        )

    # -- scheduling ------------------------------------------------------

    def runnable(self, program: ScriptProgram) -> list[int]:
        out = []
        for t, th in enumerate(self.threads):
            if th.status != "run":
                continue
            op = program.threads[t][th.pc]
            if isinstance(op, AcquireOp) and self._acq_mode(t, op) == "blocked":
                continue
            out.append(t)
        return out

    def _acq_mode(self, t: int, op: AcquireOp) -> str:
        """ready: all named releases deposited; error: the event would
        fault on a pairing check the moment it runs; blocked: otherwise."""
        th = self.threads[t]
        acq = SyncLabel(t, th.nsync + 1)
        named = frozenset(op.partners)
        pending = self.targeted.get(acq, {})
        if set(pending) - named:
            return "error"
        for rel in sorted(named):
            aimed = self.rel_targets.get(rel)
            if aimed and acq not in aimed:
                return "error"
        if all(rel in pending for rel in named):
            return "ready"
        return "blocked"

    # -- transition -------------------------------------------------------

    def settle(self, program: ScriptProgram) -> None:
        """Run every thread's leading READ/WRITE/ALLOC ops in place.

        They read and write only the thread's own store, locals, write
        counter and observed set, which no other thread's step reads, and
        nothing can disable them; so they commute with every other step.
        """
        for t, th in enumerate(self.threads):
            ops = program.threads[t]
            while th.status == "run" and isinstance(ops[th.pc], _PRIVATE_OPS):
                self.step(program, t)

    def step(self, program: ScriptProgram, t: int) -> None:
        """Run thread ``t``'s next operation in place."""
        th = self.threads[t]
        op = program.threads[t][th.pc]
        if isinstance(op, ReadOp):
            th.locals[op.into] = th.store[self._resolve(t, op.cell)][1]
        elif isinstance(op, WriteOp):
            addr = self._resolve(t, op.cell)
            th.wseq += 1
            event = VersionStamp(t, th.wseq)
            th.store[addr] = (event, eval_expr(op.expr, th.locals))
            th.observed.add(event)
        elif isinstance(op, AllocOp):
            th.nalloc += 1
            base = len(program.globals) if t == ROOT_THREAD else 0
            addr = Address(t, base + th.nalloc)
            th.wseq += 1
            event = VersionStamp(t, th.wseq)
            th.store[addr] = (event, None)
            th.observed.add(event)
            th.locals[op.into] = addr
        elif isinstance(op, ReleaseOp):
            self._release(t, op)
        elif isinstance(op, AcquireOp):
            self._acquire(t, op)
        else:  # pragma: no cover - parser emits no other ops
            raise AssertionError(op)
        if th.status == "run":
            th.pc += 1
            if th.pc == len(program.threads[t]):
                th.status = "done"

    def _resolve(self, t: int, cell: str) -> Address:
        if cell in self.table:
            return self.table[cell]
        return self.threads[t].locals[cell]

    def _fault(self, t: int, err: PairingError) -> None:
        self.violations = self.violations + (str(err),)
        self.threads[t].status = "error"

    def _release(self, t: int, op: ReleaseOp) -> None:
        th = self.threads[t]
        th.nsync += 1
        rel = SyncLabel(t, th.nsync)
        snap: _Snap = (tuple(sorted(th.store.items())), frozenset(th.observed))
        self.rel_targets[rel] = set(op.partners)
        for target in op.partners:
            claimed = self.claims.get(target)
            if claimed is not None and rel not in claimed:
                self._fault(
                    t, PairingError("acquire", target, tuple(claimed) + (rel,))
                )
                return
            self.targeted.setdefault(target, {})[rel] = snap

    def _acquire(self, t: int, op: AcquireOp) -> None:
        th = self.threads[t]
        th.nsync += 1
        acq = SyncLabel(t, th.nsync)
        named = frozenset(op.partners)
        self.claims[acq] = named
        pending = self.targeted.get(acq, {})
        extras = set(pending) - named
        if extras:
            self._fault(t, PairingError("acquire", acq, tuple(named | extras)))
            return
        for rel in sorted(named):
            aimed = self.rel_targets.get(rel)
            if aimed and acq not in aimed:
                self._fault(t, PairingError("release", rel, tuple(aimed) + (acq,)))
                return
        snaps = {rel: pending.pop(rel) for rel in named}
        if acq in self.targeted and not self.targeted[acq]:
            del self.targeted[acq]
        for rel in sorted(named):
            conflicts = self._apply(th, snaps[rel])
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

    def outcome(self, program: ScriptProgram, rev: Mapping[Address, str]) -> Outcome:
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
    init.settle(program)
    seen = {init.key()}
    stack = [init]
    outcomes: set[Outcome] = set()
    while stack:
        st = stack.pop()
        frontier = st.runnable(program)
        if not frontier:
            outcomes.add(st.outcome(program, rev))
            continue
        for t in frontier:
            nxt = st.clone()
            nxt.step(program, t)
            nxt.settle(program)
            k = nxt.key()
            if k in seen:
                continue
            if len(seen) >= max_states:
                raise LimitError(f"state budget exceeded ({max_states})")
            seen.add(k)
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
    __slots__ = ("pcs", "locals", "nallocs", "nsyncs", "shared", "table")

    def __init__(self, program: ScriptProgram | None):
        if program is None:
            return
        n = program.nthreads
        table = global_addresses(name for name, _ in program.globals)
        self.table = table
        self.pcs = [0] * n
        self.locals: list[dict[str, Any]] = [{} for _ in range(n)]
        self.nallocs = [0] * n
        self.nsyncs = [0] * n
        self.shared: dict[Address, Any] = {
            table[name]: value for name, value in program.globals
        }

    def clone(self) -> "_ScState":
        c = _ScState(None)
        c.pcs = list(self.pcs)
        c.locals = [dict(d) for d in self.locals]
        c.nallocs = list(self.nallocs)
        c.nsyncs = list(self.nsyncs)
        c.shared = dict(self.shared)
        c.table = self.table
        return c

    def key(self) -> tuple:
        return (
            tuple(self.pcs),
            tuple(tuple(sorted(d.items())) for d in self.locals),
            tuple(self.nallocs),
            tuple(self.nsyncs),
            tuple(sorted(self.shared.items())),
        )

    def _enabled(self, op: Any) -> bool:
        return not isinstance(op, AcquireOp) or all(
            self.nsyncs[lab.thread] >= lab.seq for lab in op.partners
        )

    def runnable(self, program: ScriptProgram) -> list[int]:
        return [
            t
            for t, ops in enumerate(program.threads)
            if self.pcs[t] < len(ops) and self._enabled(ops[self.pcs[t]])
        ]

    def settle(self, program: ScriptProgram) -> None:
        """Run every enabled REL/ACQ in place, until none is left.

        A sync op only increments its own thread's event counter: that can
        enable another thread's acquire but can disable or change nothing,
        so it commutes with every other step.
        """
        progress = True
        while progress:
            progress = False
            for t, ops in enumerate(program.threads):
                while self.pcs[t] < len(ops):
                    op = ops[self.pcs[t]]
                    if isinstance(op, _PRIVATE_OPS) or not self._enabled(op):
                        break
                    self.step(program, t)
                    progress = True

    def step(self, program: ScriptProgram, t: int) -> None:
        """Run thread ``t``'s next operation in place."""
        op = program.threads[t][self.pcs[t]]
        table = self.table
        if isinstance(op, ReadOp):
            addr = table.get(op.cell) or self.locals[t][op.cell]
            self.locals[t][op.into] = self.shared[addr]
        elif isinstance(op, WriteOp):
            addr = table.get(op.cell) or self.locals[t][op.cell]
            self.shared[addr] = eval_expr(op.expr, self.locals[t])
        elif isinstance(op, AllocOp):
            self.nallocs[t] += 1
            base = len(program.globals) if t == ROOT_THREAD else 0
            addr = Address(t, base + self.nallocs[t])
            self.shared[addr] = None
            self.locals[t][op.into] = addr
        elif isinstance(op, (ReleaseOp, AcquireOp)):
            # Under the flat model sync events only advance the counter an
            # acquire waits on; no payload moves because memory is shared.
            self.nsyncs[t] += 1
        self.pcs[t] += 1

    def outcome(self, program: ScriptProgram, rev: Mapping[Address, str]) -> Outcome:
        blocked = [
            t
            for t in range(program.nthreads)
            if self.pcs[t] < len(program.threads[t])
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
