"""Uniquely paired release/acquire channels between logical threads.

A synchronization event is named by a (thread, seq) label; seq is the
thread's own event counter, so labels are unique per run without any
coordination. A channel is the pairing of one release label with one
acquire label. Channels buffer exactly one diff: filled by the release,
drained by the acquire. Broadcast variants deposit one diff on several
channels (release set) or drain several channels under one label
(acquire set); either way the thread consumes a single label.

The registry enforces the uniqueness contract. A release label claimed by
two acquires, or an acquire label fed by releases it never named, is a
PairingError whose payload names the contested label and all claimants,
sorted, so it does not depend on who arrived last.

Deadlock is decided at quiescence, as the model decides it at a state
with no runnable step. A thread is blocked while its acquire still lacks
a named release and has no fault pending. A live thread is idle while it
is blocked, lends its OS thread to a child (below) or waits in
``wait_unwound``. Once every live registered thread is idle, no blocked
one can ever be served: all of them are doomed at once, and each raises
DeadlockError carrying the doomed set. Nothing is counted: quiescence is
read off the registry's own maps whenever a thread becomes idle or done.
A length test settles it at once only while fewer threads wait than
live; but a satisfied waiter stays in its wait until its OS thread runs,
so under the GIL every live thread is usually in one, and the common
case walks the live threads up to the first that runs.

A blocked acquire sleeps on its thread's one wait slot, a condition on
the registry lock built at the thread's first blocked claim and dropped
when it is done. A deposit wakes only the acquires it fills, a fault only
its acquire, a verdict only the doomed, so a satisfied acquire is woken
once and nobody else is woken for it.

A user's or a script's sync event is checked: distinct partners of real
threads, seq 1 or more for a release, an acquire's sorted. A collective's
planned step is not, since every labelling of a template passes already:
``_planned`` partners meet only the registry's pairing checks.

A thread's death diff is deposited like any release, under the
reserved seq 0 and with no target: it floats until whichever acquire
names that label claims it, so a parent joins on a child without knowing
how many sync events the child performed. The claim fixes the terminal's
aim, as a deposit fixes an ordinary release's, so every other claim
naming it faults the same way.

Payloads name old events (a late release reports what a completed
acquire named), so the pairing history lives as long as the registry:
per thread, by seq, what each release was aimed at and what each acquire
named, a lone partner as itself. A done thread's unclaimable diffs go.

A claim is posted before it is waited for. A waiter whose claim names
the terminal release of a child not launched yet can then lend that
child its own OS thread: the child runs inside the claim, with the lock
released, while the waiter counts as idle until the child is done, even
if its wait ends first. The waiter cannot go on before the child ends
anyway, so this changes which OS thread runs the child and nothing
else. The registry lends; the runtime decides which child, if any, a
claim is lent to.
"""
from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from .errors import ConfigError, DeadlockError, DetermError, PairingError
from .store import Diff, Workspace

#: Reserved seq for a thread's terminal (death) release.
TERMINAL_SEQ = 0

_REL, _ACQ = 0, 1  # a history slot's kind: a label's release or acquire event

# Defensive bound so a runtime bug cannot hang the test suite forever.
_WAIT_TIMEOUT = 120.0


class SyncLabel(NamedTuple):
    """Name of one synchronization event: (thread id, per-thread seq).

    A named tuple, so hashing, equality and ordering run in C on every
    registry lookup; ``hash(SyncLabel(t, s)) == hash((t, s))``.
    """

    thread: int
    seq: int

    def __str__(self) -> str:
        return f"({self.thread},{self.seq})"


class _Waiter:
    """One claim in the wait loop: what it waits for, the slot it sleeps
    on, and the fault or doom its wait ends with, once recorded."""

    __slots__ = ("acq", "named", "missing", "slot", "fault")

    def __init__(
        self,
        acq: SyncLabel,
        named: tuple[SyncLabel, ...],
        missing: set[SyncLabel],  # named releases not deposited yet
        slot: threading.Condition,
    ) -> None:
        self.acq = acq
        self.named = named
        self.missing = missing
        self.slot = slot
        self.fault: DetermError | None = None


class ChannelRegistry:
    """Shared rendezvous state; the only memory threads genuinely share."""

    def __init__(self) -> None:
        # Guards everything below. Blocked claims sleep on slots built on
        # its lock, so only ``wait_unwound`` sleeps on ``_cond`` itself.
        # The per-event calls enter ``_cond._lock`` directly, read through
        # ``_cond`` each time, so a condition swapped in after __init__
        # still guards (and sees) every wait.
        self._cond = threading.Condition()
        # Registered, not yet done; a tid that leaves it is done.
        self._live: set[int] = set()
        self._doomed: set[int] = set()
        # acquire label -> {release label -> diff, or None once it can never be claimed}
        self._targeted: dict[SyncLabel, dict[SyncLabel, Diff | None]] = {}
        # terminal releases not yet claimed, by label
        self._floating: dict[SyncLabel, Diff] = {}
        # tid -> slot 2*seq + _REL: what release (tid, seq) was aimed at (0:
        # the claimed terminal's); 2*seq + _ACQ: what acquire (tid, seq)
        # named, sorted; a lone partner as itself; None where nothing is.
        self._history: dict[int, list] = {}
        # tid -> the wait slot its blocked claims sleep on, until it is done
        self._slots: dict[int, threading.Condition] = {}
        # tid -> its claim while in the wait loop
        self._waiting: dict[int, _Waiter] = {}
        # release label -> tids in the wait loop whose claim names it
        self._naming: dict[SyncLabel, list[int]] = {}
        # tid run on a waiter's OS thread -> that waiter's tid
        self._lenders: dict[int, int] = {}
        # tids in ``wait_unwound``
        self._unwinding: set[int] = set()
        self._violations: list[PairingError] = []

    # ------------------------------------------------------------------
    # thread lifecycle
    # ------------------------------------------------------------------

    def register(self, tid: int) -> None:
        with self._cond._lock:  # type: ignore[attr-defined]
            self._live.add(tid)

    def mark_done(self, tid: int) -> None:
        with self._cond:
            self._slots.pop(tid, None)
            for target, pending in self._targeted.items():
                if target[0] == tid:  # it claims no more: keep the labels, not the diffs
                    self._targeted[target] = dict.fromkeys(pending)
            if tid in self._live:
                self._live.remove(tid)
                self._lenders.pop(tid, None)  # its lender stays idle only if blocked
                self._doom_if_quiescent()
            self._cond.notify_all()

    def wait_unwound(
        self, tids: Iterable[int], timeout: float | None = None, waiter: int | None = None
    ) -> bool:
        """Block until no tid is live any more; True if that happened.

        Waiting for doomed is not enough: a doomed thread is still
        unwinding and may not have recorded its error yet, so anyone about
        to read per-thread errors must wait for done. A tid never
        registered counts as done, so wait only on launched ones.
        ``waiter``, the caller's own tid, is idle meanwhile, so a thread
        it waits for that blocks again can still be doomed.
        """
        wanted = tuple(tids)
        with self._cond:
            if waiter is not None:
                self._unwinding.add(waiter)
                self._doom_if_quiescent()
            try:
                return self._cond.wait_for(
                    lambda: self._live.isdisjoint(wanted), timeout=timeout
                )
            finally:
                self._unwinding.discard(waiter)

    def wait_all_done(self, timeout: float | None = None) -> bool:
        """Block until every registered thread is done; True if so."""
        with self._cond:
            return self._cond.wait_for(lambda: not self._live, timeout=timeout)

    # ------------------------------------------------------------------
    # channel operations
    # ------------------------------------------------------------------

    def deposit(self, rel: SyncLabel, targets: Sequence[SyncLabel], diff: Diff) -> None:
        """Fill one channel per target for one release event.

        The complete target list lands atomically, because the pairing
        checks depend on the event's whole aim: a blocked acquire naming
        this release is fine as long as its label is among the targets.
        A terminal release (seq ``TERMINAL_SEQ``) has no targets: it
        floats, claimable by its label alone, until a claim aims it.

        A release that disagrees with a *blocked* acquire still deposits;
        the acquire faults when it wakes, just as it would had it arrived
        after the deposit. Only an acquire that already completed faults
        the releaser.
        """
        targets = tuple(targets)
        terminal = rel[1] == TERMINAL_SEQ
        assert not (terminal and targets), "a terminal release has no targets"
        with self._cond._lock:  # type: ignore[attr-defined]
            # Label reuse, found here or by ``_aim``, cannot happen via endpoints.
            if terminal:
                if rel in self._floating or self._partners(rel, _REL) is not None:
                    raise self._record("release", rel, (rel, rel))
                self._floating[rel] = diff
                for tid in self._naming.get(rel, ()):
                    self._fill(self._waiting[tid], rel)
            elif not self._aim(rel, targets):
                raise self._record("release", rel, self._partners(rel, _REL) + targets)
            for target in targets:
                waiter = self._waiting.get(target[0])
                # A waiter holding a fault or its doom has run its acquire, as in
                # the model, and counts as gone; any other names what it recorded.
                if waiter is not None and (waiter.acq != target or waiter.fault is not None):
                    waiter = None
                claimed = self._partners(target, _ACQ) if waiter is None else waiter.named
                if claimed is not None and rel not in claimed:
                    claimants = claimed + (rel,)
                    if waiter is None:
                        raise self._record("acquire", target, claimants)
                    self._fault_waiter(target.thread, "acquire", target, claimants)
                self._targeted.setdefault(target, {})[rel] = diff
                if waiter is not None and rel in waiter.missing:
                    self._fill(waiter, rel)

    def claim(
        self,
        acq: SyncLabel,
        rels: Sequence[SyncLabel],
        lend: tuple[int, Callable[[], None]] | None = None,
    ) -> dict[SyncLabel, Diff]:
        """Drain all named channels for one acquire event; blocks until
        every one is filled. Returns {release label: diff}. The thread
        that blocks is ``acq.thread``.

        The claim is posted first: recorded, checked against the aims of
        the releases it names and, if one is missing, entered in the wait
        loop. Then, if a release is missing and ``lend`` is (child, run),
        ``run`` runs live thread ``child`` to its end on the calling OS
        thread, with the lock released; ``acq.thread`` counts as idle
        until ``child`` is done, even once its wait has ended.
        Then the claim waits as usual. Each label of ``rels`` is named
        once, and their aims are checked in ascending order."""
        named = tuple(rels) if len(rels) == 1 else tuple(sorted(set(rels)))
        with self._cond._lock:  # type: ignore[attr-defined]
            hist = self._history.get(acq[0]) or self._history.setdefault(acq[0], [])
            i = 2 * acq[1] + _ACQ
            hist += [None] * (i + 1 - len(hist))
            assert hist[i] is None, "acquire labels never repeat"
            hist[i] = named[0] if len(named) == 1 else named
            # Deposits already aimed at this label must all be named.
            pending = self._targeted.get(acq, ())
            if pending and pending.keys() - named:
                raise self._record("acquire", acq, tuple({*named, *pending}))
            missing = set()
            for rel in named:
                aimed = None if rel in pending else self._partners(rel, _REL)
                if aimed and acq not in aimed:
                    raise self._record("release", rel, aimed + (acq,))
                if rel not in pending and rel not in self._floating:
                    missing.add(rel)
            if missing:
                self._wait(_Waiter(acq, named, missing, self._slot(acq[0])), lend)
            # Every deposit aimed at ``acq`` is named, or the claim faulted.
            out = self._targeted.pop(acq, {})
            for rel in named:
                if rel not in out:
                    out[rel] = self._floating.pop(rel)
                    self._aim(rel, (acq,))
            return out

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def violations(self) -> tuple[PairingError, ...]:
        with self._cond:
            return tuple(self._violations)

    def doomed(self) -> tuple[int, ...]:
        with self._cond:
            return tuple(sorted(self._doomed))

    def audit(self) -> tuple[PairingError, ...]:
        """Flag unclaimed acquire labels fed by more than one release."""
        with self._cond:
            found = []
            for target, pending in self._targeted.items():
                if len(pending) > 1 and self._partners(target, _ACQ) is None:
                    err = PairingError("acquire", target, tuple(pending))
                    self._violations.append(err)
                    found.append(err)
            return tuple(found)

    # ------------------------------------------------------------------
    # internals (call with lock held)
    # ------------------------------------------------------------------

    def _record(self, kind: str, contested: Any, claimants: tuple) -> PairingError:
        err = PairingError(kind, contested, claimants)
        self._violations.append(err)
        return err

    def _partners(self, label: SyncLabel, kind: int) -> tuple[SyncLabel, ...] | None:
        """``label``'s ``kind`` event's partners as a tuple; None if none is recorded."""
        hist, i = self._history.get(label[0], ()), 2 * label[1] + kind
        got = hist[i] if i < len(hist) else None
        return got if got is None or type(got) is tuple else (got,)

    def _slot(self, tid: int) -> threading.Condition:
        """``tid``'s wait slot, built at its first blocked claim: a
        condition of ``_cond``'s own class on ``_cond``'s lock, so a
        swapped-in ``_cond`` covers it too."""
        slot = self._slots.get(tid)
        if slot is None:
            cond = self._cond
            slot = self._slots[tid] = type(cond)(cond._lock)  # type: ignore[attr-defined]
        return slot

    def _wait(self, waiter: _Waiter, lend: tuple[int, Callable[[], None]] | None) -> None:
        """Post ``waiter`` for its thread, run ``lend`` if given, then
        sleep on ``waiter.slot`` until every named release is in, or raise
        the fault or the doom that ends the wait."""
        tid = waiter.acq[0]
        self._waiting[tid] = waiter
        for rel in waiter.named:
            self._naming.setdefault(rel, []).append(tid)
        timed_out = False
        try:
            if lend is not None:
                self._lend(tid, *lend)
            self._doom_if_quiescent()
            while waiter.fault is None and waiter.missing:
                if not waiter.slot.wait(timeout=_WAIT_TIMEOUT):
                    if timed_out:  # pragma: no cover - runtime bug guard
                        raise RuntimeError(f"thread {tid} stuck acquiring {waiter.acq}")
                    timed_out = True
            if waiter.fault is not None:
                raise waiter.fault
        finally:
            del self._waiting[tid]
            for rel in waiter.named:
                naming = self._naming[rel]
                naming.remove(tid)
                if not naming:
                    del self._naming[rel]

    def _lend(self, tid: int, child: int, run: Callable[[], None]) -> None:
        """Call ``run``, which runs ``child`` to its end, with the lock
        released. Until ``child`` is done, ``tid`` is idle as its lender,
        whatever ends its wait. Lending needs no doom check: ``child`` is
        live and runs."""
        self._lenders[child] = tid
        lock = self._cond._lock  # type: ignore[attr-defined]
        lock.release()
        try:
            run()
        finally:
            lock.acquire()
            self._lenders.pop(child, None)  # if ``run`` left it live

    def _fill(self, waiter: _Waiter, rel: SyncLabel) -> None:
        waiter.missing.discard(rel)
        if not waiter.missing:
            waiter.slot.notify()

    def _doom_if_quiescent(self) -> None:
        """When every live thread is idle, nothing blocked can ever be
        served: doom every blocked waiter, as the model does at a state
        with no runnable step."""
        # A lender is in a claim itself, so a live thread beyond these runs.
        if len(self._live) > len(self._waiting) + len(self._unwinding):
            return
        lenders = self._lenders.values()
        for tid in self._live:
            waiter = self._waiting.get(tid)
            if waiter is None or not waiter.missing or waiter.fault is not None:
                if tid not in lenders and tid not in self._unwinding:
                    return  # ``tid`` runs
        blocked = {t: w for t, w in self._waiting.items() if w.missing and w.fault is None}
        self._doomed.update(blocked)
        for waiter in blocked.values():
            waiter.fault = DeadlockError(tuple(self._doomed))
            waiter.slot.notify()

    def _fault_waiter(
        self, tid: int, kind: str, contested: Any, claimants: tuple
    ) -> None:
        """Record a violation for waiting ``tid`` to raise when it wakes;
        a waiter already holding one, or its doom, raises that alone."""
        waiter = self._waiting[tid]
        if waiter.fault is None:
            waiter.fault = self._record(kind, contested, claimants)
            waiter.slot.notify()

    def _aim(self, rel: SyncLabel, targets: tuple[SyncLabel, ...]) -> bool:
        """Fix the acquires ``rel`` is aimed at, as its deposit or its claim
        as a terminal does, or return False if they are fixed. A claim in
        the wait loop that names ``rel`` under a label outside ``targets``
        disagrees with it on the pairing, and faults."""
        hist = self._history.get(rel[0]) or self._history.setdefault(rel[0], [])
        i = 2 * rel[1] + _REL
        hist += [None] * (i + 1 - len(hist))
        if hist[i] is not None:
            return False
        hist[i] = targets[0] if len(targets) == 1 else targets
        for tid in self._naming.get(rel, ()):
            acq = self._waiting[tid].acq
            if acq not in targets:
                self._fault_waiter(tid, "release", rel, targets + (acq,))
        return True


def _validate_partners(
    partners: Iterable[SyncLabel], min_seq: int
) -> tuple[SyncLabel, ...]:
    out = tuple(partners)
    if not out:
        raise ConfigError("partner set must be non-empty")
    if len(set(out)) != len(out):
        raise ConfigError("duplicate partners in one sync event")
    for label in out:
        if label.thread < 0 or label.seq < min_seq:
            raise ConfigError(f"invalid partner label {label}")
    return out


class Endpoint:
    """Per-thread face of the registry: owns the label counter.

    ``hook`` runs before every sync operation (schedule perturbation for
    determinism trials); its owner may swap it, as a ``ThreadCtx`` does
    while it holds a child. ``log``, if a list, gets one ``(seq, "REL" |
    "ACQ", partners)`` tuple per event, appended by this thread alone;
    an acquire's partners ascend, a terminal release has none.
    """

    def __init__(
        self,
        registry: ChannelRegistry,
        thread: int,
        hook: Callable[[], None] | None = None,
        log: list | None = None,
    ) -> None:
        self.registry = registry
        self.thread = thread
        self.seq = 0
        self.hook = hook
        self.log = log

    def next_seq(self) -> int:
        """Seq the next sync event will carry; planned steps are checked against it."""
        return self.seq + 1

    # ------------------------------------------------------------------

    def release(self, ws: Workspace, partner: SyncLabel) -> SyncLabel:
        """Send everything known so far toward one acquire event."""
        return self.release_set(ws, (partner,))

    def release_set(
        self, ws: Workspace, partners: Sequence[SyncLabel], _planned: bool = False
    ) -> SyncLabel:
        """One event, one diff, deposited on a channel per partner;
        ``_planned`` partners go unchecked (module docstring)."""
        targets = partners if _planned else _validate_partners(partners, min_seq=1)
        if self.hook is not None:
            self.hook()
        self.seq += 1
        label = SyncLabel(self.thread, self.seq)
        diff = ws.extract_diff()
        if self.log is not None:
            self.log.append((self.seq, "REL", targets))
        self.registry.deposit(label, targets, diff)
        return label

    def acquire(self, ws: Workspace, partner: SyncLabel) -> SyncLabel:
        """Block for one release and merge its diff."""
        return self.acquire_set(ws, (partner,))

    def acquire_set(
        self,
        ws: Workspace,
        partners: Sequence[SyncLabel],
        lend: tuple[int, Callable[[], None]] | None = None,
        _planned: bool = False,
    ) -> SyncLabel:
        """Block for all named releases; apply their diffs in canonical
        ascending label order (order is part of the semantics: it fixes
        conflict attribution). ``lend`` goes to ``ChannelRegistry.claim``;
        ``_planned`` is as for ``release_set``."""
        named = partners if _planned else tuple(sorted(_validate_partners(partners, TERMINAL_SEQ)))
        if self.hook is not None:
            self.hook()
        self.seq += 1
        label = SyncLabel(self.thread, self.seq)
        diffs = self.registry.claim(label, named, lend)
        if self.log is not None:
            self.log.append((self.seq, "ACQ", named))
        for rel in named:
            ws.apply_diff(diffs[rel])
        return label

    def release_terminal(self, ws: Workspace) -> SyncLabel:
        """Death release under the reserved label (thread, 0). It hands
        over the workspace's cells, which the thread no longer needs, in
        a terminal diff: the one acquire that claims it absorbs the
        thread, its writes known to their end."""
        if self.hook is not None:
            self.hook()
        label = SyncLabel(self.thread, TERMINAL_SEQ)
        if self.log is not None:
            self.log.append((TERMINAL_SEQ, "REL", ()))
        self.registry.deposit(label, (), ws.extract_terminal())
        return label


def trace_lines(thread: int, log: Iterable[tuple[int, str, Sequence[SyncLabel]]]) -> list[str]:
    """The log as ``EVT <thread> <seq> REL|ACQ <pt> <ps>`` per partner, ``-1 -1`` if none."""
    return [
        f"EVT {thread} {seq} {kind} {pt} {ps}"
        for seq, kind, partners in log
        for pt, ps in partners or ((-1, -1),)
    ]
