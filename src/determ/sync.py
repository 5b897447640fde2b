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
a named release and has no fault pending. Once every live registered
thread is blocked, none can ever be served: all of them are doomed at
once, and each raises DeadlockError carrying the doomed set. Live and
running threads are counted as they register, block, wake and finish,
so the test costs O(1) per event.

Each blocked acquire sleeps on a slot of its own, a condition on the
registry lock. A deposit wakes only the acquires it fills, a fault only
its acquire, a verdict only the doomed, so a satisfied acquire is woken
once and nobody else is woken for it.

Terminal releases are the one asymmetry. A thread's death diff is
released under the reserved seq 0 with no target; whichever acquire later
names that label claims it (exactly once). This lets a parent join on a
child without knowing how many sync events the child performed.
"""
from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from .errors import ConfigError, DeadlockError, DetermError, PairingError
from .store import Diff, Workspace

#: Reserved seq for a thread's terminal (death) release.
TERMINAL_SEQ = 0

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


class _Waiter(NamedTuple):
    """One blocked claim: what it waits for and the slot it sleeps on."""

    acq: SyncLabel
    named: frozenset[SyncLabel]
    missing: set[SyncLabel]  # named releases not deposited yet
    slot: threading.Condition


class ChannelRegistry:
    """Shared rendezvous state; the only memory threads genuinely share."""

    def __init__(self) -> None:
        # Guards everything below. Blocked claims sleep on slots built on
        # its lock, so only ``wait_unwound`` sleeps on ``_cond`` itself.
        self._cond = threading.Condition()
        self._live: set[int] = set()  # registered, not yet done
        self._done: set[int] = set()
        # Waiting tids that lack a named release and have no pending fault.
        self._blocked: set[int] = set()
        self._running = 0  # live tids not in _blocked
        self._doomed: set[int] = set()
        # acquire label -> {release label -> diff} awaiting that acquire
        self._targeted: dict[SyncLabel, dict[SyncLabel, Diff]] = {}
        # terminal releases not yet claimed, by label
        self._floating: dict[SyncLabel, Diff] = {}
        # claimed terminal release -> its acquire; the diff itself is dropped
        self._floating_claim: dict[SyncLabel, SyncLabel] = {}
        # every deposit ever made: release label -> set of targets
        self._rel_targets: dict[SyncLabel, set[SyncLabel]] = {}
        # executed acquires: acquire label -> the release labels it named
        self._claims: dict[SyncLabel, frozenset[SyncLabel]] = {}
        # tid -> its claim while in the wait loop
        self._waiting: dict[int, _Waiter] = {}
        # release label -> tids in the wait loop whose claim names it
        self._naming: dict[SyncLabel, list[int]] = {}
        # tid -> the fault or doom its wait ends with, once recorded
        self._wait_violation: dict[int, DetermError] = {}
        self._violations: list[PairingError] = []

    # ------------------------------------------------------------------
    # thread lifecycle
    # ------------------------------------------------------------------

    def register(self, tid: int) -> None:
        with self._cond:
            if tid not in self._live and tid not in self._done:
                self._live.add(tid)
                if tid not in self._blocked:
                    self._running += 1

    def mark_done(self, tid: int) -> None:
        with self._cond:
            self._done.add(tid)
            if tid in self._live:
                self._live.remove(tid)
                if tid not in self._blocked:
                    self._running -= 1
                self._doom_if_quiescent()
            self._cond.notify_all()

    def wait_unwound(
        self, tids: Iterable[int], timeout: float | None = None, waiter: int | None = None
    ) -> bool:
        """Block until every tid is done; True if that happened.

        Waiting for doomed is not enough: a doomed thread is still
        unwinding and may not have recorded its error yet, so anyone about
        to read per-thread errors must wait for done. ``waiter``, the
        caller's own tid, does not count as running meanwhile, so a
        thread it waits for that blocks again can still be doomed.
        """
        wanted = tuple(tids)
        with self._cond:
            paused = waiter in self._live and waiter not in self._blocked
            if paused:
                self._running -= 1
                self._doom_if_quiescent()
            try:
                return self._cond.wait_for(
                    lambda: all(t in self._done for t in wanted), timeout=timeout
                )
            finally:
                if paused:
                    self._running += 1

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

        A release that disagrees with a *blocked* acquire still deposits;
        the acquire faults when it wakes, just as it would had it arrived
        after the deposit. Only an acquire that already completed faults
        the releaser.
        """
        targets = tuple(targets)
        with self._cond:
            if (
                rel in self._rel_targets
                or rel in self._floating
                or rel in self._floating_claim
            ):
                # Label reuse; cannot happen via endpoints.
                prior = tuple(self._rel_targets.get(rel, ()))
                raise self._record("release", rel, prior + targets)
            self._rel_targets[rel] = set(targets)
            # A blocked acquire naming this release under a label outside
            # the target list means the two sides disagree on the pairing.
            for tid in self._naming.get(rel, ()):
                acq = self._waiting[tid].acq
                if acq not in targets:
                    self._fault_waiter(tid, "release", rel, targets + (acq,))
            for target in targets:
                waiter = self._waiting.get(target.thread)
                if waiter is not None and waiter.acq != target:
                    waiter = None
                claimed = self._claims.get(target)
                if claimed is not None and rel not in claimed:
                    claimants = tuple(claimed) + (rel,)
                    if waiter is None:
                        raise self._record("acquire", target, claimants)
                    self._fault_waiter(target.thread, "acquire", target, claimants)
                self._targeted.setdefault(target, {})[rel] = diff
                if waiter is not None and rel in waiter.missing:
                    self._fill(target.thread, waiter, rel)

    def deposit_terminal(self, rel: SyncLabel, diff: Diff) -> None:
        """Stash a terminal release, claimable by its label alone."""
        with self._cond:
            if rel in self._floating or rel in self._floating_claim:
                raise self._record("release", rel, (rel, rel))
            self._floating[rel] = diff
            for tid in self._naming.get(rel, ()):
                self._fill(tid, self._waiting[tid], rel)

    def claim(
        self, acq: SyncLabel, rels: Sequence[SyncLabel], tid: int
    ) -> dict[SyncLabel, Diff]:
        """Drain all named channels for one acquire event; blocks until
        every one is filled. Returns {release label: diff}. ``tid`` is
        ``acq.thread``, the thread that blocks."""
        named = frozenset(rels)
        with self._cond:
            assert acq not in self._claims, "acquire labels never repeat"
            self._claims[acq] = named
            # Deposits already aimed at this label must all be named.
            pending = self._targeted.get(acq, {})
            if not named.issuperset(pending):
                raise self._record("acquire", acq, tuple(named.union(pending)))
            floating = self._floating
            missing = set()
            for rel in sorted(named):
                err = self._claimed_elsewhere(acq, (rel,))
                if err is not None:
                    raise err
                aimed = self._rel_targets.get(rel)
                if aimed and acq not in aimed and rel not in floating:
                    raise self._record("release", rel, tuple(aimed) + (acq,))
                if rel not in pending and rel not in floating:
                    missing.add(rel)
            if missing:
                self._wait(tid, _Waiter(acq, named, missing, self._slot()))
            out: dict[SyncLabel, Diff] = {}
            pending = self._targeted.get(acq, {})
            for rel in named:
                if rel in pending:
                    out[rel] = pending.pop(rel)
                else:
                    out[rel] = self._floating.pop(rel)
                    self._floating_claim[rel] = acq
                    # Anyone else naming it faults on the claim it lost.
                    for other in self._naming.get(rel, ()):
                        self._wake(other)
            if acq in self._targeted and not self._targeted[acq]:
                del self._targeted[acq]
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
                if target not in self._claims and len(pending) > 1:
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

    def _slot(self) -> threading.Condition:
        """A wait slot for one claim: a condition of ``_cond``'s own class
        on ``_cond``'s lock, so a swapped-in ``_cond`` covers it too."""
        cond = self._cond
        return type(cond)(cond._lock)  # type: ignore[attr-defined]

    def _wait(self, tid: int, waiter: _Waiter) -> None:
        """Sleep on ``waiter.slot`` until every named release is in, or
        raise the fault or the doom that ends the wait."""
        self._waiting[tid] = waiter
        for rel in waiter.named:
            self._naming.setdefault(rel, []).append(tid)
        timed_out = False
        try:
            while True:
                err = self._wait_violation.pop(tid, None)
                if err is None:
                    # Another acquire naming the same terminal release may
                    # have claimed it while this one slept: the same
                    # violation as finding it claimed on arrival.
                    err = self._claimed_elsewhere(waiter.acq, waiter.named)
                if err is not None:
                    raise err
                if not waiter.missing:
                    return
                if tid not in self._blocked:
                    self._block(tid)
                elif not waiter.slot.wait(timeout=_WAIT_TIMEOUT):
                    if timed_out:  # pragma: no cover - runtime bug guard
                        raise RuntimeError(f"thread {tid} stuck acquiring {waiter.acq}")
                    timed_out = True
        finally:
            self._wake(tid)
            self._wait_violation.pop(tid, None)
            del self._waiting[tid]
            for rel in waiter.named:
                naming = self._naming[rel]
                naming.remove(tid)
                if not naming:
                    del self._naming[rel]

    def _block(self, tid: int) -> None:
        """``tid`` can go no further; at quiescence every blocked thread
        is doomed."""
        self._blocked.add(tid)
        if tid in self._live:
            self._running -= 1
        self._doom_if_quiescent()

    def _wake(self, tid: int) -> None:
        """Move a blocked ``tid`` back to running and wake its slot."""
        if tid in self._blocked:
            self._blocked.remove(tid)
            if tid in self._live:
                self._running += 1
            self._waiting[tid].slot.notify()

    def _fill(self, tid: int, waiter: _Waiter, rel: SyncLabel) -> None:
        waiter.missing.discard(rel)
        if not waiter.missing:
            self._wake(tid)

    def _doom_if_quiescent(self) -> None:
        """When no live thread can run, nothing blocked can ever be
        served: doom every blocked thread, as the model does at a state
        with no runnable step."""
        if not self._running and self._blocked:
            self._doomed |= self._blocked
            for tid in tuple(self._blocked):
                self._wait_violation[tid] = DeadlockError(tuple(self._doomed))
                self._wake(tid)

    def _fault_waiter(
        self, tid: int, kind: str, contested: Any, claimants: tuple
    ) -> None:
        """Record a violation for blocked ``tid`` to raise when it wakes;
        a waiter already holding one, or its doom, raises that alone."""
        if tid not in self._wait_violation:
            self._wait_violation[tid] = self._record(kind, contested, claimants)
            self._wake(tid)

    def _claimed_elsewhere(
        self, acq: SyncLabel, rels: Iterable[SyncLabel]
    ) -> PairingError | None:
        """Record and return the violation for the lowest of ``rels`` whose
        terminal release another acquire claimed."""
        claimed = self._floating_claim
        clash = [r for r in rels if r in claimed and claimed[r] != acq]
        if not clash:
            return None
        rel = min(clash)
        return self._record("release", rel, (claimed[rel], acq))


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
    determinism trials); ``recorder`` receives one trace line per
    (event, partner) pair in the format
    ``EVT <thread> <seq> REL|ACQ <partner-thread> <partner-seq>``.
    """

    def __init__(
        self,
        registry: ChannelRegistry,
        thread: int,
        hook: Callable[[], None] | None = None,
        recorder: Callable[[str], None] | None = None,
    ) -> None:
        self.registry = registry
        self.thread = thread
        self.seq = 0
        self._hook = hook
        self._recorder = recorder

    def next_seq(self) -> int:
        """Seq the next sync event will carry; used by label planners."""
        return self.seq + 1

    def _advance(self) -> SyncLabel:
        self.seq += 1
        return SyncLabel(self.thread, self.seq)

    def _trace(self, label: SyncLabel, kind: str, partner: SyncLabel | None) -> None:
        if self._recorder is not None:
            pt, ps = (partner.thread, partner.seq) if partner else (-1, -1)
            self._recorder(f"EVT {label.thread} {label.seq} {kind} {pt} {ps}")

    # ------------------------------------------------------------------

    def release(self, ws: Workspace, partner: SyncLabel) -> SyncLabel:
        """Send everything known so far toward one acquire event."""
        return self.release_set(ws, (partner,))

    def release_set(self, ws: Workspace, partners: Sequence[SyncLabel]) -> SyncLabel:
        """One event, one diff, deposited on a channel per partner."""
        targets = _validate_partners(partners, min_seq=1)
        if self._hook is not None:
            self._hook()
        label = self._advance()
        diff = ws.extract_diff()
        for target in targets:
            self._trace(label, "REL", target)
        self.registry.deposit(label, targets, diff)
        return label

    def acquire(self, ws: Workspace, partner: SyncLabel) -> SyncLabel:
        """Block for one release and merge its diff."""
        return self.acquire_set(ws, (partner,))

    def acquire_set(self, ws: Workspace, partners: Sequence[SyncLabel]) -> SyncLabel:
        """Block for all named releases; apply their diffs in canonical
        ascending label order (order is part of the semantics: it fixes
        conflict attribution)."""
        named = _validate_partners(partners, min_seq=TERMINAL_SEQ)
        if self._hook is not None:
            self._hook()
        label = self._advance()
        diffs = self.registry.claim(label, named, self.thread)
        for rel in sorted(named):
            self._trace(label, "ACQ", rel)
            ws.apply_diff(diffs[rel])
        return label

    def release_terminal(self, ws: Workspace) -> SyncLabel:
        """Death release under the reserved label (thread, 0). The
        workspace retires its owner first, so whoever claims the diff
        knows the thread's writes to their end."""
        if self._hook is not None:
            self._hook()
        label = SyncLabel(self.thread, TERMINAL_SEQ)
        self._trace(label, "REL", None)
        ws.retire()
        self.registry.deposit_terminal(label, ws.extract_diff())
        return label
