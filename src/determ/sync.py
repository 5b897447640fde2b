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
sorted, so it does not depend on who arrived last. Blocked acquires feed a
wait-for analysis: a thread is doomed once no chain of still-running
threads can ever fill one of the channels it waits on, and every doomed
thread raises DeadlockError carrying the doomed set.

Terminal releases are the one asymmetry. A thread's death diff is
released under the reserved seq 0 with no target; whichever acquire later
names that label claims it (exactly once). This lets a parent join on a
child without knowing how many sync events the child performed.
"""
from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from .errors import ConfigError, DeadlockError, PairingError
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


class ChannelRegistry:
    """Shared rendezvous state; the only memory threads genuinely share."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._registered: set[int] = set()
        self._done: set[int] = set()
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
        # tid -> (acquire label, named release labels) while blocked
        self._waiting: dict[int, tuple[SyncLabel, frozenset[SyncLabel]]] = {}
        self._wait_violation: dict[int, PairingError] = {}
        self._violations: list[PairingError] = []

    # ------------------------------------------------------------------
    # thread lifecycle
    # ------------------------------------------------------------------

    def register(self, tid: int) -> None:
        with self._cond:
            self._registered.add(tid)

    def mark_done(self, tid: int) -> None:
        with self._cond:
            self._done.add(tid)
            self._recompute_doom()
            self._cond.notify_all()

    def wait_unwound(self, tids: Iterable[int], timeout: float | None = None) -> bool:
        """Block until every tid is done; True if that happened.

        Waiting for doomed is not enough: a doomed thread is still
        unwinding and may not have recorded its error yet, so anyone about
        to read per-thread errors must wait for done.
        """
        wanted = tuple(tids)
        with self._cond:
            return self._cond.wait_for(
                lambda: all(t in self._done for t in wanted), timeout=timeout
            )

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
            for tid, (acq, named) in self._waiting.items():
                if rel in named and acq not in targets:
                    self._fault_waiter(tid, "release", rel, targets + (acq,))
            for target in targets:
                claimed = self._claims.get(target)
                if claimed is not None and rel not in claimed:
                    claimants = tuple(claimed) + (rel,)
                    waiting = self._waiting.get(target.thread)
                    if waiting is None or waiting[0] != target:
                        raise self._record("acquire", target, claimants)
                    self._fault_waiter(target.thread, "acquire", target, claimants)
                self._targeted.setdefault(target, {})[rel] = diff
            self._cond.notify_all()

    def deposit_terminal(self, rel: SyncLabel, diff: Diff) -> None:
        """Stash a terminal release, claimable by its label alone."""
        with self._cond:
            if rel in self._floating or rel in self._floating_claim:
                raise self._record("release", rel, (rel, rel))
            self._floating[rel] = diff
            self._cond.notify_all()

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
            extras = set(pending) - named
            if extras:
                raise self._record("acquire", acq, tuple(named | extras))
            for rel in sorted(named):
                err = self._claimed_elsewhere(acq, (rel,))
                if err is not None:
                    raise err
                aimed = self._rel_targets.get(rel)
                if aimed and acq not in aimed and rel not in self._floating:
                    raise self._record("release", rel, tuple(aimed) + (acq,))
            deadline = None
            while True:
                err = self._wait_violation.pop(tid, None)
                if err is None:
                    # Another acquire naming the same terminal release may
                    # have claimed it while this one slept: the same
                    # violation as finding it claimed on arrival.
                    err = self._claimed_elsewhere(acq, named)
                if err is not None:
                    self._waiting.pop(tid, None)
                    raise err
                if not self._missing_for(acq, named):
                    break
                self._waiting[tid] = (acq, named)
                self._recompute_doom()
                if tid in self._doomed:
                    self._waiting.pop(tid, None)
                    raise DeadlockError(tuple(self._doomed))
                if not self._cond.wait(timeout=_WAIT_TIMEOUT):
                    if deadline:  # pragma: no cover - runtime bug guard
                        raise RuntimeError(f"thread {tid} stuck acquiring {acq}")
                    deadline = True
            self._waiting.pop(tid, None)
            out: dict[SyncLabel, Diff] = {}
            pending = self._targeted.get(acq, {})
            for rel in named:
                if rel in pending:
                    out[rel] = pending.pop(rel)
                else:
                    out[rel] = self._floating.pop(rel)
                    self._floating_claim[rel] = acq
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
        self._cond.notify_all()
        return err

    def _fault_waiter(
        self, tid: int, kind: str, contested: Any, claimants: tuple
    ) -> None:
        """Record a violation for blocked ``tid`` to raise when it wakes;
        a waiter already holding one faults on that one alone."""
        if tid not in self._wait_violation:
            self._wait_violation[tid] = self._record(kind, contested, claimants)

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

    def _missing_for(self, acq: SyncLabel, named: frozenset[SyncLabel]) -> list[SyncLabel]:
        """Named releases not yet deposited. A terminal release claimed by
        another acquire is not missing: the waiter raises on waking."""
        pending = self._targeted.get(acq, {})
        return [
            r
            for r in named
            if r not in pending
            and r not in self._floating
            and r not in self._floating_claim
        ]

    def _recompute_doom(self) -> None:
        """Least fixpoint of "some chain of running threads can still fill
        every channel this thread waits on". Whoever falls outside it can
        never be woken: doomed."""
        waiting = {
            tid: self._missing_for(acq, named)
            for tid, (acq, named) in self._waiting.items()
        }
        can_proceed: set[int] = set()
        changed = True
        while changed:
            changed = False
            for tid, missing in waiting.items():
                if tid in can_proceed or tid in self._doomed:
                    continue
                ok = True
                for rel in missing:
                    source = rel.thread
                    if (
                        source in self._done
                        or source in self._doomed
                        or source not in self._registered
                    ):
                        ok = False
                        break
                    if source in waiting and source not in can_proceed:
                        ok = False
                        break
                if ok:
                    can_proceed.add(tid)
                    changed = True
        newly = set(waiting) - can_proceed - self._doomed
        if newly:
            self._doomed |= newly
            self._cond.notify_all()


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
        """Death release under the reserved label (thread, 0)."""
        if self._hook is not None:
            self._hook()
        label = SyncLabel(self.thread, TERMINAL_SEQ)
        self._trace(label, "REL", None)
        self.registry.deposit_terminal(label, ws.extract_diff())
        return label
