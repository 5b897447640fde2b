"""Channel registry and endpoint behavior.

Covers the uniqueness contract (every pairing violation flavor, with the
exact payloads that must not depend on arrival order), blocking and
deadlock detection, terminal releases, and the label traces endpoints
emit.
"""
from __future__ import annotations

import threading
import time

import pytest

from determ.errors import ConfigError, DataRaceError, DeadlockError, PairingError
from determ.store import Diff, Workspace, global_addresses
from determ.sync import TERMINAL_SEQ, ChannelRegistry, Endpoint, SyncLabel, trace_lines


def lab(t, n):
    return SyncLabel(t, n)


def empty_diff():
    return Diff({}, {})


def run_async(fn):
    """Run fn on a daemon thread; return a handle that re-raises."""
    box = {}

    def wrapper():
        try:
            box["value"] = fn()
        except BaseException as err:  # noqa: BLE001 - test harness
            box["error"] = err

    thread = threading.Thread(target=wrapper, daemon=True)
    thread.start()

    def result(timeout=10.0):
        thread.join(timeout)
        assert not thread.is_alive(), "helper thread did not finish"
        if "error" in box:
            raise box["error"]
        return box["value"]

    return result


def wait_blocked(reg, count=1):
    """Poll until ``count`` claims are blocked in ``reg``."""
    deadline = time.monotonic() + 10.0
    while len(reg._waiting) < count:
        assert time.monotonic() < deadline, "claimers never blocked"
        time.sleep(0.001)


def test_sync_label_value_semantics_are_pinned():
    label = SyncLabel(2, 4)
    assert str(label) == "(2,4)"
    assert repr(label) == "SyncLabel(thread=2, seq=4)"
    assert (label.thread, label.seq) == (2, 4)
    assert hash(label) == hash(tuple(label)) == hash((2, 4))
    assert SyncLabel(0, 9) < SyncLabel(2, TERMINAL_SEQ) < label < SyncLabel(2, 5) < SyncLabel(3, 1)
    assert {label: 1}[SyncLabel(thread=2, seq=4)] == 1


def test_pairing_payload_from_fixed_labels_is_pinned():
    err = PairingError("acquire", lab(2, 1), (lab(1, 3), lab(0, 1), lab(1, TERMINAL_SEQ)))
    assert str(err) == "acquire pairing violation at (2,1): (0,1), (1,0), (1,3)"
    assert err.claimants == (lab(0, 1), lab(1, 0), lab(1, 3))


# ----------------------------------------------------------------------
# registry: plain transfer
# ----------------------------------------------------------------------


def test_deposit_then_claim_moves_one_diff():
    reg = ChannelRegistry()
    diff = Diff({1: 1}, {})
    reg.deposit(lab(1, 1), [lab(2, 1)], diff)
    out = reg.claim(lab(2, 1), [lab(1, 1)])
    assert out == {lab(1, 1): diff}


def test_claim_blocks_until_deposit_arrives():
    reg = ChannelRegistry()
    reg.register(1)
    reg.register(2)
    result = run_async(lambda: reg.claim(lab(2, 1), [lab(1, 1)]))
    diff = Diff({1: 3}, {})
    reg.deposit(lab(1, 1), [lab(2, 1)], diff)
    assert result() == {lab(1, 1): diff}


def test_claim_gathers_several_releases():
    reg = ChannelRegistry()
    d1, d2 = Diff({1: 1}, {}), Diff({3: 1}, {})
    reg.deposit(lab(1, 1), [lab(2, 1)], d1)
    reg.deposit(lab(3, 1), [lab(2, 1)], d2)
    out = reg.claim(lab(2, 1), [lab(1, 1), lab(3, 1)])
    assert out == {lab(1, 1): d1, lab(3, 1): d2}


def test_terminal_deposit_claimed_by_label_alone():
    reg = ChannelRegistry()
    diff = Diff({5: 2}, {})
    reg.deposit(lab(5, TERMINAL_SEQ), (), diff)
    out = reg.claim(lab(0, 1), [lab(5, TERMINAL_SEQ)])
    assert out == {lab(5, TERMINAL_SEQ): diff}


# ----------------------------------------------------------------------
# registry: pairing violations, one per flavor
# ----------------------------------------------------------------------


def test_release_label_reuse_is_a_violation():
    reg = ChannelRegistry()
    reg.deposit(lab(1, 1), [lab(2, 1)], empty_diff())
    with pytest.raises(PairingError) as info:
        reg.deposit(lab(1, 1), [lab(3, 1)], empty_diff())
    assert info.value.kind == "release"
    assert info.value.contested == lab(1, 1)
    assert info.value.claimants == (lab(2, 1), lab(3, 1))


def test_deposit_at_claimed_label_that_never_named_it():
    reg = ChannelRegistry()
    reg.deposit(lab(1, 1), [lab(3, 1)], empty_diff())
    reg.claim(lab(3, 1), [lab(1, 1)])
    with pytest.raises(PairingError) as info:
        reg.deposit(lab(2, 1), [lab(3, 1)], empty_diff())
    assert info.value.kind == "acquire"
    assert info.value.contested == lab(3, 1)
    assert info.value.claimants == (lab(1, 1), lab(2, 1))


def test_claim_with_unnamed_deposit_pending():
    reg = ChannelRegistry()
    reg.deposit(lab(1, 1), [lab(3, 1)], empty_diff())
    with pytest.raises(PairingError) as info:
        reg.claim(lab(3, 1), [lab(2, 1)])
    assert info.value.kind == "acquire"
    assert info.value.contested == lab(3, 1)
    assert info.value.claimants == (lab(1, 1), lab(2, 1))


def test_claim_of_release_aimed_elsewhere():
    reg = ChannelRegistry()
    reg.deposit(lab(1, 1), [lab(2, 7)], empty_diff())
    with pytest.raises(PairingError) as info:
        reg.claim(lab(3, 1), [lab(1, 1)])
    assert info.value.kind == "release"
    assert info.value.contested == lab(1, 1)
    assert info.value.claimants == (lab(2, 7), lab(3, 1))


def test_terminal_release_claimed_twice():
    reg = ChannelRegistry()
    reg.deposit(lab(5, 0), (), empty_diff())
    reg.claim(lab(1, 1), [lab(5, 0)])
    with pytest.raises(PairingError) as info:
        reg.claim(lab(2, 1), [lab(5, 0)])
    assert info.value.kind == "release"
    assert info.value.contested == lab(5, 0)
    assert info.value.claimants == (lab(1, 1), lab(2, 1))


def test_terminal_label_reuse_is_a_violation():
    reg = ChannelRegistry()
    reg.deposit(lab(5, 0), (), empty_diff())
    with pytest.raises(PairingError):
        reg.deposit(lab(5, 0), (), empty_diff())


def _payload(err):
    return (str(err), err.kind, err.contested, err.claimants)


def test_terminal_double_claim_payload_ignores_arrival_order():
    # Two acquires naming one terminal label: the loser raises the same
    # violation whether the deposit came before both claims or after
    # both had blocked.
    first, second = lab(1, 1), lab(2, 1)

    early = ChannelRegistry()
    diff = empty_diff()
    early.deposit(lab(5, 0), (), diff)
    assert early.claim(first, [lab(5, 0)]) == {lab(5, 0): diff}
    with pytest.raises(PairingError) as info:
        early.claim(second, [lab(5, 0)])
    deposit_first = _payload(info.value)

    late = ChannelRegistry()
    for tid in (1, 2, 5):
        late.register(tid)
    results = {
        tid: run_async(lambda a=acq: late.claim(a, [lab(5, 0)]))
        for tid, acq in ((1, first), (2, second))
    }
    wait_blocked(late, 2)
    late.deposit(lab(5, 0), (), diff)
    served, raised = [], []
    for result in results.values():
        try:
            served.append(result())
        except PairingError as err:
            raised.append(err)
    assert served == [{lab(5, 0): diff}]
    (err,) = raised
    assert _payload(err) == deposit_first
    assert [_payload(v) for v in late.violations()] == [
        _payload(v) for v in early.violations()
    ]
    assert late.doomed() == ()


def test_loser_of_a_terminal_claim_is_not_doomed():
    # The winner pops the terminal diff and its thread finishes before
    # the blocked losers wake; each loser must raise the pairing error at
    # once, not wait on or be counted among the deadlocked. One case per
    # loop pass, so the test keeps its name: a loser alone, a loser still
    # missing a release that running thread 3 never makes, two losers.
    for losers in (
        {2: [lab(5, 0)]},
        {2: [lab(5, 0), lab(3, 1)]},
        {2: [lab(5, 0)], 4: [lab(5, 0)]},
    ):
        reg = ChannelRegistry()
        for tid in {1, 5, *losers, *(r.thread for rels in losers.values() for r in rels)}:
            reg.register(tid)
        results = {
            tid: run_async(lambda t=tid, rels=rels: reg.claim(lab(t, 1), rels))
            for tid, rels in losers.items()
        }
        wait_blocked(reg, len(losers))
        with reg._cond:  # no loser can wake until all three steps are done
            reg.deposit(lab(5, 0), (), empty_diff())
            reg.claim(lab(1, 1), [lab(5, 0)])
            reg.mark_done(5)
        expected = []
        for tid, result in results.items():
            with pytest.raises(PairingError) as info:
                result()
            expected.append(
                _payload(PairingError("release", lab(5, 0), (lab(1, 1), lab(tid, 1))))
            )
            assert _payload(info.value) == expected[-1], losers
        assert sorted(_payload(v) for v in reg.violations()) == sorted(expected)
        assert reg.doomed() == ()


def test_claimed_terminal_diff_is_dropped():
    reg = ChannelRegistry()
    reg.deposit(lab(5, 0), (), Diff({5: 1}, {}))
    reg.claim(lab(1, 1), [lab(5, 0)])
    assert lab(5, 0) not in reg._floating
    # The claim tombstone still guards the label.
    with pytest.raises(PairingError) as info:
        reg.claim(lab(2, 1), [lab(5, 0)])
    assert info.value.claimants == (lab(1, 1), lab(2, 1))
    with pytest.raises(PairingError):
        reg.deposit(lab(5, 0), (), empty_diff())


def test_blocked_waiter_faults_for_a_release_aimed_elsewhere():
    # The release still deposits and the releaser returns; the blocked
    # acquire raises what it would raise arriving after the deposit.
    reg = ChannelRegistry()
    reg.register(1)
    reg.register(3)
    result = run_async(lambda: reg.claim(lab(3, 5), [lab(1, 1)]))
    wait_blocked(reg)
    diff = empty_diff()
    reg.deposit(lab(1, 1), [lab(2, 9)], diff)
    with pytest.raises(PairingError) as at_waiter:
        result()
    assert at_waiter.value.kind == "release"
    assert at_waiter.value.contested == lab(1, 1)
    assert at_waiter.value.claimants == (lab(2, 9), lab(3, 5))
    assert [_payload(v) for v in reg.violations()] == [_payload(at_waiter.value)]
    assert reg.claim(lab(2, 9), [lab(1, 1)]) == {lab(1, 1): diff}

    late = ChannelRegistry()
    late.deposit(lab(1, 1), [lab(2, 9)], empty_diff())
    with pytest.raises(PairingError) as on_arrival:
        late.claim(lab(3, 5), [lab(1, 1)])
    assert _payload(on_arrival.value) == _payload(at_waiter.value)


def test_release_into_a_blocked_claim_that_omits_it_faults_the_waiter():
    # Only an acquire that already completed faults the releaser.
    reg = ChannelRegistry()
    for tid in (1, 2, 3):
        reg.register(tid)
    result = run_async(lambda: reg.claim(lab(3, 5), [lab(1, 1)]))
    wait_blocked(reg)
    reg.deposit(lab(2, 1), [lab(3, 5)], empty_diff())
    with pytest.raises(PairingError) as at_waiter:
        result()
    assert at_waiter.value.kind == "acquire"
    assert at_waiter.value.contested == lab(3, 5)
    assert at_waiter.value.claimants == (lab(1, 1), lab(2, 1))

    done = ChannelRegistry()
    done.deposit(lab(1, 1), [lab(3, 5)], empty_diff())
    done.claim(lab(3, 5), [lab(1, 1)])
    with pytest.raises(PairingError) as at_releaser:
        done.deposit(lab(2, 1), [lab(3, 5)], empty_diff())
    assert _payload(at_releaser.value) == _payload(at_waiter.value)


def test_broadcast_deposit_satisfies_waiter_among_targets():
    # The whole target list lands as one event: a waiter naming the
    # release is fine as long as its label appears anywhere in the list.
    reg = ChannelRegistry()
    reg.register(1)
    reg.register(3)
    diff = Diff({1: 1}, {})
    result = run_async(lambda: reg.claim(lab(3, 5), [lab(1, 1)]))
    reg.deposit(lab(1, 1), [lab(2, 9), lab(3, 5)], diff)
    assert result() == {lab(1, 1): diff}
    assert reg.violations() == ()


def test_violations_are_recorded_for_later_reporting():
    reg = ChannelRegistry()
    reg.deposit(lab(1, 1), [lab(2, 1)], empty_diff())
    with pytest.raises(PairingError):
        reg.deposit(lab(1, 1), [lab(2, 2)], empty_diff())
    assert len(reg.violations()) == 1
    assert reg.violations()[0].contested == lab(1, 1)


def test_audit_flags_unclaimed_label_fed_twice():
    reg = ChannelRegistry()
    reg.deposit(lab(0, 1), [lab(2, 1)], empty_diff())
    reg.deposit(lab(1, 1), [lab(2, 1)], empty_diff())
    (err,) = reg.audit()
    assert err.kind == "acquire"
    assert err.contested == lab(2, 1)
    assert err.claimants == (lab(0, 1), lab(1, 1))


def test_audit_ignores_single_pending_deposits():
    reg = ChannelRegistry()
    reg.deposit(lab(0, 1), [lab(2, 1)], empty_diff())
    assert reg.audit() == ()


# ----------------------------------------------------------------------
# registry: deadlock doom
# ----------------------------------------------------------------------


def test_crossed_waits_doom_both_threads():
    reg = ChannelRegistry()
    reg.register(0)
    reg.register(1)
    r0 = run_async(lambda: reg.claim(lab(0, 1), [lab(1, 1)]))
    r1 = run_async(lambda: reg.claim(lab(1, 1), [lab(0, 1)]))
    for result in (r0, r1):
        with pytest.raises(DeadlockError) as info:
            result()
        assert info.value.blocked == (0, 1)
    assert reg.doomed() == (0, 1)


def test_waiting_on_finished_thread_is_doom():
    reg = ChannelRegistry()
    reg.register(1)
    reg.register(2)
    reg.mark_done(2)
    with pytest.raises(DeadlockError) as info:
        reg.claim(lab(1, 1), [lab(2, 5)])
    assert info.value.blocked == (1,)


def test_waiting_on_unregistered_thread_is_doom():
    reg = ChannelRegistry()
    reg.register(1)
    with pytest.raises(DeadlockError) as info:
        reg.claim(lab(1, 1), [lab(9, 2)])
    assert info.value.blocked == (1,)


def test_releaser_finishing_dooms_its_waiter():
    reg = ChannelRegistry()
    reg.register(1)
    reg.register(2)
    result = run_async(lambda: reg.claim(lab(1, 1), [lab(2, 4)]))
    reg.mark_done(2)
    with pytest.raises(DeadlockError) as info:
        result()
    assert info.value.blocked == (1,)


def test_chain_behind_a_live_thread_is_not_doomed():
    reg = ChannelRegistry()
    for t in (1, 2, 3):
        reg.register(t)
    # 1 waits on 2; 2 waits on 3; 3 eventually delivers. Nobody dooms.
    r1 = run_async(lambda: reg.claim(lab(1, 1), [lab(2, 1)]))
    r2 = run_async(lambda: reg.claim(lab(2, 1), [lab(3, 1)]))
    assert reg.doomed() == ()
    reg.deposit(lab(3, 1), [lab(2, 1)], empty_diff())
    r2()
    reg.deposit(lab(2, 1), [lab(1, 1)], empty_diff())
    r1()
    assert reg.doomed() == ()


def test_doomed_and_unwound_threads_are_reported():
    reg = ChannelRegistry()
    reg.register(1)
    reg.register(2)
    reg.mark_done(2)
    result = run_async(lambda: reg.claim(lab(1, 1), [lab(2, 9)]))
    with pytest.raises(DeadlockError):
        result()
    assert reg.doomed() == (1,)
    assert reg.wait_unwound([2], timeout=10.0)
    assert not reg.wait_unwound([1], timeout=0.01)  # doomed, never done


def test_wait_unwound_outlasts_doom():
    # A doomed thread is still alive until its blocked acquire wakes up
    # and it finishes unwinding; error readers must wait for done.
    reg = ChannelRegistry()
    reg.register(1)
    reg.register(2)
    gate = threading.Event()
    caught = {1: threading.Event(), 2: threading.Event()}

    def stuck(tid, other):
        try:
            reg.claim(lab(tid, 1), [lab(other, 1)])
        except DeadlockError:
            caught[tid].set()
            gate.wait(10.0)
        finally:
            reg.mark_done(tid)

    workers = [
        threading.Thread(target=stuck, args=(1, 2), daemon=True),
        threading.Thread(target=stuck, args=(2, 1), daemon=True),
    ]
    for worker in workers:
        worker.start()
    for event in caught.values():
        assert event.wait(10.0)
    assert reg.doomed() == (1, 2)
    assert not reg.wait_unwound([1, 2], timeout=0.1)  # doomed, not unwound
    gate.set()
    assert reg.wait_unwound([1, 2], timeout=10.0)
    for worker in workers:
        worker.join(10.0)


def test_a_lender_woken_by_a_fault_does_not_hold_off_its_childs_doom():
    # Thread 0 lends its OS thread to child 1. A release into 0's claim
    # that the claim does not name faults 0 while 1 still runs; 1 then
    # blocks for good and is doomed alone, and 0 raises its own fault.
    reg = ChannelRegistry()
    reg.register(0)
    reg.register(1)
    doomed = []

    def run():
        reg.deposit(lab(1, 1), [lab(0, 1)], empty_diff())
        with pytest.raises(DeadlockError) as info:
            reg.claim(lab(1, 2), [lab(2, 1)])
        doomed.append(info.value.blocked)
        reg.mark_done(1)

    with pytest.raises(PairingError) as info:
        reg.claim(lab(0, 1), [lab(1, TERMINAL_SEQ)], lend=(1, run))
    assert str(info.value) == "acquire pairing violation at (0,1): (1,0), (1,1)"
    assert doomed == [(1,)]


def test_a_lender_runs_again_in_the_step_that_ends_its_child():
    # Child 1, run on thread 0's OS thread, ends 0's wait with its
    # terminal release and is then marked done. Thread 2 waits on what 0
    # releases next, so it must not be doomed in between.
    reg = ChannelRegistry()
    for t in (0, 1, 2):
        reg.register(t)
    waiting = run_async(lambda: reg.claim(lab(2, 1), [lab(0, 2)]))
    wait_blocked(reg)

    def run():
        reg.deposit(lab(1, TERMINAL_SEQ), (), empty_diff())
        reg.mark_done(1)

    reg.claim(lab(0, 1), [lab(1, TERMINAL_SEQ)], lend=(1, run))
    assert reg.doomed() == ()
    reg.deposit(lab(0, 2), [lab(2, 1)], empty_diff())
    waiting()
    assert reg.doomed() == ()


# ----------------------------------------------------------------------
# endpoints
# ----------------------------------------------------------------------


def _linked_pair():
    reg = ChannelRegistry()
    init = {"x": 0}
    table = global_addresses(init)
    ws = {t: Workspace(t, init) for t in (1, 2)}
    ep = {t: Endpoint(reg, t) for t in (1, 2)}
    for t in (1, 2):
        reg.register(t)
    return reg, ws, ep, table


def test_release_acquire_transfers_state():
    reg, ws, ep, table = _linked_pair()
    ws[1].write(table["x"], 77)
    ep[1].release(ws[1], lab(2, 1))
    ep[2].acquire(ws[2], lab(1, 1))
    assert ws[2].read(table["x"]) == 77


def test_endpoint_labels_count_per_thread():
    reg, ws, ep, table = _linked_pair()
    assert ep[1].next_seq() == 1
    first = ep[1].release(ws[1], lab(2, 1))
    second = ep[1].release(ws[1], lab(2, 2))
    assert (first, second) == (lab(1, 1), lab(1, 2))
    assert ep[1].next_seq() == 3


def test_release_set_reaches_every_target():
    reg = ChannelRegistry()
    init = {"x": 0}
    table = global_addresses(init)
    ws = {t: Workspace(t, init) for t in (0, 1, 2)}
    ep = {t: Endpoint(reg, t) for t in (0, 1, 2)}
    ws[0].write(table["x"], 5)
    ep[0].release_set(ws[0], [lab(1, 1), lab(2, 1)])
    ep[1].acquire(ws[1], lab(0, 1))
    ep[2].acquire(ws[2], lab(0, 1))
    assert ws[1].read(table["x"]) == 5
    assert ws[2].read(table["x"]) == 5


def test_broadcast_matches_separate_releases():
    # One release event fanned out to two targets leaves the receivers in
    # exactly the state two back-to-back single releases would.
    def run(broadcast):
        reg = ChannelRegistry()
        init = {"x": 0}
        table = global_addresses(init)
        ws = {t: Workspace(t, init) for t in (0, 1, 2)}
        ep = {t: Endpoint(reg, t) for t in (0, 1, 2)}
        ws[0].write(table["x"], 9)
        if broadcast:
            ep[0].release_set(ws[0], [lab(1, 1), lab(2, 1)])
            ep[1].acquire(ws[1], lab(0, 1))
            ep[2].acquire(ws[2], lab(0, 1))
        else:
            ep[0].release(ws[0], lab(1, 1))
            ep[0].release(ws[0], lab(2, 1))
            ep[1].acquire(ws[1], lab(0, 1))
            ep[2].acquire(ws[2], lab(0, 2))
        return ws[1].state_bytes(), ws[2].state_bytes()

    assert run(broadcast=True) == run(broadcast=False)


def test_acquire_set_applies_in_label_order():
    # Two concurrent writes to the same cell arrive in one acquire set;
    # the conflict must attribute "local" to the lower release label no
    # matter which deposit landed first, or in which order a user's call
    # names them.
    def run(deposit_order, named=(lab(2, 1), lab(3, 1))):
        reg = ChannelRegistry()
        init = {"x": 0}
        table = global_addresses(init)
        ws = {t: Workspace(t, init) for t in (0, 2, 3)}
        ep = {t: Endpoint(reg, t) for t in (0, 2, 3)}
        ws[2].write(table["x"], 2)
        ws[3].write(table["x"], 3)
        for t in deposit_order:
            ep[t].release(ws[t], lab(0, 1))
        with pytest.raises(DataRaceError) as info:
            ep[0].acquire_set(ws[0], named)
        (conflict,) = info.value.conflicts
        return conflict.local, conflict.incoming

    assert run([2, 3]) == run([3, 2]) == run([2, 3], [lab(3, 1), lab(2, 1)])
    local, incoming = run([2, 3])
    assert local.writer == 2 and incoming.writer == 3


def test_terminal_release_supports_join_without_known_seq():
    reg, ws, ep, table = _linked_pair()
    ws[2].write(table["x"], 13)
    ep[2].release(ws[2], lab(1, 7))  # unrelated mid-life event
    ep[2].release_terminal(ws[2])
    ep[1].acquire_set(ws[1], [lab(2, TERMINAL_SEQ)])
    assert ws[1].read(table["x"]) == 13


def test_a_terminal_release_hands_over_its_cells():
    reg, ws, ep, table = _linked_pair()
    ws[2].write(table["x"], 13)
    cells = ws[2].cells
    ep[2].release_terminal(ws[2])
    assert reg._floating[lab(2, TERMINAL_SEQ)].writes is cells
    assert ws[2].cells == {} and ws[2].knowledge == {}
    ep[1].acquire(ws[1], lab(2, TERMINAL_SEQ))
    assert ws[1].read(table["x"]) == 13


def test_release_partners_must_be_real_events():
    reg, ws, ep, table = _linked_pair()
    with pytest.raises(ConfigError):
        ep[1].release_set(ws[1], [])
    with pytest.raises(ConfigError):
        ep[1].release_set(ws[1], [lab(2, 1), lab(2, 1)])
    with pytest.raises(ConfigError):
        ep[1].release(ws[1], lab(2, TERMINAL_SEQ))
    with pytest.raises(ConfigError):
        ep[1].release(ws[1], lab(-3, 1))


def test_a_claim_checks_its_releases_aims_in_ascending_order():
    # Both named releases are aimed elsewhere: the lower one is reported,
    # in whichever order the caller named them.
    for rels in ([lab(1, 1), lab(2, 1)], [lab(2, 1), lab(1, 1), lab(2, 1)]):
        reg = ChannelRegistry()
        for rel in (lab(1, 1), lab(2, 1)):
            reg.deposit(rel, [lab(9, 1)], empty_diff())
        with pytest.raises(PairingError) as info:
            reg.claim(lab(3, 1), rels)
        assert (info.value.kind, info.value.contested) == ("release", lab(1, 1))
        assert info.value.claimants == (lab(3, 1), lab(9, 1))


def test_acquire_partners_may_name_terminal_labels():
    reg, ws, ep, table = _linked_pair()
    with pytest.raises(ConfigError):
        ep[1].acquire_set(ws[1], [lab(2, -1)])
    with pytest.raises(ConfigError, match="duplicate partners"):
        ep[1].acquire_set(ws[1], [lab(2, 1), lab(2, 1)])
    # seq 0 is legal for acquires: that is how joins name terminals.
    ep[2].release_terminal(ws[2])
    ep[1].acquire(ws[1], lab(2, TERMINAL_SEQ))


def test_hook_runs_before_every_sync_event():
    calls = []
    reg = ChannelRegistry()
    ws = Workspace(1, {"x": 0})
    ep = Endpoint(reg, 1, hook=lambda: calls.append(len(calls)))
    ep.release(ws, lab(2, 1))
    ep.release_set(ws, [lab(2, 2), lab(3, 1)])
    ep.release_terminal(ws)
    assert calls == [0, 1, 2]


def test_trace_lines_are_deterministic_per_thread():
    def run():
        reg = ChannelRegistry()
        init = {"x": 0}
        ws = {t: Workspace(t, init) for t in (0, 1)}
        ep = {t: Endpoint(reg, t, log=[]) for t in (0, 1)}
        table = global_addresses(init)
        ws[0].write(table["x"], 1)
        ep[0].release_set(ws[0], [lab(1, 1), lab(1, 2)])
        ep[1].acquire(ws[1], lab(0, 1))
        ep[1].acquire(ws[1], lab(0, 1))
        ep[0].release_terminal(ws[0])
        return {t: trace_lines(t, ep[t].log) for t in (0, 1)}

    first, second = run(), run()
    assert first == second
    assert first[0] == [
        "EVT 0 1 REL 1 1",
        "EVT 0 1 REL 1 2",
        "EVT 0 0 REL -1 -1",
    ]
    assert first[1] == ["EVT 1 1 ACQ 0 1", "EVT 1 2 ACQ 0 1"]
