"""Workspace, stamp, and diff-merge behavior.

The merge rule is checked twice: directly against hand-built histories,
and against a test-local model that tracks explicit sets of observed
write events instead of per-writer counters. Counter vectors and event
sets agree exactly as long as every diff carries the sender's complete
knowledge, which is what extract_diff does; the randomized agreement
test exercises that equivalence.
"""
from __future__ import annotations

import ast
import random

import pytest

from determ.errors import ConfigError, DataRaceError, UnallocatedError
from determ.runtime import Runtime
from determ.store import (
    INITIAL,
    ROOT_THREAD,
    Address,
    Cell,
    Conflict,
    Diff,
    VersionStamp,
    Workspace,
    covers,
    global_addresses,
)

# ----------------------------------------------------------------------
# addressing and stamps
# ----------------------------------------------------------------------


def test_global_addresses_sorted_by_name():
    table = global_addresses(["zeta", "alpha", "mid"])
    assert table == {
        "alpha": Address(ROOT_THREAD, 1),
        "mid": Address(ROOT_THREAD, 2),
        "zeta": Address(ROOT_THREAD, 3),
    }


def test_global_addresses_ignore_insertion_order():
    assert global_addresses(["b", "a"]) == global_addresses(["a", "b"])


def test_address_and_stamp_render():
    assert str(Address(2, 5)) == "@2.5"
    assert str(VersionStamp(1, 3)) == "1.3"
    assert str(INITIAL) == "-1.0"


def test_addresses_order_canonically():
    addrs = [Address(1, 2), Address(0, 9), Address(1, 1)]
    assert sorted(addrs) == [Address(0, 9), Address(1, 1), Address(1, 2)]


def test_address_value_semantics_are_pinned():
    addr = Address(3, 7)
    assert str(addr) == "@3.7"
    assert repr(addr) == "Address(owner=3, slot=7)"
    assert (addr.owner, addr.slot) == (3, 7)
    assert hash(addr) == hash((3, 7))
    assert Address(3, 7) == addr and Address(7, 3) != addr
    assert Address(2, 9) < addr < Address(3, 8) < Address(4, 0)
    assert {addr: 1}[Address(owner=3, slot=7)] == 1


def test_stamp_and_cell_value_semantics_are_pinned():
    stamp = VersionStamp(2, 5)
    assert str(stamp) == "2.5"
    assert repr(stamp) == "VersionStamp(writer=2, seq=5)"
    assert (stamp.writer, stamp.seq) == (2, 5)
    assert hash(stamp) == hash(tuple(stamp)) == hash((2, 5))
    assert INITIAL < VersionStamp(0, 9) < VersionStamp(2, 4) < stamp < VersionStamp(3, 1)
    cell = Cell(stamp, 11)
    assert str(cell) == repr(cell) == "Cell(stamp=VersionStamp(writer=2, seq=5), value=11)"
    assert (cell.stamp, cell.value) == (stamp, 11)
    assert hash(cell) == hash(tuple(cell)) == hash(((2, 5), 11))
    assert sorted([cell, Cell(VersionStamp(1, 7), 99), Cell(stamp, 3)]) == [
        Cell(VersionStamp(1, 7), 99), Cell(stamp, 3), cell,
    ]


def test_race_payload_from_fixed_stamps_is_pinned():
    err = DataRaceError((
        Conflict(Address(0, 1), VersionStamp(1, 2), VersionStamp(2, 2)),
        Conflict(Address(2, 3), INITIAL, VersionStamp(1, 4)),
    ))
    assert str(err) == "conflicting concurrent writes: @0.1[1.2|2.2], @2.3[-1.0|1.4]"


def test_thread_ctx_dispatches_on_address_type():
    rt = Runtime({"g": 4})
    root = rt.root()
    addr = global_addresses(["g"])["g"]
    assert root.addr(addr) is addr
    assert root.addr("g") == addr
    assert root.read(addr) == root.read("g") == 4
    # A bare tuple is a name lookup, not an address.
    with pytest.raises(ConfigError):
        root.addr((addr.owner, addr.slot))
    rt.finish()


def test_initial_stamp_is_covered_by_everyone():
    assert covers({}, INITIAL)
    assert covers({3: 7}, INITIAL)


def test_covers_compares_per_writer_counters():
    knowledge = {1: 4}
    assert covers(knowledge, VersionStamp(1, 4))
    assert covers(knowledge, VersionStamp(1, 1))
    assert not covers(knowledge, VersionStamp(1, 5))
    assert not covers(knowledge, VersionStamp(2, 1))


# ----------------------------------------------------------------------
# workspace basics
# ----------------------------------------------------------------------


def test_workspace_accepts_mapping_or_pairs():
    a = Workspace(0, {"x": 1, "y": 2})
    b = Workspace(0, [("x", 1), ("y", 2)])
    assert a.state_bytes() == b.state_bytes()


def test_workspace_rejects_duplicate_globals():
    with pytest.raises(ConfigError):
        Workspace(0, [("x", 1), ("x", 2)])


def test_workspace_rejects_negative_owner():
    with pytest.raises(ConfigError):
        Workspace(-1)


def test_globals_start_with_initial_stamp():
    ws = Workspace(0, {"x": 10})
    addr = global_addresses(["x"])["x"]
    assert ws.cells[addr] == Cell(INITIAL, 10)
    assert ws.knowledge == {}


def test_read_unallocated_raises():
    ws = Workspace(1)
    with pytest.raises(UnallocatedError):
        ws.read(Address(1, 1))


def test_write_unallocated_raises():
    ws = Workspace(1)
    with pytest.raises(UnallocatedError):
        ws.write(Address(1, 1), 0)


def test_write_stamps_ascend():
    ws = Workspace(0, {"x": 0})
    addr = global_addresses(["x"])["x"]
    assert ws.write(addr, 1) == VersionStamp(0, 1)
    assert ws.write(addr, 2) == VersionStamp(0, 2)
    assert ws.read(addr) == 2
    assert ws.knowledge == {0: 2}


def test_root_allocations_skip_global_slots():
    ws = Workspace(0, {"x": 0, "y": 0})
    assert ws.alloc("fresh") == Address(0, 3)
    assert ws.alloc("again") == Address(0, 4)


def test_nonroot_allocations_start_at_slot_one():
    ws = Workspace(3)
    assert ws.alloc() == Address(3, 1)
    assert ws.alloc() == Address(3, 2)


def test_alloc_counts_as_a_write():
    ws = Workspace(2)
    addr = ws.alloc(7)
    assert ws.cells[addr].stamp == VersionStamp(2, 1)
    stamp = ws.write(addr, 8)
    assert stamp == VersionStamp(2, 2)


# ----------------------------------------------------------------------
# diff exchange: the three-way merge rule
# ----------------------------------------------------------------------


def _pair(globals=None):
    init = {"x": 0} if globals is None else globals
    return Workspace(1, init), Workspace(2, init), global_addresses(init)


def test_adopt_fresh_write_over_initial_cell():
    a, b, table = _pair()
    a.write(table["x"], 41)
    b.apply_diff(a.extract_diff())
    assert b.read(table["x"]) == 41
    assert b.cells[table["x"]].stamp == VersionStamp(1, 1)


def test_adopt_never_seen_address():
    a, b, table = _pair()
    scratch = a.alloc("hello")
    b.apply_diff(a.extract_diff())
    assert b.read(scratch) == "hello"


def test_keep_when_incoming_is_already_known():
    # b adopts a's write, moves past it, then sees the same diff again:
    # the stale copy must not clobber b's newer value.
    a, b, table = _pair()
    a.write(table["x"], 1)
    old = a.extract_diff()
    b.apply_diff(old)
    b.write(table["x"], 2)
    b.apply_diff(old)
    assert b.read(table["x"]) == 2


def test_apply_is_idempotent():
    a, b, table = _pair()
    a.write(table["x"], 9)
    diff = a.extract_diff()
    b.apply_diff(diff)
    snapshot = b.state_bytes()
    b.apply_diff(diff)
    assert b.state_bytes() == snapshot


def test_receiver_learns_sender_knowledge():
    a, b, table = _pair()
    stamp = a.write(table["x"], 1)
    b.apply_diff(a.extract_diff())
    assert covers(b.knowledge, stamp)


def test_concurrent_writes_conflict():
    a, b, table = _pair()
    sa = a.write(table["x"], 1)
    sb = b.write(table["x"], 2)
    with pytest.raises(DataRaceError) as info:
        b.apply_diff(a.extract_diff())
    (conflict,) = info.value.conflicts
    assert conflict.addr == table["x"]
    assert {conflict.local, conflict.incoming} == {sa, sb}


def test_conflict_is_symmetric():
    a, b, table = _pair()
    a.write(table["x"], 1)
    b.write(table["x"], 2)
    da, db = a.extract_diff(), b.extract_diff()
    with pytest.raises(DataRaceError) as at_b:
        b.apply_diff(da)
    with pytest.raises(DataRaceError) as at_a:
        a.apply_diff(db)
    pairs_b = {(c.addr, frozenset((c.local, c.incoming))) for c in at_b.value.conflicts}
    pairs_a = {(c.addr, frozenset((c.local, c.incoming))) for c in at_a.value.conflicts}
    assert pairs_a == pairs_b


def test_conflicting_diff_changes_nothing():
    a, b, table = _pair({"x": 0, "y": 0})
    a.write(table["x"], 1)  # clean transfer candidate... but:
    a.write(table["y"], 1)
    b.write(table["y"], 2)  # conflicts with a's y-write
    before = b.state_bytes()
    with pytest.raises(DataRaceError):
        b.apply_diff(a.extract_diff())
    assert b.state_bytes() == before  # x was not adopted either


def test_conflicts_report_in_ascending_address_order():
    names = {"p": 0, "q": 0, "r": 0}
    a, b, table = _pair(names)
    for name in names:
        a.write(table[name], 1)
        b.write(table[name], 2)
    with pytest.raises(DataRaceError) as info:
        b.apply_diff(a.extract_diff())
    addrs = [c.addr for c in info.value.conflicts]
    assert addrs == sorted(addrs)
    assert len(addrs) == 3


def test_conflicts_across_owners_sorted_despite_arrival_order():
    # Owner 2's allocations reach both workspaces before owner 1's, so
    # every dict holds the cells out of address order.
    w1, w2 = Workspace(1), Workspace(2)
    high = [w2.alloc(0), w2.alloc(0)]
    low = w1.alloc(0)
    b, s = Workspace(3), Workspace(4)
    for ws in (b, s):
        ws.apply_diff(w2.extract_diff())
        ws.apply_diff(w1.extract_diff())
        assert list(ws.cells) == high + [low]
        for addr in high + [low]:
            ws.write(addr, ws.owner)
    before = b.state_bytes()
    with pytest.raises(DataRaceError) as info:
        b.apply_diff(s.extract_diff())
    assert [c.addr for c in info.value.conflicts] == [low] + high
    assert str(info.value) == (
        "conflicting concurrent writes: "
        "@1.1[3.3|4.3], @2.1[3.1|4.1], @2.2[3.2|4.2]"
    )
    assert b.state_bytes() == before


def test_empty_receiver_adopts_whole_diff():
    a = Workspace(1, {"x": 0})
    a.write(global_addresses(["x"])["x"], 5)
    a.alloc("mine")
    diff = a.extract_diff()
    fresh = Workspace(2)
    fresh.apply_diff(diff)
    assert fresh.cells == diff.writes and fresh.cells is not diff.writes
    assert fresh.knowledge == diff.sender_knowledge
    fresh.check_invariants()
    fresh.alloc("own")
    assert len(diff.writes) == 2  # the diff stays unchanged


def test_conflict_message_names_cells_and_stamps():
    a, b, table = _pair()
    a.write(table["x"], 1)
    b.write(table["x"], 2)
    with pytest.raises(DataRaceError) as info:
        b.apply_diff(a.extract_diff())
    assert "conflicting concurrent writes: @0.1[2.1|1.1]" == str(info.value)


def test_diff_snapshot_is_isolated_from_later_writes():
    a, b, table = _pair()
    a.write(table["x"], 1)
    diff = a.extract_diff()
    a.write(table["x"], 99)
    b.apply_diff(diff)
    assert b.read(table["x"]) == 1


def test_transfer_chain_carries_third_party_writes():
    # a -> b -> c: c must treat a's write as known even though c never
    # spoke to a directly.
    init = {"x": 0}
    a, b, c = Workspace(1, init), Workspace(2, init), Workspace(3, init)
    table = global_addresses(init)
    stamp = a.write(table["x"], 5)
    b.apply_diff(a.extract_diff())
    c.apply_diff(b.extract_diff())
    assert c.read(table["x"]) == 5
    assert covers(c.knowledge, stamp)
    # c can now overwrite without conflicting against a's event.
    c.write(table["x"], 6)
    a.apply_diff(c.extract_diff())
    assert a.read(table["x"]) == 6


# ----------------------------------------------------------------------
# canonical state serialization
# ----------------------------------------------------------------------


def test_state_bytes_equal_for_equal_histories():
    a1, a2 = Workspace(1, {"x": 0}), Workspace(1, {"x": 0})
    addr = global_addresses(["x"])["x"]
    a1.write(addr, 3)
    a2.write(addr, 3)
    assert a1.state_bytes() == a2.state_bytes()


@pytest.mark.parametrize("mutate", ["value", "extra_write", "owner"])
def test_state_bytes_detect_differences(mutate):
    base = Workspace(1, {"x": 0})
    other = Workspace(1 if mutate != "owner" else 2, {"x": 0})
    addr = global_addresses(["x"])["x"]
    base.write(addr, 3)
    if mutate == "value":
        other.write(addr, 4)
    elif mutate == "extra_write":
        other.write(addr, 3)
        other.write(addr, 3)
    else:
        other.write(addr, 3)
    assert base.state_bytes() != other.state_bytes()


def test_invariants_hold_after_ordinary_use():
    a, b, table = _pair()
    a.write(table["x"], 1)
    a.alloc(5)
    b.apply_diff(a.extract_diff())
    a.check_invariants()
    b.check_invariants()


# ----------------------------------------------------------------------
# the per-writer index
# ----------------------------------------------------------------------


def _index_of(writes):
    """The per-writer index a diff's full cell map implies."""
    index = {}
    for addr, cell in writes.items():
        if cell.stamp != INITIAL:
            index.setdefault(cell.stamp.writer, set()).add(addr)
    return index


def _index_of_live(diff):
    """The same, for the writers the diff's sender had not seen retire."""
    retired = {w for lo, hi in diff.retired for w in range(lo, hi)}
    return {w: b for w, b in _index_of(diff.writes).items() if w not in retired}


class _Counted(dict):
    """A cell map that counts single lookups and refuses to be walked."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)

    def items(self):
        raise AssertionError("the whole cell map was walked")

    __iter__ = keys = values = items

    def plain(self):
        return dict(dict.items(self))


def test_acquire_visits_only_the_cells_it_lacks():
    # Of 1000 shipped cells the receiver lacks k2: writer 3's newest.
    names = {f"g{i:04d}": 0 for i in range(1000)}
    table = global_addresses(names)
    addrs = list(table.values())
    a, b, c = (Workspace(t, names, names=table) for t in (1, 2, 3))
    for addr in addrs:
        a.write(addr, 1)
    b.apply_diff(a.extract_diff())
    c.apply_diff(a.extract_diff())
    k1, k2 = 5, 7
    for addr in addrs[:k1]:
        c.write(addr, 2)
    b.apply_diff(c.extract_diff())  # b knows writer 3's first k1 writes
    for addr in addrs[k1 : k1 + k2]:
        c.write(addr, 3)
    a.apply_diff(c.extract_diff())
    diff = a.extract_diff()
    shipped = Diff(diff.sender_knowledge, _Counted(diff.writes), diff.index, diff.table)
    b.cells = _Counted(b.cells)
    b.apply_diff(shipped)
    assert shipped.writes.lookups == k1 + k2  # writer 3's bucket alone
    assert b.cells.lookups == k2  # and in it only what b lacks
    b.cells = b.cells.plain()
    assert b.state_bytes() == a.state_bytes()
    b.check_invariants()


def test_receiver_without_the_globals_adopts_them():
    # A non-empty receiver built without the sender's globals must still
    # learn every initial cell, and pass them on.
    init = {"x": 0, "y": 5}
    table = global_addresses(init)
    sender = Workspace(1, init)
    sender.write(table["x"], 7)
    receiver, third = Workspace(2), Workspace(3)
    own = receiver.alloc("mine")
    third.alloc("theirs")
    receiver.apply_diff(sender.extract_diff())
    assert receiver.read(table["y"]) == 5 and receiver.read(table["x"]) == 7
    assert receiver.read(own) == "mine"
    receiver.check_invariants()
    third.apply_diff(receiver.extract_diff())
    assert third.read(table["y"]) == 5 and third.read(own) == "mine"
    third.check_invariants()


def test_initial_cells_from_two_tables_travel_on():
    # s and r share table {x}; s then merges the initial cell z of
    # another table, and r must get z from s.
    s, r = Workspace(1, {"x": 0}), Workspace(2, {"x": 0})
    z_table = {"a": 0, "z": 9}
    z = global_addresses(z_table)["z"]
    s.apply_diff(Workspace(3, z_table).extract_diff())
    assert s.read(z) == 9
    r.apply_diff(s.extract_diff())
    assert r.read(z) == 9
    s.check_invariants()
    r.check_invariants()


def test_diff_index_is_never_changed_after_release():
    a, b, table = _pair({"x": 0, "y": 0})
    a.write(table["x"], 1)
    b.apply_diff(a.extract_diff())
    first = a.extract_diff()
    b.write(table["x"], 2)  # moves x from writer 1 to writer 2 in b
    a.apply_diff(b.extract_diff())  # and in a
    a.write(table["y"], 3)
    a.alloc(4)
    assert first.index == _index_of(first.writes) == {1: {table["x"]}}
    a.check_invariants()
    b.check_invariants()


# ----------------------------------------------------------------------
# agreement with an explicit event-set model
# ----------------------------------------------------------------------


class SetWorkspace:
    """Merge semantics re-derived from sets of observed write events.

    Where Workspace summarizes history as writer -> max-seq counters,
    this model records every observed VersionStamp in a set and decides
    keep/adopt/conflict by membership. No code is shared with the real
    merge path beyond the value types used as dictionary keys.
    """

    def __init__(self, owner, init):
        self.owner = owner
        self.cells = {}
        self.observed = set()
        self.wseq = 0
        self.nalloc = len(init) if owner == ROOT_THREAD else 0
        for name, addr in global_addresses(init).items():
            self.cells[addr] = (INITIAL, init[name])

    def seen(self, stamp):
        return stamp == INITIAL or stamp in self.observed

    def _fresh(self):
        self.wseq += 1
        stamp = VersionStamp(self.owner, self.wseq)
        self.observed.add(stamp)
        return stamp

    def write(self, addr, value):
        assert addr in self.cells
        self.cells[addr] = (self._fresh(), value)

    def alloc(self, value):
        self.nalloc += 1
        addr = Address(self.owner, self.nalloc)
        self.cells[addr] = (self._fresh(), value)
        return addr

    def extract(self):
        return dict(self.cells), set(self.observed)

    def drop(self, addrs):
        for addr in addrs:
            del self.cells[addr]

    def knowledge(self):
        """The counter vector the observed set implies, as state_bytes
        lists it."""
        top = {}
        for stamp in self.observed:
            top[stamp.writer] = max(top.get(stamp.writer, 0), stamp.seq)
        return sorted(top.items())

    def apply(self, snapshot):
        cells, sender_observed = snapshot
        adopt, conflicts = [], []
        for addr in sorted(cells):
            stamp, value = cells[addr]
            if addr not in self.cells:
                adopt.append((addr, stamp, value))
                continue
            local_stamp, _ = self.cells[addr]
            if self.seen(stamp):
                continue
            if local_stamp == INITIAL or local_stamp in sender_observed:
                adopt.append((addr, stamp, value))
            else:
                conflicts.append((addr, frozenset((local_stamp, stamp))))
        if conflicts:
            return conflicts
        for addr, stamp, value in adopt:
            self.cells[addr] = (stamp, value)
        self.observed |= sender_observed
        return None


def test_event_set_model_agrees_on_random_histories():
    # Some workspaces start empty, so their first acquire adopts a whole
    # diff, and writes land on any cell a workspace holds, including
    # cells other owners allocated, so dicts hold cells out of address
    # order. Some start with no globals but allocate, so they learn the
    # globals' initial cells from a diff of a different table. Owners
    # finish with a terminal release (retire, then extract) that one
    # other owner applies, and never act again; receivers pass the
    # retirements on. A live owner drops cells that finished writers
    # stamped and that no other live owner holds, as a join drops its
    # members' accumulators (allocated cells, never globals). Every step checks the invariants, the
    # per-writer index and the retired writers among them, and every
    # diff's index must still match its cells at the end.
    empty_adopts = foreign_writes = table_adopts = 0
    terminal_applies = passed_on = drops = 0
    for seed in range(60):
        rng = random.Random(seed)
        init = {"x": 0, "y": 0}
        owners = [1, 2, 3, 4, 5, 6]
        starts = {t: init if rng.random() < 0.5 else {} for t in owners}
        real = {t: Workspace(t, starts[t]) for t in owners}
        mini = {t: SetWorkspace(t, starts[t]) for t in owners}
        live = list(owners)
        globals_ = set(global_addresses(init).values())
        minted = []
        diffs = []
        for _ in range(60):
            t = rng.choice(live)
            action = rng.random()
            if action < 0.4 and real[t].cells:
                addr = rng.choice(sorted(real[t].cells))
                foreign_writes += addr.owner not in (t, ROOT_THREAD)
                value = rng.randrange(100)
                minted.append(real[t].write(addr, value))
                mini[t].write(addr, value)
                real[t].check_invariants()
            elif action < 0.52:
                value = rng.randrange(100)
                addr = real[t].alloc(value)
                assert mini[t].alloc(value) == addr
                minted.append(real[t].cells[addr].stamp)
                real[t].check_invariants()
            elif action < 0.6:
                others = [real[o].cells.keys() for o in live if o != t]
                held = sorted(
                    a
                    for a in real[t].cells
                    if a not in globals_ and not any(a in h for h in others)
                )
                before = set(real[t].cells)
                real[t].drop(held)
                gone = before - set(real[t].cells)
                drops += len(gone)
                mini[t].drop(gone)
                real[t].check_invariants()
            else:
                terminal = action > 0.93 and len(live) > 2
                target = rng.choice([o for o in live if o != t])
                empty_adopts += not real[target].cells
                if terminal:
                    real[t].retire()
                    live.remove(t)
                passed_on += any(
                    w != t and w not in real[target].knowledge
                    for w in set(real[t].knowledge) - set(live)
                )
                diff = real[t].extract_diff()
                diffs.append(diff)
                x = global_addresses(init)["x"]
                table_adopts += bool(
                    real[target].cells and x in diff.writes and x not in real[target].cells
                )
                snapshot = mini[t].extract()
                try:
                    real[target].apply_diff(diff)
                except DataRaceError as err:
                    real_pairs = [
                        (c.addr, frozenset((c.local, c.incoming)))
                        for c in err.conflicts
                    ]
                else:
                    real_pairs = None
                    terminal_applies += terminal
                mini_conflicts = mini[target].apply(snapshot)
                assert real_pairs == mini_conflicts, f"seed {seed}"
                real[t].check_invariants()
                real[target].check_invariants()
        for diff in diffs:
            assert diff.index == _index_of_live(diff), f"seed {seed}"
        for t in owners:
            real[t].check_invariants()
            # Identical final cells, stamp and value alike.
            assert {
                a: (c.stamp, c.value) for a, c in real[t].cells.items()
            } == mini[t].cells, f"seed {seed}"
            # The same knowledge in state_bytes, retired writers included.
            assert (
                ast.literal_eval(real[t].state_bytes().decode())[1] == mini[t].knowledge()
            ), f"seed {seed}"
            # Counter coverage and set membership answer alike for every
            # write event the history minted.
            for stamp in minted:
                assert covers(real[t].knowledge, stamp) == mini[t].seen(stamp)
    assert empty_adopts > 0 and foreign_writes > 0 and table_adopts > 0
    assert terminal_applies > 0 and passed_on > 0 and drops > 0
