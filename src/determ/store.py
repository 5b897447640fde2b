"""Thread-confined versioned workspaces over a logically shared store.

Each logical thread owns exactly one Workspace: a private map from
addresses to stamped values plus a knowledge vector summarizing every
write event the thread has causally observed. Workspaces never share
memory; state moves between them only as Diffs. A release extracts the
sender's latest-write map, an acquire applies it cell by cell with a
deterministic three-way rule:

* incoming stamp already covered by my knowledge: keep the local cell;
* local stamp covered by the sender's knowledge (the initial stamp is
  covered by everything): adopt the incoming cell;
* neither covers the other: the writes were concurrent, raise
  DataRaceError for the full conflict set and change nothing.

The walk itself may visit cells in any order: only the DataRaceError
payload is put in canonical ascending address order, by sorting the
conflicts. A fresh receiver, with no cells and no knowledge, adopts the
whole diff by copying it.

A finished thread's writes are all known to whoever applied its
terminal diff, or a diff from a sender that had. Such a workspace keeps
the writer *retired*: not as a counter, but inside a sorted tuple of
tid ranges (team tids are consecutive, so the ranges stay few), shared
unchanged between workspaces and diffs until one of them learns of
another retirement. The knowledge vector proper holds the live writers
only, so copying it, merging it, and walking it cost what the live
threads did, not what every thread that ever ran did. Before its
terminal release a thread enters its final seq, and the addresses it
stamped, in a record shared by every workspace of one program: the
counters behind ``knowledge`` and ``state_bytes()`` are read back from
it, and so are the addresses to visit for a writer a receiver newly
learns as retired.

An acquire visits only the cells whose stamps it lacks. Each workspace
keeps an exact index of the cells stamped by its live writers: writer
id -> the addresses whose current stamp that writer minted (cells
carrying the initial stamp or a retired writer's are not indexed). A
diff carries the sender's index next to its full cell map. The merge
walks only the buckets of live writers the sender knows further than
the receiver, and within a bucket only cells newer than the receiver's
counter for that writer. A writer the sender knows retired and the
receiver does not is walked through its recorded addresses instead. At
each address it holds, a workspace holds the newest write it knows of,
and one that knows a writer retired knows every write that writer had
seen; so it can hold that writer's stamps only where the writer's own
final state held them.

That skips nothing the rule above would adopt or report. A skipped cell
carries a write the receiver knows, and a workspace that knows a write
holds the written address, since every diff carries all of its sender's
cells: the rule would keep the local cell. Dropped cells are one
exception. A workspace drops a cell only when a retired writer stamped
it and no thread that can still run holds it (a join drops its members'
reduction accumulators), so every diff that could carry the address
again comes from a thread that can no longer release, and a dropped
address stays gone. Cells still carrying the initial stamp are the
other exception, so a diff also carries a token for its sender's
initial cells (the global name table); only a receiver whose token
differs walks the shipped map for initial cells it does not hold.

The index changes only when a cell changes writer, so a thread
overwriting its own cells, or adopting a newer write by a cell's last
writer, does no index work. A diff shares the index copy-on-write:
``extract_diff`` hands over the workspace's writer -> bucket map as it
is, and the workspace copies that map, and then each bucket, the first
time it changes them after a release.

Values are treated as opaque immutable data; equality of final states is
structural equality of (stamp, value) maps.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import ConfigError, DataRaceError, UnallocatedError

# The root thread owns the global namespace.
ROOT_THREAD = 0

# Writer id reserved for the initial program state.
_INITIAL_WRITER = -1


class Address(NamedTuple):
    """Location of one cell: owning thread plus per-owner slot number.

    A named tuple, so hashing, equality and canonical ordering run in C
    on every cell lookup; ``hash(Address(o, s)) == hash((o, s))``.
    """

    owner: int
    slot: int

    def __str__(self) -> str:
        return f"@{self.owner}.{self.slot}"


class VersionStamp(NamedTuple):
    """Identity of one write event: writing thread plus its write counter.

    A named tuple, as :class:`Address` is: hashing, equality and ordering
    run in C, and ``hash(VersionStamp(w, s)) == hash((w, s))``.
    """

    writer: int
    seq: int

    def __str__(self) -> str:
        return f"{self.writer}.{self.seq}"


#: Distinguished stamp on cells nobody has written yet. Its seq of zero
#: makes it covered by every knowledge vector, i.e. causally below all
#: real writes.
INITIAL = VersionStamp(_INITIAL_WRITER, 0)

#: Knowledge vector: writer thread id -> highest write seq observed.
KnowledgeVector = dict

def covers(knowledge: Mapping[int, int], stamp: VersionStamp) -> bool:
    """True when the write named by ``stamp`` is already known."""
    return stamp.seq <= knowledge.get(stamp.writer, 0)


#: Retired writers: sorted, disjoint, non-adjacent half-open tid ranges.
Retired = tuple


def _is_retired(retired: Retired, writer: int) -> bool:
    for lo, hi in retired:
        if writer < hi:
            return writer >= lo
    return False


def _retired_tids(retired: Retired) -> Iterator[int]:
    for lo, hi in retired:
        yield from range(lo, hi)


def _newly_retired(theirs: Retired, mine: Retired) -> list[int]:
    """The tids ``theirs`` holds and ``mine`` does not."""
    out: list[int] = []
    for lo, hi in theirs:
        for mlo, mhi in mine:
            if mhi <= lo:
                continue
            if mlo >= hi:
                break
            out.extend(range(lo, mlo))
            lo = mhi
            if lo >= hi:
                break
        out.extend(range(lo, hi))
    return out


def _merge_retired(a: Retired, b: Retired) -> Retired:
    """The union of two range tuples; ``a`` or ``b`` itself when it
    equals one of them, so equal summaries tend to stay one object."""
    if a is b or not b:
        return a
    if not a:
        return b
    merged: list[tuple[int, int]] = []
    for lo, hi in sorted(a + b):
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    out = tuple(merged)
    return a if out == a else b if out == b else out


class _Final(NamedTuple):
    """What a finished writer left: its last write seq, and the addresses
    its stamps held in its final state (a tuple: only walked, and smaller
    than a set)."""

    seq: int
    cells: tuple[Address, ...]


#: Per-program record of finished writers: tid -> its _Final. Entries are
#: added, never changed or removed.
Record = dict


@dataclass(frozen=True)
class Conflict:
    """One racy cell: its address and the two unordered stamps."""

    addr: Address
    local: VersionStamp
    incoming: VersionStamp


class Cell(NamedTuple):
    """One stored value and the stamp of the write that put it there. A
    named tuple, because one is built on every write."""

    stamp: VersionStamp
    value: Any


#: Per-writer cell index: writer id -> addresses of the cells it stamped.
CellIndex = dict


class Diff(NamedTuple):
    """Immutable snapshot a release hands to an acquire.

    ``writes`` holds the sender's full latest-write map, one entry per
    address it knows (cells still carrying the initial stamp included, so
    a fresh receiver learns the whole picture). ``sender_knowledge`` is a
    copy of the sender's counters for the writers it has not seen retire;
    ``retired`` holds the writers it has, and ``record`` is where their
    final seqs and addresses are kept.

    ``index`` groups the addresses of the cells of ``writes`` written by
    live writers, by writer; it is shared with the sender, which copies
    it before it next changes it. ``table`` is the token for the
    addresses that may carry the initial stamp in ``writes``: the
    sender's global name table, or a frozenset of addresses once the
    sender has merged initial cells from a different table. Both are
    derived from ``writes``; no diff is ever changed, so the shared empty
    defaults are safe. A named tuple, because one is built on every
    release.
    """

    sender_knowledge: dict[int, int]
    writes: dict[Address, Cell]
    index: CellIndex = {}
    table: Mapping[str, Address] | frozenset[Address] | None = None
    retired: Retired = ()
    record: Record | None = None


def global_addresses(names: Iterable[str]) -> dict[str, Address]:
    """Deterministic name -> address map for the global namespace.

    Globals live in the root thread's namespace at slots 1..k assigned in
    lexicographic name order, so every workspace derives the same map.
    """
    table = {}
    for index, name in enumerate(sorted(names)):
        table[name] = Address(ROOT_THREAD, index + 1)
    return table


class Workspace:
    """Private store of one logical thread."""

    def __init__(
        self,
        owner: int,
        globals: Mapping[str, Any] | Iterable[tuple[str, Any]] = (),
        names: Mapping[str, Address] | None = None,
    ) -> None:
        """``names``, when given, is ``global_addresses`` of the globals'
        names, for a caller that built that table already."""
        if owner < 0:
            raise ConfigError(f"thread id must be non-negative, got {owner}")
        if isinstance(globals, Mapping):
            by_name = dict(globals)
        else:
            by_name = {}
            for name, value in globals:
                if name in by_name:
                    raise ConfigError(f"duplicate global name {name!r}")
                by_name[name] = value
        self.owner = owner
        # Knowledge of the writers not known retired; see the module
        # docstring. ``knowledge`` is the whole vector.
        self._live: dict[int, int] = {}
        self._retired: Retired = ()
        # Finished writers; a fresh workspace takes its first sender's,
        # so one record serves every workspace of a program.
        self._record: Record = {}
        self._write_counter = 0
        # Global slots are burned out of the root's allocation sequence so
        # root allocations can never collide with named globals.
        self._alloc_counter = len(by_name) if owner == ROOT_THREAD else 0
        table = names if names is not None else global_addresses(by_name)
        self.cells: dict[Address, Cell] = {
            addr: Cell(INITIAL, by_name[name]) for name, addr in table.items()
        }
        # Cells written by live writers, by writer, exact; see the module
        # docstring.
        self._index: CellIndex = {}
        # The buckets of _index copied since the last release: only these
        # may change in place. None: a diff shares _index itself as well.
        self._private: CellIndex | None = {}
        # Every address that may hold an initial cell here; all are held.
        self._table: Mapping[str, Address] | frozenset[Address] | None = table

    @property
    def knowledge(self) -> dict[int, int]:
        """Writer id -> highest write seq observed, retired writers
        included (read back from the record: introspection only)."""
        record = self._record
        out = {w: record[w].seq for w in _retired_tids(self._retired) if record[w].seq}
        out.update(self._live)
        return out

    # ------------------------------------------------------------------
    # data operations
    # ------------------------------------------------------------------

    def read(self, addr: Address) -> Any:
        cell = self.cells.get(addr)
        if cell is None:
            raise UnallocatedError(addr)
        return cell[1]

    def write(self, addr: Address, value: Any) -> VersionStamp:
        """Overwrite a cell with a fresh stamp by this workspace's owner."""
        cells = self.cells
        try:
            old = cells[addr]
        except KeyError:
            raise UnallocatedError(addr) from None
        owner = self.owner
        self._write_counter = seq = self._write_counter + 1
        stamp = VersionStamp(owner, seq)
        cells[addr] = Cell(stamp, value)
        self._live[owner] = seq
        if old[0][0] != owner:
            self._unindex(old[0][0], (addr,))
            self._bucket(owner).add(addr)
        return stamp

    def alloc(self, value: Any = None) -> Address:
        """Create a fresh private cell; counts as a write by the owner."""
        self._alloc_counter += 1
        addr = Address(self.owner, self._alloc_counter)
        assert addr not in self.cells, "allocation slots never repeat"
        self._write_counter += 1
        self.cells[addr] = Cell(VersionStamp(self.owner, self._write_counter), value)
        self._live[self.owner] = self._write_counter
        self._bucket(self.owner).add(addr)
        return addr

    def drop(self, addrs: Iterable[Address]) -> None:
        """Forget the cells at ``addrs`` that retired writers stamped.

        The caller vouches that the addresses are allocated ones, not
        globals, and that no thread that can still run holds them, so no
        diff brings them back; see the module docstring. Other cells, and
        addresses not held, are left alone.
        """
        cells, retired = self.cells, self._retired
        for addr in addrs:
            cell = cells.get(addr)
            if cell is not None and _is_retired(retired, cell[0][0]):
                del cells[addr]  # a retired writer's cell is not indexed

    def retire(self) -> None:
        """Finish the owner's writes, before its terminal release: enter
        its final seq and stamped addresses in the record, and from then
        on know the owner as a retired writer."""
        owner = self.owner
        self._record[owner] = _Final(self._write_counter, tuple(self._index.get(owner, ())))
        self._forget_live((owner,))
        self._retired = _merge_retired(self._retired, ((owner, owner + 1),))

    # ------------------------------------------------------------------
    # per-writer index
    # ------------------------------------------------------------------

    def _outer(self) -> CellIndex:
        """The writer -> bucket map, copied first if a diff shares it."""
        if self._private is None:
            self._index = dict(self._index)
            self._private = {}
        return self._index

    def _bucket(self, writer: int) -> set[Address]:
        """``writer``'s bucket, copied first if a diff may share it."""
        index = self._outer()
        bucket = self._private.get(writer)
        if bucket is None:
            shared = index.get(writer)
            bucket = set() if shared is None else shared.copy()
            index[writer] = self._private[writer] = bucket
        return bucket

    def _unindex(self, writer: int, addrs: Sequence[Address]) -> None:
        """Drop ``addrs``, all in ``writer``'s bucket, from it: their
        cells were replaced by another writer's. The initial writer and
        retired writers have no bucket."""
        bucket = self._index.get(writer)
        if bucket is None:
            return
        if len(addrs) == len(bucket):  # all of it: drop, never copy
            del self._outer()[writer]
            self._private.pop(writer, None)
        else:
            self._bucket(writer).difference_update(addrs)

    def _forget_live(self, writers: Iterable[int]) -> None:
        """Remove the counters and buckets of writers that just retired."""
        live = self._live
        for writer in writers:
            live.pop(writer, None)
            if writer in self._index:
                del self._outer()[writer]
                self._private.pop(writer, None)

    # ------------------------------------------------------------------
    # diff exchange
    # ------------------------------------------------------------------

    def extract_diff(self) -> Diff:
        """Snapshot everything this workspace knows, for a release."""
        self._private = None  # the diff shares the whole index from now on
        return Diff(
            dict(self._live),
            dict(self.cells),
            self._index,
            self._table,
            self._retired,
            self._record,
        )

    def apply_diff(self, diff: Diff) -> None:
        """Merge an incoming diff, all cells or none.

        Only the diff's buckets of live writers it knows further than
        this workspace are walked, and the recorded addresses of writers
        it knows retired and this workspace does not, and within them only
        the cells this workspace lacks; the shipped map itself is walked
        only for initial cells, and only when the two tables differ. The
        conflicts alone are sorted by address, so a DataRaceError payload
        is identical no matter which schedule produced it. On conflict the
        workspace is left untouched. A fresh receiver has nothing to
        defend and adopts the diff's cells by copy.
        """
        cells = self.cells
        mine = self._live
        retired = self._retired
        theirs = diff.sender_knowledge
        if not cells and not mine and not retired:  # fresh: share all it can
            self.cells = dict(diff.writes)
            self._index = diff.index
            self._private = None
            self._table = diff.table
            self._live = dict(theirs)
            self._learn_retired(diff, _retired_tids(diff.retired))
            return
        theirs_retired = diff.retired
        if theirs_retired is retired or theirs_retired == retired:
            newly: list[int] = []
        else:
            newly = _newly_retired(theirs_retired, retired)
        writes = diff.writes
        index = diff.index
        record = diff.record
        # writers the sender knows further, with their new counters
        ahead: list[tuple[int, int]] = []
        # (writer, its bucket in the diff, or None for a writer retiring
        # here, cells adopted from it, and the adopted addresses whose
        # cells change writer, with the old writer)
        groups = []
        conflicts: list[Conflict] = []
        # The sender's live writers, then (with no counter) the writers
        # that retire here.
        entries = chain(theirs.items(), [(w, None) for w in newly]) if newly else theirs.items()
        for writer, top in entries:
            if top is not None:
                have = mine.get(writer)
                if have is None:
                    if retired and _is_retired(retired, writer):
                        continue  # known to its end
                    have = 0
                if top <= have:
                    continue
                ahead.append((writer, top))
                addrs = bucket = index.get(writer)
                if bucket is None:
                    continue  # all its writes were overwritten since
            else:
                have = mine.get(writer, 0)
                bucket = None
                addrs = [
                    addr
                    for addr in record[writer].cells
                    if (cell := writes.get(addr)) is not None and cell[0][0] == writer
                ]
            got = []
            moved = []
            for addr in addrs:
                incoming = writes[addr]
                stamp = incoming[0]
                if stamp[1] <= have:
                    continue  # already merged here
                local = cells.get(addr)
                if local is None:
                    got.append((addr, incoming))
                    moved.append((addr, _INITIAL_WRITER))
                    continue
                held = local[0]
                was = held[0]
                if held[1] <= theirs.get(was, 0) or _is_retired(theirs_retired, was):
                    got.append((addr, incoming))
                    if was != writer:
                        moved.append((addr, was))
                else:
                    conflicts.append(Conflict(addr, held, stamp))
            if got:
                groups.append((writer, bucket, got, moved))
        if conflicts:
            conflicts.sort(key=attrgetter("addr"))
            raise DataRaceError(tuple(conflicts))
        table = diff.table
        if table is not self._table and table != self._table:
            self._adopt_initial(writes)
        for writer, bucket, got, moved in groups:
            cells.update(got)
            if not moved:
                continue  # every cell keeps its writer and the index stands
            if bucket is None:
                pass  # the writer retires here, so its cells go unindexed
            elif len(moved) == len(bucket) and writer not in self._index:
                self._outer()[writer] = bucket  # all new here: share it
            else:
                self._bucket(writer).update([addr for addr, _ in moved])
            leaving: dict[int, list[Address]] = {}
            for addr, old in moved:
                leaving.setdefault(old, []).append(addr)
            for old, addrs in leaving.items():
                self._unindex(old, addrs)
        mine.update(ahead)
        if newly:
            self._forget_live(newly)
            self._learn_retired(diff, newly)

    def _learn_retired(self, diff: Diff, newly: Iterable[int]) -> None:
        """Take the diff's retired writers, ``newly`` being those new
        here, and its record if this workspace has none of its own; a
        second record of the same program gets the new entries copied."""
        record, theirs = self._record, diff.record
        if theirs is not None and theirs is not record:
            if not record:
                self._record = theirs
            else:
                for writer in newly:
                    record.setdefault(writer, theirs[writer])
        self._retired = _merge_retired(self._retired, diff.retired)

    def _adopt_initial(self, writes: Mapping[Address, Cell]) -> None:
        """Adopt the initial cells of a diff from a different table.

        Afterwards the table token is the set of addresses holding
        initial cells here, so no other workspace's token matches it by
        accident.
        """
        cells = self.cells
        new = [
            (addr, cell)
            for addr, cell in writes.items()
            if cell.stamp.writer == _INITIAL_WRITER and addr not in cells
        ]
        if new:
            cells.update(new)
            self._table = frozenset(
                addr for addr, cell in cells.items() if cell.stamp.writer == _INITIAL_WRITER
            )

    # ------------------------------------------------------------------
    # introspection helpers
    # ------------------------------------------------------------------

    def state_bytes(self) -> bytes:
        """Canonical serialization of visible state.

        Covers cells and knowledge only; private counters are excluded so
        two workspaces that would behave identically compare equal.
        """
        cells = [
            (addr.owner, addr.slot, cell.stamp.writer, cell.stamp.seq, repr(cell.value))
            for addr, cell in sorted(self.cells.items())
        ]
        knowledge = sorted((w, s) for w, s in self.knowledge.items() if s > 0)
        return repr((cells, knowledge)).encode()

    def check_invariants(self) -> None:
        """Assert internal consistency; used by tests."""
        knowledge = self.knowledge
        assert knowledge.get(self.owner, 0) == self._write_counter
        for addr, cell in self.cells.items():
            assert covers(knowledge, cell.stamp), (
                f"cell {addr} stamped {cell.stamp} outside knowledge"
            )
        for writer, seq in knowledge.items():
            assert seq >= 0 and writer >= _INITIAL_WRITER
        # Retired writers: well-formed ranges, each writer recorded, none
        # also counted live.
        retired, record = self._retired, self._record
        end = -1
        for lo, hi in retired:
            assert end < lo < hi, f"malformed retired ranges {retired}"
            end = hi
        assert all(w in record for w in _retired_tids(retired)), "retired writer unrecorded"
        assert not any(_is_retired(retired, w) for w in self._live), "retired writer live"
        # The index is exact: each bucket holds the addresses of the
        # cells stamped by its live writer, no bucket is empty, and no
        # cell a live writer stamped is left out. A retired writer's
        # cells sit where its record says.
        indexed = 0
        for writer, bucket in self._index.items():
            assert bucket, f"empty bucket for writer {writer}"
            assert not _is_retired(retired, writer), f"bucket for retired writer {writer}"
            for addr in bucket:
                cell = self.cells.get(addr)
                assert cell is not None and cell.stamp.writer == writer, (
                    f"stale index entry {addr} under writer {writer}"
                )
            indexed += len(bucket)
        for writer, bucket in (self._private or {}).items():
            assert self._index.get(writer) is bucket
        table = self._table
        initial_ok = set(table.values() if isinstance(table, Mapping) else table or ())
        written = 0
        for addr, cell in self.cells.items():
            writer = cell.stamp.writer
            if writer == _INITIAL_WRITER:
                assert addr in initial_ok, f"initial cell {addr} outside the table"
            elif _is_retired(retired, writer):
                final = record[writer]
                assert cell.stamp.seq <= final.seq and addr in final.cells, (
                    f"cell {addr} stamped {cell.stamp} outside its writer's record"
                )
            else:
                written += 1
        assert written == indexed, "written cells missing from the index"
        assert initial_ok <= self.cells.keys(), "table names an address not held"
