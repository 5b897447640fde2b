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
conflicts. A receiver with no cells at all adopts the whole diff by
copying it.

An acquire visits only the cells whose stamps it lacks. Each workspace
keeps an exact index of its written cells by writer: writer id -> the
addresses whose current stamp that writer minted (cells still carrying
the initial stamp are not indexed). A diff carries the sender's index
next to its full cell map. The merge walks only the buckets of writers
the sender knows further than the receiver, and within a bucket only
cells newer than the receiver's counter for that writer. That skips
nothing the rule above would adopt or report: a workspace that knows a
write holds the written address, since every diff carries all of its
sender's cells and cells are never dropped. Cells still carrying the
initial stamp are the exception, so a diff also carries a token for its
sender's initial cells (the global name table); only a receiver whose
token differs walks the shipped map for initial cells it does not hold.

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
from operator import attrgetter
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

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


def merge_knowledge(a: Mapping[int, int], b: Mapping[int, int]) -> dict[int, int]:
    """Pointwise maximum of two knowledge vectors."""
    out = dict(a)
    for writer, seq in b.items():
        if seq > out.get(writer, 0):
            out[writer] = seq
    return out


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
    copy of the sender's knowledge vector at extraction time.

    ``index`` groups the addresses of the written cells of ``writes`` by
    writer; it is shared with the sender, which copies it before it next
    changes it. ``table`` is the token for the addresses that may
    carry the initial stamp in ``writes``: the sender's global name
    table, or a frozenset of addresses once the sender has merged initial
    cells from a different table. Both are derived from ``writes``; no
    diff is ever changed, so the shared empty default is safe. A named
    tuple, because one is built on every release.
    """

    sender_knowledge: dict[int, int]
    writes: dict[Address, Cell]
    index: CellIndex = {}
    table: Mapping[str, Address] | frozenset[Address] | None = None


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
        self.knowledge: dict[int, int] = {}
        self._write_counter = 0
        # Global slots are burned out of the root's allocation sequence so
        # root allocations can never collide with named globals.
        self._alloc_counter = len(by_name) if owner == ROOT_THREAD else 0
        table = names if names is not None else global_addresses(by_name)
        self.cells: dict[Address, Cell] = {
            addr: Cell(INITIAL, by_name[name]) for name, addr in table.items()
        }
        # Written cells by writer, exact; see the module docstring.
        self._index: CellIndex = {}
        # The buckets of _index copied since the last release: only these
        # may change in place. None: a diff shares _index itself as well.
        self._private: CellIndex | None = {}
        # Every address that may hold an initial cell here; all are held.
        self._table: Mapping[str, Address] | frozenset[Address] | None = table

    # ------------------------------------------------------------------
    # data operations
    # ------------------------------------------------------------------

    def read(self, addr: Address) -> Any:
        cell = self.cells.get(addr)
        if cell is None:
            raise UnallocatedError(addr)
        return cell.value

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
        self.knowledge[owner] = seq
        if old.stamp.writer != owner:
            self._unindex(old.stamp.writer, (addr,))
            self._bucket(owner).add(addr)
        return stamp

    def alloc(self, value: Any = None) -> Address:
        """Create a fresh private cell; counts as a write by the owner."""
        self._alloc_counter += 1
        addr = Address(self.owner, self._alloc_counter)
        assert addr not in self.cells, "allocation slots never repeat"
        self._write_counter += 1
        self.cells[addr] = Cell(VersionStamp(self.owner, self._write_counter), value)
        self.knowledge[self.owner] = self._write_counter
        self._bucket(self.owner).add(addr)
        return addr

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
        cells were replaced by another writer's. The initial writer has
        no bucket."""
        if writer == _INITIAL_WRITER:
            return
        index = self._outer()
        if len(addrs) == len(index[writer]):  # all of it: drop, never copy
            del index[writer]
            self._private.pop(writer, None)
        else:
            self._bucket(writer).difference_update(addrs)

    # ------------------------------------------------------------------
    # diff exchange
    # ------------------------------------------------------------------

    def extract_diff(self) -> Diff:
        """Snapshot everything this workspace knows, for a release."""
        self._private = None  # the diff shares the whole index from now on
        return Diff(dict(self.knowledge), dict(self.cells), self._index, self._table)

    def apply_diff(self, diff: Diff) -> None:
        """Merge an incoming diff, all cells or none.

        Only the diff's buckets of writers it knows further than this
        workspace are walked, and within them only the cells this
        workspace lacks; the shipped map itself is walked only for
        initial cells, and only when the two tables differ. The
        conflicts alone are sorted by address, so a DataRaceError
        payload is identical no matter which schedule produced it. On
        conflict the workspace is left untouched. An empty receiver has
        nothing to defend and adopts the diff's cells by copy.
        """
        cells = self.cells
        if not cells:
            self.cells = dict(diff.writes)
            self._index = diff.index
            self._private = None
            self._table = diff.table
            self.knowledge = merge_knowledge(self.knowledge, diff.sender_knowledge)
            return
        mine = self.knowledge
        theirs = diff.sender_knowledge
        index = diff.index
        writes = diff.writes
        ahead: list[tuple[int, int]] = []  # writers the sender knows further
        # (writer, its bucket in the diff, cells adopted from it, and the
        # adopted addresses whose cells change writer, with the old writer)
        groups = []
        conflicts: list[Conflict] = []
        for writer, top in theirs.items():
            have = mine.get(writer, 0)
            if top <= have:
                continue
            ahead.append((writer, top))
            bucket = index.get(writer)
            if bucket is None:
                continue  # all its writes were overwritten since
            got = []
            moved = []
            for addr in bucket:
                incoming = writes[addr]
                stamp = incoming.stamp
                if stamp.seq <= have:
                    continue  # already merged here
                local = cells.get(addr)
                if local is None:
                    got.append((addr, incoming))
                    moved.append((addr, _INITIAL_WRITER))
                    continue
                held = local.stamp
                if held.seq <= theirs.get(held.writer, 0):
                    got.append((addr, incoming))
                    if held.writer != writer:
                        moved.append((addr, held.writer))
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
            if moved:  # else every cell keeps its writer and the index stands
                if len(moved) == len(bucket) and writer not in self._index:
                    self._outer()[writer] = bucket  # all new here: share it
                else:
                    self._bucket(writer).update([addr for addr, _ in moved])
                leaving: dict[int, list[Address]] = {}
                for addr, old in moved:
                    leaving.setdefault(old, []).append(addr)
                for old, addrs in leaving.items():
                    self._unindex(old, addrs)
        mine.update(ahead)

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
        assert self.knowledge.get(self.owner, 0) == self._write_counter
        for addr, cell in self.cells.items():
            assert covers(self.knowledge, cell.stamp), (
                f"cell {addr} stamped {cell.stamp} outside knowledge"
            )
        for writer, seq in self.knowledge.items():
            assert seq >= 0 and writer >= _INITIAL_WRITER
        # The index is exact: each bucket holds the addresses of the
        # cells stamped by its writer, no bucket is empty, and no written
        # cell is left out.
        indexed = 0
        for writer, bucket in self._index.items():
            assert bucket, f"empty bucket for writer {writer}"
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
            if cell.stamp.writer == _INITIAL_WRITER:
                assert addr in initial_ok, f"initial cell {addr} outside the table"
            else:
                written += 1
        assert written == indexed, "written cells missing from the index"
        assert initial_ok <= self.cells.keys(), "table names an address not held"
