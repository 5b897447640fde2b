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
conflicts. Cells are immutable and diffs share them, so a receiver that
already holds the very cell object a diff ships skips it without a
stamp test, and a receiver with no cells at all adopts the whole diff by
copying it.

Values are treated as opaque immutable data; equality of final states is
structural equality of (stamp, value) maps.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Iterable, Iterator, Mapping, NamedTuple

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


@dataclass(frozen=True, order=True)
class VersionStamp:
    """Identity of one write event: writing thread plus its write counter."""

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


@dataclass(frozen=True)
class Cell:
    stamp: VersionStamp
    value: Any


@dataclass(frozen=True)
class Diff:
    """Immutable snapshot a release hands to an acquire.

    ``writes`` holds the sender's full latest-write map, one entry per
    address it knows (cells still carrying the initial stamp included, so
    a fresh receiver learns the whole picture). ``sender_knowledge`` is a
    copy of the sender's knowledge vector at extraction time.
    """

    sender_knowledge: dict[int, int]
    writes: dict[Address, Cell]


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
        if addr not in self.cells:
            raise UnallocatedError(addr)
        self._write_counter += 1
        stamp = VersionStamp(self.owner, self._write_counter)
        self.cells[addr] = Cell(stamp, value)
        self.knowledge[self.owner] = self._write_counter
        return stamp

    def alloc(self, value: Any = None) -> Address:
        """Create a fresh private cell; counts as a write by the owner."""
        self._alloc_counter += 1
        addr = Address(self.owner, self._alloc_counter)
        assert addr not in self.cells, "allocation slots never repeat"
        self._write_counter += 1
        self.cells[addr] = Cell(VersionStamp(self.owner, self._write_counter), value)
        self.knowledge[self.owner] = self._write_counter
        return addr

    # ------------------------------------------------------------------
    # diff exchange
    # ------------------------------------------------------------------

    def extract_diff(self) -> Diff:
        """Snapshot everything this workspace knows, for a release."""
        return Diff(dict(self.knowledge), dict(self.cells))

    def apply_diff(self, diff: Diff) -> None:
        """Merge an incoming diff, all cells or none.

        Cells are visited in the diff's own order; the conflicts alone
        are sorted by address, so a DataRaceError payload is identical no
        matter which schedule produced it. On conflict the workspace is
        left untouched. An empty receiver has nothing to defend and
        adopts the diff's cells by copy.
        """
        cells = self.cells
        if not cells:
            self.cells = dict(diff.writes)
            self.knowledge = merge_knowledge(self.knowledge, diff.sender_knowledge)
            return
        mine = self.knowledge
        theirs = diff.sender_knowledge
        adopt: list[tuple[Address, Cell]] = []
        conflicts: list[Conflict] = []
        for addr, incoming in diff.writes.items():
            local = cells.get(addr)
            if local is incoming:
                continue  # the very write event already held here
            if local is None:
                # Never-seen address: nothing local to defend.
                adopt.append((addr, incoming))
                continue
            stamp = incoming.stamp
            if stamp.seq <= mine.get(stamp.writer, 0):
                continue  # stale or already merged; keep local
            held = local.stamp
            if held.seq <= theirs.get(held.writer, 0):
                adopt.append((addr, incoming))
            else:
                conflicts.append(Conflict(addr, held, stamp))
        if conflicts:
            conflicts.sort(key=attrgetter("addr"))
            raise DataRaceError(tuple(conflicts))
        cells.update(adopt)
        self.knowledge = merge_knowledge(mine, theirs)

    # ------------------------------------------------------------------
    # introspection helpers
    # ------------------------------------------------------------------

    def addresses(self) -> Iterator[Address]:
        return iter(sorted(self.cells))

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
