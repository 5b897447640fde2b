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

A finished thread's writes are all known to the one workspace that
applies its terminal diff, which *absorbs* the writer: it enters the
writer's final seq, and the addresses its stamps held, in a record
shared by every workspace of one program, as its own next absorption.
A workspace's *summary*, absorber -> how many of its absorptions it
knows, kept for absorbers it does not know retired, names the writers
it knows retired: those among the absorptions it counts, and those
whose absorber it knows retired, a chain as deep as threads nest. So it
follows program structure, not thread numbering, and is shared
unchanged between workspaces and diffs. The knowledge vector proper
holds the live writers only, so copying it, merging it, and walking it
cost what the live threads did, not what every thread that ever ran
did. ``knowledge`` and ``state_bytes()`` read the retired writers'
counters back from the record, and a receiver the addresses of a
writer it newly learns as retired.

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
address stays gone. Cells still carrying the initial stamp would be the
other exception, but workspaces that exchange diffs belong to one
program: each is seeded with the program's globals, or empty until its
first ``apply_diff`` adopts a whole diff. So every receiver that is not
empty already holds every initial cell a diff can carry, and of all
receivers only an empty one reads a whole shipped map, by copying it.

A walked bucket whose addresses the receiver indexes, all of them,
under the same writer skips the rule: each local cell there carries that
writer's stamp, at or below the receiver's counter, which the sender's
exceeds, so the rule would adopt every newer incoming cell and report
nothing. A team that rewrites its own cells merges that way.

A release ships the whole cell map, but a wide one costs what changed.
A workspace of fewer than ``_PATCH_MIN`` cells copies its map at each
release, in C. A wider one keeps the map its last full release shipped
as its *snapshot*, with that release's knowledge. While the writes it
has learned of since number at most 1/``_PATCH_SHARE`` of the
snapshot's cells, a release ships the snapshot plus a *patch*: for each
live writer the workspace knows further than the snapshot did, the
cells of its index bucket newer than the snapshot's counter for it. An
empty patch ships the snapshot alone. Otherwise a release copies the
map and keeps the copy as its new snapshot. A fresh receiver of a wide
plain diff that is not terminal keeps the shipped map as its own
snapshot, with the diff's knowledge, so its first release can already
be a patch. A terminal release copies nothing: its workspace takes no
further op, so it hands its own maps over.

The patch is exact. A cell changes in two ways only: a write or an
alloc, which mints a new seq for the owner, or a merge adoption, which
takes a stamp the workspace lacked. Either way the changed cell carries
a stamp newer than the snapshot's knowledge of its writer, and the index
holds exactly the cells that live writers stamped. So a changed cell
can be missed only if it leaves the index unseen, and that happens in
two ways only: its writer retires here (``_forget_live``, which
``_absorb`` calls), or ``drop`` removes it. Both discard the snapshot,
and so does ``extract_terminal``.

The index changes only when a cell changes writer, so a thread
overwriting its own cells, or adopting a newer write by a cell's last
writer, does no index work. A diff shares the index's buckets
copy-on-write: ``extract_diff`` hands the diff the workspace's writer ->
bucket map and keeps a copy of it, one entry per live writer, and the
workspace copies each bucket the first time it changes it after a
release.

A cell holds its stamp as a plain ``(writer, seq)`` pair, and the store
builds each cell with ``tuple.__new__``: a write then builds both tuples
in C and runs no named tuple constructor in Python. The pair hashes and
compares equal to its :class:`VersionStamp`, the form users see: every
DataRaceError payload gives its stamps as VersionStamps.

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

# A workspace of at least _PATCH_MIN cells ships a release as its last
# snapshot plus a patch while the writes it learned of since that
# snapshot number at most 1/_PATCH_SHARE of its cells; see the module
# docstring.
_PATCH_MIN = 256
_PATCH_SHARE = 8


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
    run in C, and ``hash(VersionStamp(w, s)) == hash((w, s))``. It is the
    form users see, in every Conflict; a cell holds the plain pair
    ``(w, s)``, which compares and hashes equal.
    """

    writer: int
    seq: int

    def __str__(self) -> str:
        return f"{self.writer}.{self.seq}"


#: Distinguished stamp on cells nobody has written yet. Its seq of zero
#: makes it covered by every knowledge vector, i.e. causally below all
#: real writes.
INITIAL = VersionStamp(_INITIAL_WRITER, 0)


def covers(knowledge: Mapping[int, int], stamp: tuple[int, int]) -> bool:
    """True when the write named by ``stamp`` is already known."""
    writer, seq = stamp
    return seq <= knowledge.get(writer, 0)


class _Final(NamedTuple):
    """What a finished writer left: its last write seq, the addresses its
    stamps held in its final state (a tuple: only walked, and smaller
    than a set), and the workspace that absorbed it, as its ``index``-th
    absorption."""

    seq: int
    cells: tuple[Address, ...]
    by: int
    index: int


#: What one view knows retired: absorber -> how many of its absorptions
#: it knows, for absorbers it does not know retired. Never changed in
#: place, so workspaces and diffs share it.
Summary = dict


class Record:
    """One program's absorbed writers: each one's _Final, and each
    absorber's absorptions in order. Entries are added, never changed or
    removed, and only an absorber appends to its own list."""

    def __init__(self) -> None:
        self.finals: dict[int, _Final] = {}
        self.absorbed: dict[int, list[int]] = {}

    def retired(self, summary: Summary, writer: int) -> bool:
        """Whether ``writer`` is retired in the view ``summary``."""
        final = self.finals.get(writer)
        while final is not None:
            if final.index < summary.get(final.by, 0):
                return True
            final = self.finals.get(final.by)
        return False

    def merge(self, mine: Summary, theirs: Summary) -> tuple[Summary, list[int]]:
        """The summary of what the views ``mine`` and ``theirs`` know
        together, and the writers retired in it but not in ``mine``: the
        absorptions ``theirs`` counts beyond ``mine``, of absorbers not
        retired in ``mine``, and below each whatever it absorbed beyond
        ``mine``'s count. A newly retired absorber leaves the summary."""
        merged = mine
        writers: list[int] = []
        for absorber, n in theirs.items():
            have = mine.get(absorber, 0)
            if n > have and not self.retired(mine, absorber):
                merged = {**merged, absorber: n}
                writers += self.absorbed[absorber][have:n]
        newly = []
        while writers:
            writer = writers.pop()
            newly.append(writer)
            merged.pop(writer, None)
            writers += self.absorbed.get(writer, ())[mine.get(writer, 0) :]
        return merged, newly


@dataclass(frozen=True)
class Conflict:
    """One racy cell: its address and the two unordered stamps."""

    addr: Address
    local: VersionStamp
    incoming: VersionStamp


class Cell(NamedTuple):
    """One stored value and the stamp of the write that put it there.

    One is built on every write, so the store builds it in C with
    ``_new_cell``, and its stamp is the plain ``(writer, seq)`` pair,
    equal to the VersionStamp it stands for.
    """

    stamp: tuple[int, int]
    value: Any


# Builds a Cell in C, skipping the named tuple's Python-level __new__.
_new_cell = tuple.__new__


#: Per-writer cell index: writer id -> addresses of the cells it stamped.
CellIndex = dict


class Diff(NamedTuple):
    """Immutable snapshot a release hands to an acquire.

    ``writes`` holds the sender's full latest-write map, one entry per
    address it knows (cells still carrying the initial stamp included, so
    a fresh receiver learns the whole picture): a plain dict, or for a
    wide release a read-only ``_Patched`` view of the sender's snapshot
    with the cells changed since over it, which reads as the same full
    map; see the module docstring. ``sender_knowledge`` is a
    copy of the sender's counters for the writers it has not seen retire,
    and ``summary`` the sender's summary of those it has.

    ``index`` groups the addresses of the cells of ``writes`` written by
    live writers, by writer; its buckets are shared with the sender,
    which copies each before it next changes it. ``terminal`` is the
    sender's tid on the diff of its terminal release, whose receiver
    absorbs it; that diff holds the sender's own maps, which the sender
    handed over. No diff is ever changed, so the shared empty defaults
    are safe. A named tuple, because one is built on every release.
    """

    sender_knowledge: dict[int, int]
    writes: Mapping[Address, Cell]
    index: CellIndex = {}
    summary: Summary = {}
    terminal: int | None = None


class _Patched(Mapping):
    """A wide release's full cell map, read-only: ``patch``, the cells
    the sender changed since its snapshot ``base``, over ``base``.
    Neither is ever changed. A whole-map read (``copy()``, ``items()``,
    iteration) builds the map with one copy in C."""

    __slots__ = ("base", "patch")

    def __init__(self, base: dict[Address, Cell], patch: dict[Address, Cell]) -> None:
        self.base, self.patch = base, patch

    def __getitem__(self, addr: Address) -> Cell:
        cell = self.patch.get(addr)
        return self.base[addr] if cell is None else cell

    def __len__(self) -> int:
        base = self.base
        return len(base) + sum(addr not in base for addr in self.patch)

    def __iter__(self) -> Iterator[Address]:
        return iter(self.copy())

    def items(self):
        return self.copy().items()

    def copy(self) -> dict[Address, Cell]:
        full = self.base.copy()
        full.update(self.patch)
        return full


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
    """Private store of one logical thread.

    Workspaces that exchange diffs belong to one program: each is either
    seeded with the program's globals, or empty until its first
    ``apply_diff`` adopts a whole diff, and all share the program's
    ``record``. A workspace given none gets a record of its own.
    """

    # The map the last full release shipped (never changed once shipped),
    # that release's knowledge and the sum of its counters; see the module
    # docstring. Class defaults: a workspace under _PATCH_MIN cells keeps
    # no snapshot and pays nothing for one.
    _snap: dict[Address, Cell] | None = None
    _snap_known: dict[int, int] = {}
    _snap_sum = 0

    def __init__(
        self,
        owner: int,
        globals: Mapping[str, Any] = {},
        names: Mapping[str, Address] | None = None,
        record: Record | None = None,
    ) -> None:
        """``names``, when given, is ``global_addresses`` of the globals'
        names, for a caller that built that table already."""
        if owner < 0:
            raise ConfigError(f"thread id must be non-negative, got {owner}")
        self.owner = owner
        # Knowledge of the writers not known retired; see the module
        # docstring. ``knowledge`` is the whole vector.
        self._live: dict[int, int] = {}
        self._summary: Summary = {}
        self._record = record if record is not None else Record()
        self._write_counter = 0
        # Global slots are burned out of the root's allocation sequence so
        # root allocations can never collide with named globals.
        self._alloc_counter = len(globals) if owner == ROOT_THREAD else 0
        table = names if names is not None else global_addresses(globals)
        self.cells: dict[Address, Cell] = {
            addr: _new_cell(Cell, (INITIAL, globals[name])) for name, addr in table.items()
        }
        # Cells written by live writers, by writer, exact; see the module
        # docstring.
        self._index: CellIndex = {}
        # The buckets of _index copied since the last release: only these
        # may change in place.
        self._private: CellIndex = {}

    @property
    def knowledge(self) -> dict[int, int]:
        """Writer id -> highest write seq observed, retired writers
        included (read back from the record: introspection only)."""
        record = self._record
        retired = record.merge({}, self._summary)[1]  # every writer retired here
        out = {w: record.finals[w].seq for w in retired if record.finals[w].seq}
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

    def write(self, addr: Address, value: Any) -> tuple[int, int]:
        """Overwrite a cell with a fresh stamp by this workspace's owner,
        and return the stamp: the plain ``(owner, seq)`` pair, equal to
        ``VersionStamp(owner, seq)``."""
        cells = self.cells
        try:
            old = cells[addr]
        except KeyError:
            raise UnallocatedError(addr) from None
        owner = self.owner
        self._write_counter = seq = self._write_counter + 1
        stamp = (owner, seq)
        cells[addr] = _new_cell(Cell, (stamp, value))
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
        self.cells[addr] = _new_cell(Cell, ((self.owner, self._write_counter), value))
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
        cells, summary = self.cells, self._summary
        for addr in addrs:
            cell = cells.get(addr)
            if cell is not None and self._record.retired(summary, cell[0][0]):
                del cells[addr]  # a retired writer's cell is not indexed
                self._snap = None  # a patch cannot ship a removal

    # ------------------------------------------------------------------
    # per-writer index
    # ------------------------------------------------------------------

    def _bucket(self, writer: int) -> set[Address]:
        """``writer``'s bucket, copied first if a diff may share it."""
        bucket = self._private.get(writer)
        if bucket is None:
            shared = self._index.get(writer)
            bucket = set() if shared is None else shared.copy()
            self._index[writer] = self._private[writer] = bucket
        return bucket

    def _unindex(self, writer: int, addrs: Sequence[Address]) -> None:
        """Drop ``addrs``, all in ``writer``'s bucket, from it: their
        cells were replaced by another writer's. The initial writer and
        retired writers have no bucket."""
        bucket = self._index.get(writer)
        if bucket is None:
            return
        if len(addrs) == len(bucket):  # all of it: drop, never copy
            del self._index[writer]
            self._private.pop(writer, None)
        else:
            self._bucket(writer).difference_update(addrs)

    def _forget_live(self, writers: Iterable[int]) -> None:
        """Remove the counters and buckets of writers that just retired.
        Their cells leave the index, so a patch would miss them: the
        snapshot goes too."""
        self._snap = None
        live = self._live
        for writer in writers:
            live.pop(writer, None)
            if writer in self._index:
                del self._index[writer]
                self._private.pop(writer, None)

    # ------------------------------------------------------------------
    # diff exchange
    # ------------------------------------------------------------------

    def extract_diff(self) -> Diff:
        """Snapshot everything this workspace knows, for a release: a
        copy of the cell map, or for a wide map the last snapshot plus
        the cells stamped since; see the module docstring."""
        index, self._index, self._private = self._index, self._index.copy(), {}
        live, cells = self._live.copy(), self.cells
        if len(cells) < _PATCH_MIN:
            return Diff(live, cells.copy(), index, self._summary)
        snap, total = self._snap, sum(live.values())
        if snap is not None and (total - self._snap_sum) * _PATCH_SHARE <= len(snap):
            known = self._snap_known
            patch = {}
            for writer, top in live.items():
                have = known.get(writer, 0)
                if top > have:
                    for addr in index.get(writer, ()):
                        cell = cells[addr]
                        if cell[0][1] > have:
                            patch[addr] = cell
            return Diff(live, _Patched(snap, patch) if patch else snap, index, self._summary)
        self._snap, self._snap_known, self._snap_sum = cells.copy(), live, total
        return Diff(live, self._snap, index, self._summary)

    def extract_terminal(self) -> Diff:
        """The diff of the owner's terminal release: everything this
        workspace knows, handed over without a copy, since the owner
        takes no further op. The workspace is left empty, not shared."""
        diff = Diff(self._live, self.cells, self._index, self._summary, self.owner)
        self._live, self.cells, self._index, self._summary, self._private = {}, {}, {}, {}, {}
        self._snap = None
        return diff

    def apply_diff(self, diff: Diff) -> None:
        """Merge an incoming diff, all cells or none, and absorb its
        sender if it is a terminal diff.

        Only the diff's buckets of live writers it knows further than
        this workspace are walked, and the recorded addresses of writers
        it knows retired and this workspace does not, and within them only
        the cells this workspace lacks. The conflicts alone are sorted by
        address, so a DataRaceError payload is identical no matter which
        schedule produced it. On conflict the workspace is left untouched.
        A fresh receiver has nothing to defend and adopts the diff's cells
        by copy; a wide plain diff it keeps as its snapshot.
        """
        if self.cells or self._live or self._summary:
            self._merge(diff)
        else:  # fresh: share all it can
            writes, known = diff.writes, diff.sender_knowledge
            self.cells = writes.copy()
            # The snapshot a terminal diff gives, _absorb discards below.
            if type(writes) is dict and len(writes) >= _PATCH_MIN:
                self._snap, self._snap_known, self._snap_sum = writes, known, sum(known.values())
            self._index = diff.index.copy()
            self._private = {}
            self._live = known.copy()
            self._summary = diff.summary
        if diff.terminal is not None:
            self._absorb(diff)

    def _merge(self, diff: Diff) -> None:
        cells = self.cells
        mine = self._live
        summary = self._summary
        record = self._record
        theirs = diff.sender_knowledge
        theirs_summary = diff.summary
        # A summary shared with mine, or empty, names no retirement I lack.
        skip = theirs_summary is summary or not theirs_summary
        learned, newly = (summary, []) if skip else record.merge(summary, theirs_summary)
        writes = diff.writes
        index = diff.index
        # writers the sender knows further, with their new counters
        ahead: list[tuple[int, int]] = []
        # (writer, its bucket in the diff, or None for a writer retiring
        # here, cells adopted from it, and the adopted addresses whose
        # cells change writer, with the old writer)
        groups = []
        conflicts: list[Conflict] = []
        retired: dict[int, bool] = {}  # writer -> retired in the sender's view
        # The sender's live writers, then (with no counter) the writers
        # that retire here.
        entries = chain(theirs.items(), [(w, None) for w in newly]) if newly else theirs.items()
        for writer, top in entries:
            if top is not None:
                have = mine.get(writer)
                if have is None:
                    if record.retired(summary, writer):
                        continue  # known to its end
                    have = 0
                if top <= have:
                    continue
                ahead.append((writer, top))
                addrs = bucket = index.get(writer)
                if bucket is None:
                    continue  # all its writes were overwritten since
                if (held_here := self._index.get(writer)) is not None and bucket <= held_here:
                    # All held under ``writer``: adopt what is newer (docstring).
                    got = [(addr, cell) for addr in bucket if (cell := writes[addr])[0][1] > have]
                    groups.append((writer, bucket, got, ()))
                    continue
            else:
                have = mine.get(writer, 0)
                bucket = None
                addrs = [
                    addr
                    for addr in record.finals[writer].cells
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
                if held[1] > theirs.get(was, 0):
                    if (gone := retired.get(was)) is None:
                        gone = retired[was] = record.retired(theirs_summary, was)
                    if not gone:
                        conflicts.append(Conflict(addr, VersionStamp(*held), VersionStamp(*stamp)))
                        continue
                got.append((addr, incoming))
                if was != writer:
                    moved.append((addr, was))
            if got:
                groups.append((writer, bucket, got, moved))
        if conflicts:
            conflicts.sort(key=attrgetter("addr"))
            raise DataRaceError(tuple(conflicts))
        for writer, bucket, got, moved in groups:
            cells.update(got)
            if not moved:
                continue  # every cell keeps its writer and the index stands
            if bucket is None:
                pass  # the writer retires here, so its cells go unindexed
            elif len(moved) == len(bucket) and writer not in self._index:
                self._index[writer] = bucket  # all new here: share it
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
        self._summary = learned

    def _absorb(self, diff: Diff) -> None:
        """Enter the terminal diff's sender, just merged as a live writer,
        as this workspace's next absorption: it retires here, and so does
        all it absorbed, which its diff counted."""
        writer, owner = diff.terminal, self.owner
        absorbed = self._record.absorbed.setdefault(owner, [])
        cells = tuple(diff.index.get(writer, ()))
        final = _Final(diff.sender_knowledge.get(writer, 0), cells, owner, len(absorbed))
        self._record.finals[writer] = final
        absorbed.append(writer)
        self._summary = {a: n for a, n in self._summary.items() if a != writer}
        self._summary[owner] = len(absorbed)
        self._forget_live((writer,))

    # ------------------------------------------------------------------
    # introspection helpers
    # ------------------------------------------------------------------

    def state_bytes(self) -> bytes:
        """Canonical serialization of visible state.

        Covers cells and knowledge only; private counters are excluded so
        two workspaces that would behave identically compare equal.
        """
        cells = [
            (owner, slot, writer, seq, repr(value))
            for (owner, slot), ((writer, seq), value) in sorted(self.cells.items())
        ]
        knowledge = sorted((w, s) for w, s in self.knowledge.items() if s > 0)
        return repr((cells, knowledge)).encode()

    def check_invariants(self) -> None:
        """Assert internal consistency; used by tests."""
        knowledge = self.knowledge
        assert knowledge.get(self.owner, 0) == self._write_counter
        for addr, cell in self.cells.items():
            assert covers(knowledge, cell[0]), (
                f"cell {addr} stamped {VersionStamp(*cell[0])} outside knowledge"
            )
        for writer, seq in knowledge.items():
            assert seq >= 0 and writer >= _INITIAL_WRITER
        # The summary counts absorptions that happened, of absorbers not
        # retired here; no retired writer is also counted live.
        summary, record = self._summary, self._record
        for absorber, n in summary.items():
            assert 0 < n <= len(record.absorbed[absorber]), f"bad count for {absorber}"
            assert not record.retired(summary, absorber), f"retired absorber {absorber}"
        retired = set(record.merge({}, summary)[1])
        assert retired.isdisjoint(self._live), "retired writer live"
        # The index is exact: each bucket holds the addresses of the
        # cells stamped by its live writer, no bucket is empty, and no
        # cell a live writer stamped is left out. A retired writer's
        # cells sit where its record says.
        indexed = 0
        for writer, bucket in self._index.items():
            assert bucket, f"empty bucket for writer {writer}"
            assert writer not in retired, f"bucket for retired writer {writer}"
            for addr in bucket:
                cell = self.cells.get(addr)
                assert cell is not None and cell[0][0] == writer, (
                    f"stale index entry {addr} under writer {writer}"
                )
            indexed += len(bucket)
        for writer, bucket in self._private.items():
            assert self._index.get(writer) is bucket
        written = 0
        for addr, cell in self.cells.items():
            writer, seq = cell[0]
            if writer == _INITIAL_WRITER:
                assert addr.owner == ROOT_THREAD, f"initial cell {addr} outside the globals"
            elif writer in retired:
                final = record.finals[writer]
                assert seq <= final.seq and addr in final.cells, (
                    f"cell {addr} stamped {VersionStamp(writer, seq)} outside its writer's record"
                )
            else:
                written += 1
        assert written == indexed, "written cells missing from the index"
        # A snapshot plus the cells its live writers stamped since is the
        # cell map.
        snap, known = self._snap, self._snap_known
        if snap is not None:
            assert snap.keys() <= self.cells.keys(), "snapshot holds a dropped cell"
            for addr, cell in self.cells.items():
                writer, seq = cell[0]
                if addr not in snap or snap[addr][0] != cell[0]:
                    assert writer in self._live and seq > known.get(writer, 0), (
                        f"cell {addr} changed unseen since the snapshot"
                    )
