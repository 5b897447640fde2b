"""Exception types shared across the runtime.

Every error that the memory model itself can produce carries a payload that
is a pure function of the program, never of the schedule. Tests rely on
comparing these payloads byte-for-byte across perturbed runs.
"""
from __future__ import annotations

from typing import Any


class DetermError(Exception):
    """Base class for all model-level errors."""


class ConfigError(DetermError):
    """A construct was used in a way the model rejects outright.

    Examples: duplicate sync partners, redeclared reduction variables,
    collective calls with imbalanced sync counters.
    """


class UnallocatedError(DetermError):
    """Read or write of an address this workspace has never seen."""

    def __init__(self, addr: Any) -> None:
        super().__init__(f"unallocated address {addr}")
        self.addr = addr


class DataRaceError(DetermError):
    """Two causally unordered writes to the same cell met at an acquire.

    ``conflicts`` is a tuple of (address, local_stamp, incoming_stamp)
    records in canonical ascending address order. The whole diff is
    rejected: the workspace is left unchanged.
    """

    def __init__(self, conflicts: tuple) -> None:
        self.conflicts = tuple(conflicts)
        parts = ", ".join(
            f"{c.addr}[{c.local}|{c.incoming}]" for c in self.conflicts
        )
        super().__init__(f"conflicting concurrent writes: {parts}")


class PairingError(DetermError):
    """Release/acquire pairing was not unique.

    ``contested`` names the label both parties fought over and
    ``claimants`` lists the labels on the other side, sorted. The payload
    names the channel, not the loser, so it is schedule-independent.
    """

    def __init__(self, kind: str, contested: Any, claimants: tuple) -> None:
        self.kind = kind
        self.contested = contested
        self.claimants = tuple(sorted(claimants))
        names = ", ".join(str(c) for c in self.claimants)
        super().__init__(f"{kind} pairing violation at {contested}: {names}")


class DeadlockError(DetermError):
    """A set of threads is blocked on releases that can never happen."""

    def __init__(self, blocked: tuple) -> None:
        self.blocked = tuple(sorted(blocked))
        super().__init__(f"deadlock among threads {list(self.blocked)}")


class ScriptError(DetermError):
    """A script file failed to parse or validate."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class LimitError(DetermError):
    """An exhaustive enumeration request exceeded the supported bounds."""
