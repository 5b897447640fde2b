"""determ: a deterministic-by-construction shared-memory runtime.

Logical threads own private workspaces; the only way data moves between
them is over uniquely paired release/acquire channels carrying whole-state
diffs. Programs built this way have exactly one possible result per input
— including their errors: conflicting concurrent writes surface as a
:class:`DataRaceError` whose payload is itself schedule-independent.

The package ships the runtime (fork/join teams, combining-tree barriers,
reductions, ordered regions, tasks), an exhaustive schedule enumerator for
small scripted programs that proves outcome uniqueness, and a CLI that
cross-checks real perturbed executions against the enumeration.
"""
from .errors import (
    ConfigError,
    DataRaceError,
    DeadlockError,
    DetermError,
    LimitError,
    PairingError,
    ScriptError,
    UnallocatedError,
)
from .oracle import (
    CheckReport,
    EnumerationResult,
    MAX_OPS,
    MAX_THREADS,
    Outcome,
    check_program,
    corpus_names,
    enumerate_dc,
    enumerate_sc,
    load_corpus,
    run_on_runtime,
)
from .runtime import (
    OrderedRegion,
    Reduction,
    Runtime,
    StaticSchedule,
    TaskHandle,
    Team,
    ThreadCtx,
)
from .script import ScriptProgram, parse_script
from .store import Address, Conflict, VersionStamp
from .sync import SyncLabel

__version__ = "0.1.0"

__all__ = [
    "Address",
    "CheckReport",
    "ConfigError",
    "Conflict",
    "DataRaceError",
    "DeadlockError",
    "DetermError",
    "EnumerationResult",
    "LimitError",
    "MAX_OPS",
    "MAX_THREADS",
    "OrderedRegion",
    "Outcome",
    "PairingError",
    "Reduction",
    "Runtime",
    "ScriptError",
    "ScriptProgram",
    "StaticSchedule",
    "SyncLabel",
    "TaskHandle",
    "Team",
    "ThreadCtx",
    "UnallocatedError",
    "VersionStamp",
    "check_program",
    "corpus_names",
    "enumerate_dc",
    "enumerate_sc",
    "load_corpus",
    "parse_script",
    "run_on_runtime",
    "__version__",
]
