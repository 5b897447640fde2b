"""The package root exports what users call; internals such as
``Workspace`` or ``ChannelRegistry`` are imported from their submodules."""
from __future__ import annotations

import determ

PUBLIC = {
    # runtime library
    "Runtime",
    "ThreadCtx",
    "Team",
    "Reduction",
    "StaticSchedule",
    "OrderedRegion",
    "TaskHandle",
    # checking scripted programs
    "ScriptProgram",
    "parse_script",
    "enumerate_dc",
    "enumerate_sc",
    "run_on_runtime",
    "check_program",
    "CheckReport",
    "EnumerationResult",
    "Outcome",
    "corpus_names",
    "load_corpus",
    "MAX_OPS",
    "MAX_THREADS",
    # values that error payloads carry
    "Address",
    "Conflict",
    "SyncLabel",
    "VersionStamp",
    # errors
    "DetermError",
    "ConfigError",
    "DataRaceError",
    "DeadlockError",
    "LimitError",
    "PairingError",
    "ScriptError",
    "UnallocatedError",
    "__version__",
}


def test_package_root_exports_exactly_the_public_names():
    assert len(determ.__all__) == len(PUBLIC) == 33
    assert set(determ.__all__) == PUBLIC
    for name in determ.__all__:
        assert hasattr(determ, name), name

