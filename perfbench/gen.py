"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed and size arguments, so the
same seed always yields the same inputs. The program under test receives
only what these functions return.
"""
from __future__ import annotations

import random
from dataclasses import dataclass


def _rng(seed: int, stream: str) -> random.Random:
    # One independent stream per input kind, so adding an input kind never
    # shifts the values another kind draws.
    return random.Random(f"{stream}:{seed}")


# ----------------------------------------------------------------------
# stencil_small
# ----------------------------------------------------------------------


def stencil_array(seed: int, cells: int) -> list[int]:
    """Initial values of the 1-D Jacobi array."""
    rng = _rng(seed, "stencil")
    return [rng.randrange(1000) for _ in range(cells)]


# ----------------------------------------------------------------------
# sparse_wide
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SparsePlan:
    """Per-round, per-member write and read sets over a wide array.

    ``writes[r][m]`` lists (cell, constant) pairs inside member m's own
    block; ``reads[r][m]`` lists cells anywhere in the array. A member
    writes ``(sum of its reads + constant) % 1_000_003`` to each of its
    write cells, after doing all its reads for the round.
    """

    cells: int
    members: int
    initial: tuple[int, ...]
    writes: tuple[tuple[tuple[tuple[int, int], ...], ...], ...]
    reads: tuple[tuple[tuple[int, ...], ...], ...]


def block(cells: int, members: int, rank: int) -> range:
    """Contiguous block of cells owned by ``rank``."""
    size = -(-cells // members)
    return range(rank * size, min(cells, (rank + 1) * size))


#: Cells each member writes, and cells it reads, in one sparse_wide round.
SPARSE_WRITES = 4
SPARSE_READS = 4


def sparse_plan(seed: int, cells: int, members: int, rounds: int) -> SparsePlan:
    rng = _rng(seed, "sparse")
    initial = tuple(rng.randrange(1000) for _ in range(cells))
    w_plan, r_plan = [], []
    for _ in range(rounds):
        w_round, r_round = [], []
        for rank in range(members):
            own = block(cells, members, rank)
            targets = rng.sample(own, SPARSE_WRITES)
            w_round.append(tuple((c, rng.randrange(1000)) for c in targets))
            r_round.append(tuple(rng.randrange(cells) for _ in range(SPARSE_READS)))
        w_plan.append(tuple(w_round))
        r_plan.append(tuple(r_round))
    return SparsePlan(cells, members, initial, tuple(w_plan), tuple(r_plan))


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


#: Global cells of a script.
SCRIPT_GLOBALS = 3
#: Chance that the next step of a script is a sync step.
SCRIPT_SYNC = 0.4
#: Most local operations a thread runs in a row while a sync partner is left.
SCRIPT_STRETCH = 2
#: Sync skeletons per script shape.
SCRIPT_SKELETONS = 16


def script_text(seed: int, index: int, threads: int, ops: int) -> str:
    """One deadlock-free thread script in the checker's text format.

    Operations are generated in a single global order: a sync step
    appends the REL to one thread and the matching ACQ to another at the
    same point, so every ACQ's partner REL comes earlier in that order and
    executing the order front to back is a valid schedule. Writes are
    unsynchronized on purpose; whether two of them race is left to the
    draw, so the set mixes RACE and STATE outcomes.

    The sync skeleton (where each thread syncs, and with whom) is one of a
    fixed family of ``SCRIPT_SKELETONS`` per shape; the seed picks the
    skeleton and draws every read and write. State counts of the
    enumerators depend mostly on the skeleton and are heavy-tailed over
    random skeletons, so a fixed family keeps the work, and the peak
    memory, of a run from swinging with the seed.
    """
    rng = _rng(seed, f"script{index}")
    shape = random.Random(f"skeleton:{threads}x{ops}:{rng.randrange(SCRIPT_SKELETONS)}")
    names = [f"g{i}" for i in range(SCRIPT_GLOBALS)]
    body: list[list[str]] = [[] for _ in range(threads)]
    nsync = [0] * threads
    values: list[list[str]] = [[] for _ in range(threads)]
    local_run = [0] * threads
    full = lambda t: len(body[t]) >= ops  # noqa: E731 - tiny local predicate
    while not all(full(t) for t in range(threads)):
        open_ = [t for t in range(threads) if not full(t)]
        t = shape.choice(open_)
        if len(open_) >= 2 and (shape.random() < SCRIPT_SYNC or local_run[t] >= SCRIPT_STRETCH):
            other = shape.choice([u for u in open_ if u != t])
            rel, acq = (t, other) if shape.random() < 0.5 else (other, t)
            nsync[rel] += 1
            nsync[acq] += 1
            body[rel].append(f"REL {acq} {nsync[acq]}")
            body[acq].append(f"ACQ {rel} {nsync[rel]}")
            local_run[rel] = local_run[acq] = 0
            continue
        local_run[t] += 1
        cell = rng.choice(names)
        if rng.random() < 0.43:
            local = f"v{len(values[t])}"
            values[t].append(local)
            body[t].append(f"READ {cell} {local}")
        elif values[t] and rng.random() < 0.7:
            body[t].append(f"WRITE {cell} {rng.choice(values[t])} + {rng.randrange(1, 9)}")
        else:
            body[t].append(f"WRITE {cell} {rng.randrange(100)}")
    lines = [f"GLOBAL {name} {rng.randrange(10)}" for name in names]
    for t, ops_ in enumerate(body):
        lines.append(f"THREAD {t}")
        lines.extend(ops_)
    return "\n".join(lines) + "\n"
