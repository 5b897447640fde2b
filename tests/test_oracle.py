"""Enumeration engines, canonical outcomes, and execution agreement.

EXPECTED_DC freezes the one canonical outcome of every bundled script;
these strings were derived by hand from the scripts before being pinned
and double-checked against both engines. The shared-store expectations
are additionally re-derived here by a test-local brute-force explorer
that shares no code with the enumerators, so a bug in the production
search cannot hide itself. The partial-order reduction is checked
against the same driver with its settle steps turned off, on the
corpus, on one script per conflict rule and on generated scripts, and
both enumerations of a seeded population are pinned by digest. Every
state's key is compared, once its successors exist, with the key it had
when it was made, to show that building them changed nothing of it.
"""
from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from determ import oracle, runtime
from determ.errors import DeadlockError, LimitError
from determ.oracle import (
    DEFAULT_MAX_STATES,
    MAX_OPS,
    MAX_THREADS,
    CheckReport,
    EnumerationResult,
    Outcome,
    check_program,
    corpus_names,
    deadlock_body,
    derive_outcome,
    enumerate_dc,
    enumerate_sc,
    load_corpus,
    pairing_body,
    race_body,
    run_on_runtime,
    state_body,
)
from determ.script import (
    AcquireOp,
    AllocOp,
    ReadOp,
    ScriptProgram,
    WriteOp,
    eval_expr,
    parse_script,
)
from determ.store import ROOT_THREAD, Address, Conflict, VersionStamp, global_addresses

# One canonical paired-channel outcome per bundled script, frozen.
EXPECTED_DC = {
    "aimed_elsewhere": "PAIRING release pairing violation at (0,1): (1,1), (1,2)",
    "alloc_transfer": "STATE z=1 @1.1=7",
    "broadcast": "STATE m=21 s=42 u=63",
    "chain3": "STATE a=1 b=2 c=3",
    "counter": "STATE n=2",
    "crossed": "DEADLOCK 0,1",
    "done_releaser": "DEADLOCK 0",
    "double_release": "PAIRING acquire pairing violation at (2,1): (0,1), (1,1)",
    "race": "RACE r:1.2/2.2",
    "stale_keep": "STATE x=2",
    "swap": "STATE x=2 y=1",
}

# Outcome sets of the same scripts over one shared store, frozen for the
# programs where the two models genuinely part ways.
EXPECTED_SC_DIVERGENT = {
    "swap": {"STATE x=1 y=1", "STATE x=2 y=1", "STATE x=2 y=2"},
    "race": {
        "STATE r=7 @1.1=None @2.1=None",
        "STATE r=8 @1.1=None @2.1=None",
    },
    # The flat model happily runs mis-paired programs to completion.
    "double_release": {"STATE x=0"},
    "aimed_elsewhere": {"STATE x=0"},
}


def test_corpus_is_complete_and_loadable():
    assert corpus_names() == sorted(EXPECTED_DC)
    for name in corpus_names():
        program = load_corpus(name)
        assert program.name == name
        assert 2 <= program.nthreads <= MAX_THREADS


def test_unknown_corpus_name_raises():
    with pytest.raises(FileNotFoundError):
        load_corpus("definitely_not_bundled")


# ----------------------------------------------------------------------
# paired-channel enumeration: every bundled script is deterministic
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(EXPECTED_DC))
def test_every_bundled_script_admits_exactly_one_outcome(name):
    result = enumerate_dc(load_corpus(name))
    assert result.unique, [o.text for o in result.outcomes]
    assert result.outcomes[0].text == EXPECTED_DC[name]


def _no_settle(self):
    """Stands in for both settle steps: nothing runs eagerly."""


def _unreduced(enumerate_fn, program):
    """The reference oracle: the same driver with both settle steps
    turned off, so it explores every interleaving of every operation."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle._DcState, "settle", _no_settle)
        mp.setattr(oracle._ScState, "settle", _no_settle)
        return enumerate_fn(program)


def test_enumeration_state_counts_are_stable():
    # Pinned so a silent change in the search, its reduction or its dedup
    # key shows up: every interleaving first, then the reduced search.
    assert _unreduced(enumerate_dc, load_corpus("swap")).states == 32
    assert _unreduced(enumerate_dc, load_corpus("race")).states == 37
    assert enumerate_dc(load_corpus("swap")).states == 1
    assert enumerate_dc(load_corpus("race")).states == 1


def test_shared_store_state_counts_are_stable():
    assert _unreduced(enumerate_sc, load_corpus("swap")).states == 51
    assert enumerate_sc(load_corpus("swap")).states == 6


def test_a_dead_read_racing_a_write_settles_at_once():
    # v is never read, so the READ is inert: it no longer waits for the
    # WRITE, nor the WRITE for it, and the value it binds leaves the key.
    # Read back, the same READ must still be interleaved with the WRITE.
    dead = parse_script("GLOBAL x 0\nTHREAD 0\nREAD x v\nTHREAD 1\nWRITE x 1\n")
    live = parse_script("GLOBAL x 0\nGLOBAL y 0\nTHREAD 0\nREAD x v\nWRITE y v\nTHREAD 1\nWRITE x 1\n")
    assert _unreduced(enumerate_sc, dead).states == 5
    assert enumerate_sc(dead).states == 1
    assert [o.text for o in enumerate_sc(dead).outcomes] == ["STATE x=1"]
    assert enumerate_sc(live).states == 3
    assert [o.text for o in enumerate_sc(live).outcomes] == ["STATE x=1 y=0", "STATE x=1 y=1"]
    # Once the WRITE has used v, the two orders leave equal states that
    # differ only in v's dead value, and they merge.
    used = parse_script(
        "GLOBAL x 0\nGLOBAL y 0\nTHREAD 0\nREAD x v\nWRITE y max(v, 5)\nTHREAD 1\nWRITE x 1\n"
    )
    assert enumerate_sc(used).states == 2
    assert [o.text for o in enumerate_sc(used).outcomes] == ["STATE x=1 y=5"]


def test_liveness_follows_reads_rebindings_handles_and_operands():
    program = parse_script(
        "GLOBAL g 0\n"
        "THREAD 0\n"
        "ALLOC p\n"  # binds the handle p
        "READ g v\n"
        "WRITE p v + 1\n"  # reads p to reach the cell, v as an operand
        "READ g v\n"  # rebinds v: the first value is dead from here
        "REL 1 1\n"
        "WRITE g max(v, 2)\n"
        "READ p w\n"  # w is never read: an inert READ
        "THREAD 1\n"
        "ALLOC q\n"
        "READ q q\n"  # reads the cell through q, then rebinds q to a value
        "ACQ 0 1\n"
        "WRITE g q\n"
    )
    live = oracle._liveness(oracle._ops(program).plan)
    assert [set(names) for names in live[0]] == [
        set(), {"p"}, {"p", "v"}, {"p"}, {"p", "v"}, {"p", "v"}, {"p"}, set()
    ]
    assert [set(names) for names in live[1]] == [set(), {"q"}, {"q"}, {"q"}, set()]
    steps = oracle._ScState(oracle._ops(program)).steps
    assert steps[0] == (True, True, True, True, False, True, False)
    assert steps[1] == (True, True, False, True)


@pytest.mark.parametrize("enumerate_fn", [enumerate_dc, enumerate_sc])
@pytest.mark.parametrize("name", sorted(EXPECTED_DC))
def test_reduction_keeps_every_corpus_outcome(name, enumerate_fn):
    program = load_corpus(name)
    reduced = enumerate_fn(program)
    full = _unreduced(enumerate_fn, program)
    assert reduced.outcomes == full.outcomes
    assert reduced.states <= full.states


def _search(model, program, reduced):
    """The search of _explore, yielding each state with the key it had
    when it was made and its successors as (stepped thread, successor)
    pairs, once all of them are built."""
    with pytest.MonkeyPatch.context() as mp:
        if not reduced:
            mp.setattr(model, "settle", _no_settle)
        init = model(oracle._ops(program))
        init.settle()
        seen = {init.key()}
        stack = [(init, init.key())]
        while stack:
            st, made = stack.pop()
            succ = []
            for t in st.runnable():
                nxt = st.clone()
                nxt.step(t)
                nxt.settle()
                succ.append((t, nxt))
                key = nxt.key()
                if key not in seen:
                    seen.add(key)
                    stack.append((nxt, key))
            yield st, made, succ


@pytest.mark.parametrize("reduced", [True, False])
@pytest.mark.parametrize("model", [oracle._DcState, oracle._ScState])
def test_building_successors_leaves_the_parent_unchanged(model, reduced):
    # A paired-channel clone copies every thread; a shared-store one
    # shares locals and store until they change. A successor's step that
    # reached its parent would show here, and for the shared store so
    # would a cached key part that went stale.
    for name in corpus_names():
        for st, made, _ in _search(model, load_corpus(name), reduced):
            assert st.key() == made, name
            if model is oracle._ScState:
                st.lkeys = [None] * len(st.lkeys)
                st.skey = None
                assert st.key() == made, name


@pytest.mark.parametrize("reduced", [True, False])
@pytest.mark.parametrize("model", [oracle._ScState])
def test_a_successor_shares_what_its_step_left_alone(model, reduced):
    # A successor shares the locals of every thread that neither its step
    # nor its settle changed. Any change to a thread's locals moves its
    # pc, so locals found where the parent left them must be the parent's.
    shared = 0
    for name in corpus_names():
        for st, _, succ in _search(model, load_corpus(name), reduced):
            for t, nxt in succ:
                pairs = zip(nxt.locals, st.locals, nxt.pcs, st.pcs)
                for u, (mine, theirs, now, before) in enumerate(pairs):
                    if u != t and now == before:
                        assert mine is theirs, (name, t, u)
                        shared += 1
    assert shared


def test_enumeration_is_reproducible():
    program = load_corpus("broadcast")
    assert enumerate_dc(program) == enumerate_dc(program)
    assert enumerate_sc(program) == enumerate_sc(program)


# ----------------------------------------------------------------------
# shared-store enumeration versus a test-local brute force
# ----------------------------------------------------------------------


def _brute_force_sc(program: ScriptProgram) -> set[str]:
    """Every interleaving over one shared dict, by plain recursion.

    Independent of the production engines: no dedup, no state objects,
    just copied (pcs, syncs, shared, locals) tuples down the call tree.
    """
    table = global_addresses(name for name, _ in program.globals)
    rev = {addr: name for name, addr in table.items()}
    nt = program.nthreads
    results: set[str] = set()

    def render(shared):
        keys = sorted(shared, key=lambda a: (a not in rev, a))
        body = " ".join(f"{rev.get(a, str(a))}={shared[a]!r}" for a in keys)
        return f"STATE {body}"

    def explore(pcs, syncs, nallocs, shared, locals_):
        ran_any = False
        for t in range(nt):
            ops = program.threads[t]
            if pcs[t] >= len(ops):
                continue
            op = ops[pcs[t]]
            if isinstance(op, AcquireOp) and not all(
                syncs[lab.thread] >= lab.seq for lab in op.partners
            ):
                continue
            ran_any = True
            pcs2 = list(pcs)
            pcs2[t] += 1
            syncs2, nallocs2 = list(syncs), list(nallocs)
            shared2 = dict(shared)
            locals2 = [dict(d) for d in locals_]
            if isinstance(op, ReadOp):
                addr = table.get(op.cell) or locals2[t][op.cell]
                locals2[t][op.into] = shared2[addr]
            elif isinstance(op, WriteOp):
                addr = table.get(op.cell) or locals2[t][op.cell]
                shared2[addr] = eval_expr(op.expr, locals2[t])
            elif isinstance(op, AllocOp):
                nallocs2[t] += 1
                base = len(program.globals) if t == ROOT_THREAD else 0
                addr = Address(t, base + nallocs2[t])
                shared2[addr] = None
                locals2[t][op.into] = addr
            else:  # any sync op is one event
                syncs2[t] += 1
            explore(pcs2, syncs2, nallocs2, shared2, locals2)
        if not ran_any:
            blocked = sorted(
                t for t in range(nt) if pcs[t] < len(program.threads[t])
            )
            if blocked:
                results.add("DEADLOCK " + ",".join(map(str, blocked)))
            else:
                results.add(render(shared))

    explore(
        [0] * nt,
        [0] * nt,
        [0] * nt,
        {table[name]: value for name, value in program.globals},
        [{} for _ in range(nt)],
    )
    return results


@pytest.mark.parametrize("name", sorted(EXPECTED_DC))
def test_shared_store_enumeration_matches_brute_force(name):
    program = load_corpus(name)
    produced = {o.text for o in enumerate_sc(program).outcomes}
    assert produced == _brute_force_sc(program)


def test_swap_admits_exactly_three_flat_outcomes():
    result = enumerate_sc(load_corpus("swap"))
    assert {o.text for o in result.outcomes} == EXPECTED_SC_DIVERGENT["swap"]
    assert len(result.outcomes) == 3


@pytest.mark.parametrize("name", sorted(EXPECTED_SC_DIVERGENT))
def test_flat_model_diverges_where_expected(name):
    produced = {o.text for o in enumerate_sc(load_corpus(name)).outcomes}
    assert produced == EXPECTED_SC_DIVERGENT[name]
    assert produced != {EXPECTED_DC[name]}


@pytest.mark.parametrize(
    "name", sorted(set(EXPECTED_DC) - set(EXPECTED_SC_DIVERGENT))
)
def test_fully_synchronized_scripts_agree_across_models(name):
    produced = {o.text for o in enumerate_sc(load_corpus(name)).outcomes}
    assert produced == {EXPECTED_DC[name]}


# ----------------------------------------------------------------------
# generated scripts: reduced versus unreduced, enumeration versus runtime
# ----------------------------------------------------------------------

_GEN_GLOBALS = ("g0", "g1")
# Weighted so that races and clean states are common, not only pairing
# faults and deadlocks.
_GEN_KINDS = ("PAIR",) * 3 + ("REL", "ACQ", "ALLOC", "READ") + ("WRITE",) * 3


def _script_text(integer, choice):
    """2-4 threads of at most 6 ops: matched REL/ACQ pairs, REL/ACQ (or
    their sets) with random, often mis-paired partners at seqs 1-3, and
    ALLOC, READ and WRITE. ``integer(lo, hi)`` and ``choice(seq)`` make
    every draw, from hypothesis or from a seeded ``random.Random``.

    Ops are drawn in one global order, so a matched pair's ACQ follows
    its REL; only values read from globals feed expressions, so every
    expression stays integer arithmetic whatever the schedule.
    """
    nthreads = integer(2, 4)
    body = [[] for _ in range(nthreads)]
    nsync = [0] * nthreads
    cells = [list(_GEN_GLOBALS) for _ in range(nthreads)]
    values = [[] for _ in range(nthreads)]
    for k in range(integer(2, 6 * nthreads)):
        open_ = [t for t in range(nthreads) if len(body[t]) < 6]
        if len(open_) < 2:
            break
        t = choice(open_)
        kind = choice(_GEN_KINDS)
        if kind == "PAIR":
            u = choice([u for u in open_ if u != t])
            nsync[t] += 1
            nsync[u] += 1
            body[t].append(f"REL {u} {nsync[u]}")
            body[u].append(f"ACQ {t} {nsync[t]}")
        elif kind in ("REL", "ACQ"):
            free = [(u, n) for u in range(nthreads) if u != t for n in (1, 2, 3)]
            labels = []
            for _ in range(integer(1, 3)):
                labels.append(choice([label for label in free if label not in labels]))
            nsync[t] += 1
            if len(labels) == 1:
                body[t].append(f"{kind} {labels[0][0]} {labels[0][1]}")
            else:
                body[t].append(f"{kind}SET " + ",".join(f"{u}:{n}" for u, n in labels))
        elif kind == "ALLOC":
            cells[t].append(f"p{k}")
            body[t].append(f"ALLOC p{k}")
        elif kind == "READ":
            cell = choice(cells[t])
            if cell in _GEN_GLOBALS:
                values[t].append(f"v{k}")
            body[t].append(f"READ {cell} v{k}")
        else:
            cell = choice(cells[t])
            if values[t] and choice((False, True)):
                expr = f"{choice(values[t])} + {integer(1, 9)}"
            else:
                expr = str(integer(0, 99))
            body[t].append(f"WRITE {cell} {expr}")
    lines = ["GLOBAL g0 0", "GLOBAL g1 3"]
    for t, ops in enumerate(body):
        lines.append(f"THREAD {t}")
        lines.extend(ops)
    return "\n".join(lines) + "\n"


@st.composite
def _scripts(draw):
    """:func:`_script_text` drawn by hypothesis."""
    return _script_text(
        lambda lo, hi: draw(st.integers(lo, hi)), lambda seq: draw(st.sampled_from(seq))
    )


# Scripts where settling must refuse a step, one per conflict rule, with
# the number of outcomes the unreduced search finds. A rule that settled
# the step anyway could drop an outcome.
_REFUSALS = {
    # (0,1) is aimed at (2,1), which names (1,1) alone.
    "rel_aimed_at_an_acq_that_does_not_name_it": (
        enumerate_dc,
        "GLOBAL x 0\nTHREAD 0\nREL 2 1\nTHREAD 1\nREL 0 1\nTHREAD 2\nACQ 1 1\n",
        2,
    ),
    # (0,1) names (1,1) and (2,1), which are aimed at (2,2) and (1,2).
    "a_mis_aimed_acqset_partner": (
        enumerate_dc,
        "GLOBAL x 0\nTHREAD 0\nACQSET 1:1,2:1\nTHREAD 1\nREL 2 2\nTHREAD 2\nREL 1 2\n",
        2,
    ),
    "two_writers_of_one_global": (
        enumerate_sc,
        "GLOBAL x 0\nTHREAD 0\nWRITE x 1\nTHREAD 1\nWRITE x 2\n",
        2,
    ),
    "writes_through_alloc_pointers": (
        enumerate_sc,
        "GLOBAL g 0\nTHREAD 0\nALLOC p\nWRITE p 1\nREAD p v\nWRITE g v\n"
        "THREAD 1\nALLOC q\nWRITE q 2\nREAD q w\nWRITE g w\n",
        2,
    ),
}


@pytest.mark.parametrize("name", sorted(_REFUSALS))
def test_settling_refuses_steps_that_can_interact(name):
    enumerate_fn, text, count = _REFUSALS[name]
    program = parse_script(text)
    full = _unreduced(enumerate_fn, program)
    assert enumerate_fn(program).outcomes == full.outcomes
    assert len(full.outcomes) == count


# Scripts whose steps all commute, so settling runs every one and keeps
# a single state.
_COMMUTING = {
    # (1,1) and (2,1) both name the broadcast (0,1): two ACQs commute.
    "two_acqs_naming_one_rel": (
        enumerate_dc,
        "GLOBAL x 0\nTHREAD 0\nWRITE x 1\nRELSET 1:1,2:1\n"
        "THREAD 1\nACQ 0 1\nREAD x v\nTHREAD 2\nACQ 0 1\nWRITE x 5\n",
    ),
    # (0,1) and (1,1) are both aimed at (2,1): two RELs commute.
    "two_rels_at_one_acquire_label": (
        enumerate_dc,
        "GLOBAL x 0\nTHREAD 0\nWRITE x 1\nREL 2 1\nTHREAD 1\nWRITE x 2\nREL 2 1\n"
        "THREAD 2\nACQSET 0:1,1:1\n",
    ),
    # Each thread reaches only the cell its own ALLOC made.
    "accesses_through_own_handles": (
        enumerate_sc,
        "GLOBAL g 0\n"
        + "".join(
            f"THREAD {t}\nALLOC p\nWRITE p {t}\nREAD p v\nWRITE p v + 1\n" for t in range(3)
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(_COMMUTING))
def test_settling_runs_steps_that_commute(name):
    enumerate_fn, text = _COMMUTING[name]
    program = parse_script(text)
    reduced = enumerate_fn(program)
    assert reduced.states == 1
    assert reduced.outcomes == _unreduced(enumerate_fn, program).outcomes


# No shrink phase: shrinking re-enumerates every candidate unreduced and
# can run for minutes, while an unshrunk script of at most 4 x 6 ops is
# already readable.
_GENERATED = dict(
    derandomize=True,
    deadline=None,
    phases=(Phase.explicit, Phase.generate),
    suppress_health_check=[HealthCheck.too_slow],
)


@settings(max_examples=300, **_GENERATED)
@given(_scripts())
def test_reduced_enumeration_matches_the_reference(text):
    # (a) the reduction drops states, never outcomes, in both models
    program = parse_script(text)
    for enumerate_fn in (enumerate_dc, enumerate_sc):
        reduced = enumerate_fn(program)
        assert reduced.outcomes == _unreduced(enumerate_fn, program).outcomes


# The sha256 of both enumerations of 300 scripts drawn by
# random.Random(1), then of the corpus, pinned when the paired-channel
# simulator dropped its copy-on-write threads and cached keys. 175 of the
# 300 paired-channel searches branch, so their clones are exercised too.
_POPULATION_DIGEST = "ee24645f0268d48543597c6374bb6d5d03b851cdac6195d88cd9b0e349cb7649"


def test_a_seeded_population_enumerates_as_pinned():
    # A yardstick for work on either enumerator: every outcome text and
    # state count must stay as they were.
    rng = random.Random(1)
    texts = [_script_text(rng.randint, rng.choice) for _ in range(300)]
    programs = [parse_script(text) for text in texts]
    programs += [load_corpus(name) for name in corpus_names()]
    digest = hashlib.sha256()
    for program in programs:
        for enumerate_fn in (enumerate_dc, enumerate_sc):
            result = enumerate_fn(program)
            outcomes = " | ".join(o.text for o in result.outcomes)
            digest.update(f"{result.states} {outcomes}\n".encode())
    assert digest.hexdigest() == _POPULATION_DIGEST


@st.composite
def _dead_read_scripts(draw):
    """2-3 threads of at most 4 ops, most of them READs into a few names
    that are rebound often and read back rarely, so most READs are dead.

    Locals are tracked as the parser tracks them; only values read from
    globals feed expressions, so every expression stays integer
    arithmetic whatever the schedule. At most 9 ops keep the brute force
    at a few thousand interleavings.
    """
    nthreads = draw(st.integers(2, 3))
    body = [[] for _ in range(nthreads)]
    nsync = [0] * nthreads
    handles = [set() for _ in range(nthreads)]
    values = [set() for _ in range(nthreads)]
    for _ in range(draw(st.integers(2, 9))):
        open_ = [t for t in range(nthreads) if len(body[t]) < 4]
        if len(open_) < 2:
            break
        t = draw(st.sampled_from(open_))
        kind = draw(st.sampled_from(("READ",) * 4 + ("WRITE",) * 2 + ("ALLOC", "PAIR")))
        cells = sorted(handles[t]) + list(_GEN_GLOBALS)
        if kind == "PAIR":
            u = draw(st.sampled_from([u for u in open_ if u != t]))
            nsync[t] += 1
            nsync[u] += 1
            body[t].append(f"REL {u} {nsync[u]}")
            body[u].append(f"ACQ {t} {nsync[t]}")
        elif kind == "ALLOC":
            into = draw(st.sampled_from(("p", "q")))
            handles[t].add(into)
            values[t].discard(into)
            body[t].append(f"ALLOC {into}")
        elif kind == "READ":
            cell = draw(st.sampled_from(cells))
            # READ p p reaches the cell through p, then rebinds p
            into = draw(st.sampled_from(("a", "b") + ((cell,) if cell in handles[t] else ())))
            handles[t].discard(into)
            values[t].discard(into)
            if cell in _GEN_GLOBALS:
                values[t].add(into)
            body[t].append(f"READ {cell} {into}")
        else:
            cell = draw(st.sampled_from(cells))
            if values[t] and draw(st.booleans()):
                expr = f"{draw(st.sampled_from(sorted(values[t])))} + {draw(st.integers(1, 9))}"
            else:
                expr = str(draw(st.integers(0, 9)))
            body[t].append(f"WRITE {cell} {expr}")
    lines = ["GLOBAL g0 0", "GLOBAL g1 3"]
    for t, ops in enumerate(body):
        lines.append(f"THREAD {t}")
        lines.extend(ops)
    return "\n".join(lines) + "\n"


@settings(max_examples=200, **_GENERATED)
@given(_dead_read_scripts())
def test_dead_reads_keep_every_shared_store_outcome(text):
    # Inert READs settle at once and dead locals leave the key; neither
    # may lose or invent an outcome.
    program = parse_script(text)
    reduced = enumerate_sc(program)
    assert reduced.outcomes == _unreduced(enumerate_sc, program).outcomes
    assert {o.text for o in reduced.outcomes} == _brute_force_sc(program)


@settings(max_examples=60, **_GENERATED)
@given(_scripts())
def test_reduced_enumeration_matches_the_reference_and_the_runtime(text):
    # (b) every outcome the real stack produces is a DC outcome
    program = parse_script(text)
    outcomes = enumerate_dc(program).outcomes
    for delay in (0, 0.0005):
        for seed in range(2):
            outcome = run_on_runtime(program, seed=seed, delay=delay)
            assert outcome in outcomes, f"seed {seed}, delay {delay}"


# ----------------------------------------------------------------------
# execution on the real stack
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ["swap", "race", "crossed", "double_release"])
def test_perturbed_execution_matches_the_enumerated_outcome(name):
    expected = EXPECTED_DC[name]
    for seed in range(6):
        outcome = run_on_runtime(load_corpus(name), seed=seed, delay=0.001)
        assert outcome.text == expected, f"seed {seed}"


def test_check_program_reports_determinism():
    report = check_program(load_corpus("counter"), trials=4, seed=7, delay=0.001)
    assert report.deterministic
    assert report.program == "counter"
    assert [o.text for o in report.trial_outcomes] == [EXPECTED_DC["counter"]]


def test_check_report_flags_disagreement():
    one = (Outcome("STATE", "x=1"),)
    two = (Outcome("STATE", "x=1"), Outcome("STATE", "x=2"))
    base = dict(program="p", trials=5)
    assert CheckReport(dc=EnumerationResult(one, 3), trial_outcomes=one, **base).deterministic
    assert not CheckReport(
        dc=EnumerationResult(two, 3), trial_outcomes=one, **base
    ).deterministic
    assert not CheckReport(
        dc=EnumerationResult(one, 3), trial_outcomes=two, **base
    ).deterministic


# Mis-paired scripts whose release meets a blocked acquire that disagrees
# with it: the release deposits and the acquire faults when it wakes, as
# in the model, whichever side arrives first.
_BLOCKED_MISPAIRING = {
    "aimed_past_a_blocked_acquire": (
        "GLOBAL g0 0\nGLOBAL g1 3\n"
        "THREAD 0\nACQ 1 3\n"
        "THREAD 1\nREL 0 1\nREL 0 3\nALLOC p0\n"
        "THREAD 2\nACQ 1 2\nREL 0 1\nWRITE g1 4\n",
        "PAIRING acquire pairing violation at (0,1): (1,1), (1,3); "
        "release pairing violation at (1,2): (0,3), (2,1)",
    ),
    "release_also_feeds_a_race": (
        "GLOBAL g0 0\nGLOBAL g1 3\n"
        "THREAD 0\nACQ 2 1\nALLOC p2\n"
        "THREAD 1\nWRITE g1 0\nACQ 2 1\n"
        "THREAD 2\nWRITE g1 0\nREL 1 1\n",
        "RACE g1:1.1/2.1",
    ),
    # Threads 2 and 3 wait on each other before thread 0 releases (0,1),
    # which faults thread 2's acquire (2,1). No thread is doomed while
    # another can run, so that fault is always reported.
    "fault_outruns_a_wait_cycle": (
        "GLOBAL g0 0\nGLOBAL g1 3\n"
        "THREAD 0\nREL 2 2\nREL 3 2\nREAD g0 v10\nALLOC p11\nREL 3 3\n"
        "THREAD 1\nWRITE g0 26\nREL 2 3\nACQ 0 2\n"
        "THREAD 2\nACQSET 0:1,3:2\nACQ 0 1\nACQ 1 1\nREL 3 1\nACQ 0 3\n"
        "WRITE g1 12\n"
        "THREAD 3\nREAD g0 v2\nWRITE g1 v2 + 9\nACQ 2 4\nACQ 0 2\nACQ 0 3\n",
        "PAIRING release pairing violation at (0,1): (2,1), (2,2); "
        "release pairing violation at (0,2): (1,2), (3,2)",
    ),
}


@pytest.mark.parametrize("name", sorted(_BLOCKED_MISPAIRING))
def test_blocked_mispairing_matches_the_enumerated_outcome(name):
    text, expected = _BLOCKED_MISPAIRING[name]
    program = parse_script(text)
    assert [o.text for o in enumerate_dc(program).outcomes] == [expected]
    for delay in (0, 0.0005):
        for seed in range(20):
            outcome = run_on_runtime(program, seed=seed, delay=delay)
            assert outcome.text == expected, f"seed {seed}, delay {delay}"


# Scripts on which the runtime once gave an outcome outside the DC set.
# In the first, thread 0's claim names both releases aimed at it: the
# runtime records a claim as it is posted, and the model counts a doomed
# thread's pending ACQ as claimed. In the second, a waiter that holds a
# fault has, as in the model, run its ACQ, so a later release aimed at it
# faults the releaser.
_DIVERGED = {
    "doomed_claim_names_both_releases": (
        "GLOBAL g0 0\n"
        "THREAD 0\nACQSET 2:3,1:1,2:1\n"
        "THREAD 1\nREL 0 1\n"
        "THREAD 2\nREL 0 1\n",
        ["DEADLOCK 0"],
    ),
    "release_into_a_faulted_waiter": (
        "GLOBAL g0 0\n"
        "THREAD 0\nREL 1 1\nACQSET 1:1,1:2\nACQSET 1:2,1:3\n"
        "THREAD 1\nACQ 0 1\nREL 0 1\nRELSET 0:1,0:2\n",
        [
            "PAIRING acquire pairing violation at (0,1): (1,2), (1,3); "
            "acquire pairing violation at (0,2): (1,1), (1,2), (1,3)",
            "PAIRING acquire pairing violation at (0,1): (1,2), (1,3); "
            "acquire pairing violation at (0,2): (1,1), (1,2), (1,3); "
            "release pairing violation at (1,2): (0,1), (0,2)",
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(_DIVERGED))
def test_every_runtime_outcome_is_a_dc_outcome(name):
    text, expected = _DIVERGED[name]
    program = parse_script(text)
    assert [o.text for o in enumerate_dc(program).outcomes] == expected
    for delay in (0, 0.0005):
        for seed in range(6):
            outcome = run_on_runtime(program, seed=seed, delay=delay)
            assert outcome.text in expected, f"seed {seed}, delay {delay}"


def test_a_failed_launch_leaves_no_peer_waiting(monkeypatch):
    # Thread 2's launch fails. Thread 1, launched, waits on it: it must
    # be doomed at once, not sit out the wait timeout.
    made = []

    class Kept(runtime.Runtime):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    run = runtime._WORKERS.run
    calls = []

    def failing_run(job):
        calls.append(job)
        if len(calls) == 2:
            raise RuntimeError("no worker")
        run(job)

    monkeypatch.setattr(oracle, "Runtime", Kept)
    monkeypatch.setattr(runtime._WORKERS, "run", failing_run)
    program = parse_script("GLOBAL g0 0\nTHREAD 0\nTHREAD 1\nACQ 2 1\nTHREAD 2\nREL 1 1\n")
    with pytest.raises(RuntimeError, match="no worker"):
        run_on_runtime(program, seed=0, delay=0)
    (rt,) = made
    assert rt.registry.wait_all_done(timeout=0)
    assert rt.registry.doomed() == (1,)
    assert isinstance(rt.errors[1], DeadlockError)


def test_a_wait_chain_through_a_thread_yet_to_run_is_not_doomed():
    # Thread 0 waits on thread 1, which waits on thread 2. Thread 1 may
    # block before thread 2 is even launched; nobody is doomed while some
    # thread can still run.
    program = parse_script(
        "GLOBAL x 0\n"
        "THREAD 0\nACQ 1 2\n"
        "THREAD 1\nACQ 2 1\nREL 0 1\n"
        "THREAD 2\nWRITE x 5\nREL 1 1\n"
    )
    assert [o.text for o in enumerate_dc(program).outcomes] == ["STATE x=5"]
    for seed in range(20):
        assert run_on_runtime(program, seed=seed, delay=0).text == "STATE x=5"


# ----------------------------------------------------------------------
# canonical rendering and outcome precedence
# ----------------------------------------------------------------------


def _rev(names):
    table = global_addresses(names)
    return {addr: name for name, addr in table.items()}


def test_state_body_orders_globals_then_allocations():
    rev = _rev(["b", "a"])
    view = {
        Address(2, 1): 9,
        Address(0, 1): "hi",
        Address(0, 2): 4,
        Address(1, 3): None,
    }
    assert state_body(view, rev) == "a='hi' b=4 @1.3=None @2.1=9"


def test_race_body_sorts_addresses_and_stamp_pairs():
    rev = _rev(["x", "y"])
    conflicts = [
        Conflict(Address(0, 2), VersionStamp(2, 1), VersionStamp(1, 4)),
        Conflict(Address(0, 1), VersionStamp(1, 2), VersionStamp(2, 2)),
    ]
    assert race_body(conflicts, rev) == "x:1.2/2.2 y:1.4/2.1"


def test_pairing_body_deduplicates_and_sorts():
    assert pairing_body(["b wins", "a wins", "b wins"]) == "a wins; b wins"


def test_deadlock_body_sorts_and_deduplicates():
    assert deadlock_body([3, 1, 3]) == "1,3"


def test_outcome_precedence_follows_severity():
    rev = _rev(["x"])
    view = {Address(0, 1): 5}
    races = {2: (Conflict(Address(0, 1), VersionStamp(1, 1), VersionStamp(2, 1)),)}
    violations = ["acquire pairing violation at (1,1): (0,1), (2,1)"]
    doomed = [1]

    assert derive_outcome(view, races, violations, doomed, rev).kind == "RACE"
    assert derive_outcome(view, {}, violations, doomed, rev).kind == "PAIRING"
    assert derive_outcome(view, {}, [], doomed, rev).kind == "DEADLOCK"
    assert derive_outcome(view, {}, [], [], rev) == Outcome("STATE", "x=5")


def test_crashes_propagate_instead_of_becoming_outcomes():
    boom = ZeroDivisionError("bad expr")
    with pytest.raises(ZeroDivisionError):
        derive_outcome({}, {}, [], [], {}, crashes={1: boom})


def test_outcome_text_and_ordering():
    assert Outcome("STATE", "x=1").text == "STATE x=1"
    assert str(Outcome("DEADLOCK", "0,1")) == "DEADLOCK 0,1"
    ordered = sorted([Outcome("STATE", "b"), Outcome("RACE", "a"), Outcome("STATE", "a")])
    assert [o.text for o in ordered] == ["RACE a", "STATE a", "STATE b"]


# ----------------------------------------------------------------------
# enumeration limits
# ----------------------------------------------------------------------


def _program_with(nthreads=2, ops_per_thread=2):
    lines = ["GLOBAL x 0"]
    for t in range(nthreads):
        lines.append(f"THREAD {t}")
        lines += ["READ x r"] * ops_per_thread
    return parse_script("\n".join(lines))


@pytest.mark.parametrize("enumerate_fn", [enumerate_dc, enumerate_sc])
def test_thread_limit_is_enforced(enumerate_fn):
    with pytest.raises(LimitError) as info:
        enumerate_fn(_program_with(nthreads=MAX_THREADS + 1))
    assert str(MAX_THREADS) in str(info.value)


@pytest.mark.parametrize("enumerate_fn", [enumerate_dc, enumerate_sc])
def test_op_limit_is_enforced(enumerate_fn):
    with pytest.raises(LimitError) as info:
        enumerate_fn(_program_with(ops_per_thread=MAX_OPS + 1))
    assert str(MAX_OPS) in str(info.value)


@pytest.mark.parametrize("enumerate_fn", [enumerate_dc, enumerate_sc])
def test_state_budget_is_enforced(enumerate_fn):
    # Each script keeps several states under that model's reduction.
    name = "double_release" if enumerate_fn is enumerate_dc else "swap"
    with pytest.raises(LimitError):
        enumerate_fn(load_corpus(name), max_states=1)


def test_limits_leave_room_for_the_corpus():
    for name in corpus_names():
        program = load_corpus(name)
        assert program.nthreads <= MAX_THREADS
        assert program.max_ops() <= MAX_OPS
        assert enumerate_dc(program).states < DEFAULT_MAX_STATES
