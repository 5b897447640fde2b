"""Enumeration engines, canonical outcomes, and execution agreement.

EXPECTED_DC freezes the one canonical outcome of every bundled script;
these strings were derived by hand from the scripts before being pinned
and double-checked against both engines. The shared-store expectations
are additionally re-derived here by a test-local brute-force explorer
that shares no code with the enumerators, so a bug in the production
search cannot hide itself. The partial-order reduction is checked
against the same driver with its settle steps turned off, on the corpus
and on generated scripts. States share their per-thread parts
copy-on-write; every state's key is rebuilt from scratch once its
successors exist, to show that building them changed nothing shared.
"""
from __future__ import annotations

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from determ import oracle
from determ.errors import LimitError
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
    assert enumerate_dc(load_corpus("swap")).states == 14
    assert enumerate_dc(load_corpus("race")).states == 17


def test_shared_store_state_counts_are_stable():
    assert _unreduced(enumerate_sc, load_corpus("swap")).states == 51
    assert enumerate_sc(load_corpus("swap")).states == 13


@pytest.mark.parametrize("enumerate_fn", [enumerate_dc, enumerate_sc])
@pytest.mark.parametrize("name", sorted(EXPECTED_DC))
def test_reduction_keeps_every_corpus_outcome(name, enumerate_fn):
    program = load_corpus(name)
    reduced = enumerate_fn(program)
    full = _unreduced(enumerate_fn, program)
    assert reduced.outcomes == full.outcomes
    assert reduced.states <= full.states


def _drop_key_caches(st):
    """Forget every cached key part of a state, so key() rebuilds it."""
    if isinstance(st, oracle._DcState):
        for th in st.threads:
            th._snap = th._key = None
    else:
        st.lkeys = [None] * len(st.lkeys)


def _search(model, program, reduced):
    """The search of _explore, yielding each state with its successors
    as (stepped thread, successor) pairs once all of them are built."""
    with pytest.MonkeyPatch.context() as mp:
        if not reduced:
            mp.setattr(model, "settle", _no_settle)
        init = model(program)
        init.settle()
        seen = {init.key()}
        stack = [init]
        while stack:
            st = stack.pop()
            succ = []
            for t in st.runnable():
                nxt = st.clone()
                nxt.step(t)
                nxt.settle()
                succ.append((t, nxt))
                key = nxt.key()
                if key not in seen:
                    seen.add(key)
                    stack.append(nxt)
            yield st, succ


@pytest.mark.parametrize("reduced", [True, False])
@pytest.mark.parametrize("model", [oracle._DcState, oracle._ScState])
def test_building_successors_leaves_the_parent_unchanged(model, reduced):
    # Successors share the parent's threads (or locals) until they
    # change them; a change that reached a shared part would show here.
    for name in corpus_names():
        for st, _ in _search(model, load_corpus(name), reduced):
            before = st.key()
            _drop_key_caches(st)
            assert st.key() == before, name


@pytest.mark.parametrize("reduced", [True, False])
@pytest.mark.parametrize("model", [oracle._DcState, oracle._ScState])
def test_a_successor_shares_what_its_step_left_alone(model, reduced):
    parts = (lambda st: st.threads) if model is oracle._DcState else (lambda st: st.locals)
    shared = 0
    for name in corpus_names():
        for st, succ in _search(model, load_corpus(name), reduced):
            for t, nxt in succ:
                for u, (mine, theirs) in enumerate(zip(parts(nxt), parts(st))):
                    if u != t:
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


@st.composite
def _scripts(draw):
    """2-4 threads of at most 6 ops: matched REL/ACQ pairs, REL/ACQ (or
    their sets) with random, often mis-paired partners at seqs 1-3, and
    ALLOC, READ and WRITE.

    Ops are drawn in one global order, so a matched pair's ACQ follows
    its REL; only values read from globals feed expressions, so every
    expression stays integer arithmetic whatever the schedule.
    """
    nthreads = draw(st.integers(2, 4))
    body = [[] for _ in range(nthreads)]
    nsync = [0] * nthreads
    cells = [list(_GEN_GLOBALS) for _ in range(nthreads)]
    values = [[] for _ in range(nthreads)]
    for k in range(draw(st.integers(2, 6 * nthreads))):
        open_ = [t for t in range(nthreads) if len(body[t]) < 6]
        if len(open_) < 2:
            break
        t = draw(st.sampled_from(open_))
        kind = draw(st.sampled_from(_GEN_KINDS))
        if kind == "PAIR":
            u = draw(st.sampled_from([u for u in open_ if u != t]))
            nsync[t] += 1
            nsync[u] += 1
            body[t].append(f"REL {u} {nsync[u]}")
            body[u].append(f"ACQ {t} {nsync[t]}")
        elif kind in ("REL", "ACQ"):
            others = [u for u in range(nthreads) if u != t]
            labels = draw(
                st.lists(
                    st.tuples(st.sampled_from(others), st.integers(1, 3)),
                    min_size=1,
                    max_size=2,
                    unique=True,
                )
            )
            nsync[t] += 1
            if len(labels) == 1:
                body[t].append(f"{kind} {labels[0][0]} {labels[0][1]}")
            else:
                body[t].append(f"{kind}SET " + ",".join(f"{u}:{n}" for u, n in labels))
        elif kind == "ALLOC":
            cells[t].append(f"p{k}")
            body[t].append(f"ALLOC p{k}")
        elif kind == "READ":
            cell = draw(st.sampled_from(cells[t]))
            if cell in _GEN_GLOBALS:
                values[t].append(f"v{k}")
            body[t].append(f"READ {cell} v{k}")
        else:
            cell = draw(st.sampled_from(cells[t]))
            if values[t] and draw(st.booleans()):
                expr = f"{draw(st.sampled_from(values[t]))} + {draw(st.integers(1, 9))}"
            else:
                expr = str(draw(st.integers(0, 99)))
            body[t].append(f"WRITE {cell} {expr}")
    lines = ["GLOBAL g0 0", "GLOBAL g1 3"]
    for t, ops in enumerate(body):
        lines.append(f"THREAD {t}")
        lines.extend(ops)
    return "\n".join(lines) + "\n"


# No shrink phase: shrinking re-enumerates every candidate unreduced and
# can run for minutes, while an unshrunk script of at most 4 x 6 ops is
# already readable.
@settings(
    max_examples=60,
    derandomize=True,
    deadline=None,
    phases=(Phase.explicit, Phase.generate),
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_scripts())
def test_reduced_enumeration_matches_the_reference_and_the_runtime(text):
    program = parse_script(text)
    # (a) the reduction drops states, never outcomes, in both models
    for enumerate_fn in (enumerate_dc, enumerate_sc):
        reduced = enumerate_fn(program)
        assert reduced.outcomes == _unreduced(enumerate_fn, program).outcomes
    # (b) a unique DC outcome is what the real stack produces
    dc = enumerate_dc(program)
    if dc.unique:
        for seed in range(2):
            assert run_on_runtime(program, seed=seed, delay=0) == dc.outcomes[0]


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
    with pytest.raises(LimitError):
        enumerate_fn(load_corpus("swap"), max_states=3)


def test_limits_leave_room_for_the_corpus():
    for name in corpus_names():
        program = load_corpus(name)
        assert program.nthreads <= MAX_THREADS
        assert program.max_ops() <= MAX_OPS
        assert enumerate_dc(program).states < DEFAULT_MAX_STATES
