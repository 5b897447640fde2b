"""Fork/join, barriers, reductions, ordered regions, and tasks.

The load-bearing checks: conflicting sibling writes surface as one
deterministic DataRaceError payload regardless of timing seed; the
combining-tree barrier leaves members byte-identical to the quadratic
reference form on disjoint-write programs; reductions equal the
sequential left fold in rank order even for non-commutative operators;
misuse (drift, skipped sections, unwaited tasks, double waits) surfaces
as a typed error, never as a silent wrong answer.
"""
from __future__ import annotations

import collections
import gc
import itertools
import operator
import os
import random
import signal
import sys
import threading
import time
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from determ import runtime
from determ.errors import (
    ConfigError,
    DataRaceError,
    DeadlockError,
    DetermError,
    PairingError,
    UnallocatedError,
)
from determ.oracle import enumerate_dc
from determ.runtime import (
    Reduction,
    Runtime,
    StaticSchedule,
    _ordered_template,
    _pairwise_template,
    _tree_template,
    perturb_hook,
    tree_fold,
)
from determ.script import parse_script
from determ.store import Address, global_addresses
from determ.sync import SyncLabel


# ----------------------------------------------------------------------
# schedules and label planning
# ----------------------------------------------------------------------


def test_default_schedule_is_one_block_per_thread():
    s = StaticSchedule(10)
    assert s.chunk_size(4) == 3
    assert s.owned(0, 4) == [0, 1, 2]
    assert s.owned(3, 4) == [9]


def test_chunked_schedule_is_block_cyclic():
    s = StaticSchedule(8, chunk=1)
    assert s.owned(0, 2) == [0, 2, 4, 6]
    assert s.owned(1, 2) == [1, 3, 5, 7]
    assert [s.owner(i, 2) for i in range(8)] == [0, 1] * 4


@pytest.mark.parametrize("n,chunk", [(7, 1), (12, 2), (5, None), (9, 4)])
@pytest.mark.parametrize("nthreads", [1, 2, 3, 4])
def test_schedule_partitions_iteration_space(n, chunk, nthreads):
    s = StaticSchedule(n, chunk=chunk)
    seen = []
    for rank in range(nthreads):
        seen += s.owned(rank, nthreads)
    assert sorted(seen) == list(range(n))
    for i in range(n):
        assert i in s.owned(s.owner(i, nthreads), nthreads)


def test_schedule_rejects_bad_chunk():
    with pytest.raises(ConfigError):
        StaticSchedule(4, chunk=0).chunk_size(2)


_TEMPLATES = {
    "tree": _tree_template,
    "pairwise": lambda n: _pairwise_template(n, 1),
    "pairwise-folding": lambda n: _pairwise_template(n, 2),
    "ordered": lambda n: _ordered_template(StaticSchedule(11), n),
    "ordered-chunked": lambda n: _ordered_template(StaticSchedule(13, chunk=2), n),
}


@pytest.mark.parametrize("kind", sorted(_TEMPLATES))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
def test_barrier_plans_pair_every_channel_exactly_once(kind, n):
    steps, used = _TEMPLATES[kind](n)
    assert len(steps) == len(used) == n
    releases = {}
    acquires = set()
    for rank, mine in enumerate(steps):
        # Each rank takes its labels in order, and exactly the ones it uses.
        assert [off for _, off, _ in mine] == list(range(1, used[rank] + 1))
        for kind_, off, partners in mine:
            assert partners
            for partner in partners:
                if kind_ == "rel":
                    releases.setdefault((rank, off), set()).add(partner)
                else:
                    acquires.add(((rank, off), partner))
    # Every acquire step names a planned release aimed right back at it.
    for acq, rel in acquires:
        assert acq in releases[rel]
    # And every planned release target is acquired by exactly one step.
    planned = {(acq, rel) for rel, acqs in releases.items() for acq in acqs}
    assert planned == acquires
    # The template is a pure function of the team size.
    assert _TEMPLATES[kind](n) == (steps, used)


def _template_script(template, rounds, first):
    """``rounds`` rounds of ``template`` as a script, with rank ``first``
    as thread 0: before each round a rank writes its global, each step
    becomes a RELSET or ACQSET, and after it the rank reads the others'."""
    steps, used = template
    n = len(used)
    thread = [(rank - first) % n for rank in range(n)]
    lines = [f"GLOBAL g{rank} 0" for rank in range(n)]
    for t in range(n):
        rank = (t + first) % n
        lines.append(f"THREAD {t}")
        for r in range(rounds):
            lines.append(f"WRITE g{rank} {r + 1}")
            for kind, _, partners in steps[rank]:
                labels = ",".join(f"{thread[p]}:{r * used[p] + off}" for p, off in partners)
                lines.append(f"{'RELSET' if kind == 'rel' else 'ACQSET'} {labels}")
            lines += [f"READ g{p} v{p}" for p in range(n) if p != rank]
    return "\n".join(lines)


# Every case that fits the enumerator's MAX_OPS of 12 per thread.
_SCRIPTED_TEMPLATES = [(kind, n, 1) for kind in sorted(_TEMPLATES) for n in range(1, 5)] + [
    ("tree", n, 2) for n in (1, 2)
] + [("pairwise", n, 2) for n in range(1, 5)]


@pytest.mark.parametrize("kind, n, rounds", _SCRIPTED_TEMPLATES)
def test_collective_templates_have_one_outcome_over_every_schedule(kind, n, rounds):
    # enumerate_dc explores every schedule of the emitted script: a
    # template pairs exactly and cannot deadlock only if the outcome is
    # one STATE; after a barrier, thread 0 holds every rank's last write.
    for first in range(n):
        result = enumerate_dc(parse_script(_template_script(_TEMPLATES[kind](n), rounds, first)))
        assert len(result.outcomes) == 1, (first, result.outcomes)
        (outcome,) = result.outcomes
        assert outcome.kind == "STATE", (first, outcome)
        if not kind.startswith("ordered"):
            assert sorted(outcome.body.split()) == [f"g{p}={rounds}" for p in range(n)], first


def test_four_rank_tree_template_is_pinned():
    steps, used = _tree_template(4)
    assert used == (4, 2, 4, 2)
    assert steps[1] == (("rel", 1, ((0, 1),)), ("acq", 2, ((0, 4),)))


def test_pairwise_plan_consumes_two_labels_per_member():
    assert _pairwise_template(3, 1)[1] == (2, 2, 2)
    assert _pairwise_template(3, 2)[1] == (4, 4, 4)


def test_tree_fold_matches_left_fold_for_associative_ops():
    vals = ["a", "b", "c", "d", "e"]
    assert tree_fold(vals, operator.add) == "abcde"
    assert tree_fold([3], operator.mul) == 3
    with pytest.raises(ConfigError):
        tree_fold([], operator.add)


# ----------------------------------------------------------------------
# fork / join
# ----------------------------------------------------------------------


def test_fork_join_merges_disjoint_writes():
    rt = Runtime({"a": 0, "b": 0})
    root = rt.root()
    root.fork_join(
        [
            lambda ctx: ctx.write("a", 11),
            lambda ctx: ctx.write("b", 22),
        ]
    )
    assert (root.read("a"), root.read("b")) == (11, 22)
    rt.finish()


def test_children_see_parent_state_at_fork():
    rt = Runtime({"g": 7})
    seen = []
    rt.root().fork_join([lambda ctx: seen.append(ctx.read("g"))] * 3)
    assert seen == [7, 7, 7]
    rt.finish()


def test_fork_assigns_consecutive_ranks_and_tids():
    rt = Runtime()
    got = {}
    team = rt.root().fork([lambda c: got.setdefault(c.rank, c.tid)] * 3)
    rt.root().join(team)
    assert team.members == (1, 2, 3)
    assert got == {0: 1, 1: 2, 2: 3}
    rt.finish()


def test_join_is_reserved_to_the_parent():
    rt = Runtime()
    caught = []

    def nosy(ctx):
        try:
            ctx.join(ctx.team)
        except ConfigError as err:
            caught.append(str(err))

    rt.root().fork_join([nosy])
    assert caught and "forking thread" in caught[0]
    rt.finish()


def test_fork_rejects_empty_body_list():
    rt = Runtime()
    with pytest.raises(ConfigError):
        rt.root().fork([])
    rt.finish()


def test_fork_rejects_bad_reductions():
    rt = Runtime({"x": 0})
    add = Reduction("x", 0, operator.add)
    with pytest.raises(ConfigError):
        rt.root().fork([lambda c: None], reductions=[add, add])
    with pytest.raises(ConfigError):
        rt.root().fork(
            [lambda c: None], reductions=[Reduction("nope", 0, operator.add)]
        )
    rt.finish()


def _race_payload(seed):
    rt = Runtime({"x": 0}, seed=seed, delay=0.001)
    try:
        with pytest.raises(DataRaceError) as info:
            rt.root().fork_join(
                [
                    lambda ctx: ctx.write("x", 1),
                    lambda ctx: ctx.write("x", 2),
                ]
            )
        return str(info.value)
    finally:
        rt.finish()


def test_sibling_write_conflict_is_deterministic_across_seeds():
    payloads = {_race_payload(seed) for seed in range(5)}
    assert payloads == {"conflicting concurrent writes: @0.1[1.1|2.1]"}


def test_child_exception_resurfaces_at_join():
    rt = Runtime()
    boom = ValueError("child exploded")

    def bad(ctx):
        raise boom

    with pytest.raises(ValueError) as info:
        rt.root().fork_join([bad])
    assert info.value is boom
    rt.finish()


def test_most_specific_team_error_wins():
    # Rank 0 crashes with a plain exception; ranks 1 and 2 reach a data
    # race at their barrier. The race outranks both the crash and the
    # collateral deadlocks. Repeated a few times because the crash and
    # the nested race settle in genuinely different orders.
    for _ in range(3):
        rt = Runtime({"x": 0})

        def crasher(ctx):
            raise RuntimeError("unrelated crash")

        def racer(ctx):
            ctx.write("x", ctx.rank)
            ctx.barrier()

        # Put the racers in their own team so the barrier excludes the
        # crasher.
        def leader(ctx):
            ctx.fork_join([racer, racer])

        with pytest.raises(DataRaceError):
            rt.root().fork_join([crasher, leader])
        rt.finish()


def test_nested_teams_compose():
    rt = Runtime({"z": 0})

    def inner(ctx):
        ctx.contribute("z", ctx.rank + 1)

    def outer(ctx):
        ctx.fork_join([inner, inner], reductions=[Reduction("z", 0, operator.add)])

    rt.root().fork_join([outer])
    assert rt.root().read("z") == 3
    rt.finish()


@pytest.mark.parametrize("pause", [0, 0.2])
def test_a_crossed_team_is_reported_when_the_root_joins(pause):
    # Each member acquires a label the other never releases. Nobody is
    # doomed while the root can still run, so the payload does not depend
    # on when the root gets to its join: the root is always among the
    # doomed.
    rt = Runtime()
    root = rt.root()

    def body(ctx):
        other = ctx.team.members[1 - ctx.rank]
        ctx.ep.acquire(ctx.ws, SyncLabel(other, 2))

    team = root.fork([body, body])
    time.sleep(pause)
    assert rt.registry.doomed() == ()
    assert rt.errors == {}
    with pytest.raises(DeadlockError) as info:
        root.join(team)
    assert info.value.blocked == (0, 1, 2)
    assert {t: rt.errors[t].blocked for t in team.members} == {1: (0, 1, 2), 2: (0, 1, 2)}
    rt.finish()


def test_threads_that_go_on_after_a_deadlock_can_deadlock_again():
    # Members catch their doom and block again while the root waits for
    # them to unwind; then the root runs a second such team. Each verdict
    # dooms every thread blocked at that point, and the payload lists
    # every thread doomed so far.
    rt = Runtime()
    root = rt.root()

    def body(ctx):
        other = ctx.team.members[1 - ctx.rank]
        try:
            ctx.ep.acquire(ctx.ws, SyncLabel(other, 2))
        except DeadlockError:
            ctx.ep.acquire(ctx.ws, SyncLabel(other, 3))

    for members, doomed in (((1, 2), (0, 1, 2)), ((3, 4), (0, 1, 2, 3, 4))):
        with pytest.raises(DeadlockError) as info:
            root.fork_join([body, body])
        assert info.value.blocked == doomed
        assert [rt.errors[t].blocked for t in members] == [doomed, doomed]
    rt.finish()


def test_each_satisfied_acquire_wakes_its_waiter_at_most_once():
    rt = Runtime(seed=3, delay=0.0005)
    waits = collections.Counter()
    claims = collections.Counter()

    class CountingCondition(threading.Condition):
        def wait(self, timeout=None):
            waits[threading.get_ident()] += 1
            return super().wait(timeout)

    reg = rt.registry
    reg._cond = CountingCondition()
    claim = reg.claim

    def counting_claim(acq, rels, tid):
        claims[threading.get_ident()] += 1
        return claim(acq, rels, tid)

    reg.claim = counting_claim

    def body(ctx):
        for _ in range(20):
            ctx.barrier()

    rt.root().fork_join([body] * 4)
    me = threading.get_ident()
    # The root blocks in its join until the last terminal release lands.
    assert (waits[me], claims[me]) == (1, 1)
    assert all(waits[t] <= claims[t] for t in waits)
    rt.finish()


def test_runtime_finish_is_idempotent():
    rt = Runtime()
    rt.root().fork_join([lambda c: None])
    rt.finish()
    rt.finish()


def test_unknown_global_is_a_config_error():
    rt = Runtime({"x": 0})
    with pytest.raises(ConfigError):
        rt.root().read("y")
    rt.finish()


def test_thread_ctx_ops_pause_once_and_raise_the_store_errors():
    # read and write resolve the name, pause and read the cell map in one
    # frame: each op still draws exactly one perturbation, and a bad name
    # or address fails with the same error as through the workspace.
    rt = Runtime({"x": 0})
    root = rt.root()
    pauses = []
    root._hook = lambda: pauses.append(1)
    x = rt.names["x"]
    root.write("x", 5)
    root.write(x, 6)
    assert root.read("x") == root.read(x) == 6
    mine = root.alloc(7)
    assert root.read(mine) == 7
    assert len(pauses) == 6
    for op in (lambda: root.read("y"), lambda: root.write("y", 1)):
        with pytest.raises(ConfigError, match=r"^unknown global 'y'$"):
            op()
    with pytest.raises(ConfigError):
        root.read((x.owner, x.slot))  # a bare tuple is a name, not an address
    missing = Address(5, 1)
    for op in (lambda: root.read(missing), lambda: root.write(missing, 1)):
        with pytest.raises(UnallocatedError) as info:
            op()
        assert info.value.addr == missing
        assert str(info.value) == "unallocated address @5.1"
    assert len(pauses) == 11
    rt.finish()


def test_global_names_are_the_root_workspace_addresses():
    globals_ = {f"v{i:02d}": i for i in range(17)}
    rt = Runtime(globals_)
    ws = rt.root().ws
    assert rt.names == global_addresses(globals_)
    assert sorted(rt.names.values()) == sorted(ws.cells)
    assert {name: ws.read(addr) for name, addr in rt.names.items()} == globals_
    # Root allocations continue after the global slots.
    assert rt.root().alloc(None) == Address(0, len(globals_) + 1)
    rt.finish()


def test_perturbation_delays_are_a_pure_function_of_seed_and_tid(monkeypatch):
    slept = []
    monkeypatch.setattr(time, "sleep", slept.append)
    hook = perturb_hook(5, 3, 0.5)
    for _ in range(4):
        hook()
    rng = random.Random(5 * 1_000_003 + 3 * 7919 + 17)
    assert slept == [rng.random() * 0.5 for _ in range(4)]
    assert perturb_hook(None, 3, 0.5) is None
    assert perturb_hook(5, 3, 0.0) is None


# ----------------------------------------------------------------------
# barriers
# ----------------------------------------------------------------------


def _barrier_states(algorithm, n, seed):
    """Disjoint-write rounds separated by barriers; returns the members'
    canonical state bytes captured right after the last barrier."""
    names = {f"g{r}": 0 for r in range(n)}
    rt = Runtime(names)
    states = [None] * n
    values = [None] * n

    def body(ctx):
        rng = random.Random(seed * 31 + ctx.rank)
        for _ in range(2):
            for _ in range(rng.randrange(1, 4)):
                ctx.write(f"g{ctx.rank}", rng.randrange(1000))
            ctx.barrier(algorithm=algorithm)
        states[ctx.rank] = ctx.ws.state_bytes()
        values[ctx.rank] = ctx.read(f"g{(ctx.rank + 1) % n}")

    rt.root().fork_join([body] * n)
    rt.finish()
    return states, values


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_tree_barrier_matches_pairwise_reference(n):
    for seed in range(3):
        tree, tree_vals = _barrier_states("tree", n, seed)
        flat, flat_vals = _barrier_states("pairwise", n, seed)
        assert tree == flat
        assert tree_vals == flat_vals


def test_barrier_publishes_writes_to_all_members():
    rt = Runtime({"a": 0, "b": 0})
    seen = [None, None]

    def body(ctx):
        ctx.write("a" if ctx.rank == 0 else "b", ctx.rank + 10)
        ctx.barrier()
        seen[ctx.rank] = (ctx.read("a"), ctx.read("b"))

    rt.root().fork_join([body, body])
    assert seen == [(10, 11), (10, 11)]
    rt.finish()


def test_barrier_outside_team_is_rejected():
    rt = Runtime()
    with pytest.raises(ConfigError):
        rt.root().barrier()
    rt.finish()


def test_unknown_barrier_algorithm_is_rejected():
    rt = Runtime()
    errs = []

    def body(ctx):
        try:
            ctx.barrier(algorithm="gossip")
        except ConfigError as err:
            errs.append(str(err))

    rt.root().fork_join([body, body])
    assert len(errs) == 2
    rt.finish()


def test_uniform_manual_sync_between_barriers_is_absorbed():
    rt = Runtime({"x": 0})
    ok = []

    def body(ctx):
        ctx.barrier()
        # A hand-rolled self-channel: release to my own next acquire.
        seq = ctx.ep.seq
        ctx.ep.release(ctx.ws, SyncLabel(ctx.tid, seq + 2))
        ctx.ep.acquire(ctx.ws, SyncLabel(ctx.tid, seq + 1))
        ctx.barrier()
        ok.append(ctx.rank)

    rt.root().fork_join([body, body, body])
    assert sorted(ok) == [0, 1, 2]
    rt.finish()


def test_nonuniform_sync_between_barriers_never_passes_silently():
    rt = Runtime({"x": 0})
    reached = []

    def body(ctx):
        if ctx.rank == 0:
            seq = ctx.ep.seq
            ctx.ep.release(ctx.ws, SyncLabel(ctx.tid, seq + 2))
            ctx.ep.acquire(ctx.ws, SyncLabel(ctx.tid, seq + 1))
        ctx.barrier()
        reached.append(ctx.rank)

    with pytest.raises(DetermError):
        rt.root().fork_join([body, body])
    assert reached == []
    rt.finish()


# ----------------------------------------------------------------------
# reductions
# ----------------------------------------------------------------------


def test_sum_reduction_over_four_members():
    rt = Runtime({"total": 0})

    def body(ctx):
        ctx.contribute("total", sum(range(ctx.rank, 100, 4)))

    rt.root().fork_join([body] * 4, reductions=[Reduction("total", 0, operator.add)])
    assert rt.root().read("total") == sum(range(100))
    rt.finish()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_concat_reduction_equals_left_fold_in_rank_order(n):
    rt = Runtime({"tag": ""})

    def body(ctx):
        ctx.contribute("tag", f"r{ctx.rank}.")

    rt.root().fork_join([body] * n, reductions=[Reduction("tag", "", operator.add)])
    assert rt.root().read("tag") == "".join(f"r{r}." for r in range(n))
    rt.finish()


def test_max_reduction_and_silent_members():
    rt = Runtime({"peak": 0})

    def body(ctx):
        if ctx.rank % 2:
            ctx.contribute("peak", 10 * ctx.rank)

    rt.root().fork_join([body] * 4, reductions=[Reduction("peak", 0, max)])
    assert rt.root().read("peak") == 30
    rt.finish()


def test_contributions_accumulate_within_a_member():
    rt = Runtime({"total": 0})

    def body(ctx):
        for k in range(3):
            ctx.contribute("total", k + ctx.rank)

    rt.root().fork_join([body] * 2, reductions=[Reduction("total", 0, operator.add)])
    assert rt.root().read("total") == (0 + 1 + 2) + (1 + 2 + 3)
    rt.finish()


@pytest.mark.parametrize("algorithm", ["tree", "pairwise"])
def test_barrier_reduction_publishes_fold_to_every_member(algorithm):
    rt = Runtime({"total": 0})
    seen = [None] * 4

    def body(ctx):
        ctx.contribute("total", ctx.rank + 1)
        ctx.barrier(algorithm=algorithm)
        seen[ctx.rank] = ctx.read("total")

    rt.root().fork_join([body] * 4, reductions=[Reduction("total", 0, operator.add)])
    assert seen == [10, 10, 10, 10]
    # At join the accumulators were reset at the barrier, so the final
    # fold over them is the identity and leaves the published value.
    assert rt.root().read("total") == 10
    rt.finish()


@pytest.mark.parametrize("algorithm", ["tree", "pairwise"])
def test_barrier_reduction_rounds_compound(algorithm):
    # Each fold point absorbs the variable's current value, so rounds
    # accumulate; idle rounds (nothing contributed) change nothing.
    rt = Runtime({"tag": ""})
    rounds = []

    def body(ctx):
        ctx.contribute("tag", f"a{ctx.rank}")
        ctx.barrier(algorithm=algorithm)
        if ctx.rank == 0:
            rounds.append(ctx.read("tag"))
        ctx.barrier(algorithm=algorithm)
        ctx.contribute("tag", f"b{ctx.rank}")
        ctx.barrier(algorithm=algorithm)
        if ctx.rank == 0:
            rounds.append(ctx.read("tag"))

    rt.root().fork_join([body] * 3, reductions=[Reduction("tag", "", operator.add)])
    assert rounds == ["a0a1a2", "a0a1a2b0b1b2"]
    assert rt.root().read("tag") == "a0a1a2b0b1b2"
    rt.finish()


@pytest.mark.parametrize("n", range(1, 10))
def test_every_construct_folds_over_the_same_tree(n):
    # A combine that is not associative shows the fold's shape: barriers
    # of both forms and a join must all give the variable's current value
    # combined with the adjacent-pairing fold of the members' partials.
    def combine(a, b):
        return f"({a}{b})"

    red = Reduction("s", "", combine)
    tags = [chr(ord("a") + r) for r in range(n)]
    expected = combine("x", tree_fold([combine("", t) for t in tags], combine))
    got = {}
    for algorithm in ("tree", "pairwise"):
        rt = Runtime({"s": "x"})
        seen = [None] * n

        def body(ctx):
            ctx.contribute("s", tags[ctx.rank])
            ctx.barrier(algorithm=algorithm)
            seen[ctx.rank] = ctx.read("s")

        rt.root().fork_join([body] * n, [red])
        assert seen == [seen[0]] * n
        got[algorithm] = seen[0]
        rt.finish()
    rt = Runtime({"s": "x"})
    rt.root().fork_join([lambda ctx: ctx.contribute("s", tags[ctx.rank])] * n, [red])
    got["join"] = rt.root().read("s")
    rt.finish()
    assert got == dict.fromkeys(["tree", "pairwise", "join"], expected)


def test_writing_the_reduction_variable_inside_region_is_rejected():
    rt = Runtime({"total": 0})

    def body(ctx):
        if ctx.rank == 0:
            ctx.write("total", 99)
        ctx.contribute("total", 1)

    with pytest.raises(ConfigError) as info:
        rt.root().fork_join(
            [body, body], reductions=[Reduction("total", 0, operator.add)]
        )
    assert "written inside the region" in str(info.value)
    rt.finish()


def _member_writes(rank, algorithm):
    def body(ctx):
        if ctx.rank == rank:
            ctx.write("total", 99)
        ctx.contribute("total", 1)
        ctx.barrier(algorithm=algorithm)

    return body


def _task_writes(ctx):
    ctx.taskwait(ctx.spawn_task(lambda t: t.write("total", 7)))
    ctx.contribute("total", 1)


def _nested_member_writes(ctx):
    ctx.fork_join([lambda c: None, lambda c: c.write("total", 7)])
    ctx.contribute("total", 1)


@pytest.mark.parametrize(
    "body, writer",
    [
        # Rank 0 folds at the barrier: its own write may not seed the fold.
        (_member_writes(0, "tree"), 1),
        (_member_writes(0, "pairwise"), 1),
        (_member_writes(1, "tree"), 2),
        (_member_writes(1, "pairwise"), 2),
        # Both members' tasks write it: the first task's write is
        # reported, not a race between the two.
        (_task_writes, 4294967297),
        # The inner team declares no reduction; it inherits the outer one's.
        (_nested_member_writes, 4294967298),
    ],
    ids=["rank0-tree", "rank0-pairwise", "rank1-tree", "rank1-pairwise", "task", "nested"],
)
def test_a_reduction_variable_is_read_only_in_its_team(body, writer):
    # The write raises in the writer, and the join reports it once the
    # rest of the team is doomed or done.
    for seed in (None, 1, 2):
        rt = Runtime({"total": 0}, seed=seed, delay=0.0005)
        with pytest.raises(ConfigError) as info:
            rt.root().fork_join([body] * 2, [Reduction("total", 0, operator.add)])
        assert str(info.value) == "reduction variable 'total' was written inside the region"
        assert rt.errors[writer] is info.value, seed
        rt.finish()


def test_the_parent_may_write_the_reduction_variable_before_it_joins():
    # The parent is outside its team: its own write seeds the join's fold.
    for seed in (None, 1, 2):
        rt = Runtime({"total": 0}, seed=seed, delay=0.0005)
        root = rt.root()
        team = root.fork(
            [lambda ctx: ctx.contribute("total", 1)] * 2, [Reduction("total", 0, operator.add)]
        )
        root.write("total", 50)
        root.join(team)
        assert root.read("total") == 52, seed
        rt.finish()


def test_contribute_requires_a_declared_reduction():
    rt = Runtime({"x": 0})
    errs = []

    def body(ctx):
        try:
            ctx.contribute("x", 1)
        except ConfigError as err:
            errs.append(str(err))

    rt.root().fork_join([body])
    assert errs and "no reduction declared" in errs[0]
    rt.finish()


# ----------------------------------------------------------------------
# ordered regions and loops
# ----------------------------------------------------------------------


def test_ordered_sections_run_in_global_iteration_order():
    rt = Runtime()
    log = []
    lock = threading.Lock()
    schedule = StaticSchedule(8, chunk=1)

    def body(ctx):
        region = ctx.ordered_region(schedule)
        for i in region.my_iterations():
            with region.section(i):
                with lock:
                    log.append(i)

    rt.root().fork_join([body] * 2)
    assert log == list(range(8))
    rt.finish()


@pytest.mark.parametrize("chunk,threads", [(2, 2), (3, 3), (None, 4)])
def test_ordered_sections_cover_every_iteration_once(chunk, threads):
    rt = Runtime()
    log = []
    lock = threading.Lock()
    schedule = StaticSchedule(12, chunk=chunk)

    def body(ctx):
        region = ctx.ordered_region(schedule)
        for i in region.my_iterations():
            with region.section(i):
                with lock:
                    log.append(i)

    rt.root().fork_join([body] * threads)
    assert log == list(range(12))
    rt.finish()


def test_section_misuse_is_rejected():
    rt = Runtime()
    errs = []

    def body(ctx):
        region = ctx.ordered_region(StaticSchedule(4, chunk=1))
        if ctx.rank == 0:
            for bad in (99, 1):  # out of range; owned by rank 1
                try:
                    with region.section(bad):
                        pass
                except ConfigError as err:
                    errs.append(str(err))
            with region.section(0):
                pass
            with region.section(2):
                pass
        else:
            with region.section(1):
                pass
            with region.section(3):
                pass

    rt.root().fork_join([body, body])
    assert len(errs) == 2
    rt.finish()


def test_descending_sections_are_rejected():
    rt = Runtime()
    errs = []

    def body(ctx):
        region = ctx.ordered_region(StaticSchedule(4))  # rank 0 owns 0,1
        with region.section(1):
            pass
        try:
            with region.section(0):
                pass
        except ConfigError as err:
            errs.append(str(err))
        region2 = ctx.ordered_region(StaticSchedule(2))
        with region2.section(0), region2.section(1):
            pass

    rt.root().fork_join([body])
    assert errs and "ascending" in errs[0]
    rt.finish()


def test_skipping_an_owned_section_surfaces_as_deadlock():
    rt = Runtime()

    def body(ctx):
        region = ctx.ordered_region(StaticSchedule(4, chunk=1))
        for i in region.my_iterations():
            if ctx.rank == 0 and i == 2:
                continue  # never runs; rank 1's section 3 waits forever
            with region.section(i):
                pass

    with pytest.raises(DeadlockError):
        rt.root().fork_join([body, body])
    rt.finish()


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_drift_inside_an_ordered_region_is_reported_by_both_members(seed):
    rt = Runtime(seed=seed, delay=0.0005)

    def body(ctx):
        region = ctx.ordered_region(StaticSchedule(4, chunk=1))
        # One matched exchange the region did not plan: each member's
        # birth acquire was seq 1, so both labels are seq 2.
        peer = ctx.team.members[1 - ctx.rank]
        if ctx.rank == 0:
            ctx.ep.release(ctx.ws, SyncLabel(peer, 2))
        else:
            ctx.ep.acquire(ctx.ws, SyncLabel(peer, 2))
        for i in region.my_iterations():
            with region.section(i):
                pass

    with pytest.raises(ConfigError) as info:
        rt.root().fork_join([body, body])
    drift = "synchronization drift in ordered region: planned ({},2), next actual seq 3"
    assert str(info.value) == drift.format(1)
    assert {t: str(err) for t, err in rt.errors.items()} == {
        1: drift.format(1),
        2: drift.format(2),
    }
    rt.finish()


def test_parallel_for_visits_exactly_the_owned_iterations():
    rt = Runtime()
    seen = {0: [], 1: [], 2: []}
    schedule = StaticSchedule(10, chunk=2)

    def body(ctx):
        ctx.parallel_for(schedule, lambda i: seen[ctx.rank].append(i))

    rt.root().fork_join([body] * 3)
    for rank in seen:
        assert seen[rank] == schedule.owned(rank, 3)
    rt.finish()


# ----------------------------------------------------------------------
# tasks
# ----------------------------------------------------------------------


def test_every_member_and_task_holds_every_global():
    # The store's contract: a workspace is seeded with the globals or
    # empty until its first acquire, the birth acquire of a member or a
    # task, adopts a whole diff.
    rt = Runtime({"a": 1, "b": 2, "c": 3})
    globals_ = set(rt.names.values())
    held = []

    def task(ctx):
        held.append(globals_ <= ctx.ws.cells.keys())

    def body(ctx):
        held.append(globals_ <= ctx.ws.cells.keys())
        ctx.taskwait(ctx.spawn_task(task))

    rt.root().fork_join([body, body])
    assert held == [True] * 4
    rt.finish()


def test_task_returns_its_result_to_the_waiter():
    rt = Runtime({"base": 5})
    handle = rt.root().spawn_task(lambda ctx: ctx.read("base") + 1)
    assert rt.root().taskwait(handle) == 6
    rt.finish()


def test_task_sees_state_at_spawn_not_at_wait():
    rt = Runtime({"g": 10})
    root = rt.root()
    handle = root.spawn_task(lambda ctx: ctx.read("g"))
    root.write("g", 99)
    assert root.taskwait(handle) == 10
    assert root.read("g") == 99
    rt.finish()


def test_tasks_may_be_waited_out_of_spawn_order():
    rt = Runtime()
    handles = [rt.root().spawn_task(lambda ctx, k=k: k * k) for k in range(4)]
    results = [rt.root().taskwait(handles[i]) for i in (2, 0, 3, 1)]
    assert results == [4, 0, 9, 1]
    rt.finish()


def test_task_pipelines_pass_handles_between_tasks():
    rt = Runtime({"seed": 6})
    root = rt.root()
    produce = root.spawn_task(lambda ctx: ctx.read("seed") + 1)

    def scale(ctx):
        return ctx.taskwait(produce) * 7

    consume = root.spawn_task(scale)
    assert root.taskwait(consume) == 49
    rt.finish()


def test_waiting_twice_is_a_pairing_violation():
    rt = Runtime()
    handle = rt.root().spawn_task(lambda ctx: 1)
    assert rt.root().taskwait(handle) == 1
    with pytest.raises(PairingError) as info:
        rt.root().taskwait(handle)
    assert info.value.kind == "release"
    assert info.value.contested == handle.completion
    rt.finish()


def test_claimed_terminal_diffs_are_not_retained():
    rt = Runtime({"g": 1})
    root = rt.root()
    handle = root.spawn_task(lambda ctx: ctx.read("g"))
    assert root.taskwait(handle) == 1
    waited = SyncLabel(root.tid, root.ep.seq)
    team = root.fork([lambda ctx: None] * 2)
    root.join(team)
    joined = SyncLabel(root.tid, root.ep.seq)
    claimed = {handle.completion: waited}
    claimed.update({SyncLabel(t, 0): joined for t in team.members})
    assert not set(claimed) & set(rt.registry._floating)
    # A second claim of any of those labels is still a violation.
    for label, first in claimed.items():
        with pytest.raises(PairingError) as info:
            root.ep.acquire(root.ws, label)
        assert info.value.kind == "release"
        assert info.value.contested == label
        assert info.value.claimants == (first, SyncLabel(root.tid, root.ep.seq))
    rt.finish()


def test_task_crash_resurfaces_at_taskwait():
    rt = Runtime()
    boom = KeyError("lost")

    def bad(ctx):
        raise boom

    handle = rt.root().spawn_task(bad)
    with pytest.raises(KeyError) as info:
        rt.root().taskwait(handle)
    assert info.value is boom
    rt.finish()


def test_member_tasks_must_be_waited_before_join():
    rt = Runtime()

    def body(ctx):
        ctx.spawn_task(lambda t: 1)  # fire and forget

    with pytest.raises(ConfigError) as info:
        rt.root().fork_join([body])
    assert "never waited" in str(info.value)
    rt.finish()


def test_a_failed_member_leaves_no_unwaited_task():
    # The task's terminal diff stays unclaimed: a handle that leaked out
    # of the member could still wait it.
    rt = Runtime()

    def body(ctx):
        ctx.spawn_task(lambda t: 1)
        raise ValueError("member failed")

    with pytest.raises(ValueError):
        rt.root().fork_join([body])
    assert rt._unwaited == set()
    rt.finish()


def test_an_unwind_that_times_out_is_a_runtime_error(monkeypatch):
    # A doomed join whose children never settle may not go on to read a
    # partial rt.errors.
    rt = Runtime(seed=1, delay=0.0005)
    monkeypatch.setattr(rt.registry, "wait_unwound", lambda *args, **kwargs: False)
    with pytest.raises(RuntimeError, match="threads failed to settle"):
        rt.root().fork_join([lambda ctx: ctx.ep.acquire(ctx.ws, SyncLabel(0, 100))] * 2)
    monkeypatch.undo()
    assert rt.registry.wait_unwound([1, 2], timeout=10.0)
    rt.finish()


def test_waited_tasks_leave_no_bookkeeping():
    rt = Runtime()
    root = rt.root()
    for k in range(200):
        handle = root.spawn_task(lambda ctx, k=k: k)
        assert root.taskwait(handle) == k
    assert rt._unwaited == set()
    rt.finish()


def test_finished_threads_leave_the_registry_lifecycle_sets():
    rt = Runtime({"total": 0})
    root = rt.root()
    reg = rt.registry

    def sizes():
        return {k: len(v) for k, v in vars(reg).items() if isinstance(v, set)}

    before = sizes()
    for k in range(200):
        assert root.taskwait(root.spawn_task(lambda ctx, k=k: k)) == k
    for _ in range(50):
        root.fork_join(
            [lambda ctx: ctx.contribute("total", 1)] * 4,
            [Reduction("total", 0, operator.add)],
        )
    assert root.read("total") == 200
    # A terminal release comes before its thread is marked done.
    assert reg.wait_unwound(range(1, root._children + 1), timeout=10.0)
    assert sizes() == before
    rt.finish()


def test_an_aged_runtime_keeps_flat_sync_state():
    # Each epoch: a 4-member reduction fork_join whose members also write
    # globals and spawn and wait one task each, then one task. Finished
    # members and tasks retire, joined accumulators are dropped, and only
    # the task result cells (public through TaskHandle.result) stay, so
    # the root's live knowledge, its index, its summary of retired
    # writers and its other cells must not grow with the Runtime's age.
    rt = Runtime({"total": 0, "g0": 0, "g1": 0, "g2": 0, "g3": 0})
    root = rt.root()
    results = set()

    def body(ctx):
        ctx.write(f"g{ctx.rank}", ctx.read(f"g{ctx.rank}") + ctx.rank)
        ctx.contribute("total", ctx.rank + 1)
        handle = ctx.spawn_task(lambda t: 1)
        assert ctx.taskwait(handle) == 1
        results.add(handle.result)

    def counts():
        ws = root.ws
        return (
            len(ws._live),
            len(ws._index),
            len(ws._summary),
            len(ws.cells.keys() - results),
        )

    at_50 = None
    for epoch in range(1, 501):
        root.fork_join([body] * 4, [Reduction("total", 0, operator.add)])
        handle = root.spawn_task(lambda ctx: ctx.read("total"))
        assert root.taskwait(handle) == root.read("total") == 10 * epoch
        results.add(handle.result)
        if epoch == 50:
            at_50 = counts()
    assert counts() == at_50
    assert root.read("g3") == 3 * 500
    root.ws.check_invariants()
    rt.finish()


def test_members_that_spawn_many_tasks_keep_a_short_summary():
    # Each member absorbs its own tasks, so its summary of retired
    # writers holds one count per absorber, however many tasks retire.
    rt = Runtime()
    summaries = {}

    def member(ctx):
        for k in range(300):
            assert ctx.taskwait(ctx.spawn_task(lambda t, k=k: k)) == k
        ctx.ws.check_invariants()
        summaries[ctx.rank] = dict(ctx.ws._summary)

    rt.root().fork_join([member] * 2)
    rt.finish()
    assert len(summaries) == 2
    assert all(len(summary) <= 2 for summary in summaries.values()), summaries


def test_teams_and_tasks_finish_under_rapid_thread_switching():
    # More threads than cores, switching every 10 us: a lost wakeup or a
    # worker handed two jobs shows up as a stall or a wrong total.
    def program(out):
        rt = Runtime({"total": 0})

        def body(ctx):
            for _ in range(10):
                handle = ctx.spawn_task(lambda task: 1)
                ctx.contribute("total", ctx.taskwait(handle))
                ctx.barrier()

        rt.root().fork_join([body] * 8, [Reduction("total", 0, operator.add)])
        out.append(rt.root().read("total"))
        rt.finish()

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        out = []
        runner = threading.Thread(target=program, args=(out,), daemon=True)
        runner.start()
        runner.join(60.0)
        assert not runner.is_alive(), "the program stalled"
    finally:
        sys.setswitchinterval(old)
    assert out == [80]


def _parked_workers(pool, at_least=1):
    deadline = time.monotonic() + 10.0
    while len(pool._idle) < at_least:
        assert time.monotonic() < deadline, "workers never parked"
        time.sleep(0.001)
    return len(pool._idle)


def test_finished_threads_are_not_retained(monkeypatch):
    pool = runtime._Workers()
    monkeypatch.setattr(runtime, "_WORKERS", pool)
    rt = Runtime()
    root = rt.root()
    for k in range(200):
        handle = root.spawn_task(lambda ctx, k=k: k)
        assert root.taskwait(handle) == k
    rt.finish()
    # One task runs at a time, so finished workers are handed the next.
    assert _parked_workers(pool) <= 2


def test_parked_workers_do_not_keep_a_finished_runtime_alive(monkeypatch):
    pool = runtime._Workers()
    monkeypatch.setattr(runtime, "_WORKERS", pool)
    rt = Runtime({"x": 0})
    rt.root().fork_join([lambda ctx: ctx.write("x", 1)])
    rt.root().taskwait(rt.root().spawn_task(lambda ctx: ctx.read("x")))
    rt.finish()
    _parked_workers(pool)
    ref = weakref.ref(rt)
    del rt
    gc.collect()
    assert ref() is None


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_workers():
    rt = Runtime()
    rt.root().taskwait(rt.root().spawn_task(lambda ctx: 1))
    rt.finish()
    _parked_workers(runtime._WORKERS)
    pid = os.fork()
    if pid == 0:  # the child: its inherited idle workers do not exist
        code = 1
        try:
            child = Runtime()
            code = 0 if child.root().taskwait(child.root().spawn_task(lambda ctx: 7)) == 7 else 1
            child.finish()
        finally:
            os._exit(code)
    deadline = time.monotonic() + 20.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child stalled")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0


def test_members_of_a_fork_that_failed_before_launch_hold_nobody_up():
    rt = Runtime()
    root = rt.root()

    def refuse():
        raise RuntimeError("refused")

    root.ep._hook = refuse  # fails the fork's birth release
    with pytest.raises(RuntimeError):
        root.fork([lambda ctx: None] * 2)
    root.ep._hook = None
    # Members 1 and 2 exist but never run: a task waiting on one of them
    # is doomed along with its waiter, and finish waits for neither.
    handle = root.spawn_task(lambda ctx: ctx.ep.acquire(ctx.ws, SyncLabel(1, 2)))
    with pytest.raises(DeadlockError) as info:
        root.taskwait(handle)
    assert info.value.blocked == (0, 3)
    rt.finish()


def test_a_failed_spawn_leaves_no_bookkeeping():
    # The birth release fails, so the task never runs: neither the
    # member's team join nor the root may count it as spawned.
    rt = Runtime()
    root = rt.root()

    def refuse():
        raise RuntimeError("refused")

    def body(ctx):
        ctx.ep._hook = refuse
        with pytest.raises(RuntimeError):
            ctx.spawn_task(lambda t: 1)
        ctx.ep._hook = None

    root.fork_join([body])
    assert rt._unwaited == set()
    root.ep._hook = refuse
    with pytest.raises(RuntimeError):
        root.spawn_task(lambda t: 1)
    root.ep._hook = None
    assert rt._unwaited == set()
    rt.finish()


def test_a_doomed_taskwait_leaves_no_bookkeeping():
    rt = Runtime()

    def body(ctx):
        handle = ctx.spawn_task(lambda t: t.ep.acquire(t.ws, SyncLabel(0, 100)))
        with pytest.raises(DeadlockError):
            ctx.taskwait(handle)

    with pytest.raises(DeadlockError):
        rt.root().fork_join([body])
    assert rt._unwaited == set()
    rt.finish()


def test_join_and_taskwait_follow_one_deadlock_rule():
    # The child is doomed with its waiter, then spawns a task that blocks
    # and blocks again itself, so its second doom lists the task too.
    # The waiter reports its own doom, not the child's later one.
    def child(ctx):
        try:
            ctx.ep.acquire(ctx.ws, SyncLabel(0, 100))
        except DeadlockError:
            ctx.taskwait(ctx.spawn_task(lambda t: t.ep.acquire(t.ws, SyncLabel(0, 101))))

    waits = {
        "join": lambda root: root.fork_join([child]),
        "taskwait": lambda root: root.taskwait(root.spawn_task(child)),
    }
    for wait, seed in itertools.product(waits, (None, 1, 2)):
        rt = Runtime(seed=seed, delay=0.001)
        with pytest.raises(DeadlockError) as info:
            waits[wait](rt.root())
        assert info.value.blocked == (0, 1), (wait, seed)
        assert rt.errors[1].blocked == (0, 1, 4294967297), (wait, seed)
        rt.finish()


def _spawns_task(ctx):
    ctx.taskwait(ctx.spawn_task(lambda t, r=ctx.rank: t.write("x", r + 1)))
    ctx.barrier()


def _forks_pair(ctx):
    ctx.fork_join([lambda c: None, lambda c, r=ctx.rank: c.write("x", r + 1)])
    ctx.barrier()


@pytest.mark.parametrize(
    "member, payload",
    [
        (_spawns_task, "@0.1[4294967297.2|8589934593.2]"),
        (_forks_pair, "@0.1[4294967298.1|8589934594.1]"),
    ],
)
def test_concurrent_spawns_name_their_children_alike_under_every_schedule(member, payload):
    # Two members start children between the same two collectives; the
    # k-th child of thread t is t * 2**32 + k, whichever spawns first.
    for seed in (None, 1, 2, 3, 4, 5):
        rt = Runtime({"x": 0}, seed=seed, delay=0.001)
        with pytest.raises(DataRaceError) as info:
            rt.root().fork_join([member] * 2)
        assert str(info.value) == f"conflicting concurrent writes: {payload}", seed
        rt.finish()


def test_a_thread_starts_fewer_than_2_32_children():
    rt = Runtime()
    root = rt.root()
    root._children = 2**32 - 2
    with pytest.raises(ConfigError, match="children"):
        root.fork([lambda ctx: None] * 2)
    handle = root.spawn_task(lambda ctx: ctx.tid)
    assert root.taskwait(handle) == handle.tid == 2**32 - 1
    with pytest.raises(ConfigError, match="children"):
        root.spawn_task(lambda ctx: None)
    rt.finish()


# A thread's program: writes of "x" or "y", tasks it spawns and waits at
# its end, and nested fork_joins, in any order and nesting.
_nest_programs = st.recursive(
    st.lists(st.tuples(st.just("write"), st.sampled_from("xy")), max_size=2),
    lambda inner: st.lists(
        st.one_of(
            st.tuples(st.just("write"), st.sampled_from("xy")),
            st.tuples(st.just("task"), inner),
            st.tuples(st.just("fork"), st.lists(inner, min_size=1, max_size=2)),
        ),
        max_size=3,
    ),
    max_leaves=6,
)


def _run_nest(members, seed):
    """Run ``members`` as a team; return every thread's id by its place in
    the program, and the outcome."""
    rt = Runtime({"x": 0, "y": 0}, seed=seed, delay=0.0005)
    ids = {}

    def thread(program, place):
        def body(ctx):
            ids[place] = ctx.tid
            handles = []
            for k, (kind, arg) in enumerate(program):
                if kind == "write":
                    ctx.write(arg, len(place) * 10 + k)
                elif kind == "task":
                    handles.append(ctx.spawn_task(thread(arg, place + (k,))))
                else:
                    ctx.fork_join([thread(p, place + (k, r)) for r, p in enumerate(arg)])
            for handle in handles:
                ctx.taskwait(handle)

        return body

    try:
        rt.root().fork_join([thread(p, (r,)) for r, p in enumerate(members)])
        error = None
    except DetermError as err:
        error = f"{type(err).__name__}: {err}"
    rt.finish()
    rt.root().ws.check_invariants()
    return ids, error, rt.root().ws.state_bytes()


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_nest_programs, min_size=2, max_size=3))
def test_nested_forks_and_tasks_get_ids_and_outcomes_independent_of_schedule(members):
    first = _run_nest(members, None)
    for seed in (1, 2):
        assert _run_nest(members, seed) == first, seed


def test_a_fork_whose_second_launch_fails_leaves_a_clean_runtime(monkeypatch):
    run = runtime._WORKERS.run
    calls = []

    def failing_run(job):
        calls.append(job)
        if len(calls) == 2:
            raise RuntimeError("no worker")
        run(job)

    monkeypatch.setattr(runtime._WORKERS, "run", failing_run)
    rt = Runtime({"x": 0})
    with pytest.raises(RuntimeError, match="no worker"):
        rt.root().fork_join([lambda ctx: ctx.read("x")] * 3)
    # The first member runs to its end, the second is marked done by the
    # failed launch, and the third was never launched.
    rt.finish()
    assert len(calls) == 2
    assert rt.errors == {}
    assert rt.registry.doomed() == ()
    assert rt.registry.violations() == ()


def test_task_allocations_travel_with_the_result():
    rt = Runtime()

    def body(ctx):
        extra = ctx.alloc("payload")
        return extra

    handle = rt.root().spawn_task(body)
    extra_addr = rt.root().taskwait(handle)
    assert rt.root().ws.read(extra_addr) == "payload"
    rt.finish()


# ----------------------------------------------------------------------
# traces
# ----------------------------------------------------------------------


def _per_thread_trace(seed):
    rt = Runtime({"a": 0, "b": 0}, seed=seed, delay=0.001, trace=True)

    def body(ctx):
        ctx.write("a" if ctx.rank == 0 else "b", ctx.rank)
        ctx.barrier()

    rt.root().fork_join([body, body])
    rt.finish()
    grouped = {}
    for line in rt.trace:
        grouped.setdefault(line.split()[1], []).append(line)
    return grouped


def test_per_thread_traces_do_not_depend_on_timing():
    first = _per_thread_trace(seed=1)
    second = _per_thread_trace(seed=2)
    assert first == second
    assert set(first) == {"0", "1", "2"}
