"""The three benchmark workloads: kernels, references and baselines.

Each workload object owns one closed loop: ``epoch()`` runs the next unit
of work on determ and returns what it produced, and ``check()`` compares
that against an independent pure-Python reference and returns the number
of operations attempted and failed. ``Stencil.baseline()`` also runs the
epoch on plain ``threading`` over shared memory. Only the main thread
calls these, one at a time.
"""
from __future__ import annotations

import gc
import operator
import threading
import time
from dataclasses import dataclass

import gen

from determ import oracle, script
from determ.runtime import Reduction, Runtime

MOD = 1_000_003


def _cell_names(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i:05d}" for i in range(n)]


# ----------------------------------------------------------------------
# stencil_small: dense writes, tiny state, many sync events
# ----------------------------------------------------------------------


def jacobi_cell(left: int, mid: int, right: int, i: int, sweep: int) -> int:
    return ((left + 2 * mid + right) // 4 + i * sweep) % MOD


def stencil_reference(a: list[int], total: int, sweeps: int) -> tuple[list[int], int]:
    """Sequential pure-Python Jacobi epoch: the expected result."""
    n = len(a)
    a = list(a)
    for s in range(sweeps):
        b = [
            jacobi_cell(a[max(i - 1, 0)], a[i], a[min(i + 1, n - 1)], i, s)
            for i in range(n)
        ]
        total += sum(b)
        a = b
    return a, total


class _TeamKernel:
    """A fork_join kernel over named global cells on one Runtime.

    An epoch is one fork_join of ``members`` copies of ``_body`` with a sum
    reduction into ``acc_name``, then one checkpoint task that reads every
    cell. Subclasses give the kernel two ways: ``_body`` on determ and
    ``_reference`` in sequential pure Python.
    """

    acc_name = "acc"
    #: Epochs one Runtime lives for; then it is finished and a fresh one
    #: goes on from the reference state. The Runtime keeps every epoch's
    #: history, so a fixed life makes peak memory a property of the code
    #: rather than of how many epochs the run's time allowed.
    lifetime = 64

    def __init__(self, members: int, names: list[str], initial: list[int]):
        self.members = members
        self.names = names
        self.expect = self.before = (list(initial), 0)
        self.checked = 0
        self.rt = self._runtime(*self.expect)
        self.wrong = False

    def _globals(self, state: list[int]) -> dict:
        return dict(zip(self.names, state))

    def _runtime(self, state: list[int], acc: int) -> Runtime:
        return Runtime({**self._globals(state), self.acc_name: acc})

    def recover(self) -> None:
        """Restart from the reference state on a fresh Runtime."""
        self.close()
        self.rt = self._runtime(*self.expect)

    def close(self) -> None:
        self.rt.finish()

    def epoch(self):
        root = self.rt.root()
        root.fork_join(
            [self._body] * self.members, [Reduction(self.acc_name, 0, operator.add)]
        )
        names = self.names
        handle = root.spawn_task(lambda ctx: [ctx.read(name) for name in names])
        return root.taskwait(handle), root.read(self.acc_name)

    def check(self, got) -> tuple[int, int]:
        """The epoch's cells and reduction must equal the sequential
        reference exactly. A mismatch restarts the workload from the
        reference state, so one wrong epoch counts once. Returns
        (attempted, failed)."""
        self.before, self.expect = self.expect, self._reference(*self.expect)
        self.checked += 1
        failed = _mismatch(self, got)
        if failed or self.checked % self.lifetime == 0:
            self.recover()
            gc.collect()  # free the old Runtime's cycles now, not at random
        return 1, int(failed)


def _checkpoint(state: list[int]) -> list[int]:
    """Read the whole array from a thread of its own, as the checkpoint
    task does on determ."""
    snap: list[list[int]] = []
    _run_threads(lambda _: snap.append(list(state)), 1)
    return snap[0]


class Stencil(_TeamKernel):
    name = "stencil_small"
    acc_name = "total"

    def __init__(self, seed: int, members: int, cells: int = 48, sweeps: int = 8):
        self.cells, self.sweeps = cells, sweeps
        self.B = _cell_names("b", cells)
        self.rounds_per_epoch = 2 * sweeps
        super().__init__(members, _cell_names("a", cells), gen.stencil_array(seed, cells))

    def describe(self) -> dict:
        return {
            "cells": self.cells,
            "sweeps_per_epoch": self.sweeps,
            "barriers_per_sweep": 2,
            "writes_per_round": self.cells,
            "team": self.members,
        }

    def _globals(self, state: list[int]) -> dict:
        return {**super()._globals(state), **dict(zip(self.B, state))}

    def _body(self, ctx) -> None:
        n, A, B = self.cells, self.names, self.B
        own = gen.block(n, self.members, ctx.rank)
        for s in range(self.sweeps):
            part = 0
            for i in own:
                v = jacobi_cell(
                    ctx.read(A[max(i - 1, 0)]), ctx.read(A[i]), ctx.read(A[min(i + 1, n - 1)]), i, s
                )
                ctx.write(B[i], v)
                part += v
            ctx.contribute("total", part)
            ctx.barrier()
            for i in own:
                ctx.write(A[i], ctx.read(B[i]))
            ctx.barrier()

    def _reference(self, a: list[int], total: int) -> tuple[list[int], int]:
        return stencil_reference(a, total, self.sweeps)

    def baseline(self) -> tuple[float, int, int]:
        """The epoch just checked, rerun on plain threads over one shared
        list from the same start. Returns (seconds, attempted, failed)."""
        t0 = time.perf_counter()
        got = self._plain(*self.before)
        return time.perf_counter() - t0, 1, int(_mismatch(self, got))

    def _plain(self, a: list[int], total: int) -> tuple[list[int], int]:
        a = list(a)
        n, m = self.cells, self.members
        b = [0] * n
        parts = [0] * m
        acc = [total]
        bar = threading.Barrier(m)

        def worker(rank: int) -> None:
            own = gen.block(n, m, rank)
            for s in range(self.sweeps):
                part = 0
                for i in own:
                    v = jacobi_cell(a[max(i - 1, 0)], a[i], a[min(i + 1, n - 1)], i, s)
                    b[i] = v
                    part += v
                parts[rank] = part
                if bar.wait() == 0:
                    acc[0] += sum(parts)
                for i in own:
                    a[i] = b[i]
                bar.wait()

        _run_threads(worker, m)
        return _checkpoint(a), acc[0]


# ----------------------------------------------------------------------
# sparse_wide: wide state, few changed cells per sync event
# ----------------------------------------------------------------------


def sparse_round(state: list[int], plan: gen.SparsePlan, r: int) -> int:
    """Apply round ``r`` of the plan sequentially; returns the round's
    reduction contribution. All reads see the state before the round."""
    sums = [sum(state[c] for c in reads) for reads in plan.reads[r]]
    for rank, writes in enumerate(plan.writes[r]):
        for c, k in writes:
            state[c] = (sums[rank] + k) % MOD
    return sum(sums)


class Sparse(_TeamKernel):
    name = "sparse_wide"

    def __init__(self, seed: int, members: int, cells: int = 2048, rounds: int = 4, pool: int = 32):
        self.cells, self.rounds, self.pool = cells, rounds, pool
        self.plan = gen.sparse_plan(seed, cells, members, rounds * pool)
        self.rounds_per_epoch = rounds
        self.index = 0  # epochs run so far; selects the plan slice
        self.current = range(0)  # plan rounds of the epoch in flight
        super().__init__(members, _cell_names("g", cells), self.plan.initial)

    def describe(self) -> dict:
        return {
            "cells": self.cells,
            "rounds_per_epoch": self.rounds,
            "writes_per_round": gen.SPARSE_WRITES * self.members,
            "reads_per_round": gen.SPARSE_READS * self.members,
            "team": self.members,
        }

    def epoch(self):
        base = (self.index % self.pool) * self.rounds
        self.current = range(base, base + self.rounds)
        return super().epoch()

    def _body(self, ctx) -> None:
        plan, G = self.plan, self.names
        for r in self.current:
            s = sum(ctx.read(G[c]) for c in plan.reads[r][ctx.rank])
            for c, k in plan.writes[r][ctx.rank]:
                ctx.write(G[c], (s + k) % MOD)
            ctx.contribute("acc", s)
            ctx.barrier()

    def _reference(self, state: list[int], acc: int) -> tuple[list[int], int]:
        state = list(state)
        for r in self.current:
            acc += sparse_round(state, self.plan, r)
        self.index += 1
        return state, acc


# ----------------------------------------------------------------------
# verify: enumerators and perturbed real-thread trials
# ----------------------------------------------------------------------

#: Perturbation delay for check trials, in seconds. Zero: on a 2-core
#: Linux host any time.sleep, even sleep(0), costs about 60 us, so a
#: nonzero delay would make sleeping a third of a 12-op trial.
TRIAL_DELAY = 0.0
#: Cases one verify epoch runs.
CASES_PER_EPOCH = 2


@dataclass(frozen=True)
class Case:
    oracle_prog: object  # 3-thread script for the two enumerators
    check_prog: object  # team-sized script for the trials


class Verify:
    name = "verify"

    def __init__(
        self,
        seed: int,
        members: int,
        pool: int = 256,
        oracle_shape: tuple[int, int] = (3, 7),
        check_ops: int = 12,
        trials: int = 8,
    ):
        self.members, self.trials = members, trials
        self.oracle_shape = oracle_shape
        self.check_shape = (members, check_ops)
        self.seed = seed
        self.cases = [
            Case(
                script.parse_script(gen.script_text(seed, 2 * i, *oracle_shape), f"o{i}"),
                script.parse_script(gen.script_text(seed, 2 * i + 1, *self.check_shape), f"c{i}"),
            )
            for i in range(pool)
        ]
        self.index = 0  # cases run so far; selects the next ones from the pool
        self.rounds_per_epoch = trials * CASES_PER_EPOCH
        self.wrong = False
        self.reset_stats()

    def reset_stats(self) -> None:
        """Zero the totals epoch() and check() accumulate for the
        verify-only metrics and the outcome mix."""
        self.outcomes = {"RACE": 0, "STATE": 0}
        self.dc_states = self.sc_states = 0
        self.dc_s = self.sc_s = 0.0
        self.trial_s: list[float] = []

    def describe(self) -> dict:
        return {
            "oracle_scripts": "%d threads x %d ops" % self.oracle_shape,
            "check_scripts": "%d threads x %d ops" % self.check_shape,
            "cases_per_epoch": CASES_PER_EPOCH,
            "trials_per_case": self.trials,
            "trial_delay_s": TRIAL_DELAY,
            "pool": len(self.cases),
        }

    def recover(self) -> None:
        pass

    def close(self) -> None:
        pass

    def epoch(self):
        """``CASES_PER_EPOCH`` cases. A case is both enumerations of its
        oracle script, then the DC enumeration and the trials of its check
        script. Returns every enumeration and trial outcome, for check()."""
        out = []
        for _ in range(CASES_PER_EPOCH):
            case = self.cases[self.index % len(self.cases)]
            self.index += 1
            t0 = time.perf_counter()
            dc = oracle.enumerate_dc(case.oracle_prog)
            t1 = time.perf_counter()
            sc = oracle.enumerate_sc(case.oracle_prog)
            t2 = time.perf_counter()
            self.dc_states += dc.states
            self.sc_states += sc.states
            self.dc_s += t1 - t0
            self.sc_s += t2 - t1
            ref = oracle.enumerate_dc(case.check_prog)
            trials = []
            for i in range(self.trials):
                t = time.perf_counter()
                trials.append(
                    oracle.run_on_runtime(case.check_prog, seed=self.seed + i, delay=TRIAL_DELAY)
                )
                self.trial_s.append(time.perf_counter() - t)
            out.append((dc, ref, trials))
        return out

    def check(self, got) -> tuple[int, int]:
        """Each DC enumeration must be unique and each trial must equal the
        unique outcome of its script. Returns (attempted, failed)."""
        attempted = failed = 0
        for dc, ref, trials in got:
            failed += int(not dc.unique) + int(not ref.unique)
            for outcome in dc.outcomes[:1] + ref.outcomes[:1]:
                self.outcomes[outcome.kind] = self.outcomes.get(outcome.kind, 0) + 1
            want = ref.outcomes[0] if ref.unique and not self.wrong else None
            failed += sum(1 for t in trials if t != want)
            attempted += 3 + len(trials)
        return attempted, failed


def _run_threads(target, n: int) -> None:
    threads = [threading.Thread(target=target, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def _mismatch(w, got) -> bool:
    expect = w.expect
    if w.wrong:  # self-test hook: a deliberately wrong expected output
        expect = (expect[0], expect[1] + 1)
    return (list(got[0]), got[1]) != expect


WORKLOADS = {cls.name: cls for cls in (Stencil, Sparse, Verify)}
