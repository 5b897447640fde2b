"""Command-line front end.

Subcommands::

    determ demo NAME [--seed N] [--delay S] [--threads N] [--iterations N]
    determ check SCRIPT [--trials N] [--seed N] [--delay S] [--max-states N]
    determ oracle SCRIPT [--mode dc|sc] [--max-states N]
    determ bench [--threads N] [--size N] [--reps N]

SCRIPT is a path to a script file or the name of a bundled example
(``determ oracle swap``). All reporting is ``key=value`` lines on stdout.

Exit codes: 0 success; 1 a determinism check failed; 2 usage or script
errors; 3 a demo demonstrated an intentional model error; 4 resource
limits (enumeration bounds, thread cap) exceeded. The environment
variable ``DETERM_MAX_THREADS`` caps how many threads any subcommand
may use, whether from flags or from a loaded script.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Sequence

from . import demos
from .errors import DetermError, LimitError, ScriptError
from .oracle import (
    DEFAULT_MAX_STATES,
    EnumerationResult,
    check_program,
    corpus_names,
    enumerate_dc,
    enumerate_sc,
    load_corpus,
)
from .runtime import Reduction, Runtime
from .script import ScriptProgram, parse_script

_THREAD_ENV = "DETERM_MAX_THREADS"


def _thread_cap() -> int | None:
    raw = os.environ.get(_THREAD_ENV)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ScriptError(0, f"{_THREAD_ENV} must be an integer, got {raw!r}") from None


def _at_least(low: int) -> Callable[[str], int]:
    """An argparse type for integers no smaller than ``low``."""

    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


# Counts of threads, trials, repetitions and states; sizes may be 0.
_count = _at_least(1)
_size = _at_least(0)


def _delay(raw: str) -> float:
    """An argparse type for a finite, non-negative delay in seconds."""
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {raw!r}") from None
    if not 0 <= value < float("inf"):  # also false for nan
        raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {raw}")
    return value


def _require_threads(n: int) -> None:
    cap = _thread_cap()
    if cap is not None and n > cap:
        raise LimitError(f"{n} threads requested but {_THREAD_ENV}={cap}")


def _load_program(spec: str) -> ScriptProgram:
    path = Path(spec)
    if path.exists():
        return parse_script(path.read_text(), name=path.stem)
    try:
        return load_corpus(spec)
    except FileNotFoundError:
        raise ScriptError(
            0,
            f"{spec!r} is neither a file nor a bundled example "
            f"(have: {', '.join(corpus_names())})",
        ) from None


def _digest(texts: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()[:16]


def _print_enumeration(prefix: str, result: EnumerationResult) -> None:
    print(f"{prefix}_outcomes={len(result.outcomes)}")
    print(f"{prefix}_states={result.states}")
    for out in result.outcomes:
        print(f"{prefix}_outcome={out}")


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def _cmd_demo(args: argparse.Namespace) -> int:
    _require_threads(args.threads)
    if args.name == "ordered":
        report = demos.ordered(
            args.iterations, args.threads, seed=args.seed, delay=args.delay
        )
    elif args.name == "reduce":
        report = demos.reduce(args.threads, seed=args.seed, delay=args.delay)
    else:
        report = demos.DEMOS[args.name](seed=args.seed, delay=args.delay)
    for line in report.lines:
        print(line)
    return 3 if report.error else 0


def _cmd_check(args: argparse.Namespace) -> int:
    program = _load_program(args.script)
    _require_threads(program.nthreads)
    report = check_program(
        program,
        trials=args.trials,
        seed=args.seed,
        delay=args.delay,
        max_states=args.max_states,
    )
    print(f"program={report.program}")
    _print_enumeration("dc", report.dc)
    print(f"trials={report.trials}")
    for out in report.trial_outcomes:
        print(f"trial_outcome={out}")
    print(f"outcome_digest={_digest([o.text for o in report.trial_outcomes])}")
    verdict = "deterministic" if report.deterministic else "nondeterministic"
    print(f"verdict={verdict}")
    return 0 if report.deterministic else 1


def _cmd_oracle(args: argparse.Namespace) -> int:
    program = _load_program(args.script)
    _require_threads(program.nthreads)
    enumerate = enumerate_dc if args.mode == "dc" else enumerate_sc
    result = enumerate(program, max_states=args.max_states)
    print(f"program={program.name}")
    print(f"mode={args.mode}")
    _print_enumeration(args.mode, result)
    print(f"outcome_digest={_digest([o.text for o in result.outcomes])}")
    return 0


# ----------------------------------------------------------------------
# benchmark
# ----------------------------------------------------------------------


def _slice_sum(rank: int, threads: int, size: int) -> int:
    chunk = size // threads
    lo = rank * chunk
    hi = size if rank == threads - 1 else lo + chunk
    total = 0
    for i in range(lo, hi):
        total += i * i
    return total


def _baseline_once(threads: int, size: int) -> int:
    results = [0] * threads
    barrier = threading.Barrier(threads + 1)

    def worker(rank: int) -> None:
        results[rank] = _slice_sum(rank, threads, size)
        barrier.wait()

    workers = [
        threading.Thread(target=worker, args=(r,), name=f"bench-base-{r}")
        for r in range(threads)
    ]
    for w in workers:
        w.start()
    barrier.wait()
    for w in workers:
        w.join()
    return sum(results)


def _dc_once(threads: int, size: int) -> int:
    rt = Runtime({"total": 0})

    def body(ctx) -> None:
        ctx.contribute("total", _slice_sum(ctx.rank, threads, size))

    rt.root().fork_join(
        [body] * threads, reductions=[Reduction("total", 0, lambda a, b: a + b)]
    )
    total = rt.root().read("total")
    rt.finish()
    return total


def run_bench(threads: int, size: int, reps: int) -> dict[str, float | int | bool]:
    """Median wall time of the flat-threads baseline versus the paired
    channel runtime on an identical partial-sums kernel."""
    base_times = []
    dc_times = []
    base_total = dc_total = 0
    for _ in range(reps):
        t0 = time.perf_counter()
        base_total = _baseline_once(threads, size)
        base_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        dc_total = _dc_once(threads, size)
        dc_times.append(time.perf_counter() - t0)
    base_ms = statistics.median(base_times) * 1000
    dc_ms = statistics.median(dc_times) * 1000
    return {
        "threads": threads,
        "size": size,
        "reps": reps,
        "base_ms": round(base_ms, 3),
        "dc_ms": round(dc_ms, 3),
        "ratio": round(dc_ms / base_ms, 4) if base_ms else float("inf"),
        "totals_match": base_total == dc_total,
    }


def _cmd_bench(args: argparse.Namespace) -> int:
    _require_threads(args.threads)
    report = run_bench(args.threads, args.size, args.reps)
    for key, value in report.items():
        print(f"{key}={value}")
    return 0


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="determ",
        description="Deterministic-consistency runtime demos and checkers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("demo", help="run one bundled scenario")
    p.add_argument("name", choices=sorted(demos.DEMOS))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--delay", type=_delay, default=0.002)
    p.add_argument("--threads", type=_count, default=4)
    p.add_argument("--iterations", type=_size, default=16)
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("check", help="enumerate a script and cross-check runs")
    p.add_argument("script")
    p.add_argument("--trials", type=_count, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delay", type=_delay, default=0.002)
    p.add_argument("--max-states", type=_count, default=DEFAULT_MAX_STATES)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("oracle", help="enumerate all outcomes of a script")
    p.add_argument("script")
    p.add_argument("--mode", choices=("dc", "sc"), default="dc")
    p.add_argument("--max-states", type=_count, default=DEFAULT_MAX_STATES)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("bench", help="compare against a flat-threads baseline")
    p.add_argument("--threads", type=_count, default=4)
    p.add_argument("--size", type=_size, default=200_000)
    p.add_argument("--reps", type=_count, default=5)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (0, None):
            return 0
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except ScriptError as err:
        print(f"error={err}", file=sys.stderr)
        return 2
    except LimitError as err:
        print(f"error={err}", file=sys.stderr)
        return 4
    except DetermError as err:
        print(f"error={type(err).__name__}: {err}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
