"""Command-line surface: subcommands, report keys, and exit codes.

Exit code contract: 0 success, 1 determinism check failed, 2 usage or
script errors, 3 a demo that demonstrates an intentional error, 4
resource limits. Digests are pinned: they hash the canonical outcome
texts, so any drift in outcome rendering shows up here.
"""
from __future__ import annotations

import os
import subprocess
import sys

import pytest

import determ
from determ.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv(out):
    pairs = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition("=")
        pairs.setdefault(key, []).append(value)
    return pairs


# ----------------------------------------------------------------------
# check
# ----------------------------------------------------------------------


def test_check_reports_a_deterministic_verdict(capsys):
    code, out, _ = run_cli(capsys, "check", "swap", "--trials", "3", "--delay", "0.001")
    report = kv(out)
    assert code == 0
    assert report["program"] == ["swap"]
    assert report["dc_outcomes"] == ["1"]
    assert report["dc_states"] == ["1"]
    assert report["dc_outcome"] == ["STATE x=2 y=1"]
    assert report["trials"] == ["3"]
    assert report["trial_outcome"] == ["STATE x=2 y=1"]
    assert report["outcome_digest"] == ["4583b7649adf0644"]
    assert report["verdict"] == ["deterministic"]


def test_check_accepts_a_script_file(capsys, tmp_path):
    path = tmp_path / "mine.txt"
    path.write_text(
        "GLOBAL a 0\nTHREAD 0\nWRITE a 4\nREL 1 1\nTHREAD 1\nACQ 0 1\n"
    )
    code, out, _ = run_cli(
        capsys, "check", str(path), "--trials", "2", "--delay", "0"
    )
    report = kv(out)
    assert code == 0
    assert report["program"] == ["mine"]
    assert report["dc_outcome"] == ["STATE a=4"]
    assert report["verdict"] == ["deterministic"]


def test_check_rejects_unknown_scripts(capsys):
    code, _, err = run_cli(capsys, "check", "not_bundled")
    assert code == 2
    assert "neither a file nor a bundled example" in err
    assert "swap" in err  # offers the available names


def test_check_rejects_unparsable_files(capsys, tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("GLOBAL x 0\nTHREAD 0\nFROB\n")
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert "line 3" in err


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,message",
    [
        (" + ".join(["1"] * 1200), "more than 200 operators"),
        ("not " * 3000 + "1", "more than 200 operators"),
        ("1|" * 3000 + "1", "bad character '|'"),
    ],
    ids=["1200-terms", "3000-nots", "3000-ors"],
)
def test_oracle_rejects_an_oversized_expression_as_a_script_error(capsys, tmp_path, text, message):
    path = tmp_path / "long.txt"
    path.write_text(f"GLOBAL x 1\nTHREAD 0\nWRITE x {text}\n")
    code, _, err = run_cli(capsys, "oracle", str(path))
    assert code == 2
    assert err == f"error=line 3: bad expression: {message}\n"


def test_oracle_enumerates_the_flat_model(capsys):
    code, out, _ = run_cli(capsys, "oracle", "swap", "--mode", "sc")
    report = kv(out)
    assert code == 0
    assert report["mode"] == ["sc"]
    assert report["sc_outcomes"] == ["3"]
    assert report["sc_outcome"] == [
        "STATE x=1 y=1",
        "STATE x=2 y=1",
        "STATE x=2 y=2",
    ]
    assert report["outcome_digest"] == ["25aeda9dfa6360bb"]


def test_oracle_defaults_to_the_paired_model(capsys):
    code, out, _ = run_cli(capsys, "oracle", "race")
    report = kv(out)
    assert code == 0
    assert report["mode"] == ["dc"]
    assert report["dc_outcome"] == ["RACE r:1.2/2.2"]
    assert report["outcome_digest"] == ["ffeac67d6bb9ae85"]


def test_oracle_output_is_stable_across_invocations(capsys):
    _, first, _ = run_cli(capsys, "oracle", "broadcast")
    _, second, _ = run_cli(capsys, "oracle", "broadcast")
    assert first == second


def test_oracle_state_budget_exits_with_limit_code(capsys):
    code, _, err = run_cli(capsys, "oracle", "double_release", "--max-states", "1")
    assert code == 4
    assert "state budget" in err


# ----------------------------------------------------------------------
# demo
# ----------------------------------------------------------------------


def test_demo_swap_prints_the_exchanged_values(capsys):
    code, out, _ = run_cli(capsys, "demo", "swap", "--seed", "5", "--delay", "0.001")
    assert code == 0
    assert out.splitlines() == ["x=2", "y=1"]


def test_demo_race_exits_with_the_demo_error_code(capsys):
    code, out, _ = run_cli(capsys, "demo", "race", "--seed", "9", "--delay", "0.001")
    assert code == 3
    assert out.splitlines() == ["error=DataRaceError", "race=r:1.2/2.2"]


def test_demo_ordered_honors_size_flags(capsys):
    code, out, _ = run_cli(
        capsys,
        "demo", "ordered", "--iterations", "8", "--threads", "2", "--delay", "0",
    )
    assert code == 0
    report = kv(out)
    assert report["length"] == ["8"]
    assert report["ascending"] == ["True"]


def test_demo_reduce_honors_thread_count(capsys):
    code, out, _ = run_cli(capsys, "demo", "reduce", "--threads", "5", "--delay", "0")
    assert code == 0
    report = kv(out)
    assert report["total"] == ["4950"]
    assert report["tag"] == ["r0r1r2r3r4"]


def test_demo_rejects_unknown_names(capsys):
    code, _, _ = run_cli(capsys, "demo", "not_a_demo")
    assert code == 2


# ----------------------------------------------------------------------
# bench
# ----------------------------------------------------------------------


def test_bench_reports_matching_totals(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--threads", "2", "--size", "5000", "--reps", "2"
    )
    report = kv(out)
    assert code == 0
    assert report["threads"] == ["2"]
    assert report["totals_match"] == ["True"]
    assert float(report["ratio"][0]) > 0


# ----------------------------------------------------------------------
# thread cap and usage errors
# ----------------------------------------------------------------------


def test_thread_cap_applies_to_scripts(capsys, monkeypatch):
    monkeypatch.setenv("DETERM_MAX_THREADS", "2")
    code, _, err = run_cli(capsys, "check", "swap", "--trials", "1")
    assert code == 4
    assert "DETERM_MAX_THREADS=2" in err
    code, _, _ = run_cli(capsys, "oracle", "swap")
    assert code == 4


def test_thread_cap_applies_to_flags(capsys, monkeypatch):
    monkeypatch.setenv("DETERM_MAX_THREADS", "3")
    code, _, _ = run_cli(capsys, "demo", "reduce", "--threads", "4", "--delay", "0")
    assert code == 4
    code, _, _ = run_cli(
        capsys, "bench", "--threads", "4", "--size", "100", "--reps", "1"
    )
    assert code == 4


def test_generous_thread_cap_changes_nothing(capsys, monkeypatch):
    monkeypatch.setenv("DETERM_MAX_THREADS", "16")
    code, out, _ = run_cli(capsys, "oracle", "swap")
    assert code == 0
    assert kv(out)["dc_outcome"] == ["STATE x=2 y=1"]


def test_malformed_thread_cap_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("DETERM_MAX_THREADS", "lots")
    code, _, err = run_cli(capsys, "check", "swap")
    assert code == 2
    assert "must be an integer" in err


@pytest.mark.parametrize(
    "args",
    [
        ("bench", "--threads", "0"),
        ("bench", "--reps", "0"),
        ("check", "swap", "--trials", "0"),
        ("demo", "reduce", "--threads", "0"),
        ("check", "swap", "--max-states", "0"),
        ("oracle", "swap", "--max-states", "0"),
    ],
)
def test_counts_below_one_are_usage_errors(capsys, args):
    code, out, err = run_cli(capsys, *args)
    assert code == 2
    assert out == ""
    assert "must be at least 1, got 0" in err


@pytest.mark.parametrize(
    "args, reason",
    [
        (("demo", "ordered", "--iterations", "-3"), "must be at least 0, got -3"),
        (("bench", "--size", "-5"), "must be at least 0, got -5"),
        (("bench", "--threads", "x"), "expected an integer, got 'x'"),
    ],
)
def test_negative_sizes_are_usage_errors(capsys, args, reason):
    code, out, err = run_cli(capsys, *args)
    assert code == 2
    assert out == ""
    assert reason in err


@pytest.mark.parametrize(
    "args, reason",
    [
        (("check", "swap", "--delay", "nan"), "must be finite and non-negative, got nan"),
        (("check", "swap", "--delay", "inf"), "must be finite and non-negative, got inf"),
        (("check", "swap", "--delay", "-1"), "must be finite and non-negative, got -1"),
        (("demo", "swap", "--delay", "-1"), "must be finite and non-negative, got -1"),
        (("demo", "swap", "--delay", "x"), "expected a number, got 'x'"),
    ],
)
def test_bad_delays_are_usage_errors(capsys, args, reason):
    code, out, err = run_cli(capsys, *args)
    assert code == 2
    assert out == ""
    assert reason in err


def test_zero_iterations_is_an_empty_loop(capsys):
    code, out, _ = run_cli(capsys, "demo", "ordered", "--iterations", "0", "--delay", "0")
    assert code == 0
    assert kv(out)["length"] == ["0"]


def test_missing_subcommand_is_a_usage_error(capsys):
    assert run_cli(capsys)[0] == 2


def test_unknown_flag_is_a_usage_error(capsys):
    assert run_cli(capsys, "oracle", "swap", "--wat")[0] == 2


def test_help_exits_cleanly(capsys):
    assert run_cli(capsys, "--help")[0] == 0


def test_console_entry_point_raises_system_exit(monkeypatch, capsys):
    from determ.cli import entry

    monkeypatch.setattr(sys, "argv", ["determ", "demo", "swap", "--delay", "0"])
    with pytest.raises(SystemExit) as info:
        entry()
    assert info.value.code == 0
    assert capsys.readouterr().out.splitlines() == ["x=2", "y=1"]


def _run_module(*args):
    """Run ``python -m ARGS`` on this checkout's package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(determ.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-m", *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_python_m_determ_cli_runs_the_cli():
    proc = _run_module("determ.cli", "check", "swap", "--delay", "nan")
    assert proc.returncode == 2
    assert "must be finite" in proc.stderr


def test_python_m_determ_prints_what_the_cli_prints(capsys):
    proc = _run_module("determ", "oracle", "swap")
    assert proc.returncode == 0
    assert proc.stdout == run_cli(capsys, "oracle", "swap")[1]
