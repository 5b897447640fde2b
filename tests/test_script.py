"""Script parsing, expression evaluation, and the checks made as lines are read."""
from __future__ import annotations

import sys
import threading
import warnings

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from determ.errors import ScriptError
from determ.oracle import Outcome, enumerate_dc
from determ.script import (
    AcquireOp,
    AllocOp,
    ReadOp,
    ReleaseOp,
    WriteOp,
    eval_expr,
    expr_locals,
    parse_script,
)
from determ.sync import SyncLabel


FULL = """
# exercises every operation form
GLOBAL x 1
GLOBAL y -2

THREAD 0
RELSET 1:1,2:1
ACQ 1 2            # trailing comment
acq 2 2

THREAD 1
ACQ 0 1
READ y r
ALLOC scratch
WRITE scratch r + 1
WRITE x max(r, 3) * 2 - 1
REL 0 2

THREAD 2
ACQ 0 1
REL 0 3
"""


def test_full_script_round_trips_into_ops():
    program = parse_script(FULL, name="full")
    assert program.name == "full"
    assert program.globals == (("x", 1), ("y", -2))
    assert program.nthreads == 3
    assert program.threads[0] == (
        ReleaseOp((SyncLabel(1, 1), SyncLabel(2, 1))),
        AcquireOp((SyncLabel(1, 2),)),
        AcquireOp((SyncLabel(2, 2),)),
    )
    t1 = program.threads[1]
    assert t1[0] == AcquireOp((SyncLabel(0, 1),))
    assert t1[1] == ReadOp("y", "r")
    assert t1[2] == AllocOp("scratch")
    assert isinstance(t1[3], WriteOp) and t1[3].cell == "scratch"
    assert isinstance(t1[4], WriteOp) and t1[4].cell == "x"
    assert t1[5] == ReleaseOp((SyncLabel(0, 2),))
    assert program.max_ops() == 6


def test_comments_blanks_and_case_are_cosmetic():
    a = parse_script("GLOBAL x 0\nTHREAD 0\nREAD x r\n")
    b = parse_script("# hi\nglobal x 0\n\nthread 0\n  read x r  # ok\n")
    assert a.threads == b.threads
    assert a.globals == b.globals


# ----------------------------------------------------------------------
# expressions
# ----------------------------------------------------------------------


def _expr(text):
    return parse_script(f"GLOBAL x 0\nTHREAD 0\nREAD x a\nREAD x b\nWRITE x {text}\n").threads[
        0
    ][2].expr


@pytest.mark.parametrize(
    "text,env,expected",
    [
        ("7", {}, 7),
        ("1 + 2 * 3", {}, 7),
        ("(1 + 2) * 3", {}, 9),
        ("10 - 3 - 2", {}, 5),
        ("2 * 3 * 4", {}, 24),
        ("a + b", {"a": 4, "b": 5}, 9),
        ("max(a, 3)", {"a": 1}, 3),
        ("max(a, 3)", {"a": 8}, 8),
        ("max(a + 1, b * 2) - 4", {"a": 9, "b": 3}, 6),
        ("0 - 5", {}, -5),
        ("00", {}, 0),
        ("max(a, b,)", {"a": 1, "b": 2}, 2),  # Python allows the trailing comma
        ("(max)(a, b)", {"a": 1, "b": 2}, 2),
        ("1\u00a0+\u3000a", {"a": 2}, 3),  # any str.isspace() character spaces
    ],
)
def test_expression_evaluation(text, env, expected):
    env = {"a": 0, "b": 0, **env}
    assert eval_expr(_expr(text), env) == expected


def test_expr_locals_lists_every_reference():
    expr = _expr("max(a, 2) + b * a")
    assert sorted(expr_locals(expr)) == ["a", "a", "b"]


@pytest.mark.parametrize(
    "bad",
    [
        "", "1 +", "max(1)", "(1", "1)", "a $ b", "* 3", "1 2",
        "-3", "0x1", "1_0", "1.5", "True", "a ** 2", "a // 2", "max", "max(a)",
        "max(a, b, c)", "min(a, b)", "a[0]", "(a, b)", "007",
        "if",  # a Python keyword, though READ binds it as a local
    ],
)
def test_malformed_expressions_are_script_errors(bad):
    # Every local is bound, so the WRITE line itself is at fault.
    with pytest.raises(ScriptError) as info:
        parse_script(f"GLOBAL x 0\nTHREAD 0\nREAD x a\nREAD x b\nREAD x if\nWRITE x {bad}\n")
    assert info.value.line == 6


@pytest.mark.parametrize(
    "text,message",
    [
        ("1 +", "not an expression"),
        ("007", "not an expression"),
        ("0x1", "bad term '0x1'"),
        ("max(a)", "bad term 'max(a)'"),
        ("ﬁ", "bad term 'ﬁ'"),  # NFKC reads it as the name fi
        ("None", "bad term 'None'"),
        ("1or 2", "bad term '1or'"),  # rejected before Python's parser warns
        ("1.5", "bad character '.'"),
        ("a\x00", "bad character '\\x00'"),
    ],
)
def test_bad_expressions_name_their_fault(text, message, recwarn):
    with pytest.raises(ScriptError) as info:
        parse_script(f"GLOBAL x 0\nTHREAD 0\nREAD x ﬁ\nWRITE x {text}\n")
    assert str(info.value) == f"line 4: bad expression: {message}"
    assert len(recwarn) == 0


def test_an_expression_of_200_operators_parses_and_evaluates():
    program = parse_script(f"GLOBAL x 1\nTHREAD 0\nWRITE x {' + '.join(['1'] * 201)}\n")
    assert enumerate_dc(program).outcomes == (Outcome("STATE", "x=201"),)


@pytest.mark.parametrize(
    "text",
    [
        " + ".join(["1"] * 202),  # 201 operators
        " + ".join(["1"] * 1200),
        "(" * 400 + "1" + ")" * 400,
    ],
    ids=["201-operators", "1200-terms", "400-parentheses"],
)
def test_expressions_past_the_operator_bound_are_script_errors(text):
    with pytest.raises(ScriptError) as info:
        parse_script(f"GLOBAL x 1\nTHREAD 0\nWRITE x {text}\n")
    assert str(info.value) == "line 3: bad expression: more than 200 operators"


@pytest.mark.parametrize(
    "text,message",
    [
        ("1|" * 3000 + "1", "bad character '|'"),
        ("~" * 3000 + "1", "bad character '~'"),
        ("a." * 3000 + "a", "bad character '.'"),
        ("not " * 3000 + "a", "more than 200 operators"),
        ("a if a else " * 3000 + "a", "more than 200 operators"),
        ("1 " * 202, "more than 200 operators"),
    ],
    ids=["3000-ors", "3000-inverts", "3000-attributes", "3000-nots", "3000-ifs", "202-words"],
)
def test_deep_inputs_outside_the_grammar_never_reach_the_parser(text, message):
    # Python's parser raises RecursionError on each 3000-deep one in 3.11 and 3.12.
    with pytest.raises(ScriptError) as info:
        parse_script(f"GLOBAL x 1\nTHREAD 0\nREAD x a\nWRITE x {text}\n")
    assert str(info.value) == f"line 4: bad expression: {message}"


def test_parsing_from_many_threads_leaves_the_warning_filters_alone():
    before = list(warnings.filters)
    # Distinct texts, so no cache in front of the parser could hide a race.
    texts = [text for i in range(400) for text in (f"a + {i}", f"{i}or 2", f"max(b, {i})")]

    def parse_all():
        for text in texts:
            try:
                parse_script(f"GLOBAL x 1\nTHREAD 0\nREAD x a\nREAD x b\nWRITE x {text}\n")
            except ScriptError:
                pass

    threads = [threading.Thread(target=parse_all) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert warnings.filters == before


_SYMBOLS = {"add": "+", "sub": "-", "mul": "*"}
_PRECEDENCE = {"add": 1, "sub": 1, "mul": 2}


def _tree_strategy(depth):
    leaf = st.one_of(
        st.builds(lambda n: ("const", n), st.integers(0, 99)),
        st.sampled_from([("local", "a"), ("local", "b")]),
    )
    tree = leaf
    for _ in range(depth):
        tree = st.one_of(leaf, st.tuples(st.sampled_from(["add", "sub", "mul", "max"]), tree, tree))
    return tree


def _render(tree, draw, outer=0, right=False):
    """``tree`` as Python text, with random spacing and with redundant
    parentheses besides those its shape needs."""

    def space():
        return draw(st.sampled_from(["", " ", "  ", "\t"]))

    kind = tree[0]
    needed = False
    if kind in ("const", "local"):
        text = str(tree[1])
    elif kind == "max":
        a, b = _render(tree[1], draw), _render(tree[2], draw)
        text = f"max({space()}{a}{space()},{space()}{b}{space()})"
    else:
        prec = _PRECEDENCE[kind]
        a, b = _render(tree[1], draw, prec), _render(tree[2], draw, prec, right=True)
        text = f"{a}{space()}{_SYMBOLS[kind]}{space()}{b}"
        # Operators group to the left, so a right operand of equal
        # precedence keeps its shape only in parentheses.
        needed = prec < outer or (prec == outer and right)
    if needed or draw(st.booleans()):
        text = f"({space()}{text}{space()})"
    return text


@settings(max_examples=300, deadline=None)
@given(_tree_strategy(6), st.integers(-50, 50), st.integers(-50, 50), st.data())
def test_rendered_trees_parse_back_and_evaluate_as_python(tree, a, b, data):
    text = _render(tree, data.draw)
    assume(sum(map(text.count, "+-*(,")) <= 200)
    assert _expr(text) == tree
    env = {"a": a, "b": b}
    assert eval_expr(tree, env) == eval(text, {"max": max}, env)


# ----------------------------------------------------------------------
# structural errors
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,needle",
    [
        ("THREAD 0\nGLOBAL x 1\n", "GLOBAL must precede"),
        ("GLOBAL x\nTHREAD 0\nREAD x r\n", "usage: GLOBAL"),
        ("GLOBAL x y\nTHREAD 0\nREAD x r\n", "usage: GLOBAL"),
        ("GLOBAL 1x 0\nTHREAD 0\n", "bad global name"),
        ("GLOBAL x 0\nGLOBAL x 1\nTHREAD 0\n", "duplicate global"),
        ("GLOBAL x 0\nTHREAD 1\nREAD x r\n", "numbered in order"),
        ("GLOBAL x 0\nREAD x r\n", "before any THREAD"),
        ("GLOBAL x 0\nTHREAD 0\nFROB x\n", "unknown operation"),
        ("GLOBAL x 0\nTHREAD 0\nREAD x\n", "usage: READ"),
        ("GLOBAL x 0\nTHREAD 0\nWRITE x\n", "usage: WRITE"),
        ("GLOBAL x 0\nTHREAD 0\nALLOC a b\n", "usage: ALLOC"),
        ("GLOBAL x 0\nTHREAD 0\nREL one 1\n", "usage: REL"),
        ("GLOBAL x 0\nTHREAD 0\nACQ 1\n", "usage: ACQ"),
        ("GLOBAL x 0\nTHREAD 0\nRELSET 1\n", "expected t:n"),
        ("GLOBAL x 0\nTHREAD 0\nRELSET a:b\n", "expected integers"),
        ("GLOBAL x 0\n", "no THREAD sections"),
        ("", "no THREAD sections"),
        # digits int() does not read, and a doubled sign
        ("GLOBAL x \u00b2\nTHREAD 0\n", "line 1: usage: GLOBAL"),
        ("GLOBAL x --5\nTHREAD 0\n", "line 1: usage: GLOBAL"),
        ("GLOBAL x 0\nTHREAD \u00b2\n", "line 2: THREAD sections must be numbered"),
        ("GLOBAL x 0\nTHREAD 0\nREL \u00b2 1\n", "line 3: usage: REL"),
        ("GLOBAL x 0\nTHREAD 0\nACQSET \u00b2:1\n", "line 3: expected integers"),
        # A local is bound in its own thread only.
        (
            "GLOBAL x 0\nTHREAD 0\nREAD x r\nTHREAD 1\nWRITE x r + 1\n",
            "line 5: thread 1 computes with 'r', which is not a value local",
        ),
        (
            "GLOBAL x 0\nTHREAD 0\nALLOC p\nTHREAD 1\nWRITE p 1\n",
            "line 5: thread 1 touches 'p', which is neither a global nor an allocated cell",
        ),
        # A check runs at its own line, before a later line is read; a
        # partner thread not yet declared waits for the whole script.
        ("GLOBAL x 0\nTHREAD 0\nREL 0 1\nFROB\n", "line 3: thread 0 syncs with itself"),
        ("GLOBAL x 0\nTHREAD 0\nREL 3 1\nFROB\n", "line 4: unknown operation 'FROB'"),
    ],
)
def test_malformed_scripts_are_rejected(text, needle):
    with pytest.raises(ScriptError) as info:
        parse_script(text)
    assert needle in str(info.value)


def test_script_errors_carry_line_numbers():
    with pytest.raises(ScriptError) as info:
        parse_script("GLOBAL x 0\nTHREAD 0\nREAD x r\nFROB\n")
    assert info.value.line == 4
    assert str(info.value).startswith("line 4:")


# ----------------------------------------------------------------------
# static validation
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "body,needle",
    [
        ("READ nope r", "neither a global nor an allocated cell"),
        ("WRITE nope 1", "neither a global nor an allocated cell"),
        # value locals and cell locals are distinct namespaces
        ("READ x r\nWRITE r 1", "neither a global nor an allocated cell"),
        ("ALLOC p\nWRITE x p + 1", "not a value local"),
        ("WRITE x r", "not a value local"),
        ("RELSET 1:1,1:1", "duplicate partners"),
        ("REL 5 1", "unknown thread 5"),
        ("REL 0 1", "syncs with itself"),
        ("ACQ 1 -1", "usage: ACQ"),
        ("RELSET 1:0", "bad partner seq"),
        # Each names the line of the operation it rejects.
        ("READ x r\nREL 0 1", "line 4: thread 0 syncs with itself"),
        ("READ x r\nRELSET 1:1,1:1", "line 4: thread 0 names duplicate partners"),
        ("READ x r\nACQSET 1:2,1:0", "line 4: bad partner seq 0"),
        ("READ x r\nREAD nope s", "line 4: thread 0 touches 'nope', which is neither"),
        ("ALLOC p\nREAD x r\nWRITE x r + p", "line 5: thread 0 computes with 'p', which is not"),
        ("READ x r\nREAD r s", "line 4: thread 0 touches 'r', which is neither"),
        ("READ x r\nREL 2 1", "line 4: thread 0 names unknown thread 2"),
    ],
)
def test_static_validation_rejects_misuse(body, needle):
    text = "GLOBAL x 0\nTHREAD 0\n" + body + "\nTHREAD 1\nREAD x r\n"
    with pytest.raises(ScriptError) as info:
        parse_script(text)
    assert needle in str(info.value)


def test_scripted_sync_never_names_terminal_labels():
    # Scripted threads have no terminal releases, so seq 0 is invalid on
    # either side of a scripted channel.
    with pytest.raises(ScriptError) as info:
        parse_script("GLOBAL x 0\nTHREAD 0\nACQSET 1:0\nTHREAD 1\nREAD x r\n")
    assert "bad partner seq" in str(info.value)


def test_alloc_rebinding_swaps_local_kind():
    # A name can be rebound; the latest binding decides how it may be used.
    program = parse_script(
        "GLOBAL x 0\nTHREAD 0\nREAD x v\nALLOC v\nWRITE v 3\n"
    )
    assert isinstance(program.threads[0][2], WriteOp)
    with pytest.raises(ScriptError):
        parse_script("GLOBAL x 0\nTHREAD 0\nALLOC v\nREAD v v\nWRITE v 3\n")
