"""Parser for the small straight-line program format the checker runs.

A script declares integer globals, then one section of operations per
thread. Sync partners are written explicitly on both sides, so a script
fully determines every channel. Example::

    GLOBAL x 1
    GLOBAL y 2
    THREAD 0
    RELSET 1:1,2:1      # broadcast release to thread 1 event 1 and thread 2 event 1
    ACQ 1 2             # acquire thread 1's 2nd sync event
    ACQ 2 2
    THREAD 1
    ACQ 0 1
    READ y r
    WRITE x r
    REL 0 2             # this REL is thread 1's sync event number 2

Operations: READ <cell> <local>, WRITE <cell> <expr>, ALLOC <local>,
REL <t> <n>, ACQ <t> <n>, RELSET <t:n,...>, ACQSET <t:n,...>.
A cell is a global name or a local bound by ALLOC. An expression is a
subset of Python's expression syntax, read by ``ast``: decimal integer
literals and locals combined with + - *, max(a, b) and parentheses, with
at most 200 operators (each of ``+-*(,`` counted) and 201 words.
``#`` starts a comment. Thread sections must be numbered 0..n-1 in order.

A script is read once, and every check runs as its line is read: a
ScriptError names the line of the operation it rejects. A partner thread
whose section comes later is checked once the whole script is read; its
error names the line that names that partner.
"""
from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Any, Iterator

from .errors import ScriptError
from .sync import SyncLabel

# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ReadOp:
    cell: str
    into: str


@dataclass(frozen=True)
class WriteOp:
    cell: str
    expr: tuple


@dataclass(frozen=True)
class AllocOp:
    into: str


@dataclass(frozen=True)
class ReleaseOp:
    partners: tuple[SyncLabel, ...]  # acquire labels this release feeds


@dataclass(frozen=True)
class AcquireOp:
    partners: tuple[SyncLabel, ...]  # release labels this acquire drains


Op = ReadOp | WriteOp | AllocOp | ReleaseOp | AcquireOp


@dataclass(frozen=True)
class ScriptProgram:
    name: str
    globals: tuple[tuple[str, int], ...]
    threads: tuple[tuple[Op, ...], ...]

    @property
    def nthreads(self) -> int:
        return len(self.threads)

    def max_ops(self) -> int:
        return max((len(t) for t in self.threads), default=0)


# ----------------------------------------------------------------------
# expressions
# ----------------------------------------------------------------------


# Checked before parsing: the alphabet, and at most this many operators,
# counting each of ``+-*(,`` and each word past the first. That bounds
# every tree's depth, for the walks below and for ``ast.parse``, whose own
# limits differ between versions.
_MAX_OPERATORS = 200
_ALIEN = re.compile(r"[^\w\s+\-*(),]")
_WORD = re.compile(r"\w+")
_BINOPS = {ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul"}


def _parse_expr(text: str) -> tuple:
    if alien := _ALIEN.search(text):
        raise ValueError(f"bad character {alien.group()!r}")
    words = _WORD.findall(text)
    if max(sum(map(text.count, "+-*(,")), len(words) - 1) > _MAX_OPERATORS:
        raise ValueError(f"more than {_MAX_OPERATORS} operators")
    if bad := [w for w in words if w[0].isdigit() and not w.isdigit()]:
        raise ValueError(f"bad term {bad[0]!r}")  # ``ast`` warns of ``1or``
    text = " ".join(text.split())  # ``ast`` reads only ASCII whitespace
    try:
        tree = ast.parse(text, mode="eval").body
    except SyntaxError:
        raise ValueError("not an expression") from None
    return _convert(tree, text.encode())


def _convert(node: ast.expr, src: bytes) -> tuple:
    """``node`` as a tuple tree; its offsets index the UTF-8 ``src``."""
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return (_BINOPS[type(node.op)], _convert(node.left, src), _convert(node.right, src))
    call = isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    if call and node.func.id == "max" and len(node.args) == 2 and not node.keywords:
        return ("max", _convert(node.args[0], src), _convert(node.args[1], src))
    term = src[node.col_offset : node.end_col_offset].decode()
    if isinstance(node, ast.Constant) and term.isdigit():
        return ("const", node.value)
    if isinstance(node, ast.Name) and term == node.id and term != "max":
        return ("local", term)
    raise ValueError(f"bad term {term!r}")


def eval_expr(expr: tuple, locals_: dict[str, Any]) -> Any:
    kind = expr[0]
    if kind == "const":
        return expr[1]
    if kind == "local":
        return locals_[expr[1]]
    a = eval_expr(expr[1], locals_)
    b = eval_expr(expr[2], locals_)
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    if kind == "mul":
        return a * b
    if kind == "max":
        return max(a, b)
    raise ValueError(f"bad expr node {kind!r}")


def expr_locals(expr: tuple) -> Iterator[str]:
    if expr[0] == "local":
        yield expr[1]
    elif expr[0] not in ("const",):
        yield from expr_locals(expr[1])
        yield from expr_locals(expr[2])


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------


def _parse_label_list(text: str, line_no: int) -> tuple[SyncLabel, ...]:
    labels = []
    for part in text.split(","):
        part = part.strip()
        if ":" not in part:
            raise ScriptError(line_no, f"expected t:n, got {part!r}")
        t, _, n = part.partition(":")
        if not (t.strip().isdecimal() and n.strip().isdecimal()):
            raise ScriptError(line_no, f"expected integers in {part!r}")
        labels.append(SyncLabel(int(t), int(n)))
    return tuple(labels)


def parse_script(text: str, name: str = "<script>") -> ScriptProgram:
    globals_: dict[str, int] = {}
    threads: list[list[Op]] = []
    current: list[Op] | None = None
    # A local of the current thread is either a plain value (bound by READ)
    # or a cell handle (bound by ALLOC); the two are not interchangeable.
    kinds: dict[str, str] = {}
    # (line, thread, partner thread) for each partner thread not yet declared.
    forward: list[tuple[int, int, int]] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        op = parts[0].upper()
        rest = parts[1] if len(parts) > 1 else ""
        tid = len(threads) - 1

        if op == "GLOBAL":
            if current is not None:
                raise ScriptError(line_no, "GLOBAL must precede THREAD sections")
            fields = rest.split()
            if len(fields) != 2 or not fields[1].removeprefix("-").isdecimal():
                raise ScriptError(line_no, "usage: GLOBAL <name> <int>")
            gname = fields[0]
            if not gname.isidentifier():
                raise ScriptError(line_no, f"bad global name {gname!r}")
            if gname in globals_:
                raise ScriptError(line_no, f"duplicate global {gname!r}")
            globals_[gname] = int(fields[1])
        elif op == "THREAD":
            if not rest.strip().isdecimal() or int(rest) != len(threads):
                raise ScriptError(
                    line_no, f"THREAD sections must be numbered in order, got {rest!r}"
                )
            current = []
            threads.append(current)
            kinds = {}
        elif current is None:
            raise ScriptError(line_no, f"{op} before any THREAD section")
        elif op in ("READ", "WRITE"):
            # A WRITE's expression may hold spaces; a READ's local may not.
            fields = rest.split() if op == "READ" else rest.split(None, 1)
            if len(fields) != 2:
                usage = "<local>" if op == "READ" else "<expr>"
                raise ScriptError(line_no, f"usage: {op} <cell> {usage}")
            cell, arg = fields
            if op == "WRITE":
                try:
                    expr = _parse_expr(arg)
                except ValueError as err:
                    raise ScriptError(line_no, f"bad expression: {err}") from None
            if cell not in globals_ and kinds.get(cell) != "cell":
                raise ScriptError(
                    line_no,
                    f"thread {tid} touches {cell!r}, which is neither a global nor an "
                    "allocated cell",
                )
            if op == "READ":
                kinds[arg] = "value"
                current.append(ReadOp(cell, arg))
                continue
            for ref in expr_locals(expr):
                if kinds.get(ref) != "value":
                    raise ScriptError(
                        line_no,
                        f"thread {tid} computes with {ref!r}, which is not a value local",
                    )
            current.append(WriteOp(cell, expr))
        elif op == "ALLOC":
            fields = rest.split()
            if len(fields) != 1:
                raise ScriptError(line_no, "usage: ALLOC <local>")
            kinds[fields[0]] = "cell"
            current.append(AllocOp(fields[0]))
        elif op in ("REL", "ACQ", "RELSET", "ACQSET"):
            if op in ("RELSET", "ACQSET"):
                labels = _parse_label_list(rest, line_no)
            else:
                fields = rest.split()
                if len(fields) != 2 or not all(f.isdecimal() for f in fields):
                    raise ScriptError(line_no, f"usage: {op} <thread> <seq>")
                labels = (SyncLabel(int(fields[0]), int(fields[1])),)
            if len(set(labels)) != len(labels):
                raise ScriptError(line_no, f"thread {tid} names duplicate partners")
            for label in labels:
                if label.thread >= len(threads):
                    forward.append((line_no, tid, label.thread))
                elif label.thread == tid:
                    raise ScriptError(line_no, f"thread {tid} syncs with itself")
                if label.seq < 1:
                    raise ScriptError(line_no, f"bad partner seq {label.seq}")
            current.append(ReleaseOp(labels) if op.startswith("REL") else AcquireOp(labels))
        else:
            raise ScriptError(line_no, f"unknown operation {op!r}")

    if not threads:
        raise ScriptError(0, "script has no THREAD sections")
    for line_no, tid, partner in forward:
        if partner >= len(threads):
            raise ScriptError(line_no, f"thread {tid} names unknown thread {partner}")
    return ScriptProgram(
        name=name,
        globals=tuple(globals_.items()),
        threads=tuple(tuple(t) for t in threads),
    )
