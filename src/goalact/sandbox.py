"""Resource-bounded scripting substrate for the Coding skill.

A small deterministic language whose only side effects are read-only tool
calls against the table environment.  It supports variables, arithmetic,
comparisons, if/else, while, for-each over lists, list and record values,
and an explicit return; tools appear as built-in functions.  Every
evaluation is metered: an expression-step budget, a tool-call budget, and an
output byte budget, all enforced inside the interpreter so faults come back
as data, never as exceptions.  The Coding skill that runs scripts lives in
`skills`, which imports this module.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Any, Iterator, Optional

from .environment import (TOOL_PARAMETERS, TOOLS, ToolCall, ToolEnvironment,
                          render_number)
from .errors import ToolError
from .plan import truncate_observation
from .records import check_types

FAULT_PARSE = "ParseError"
FAULT_RUNTIME = "RuntimeError"
FAULT_LIMIT = "LimitExceeded"

# Deepest nesting of blocks, brackets, negations and operator chains a script
# may have.  Both the parser and the evaluator recurse once per level, so the
# limit keeps either from exhausting the Python stack.
MAX_NESTING_DEPTH = 64

# Longest string (in characters) and widest integer (in bits) that `+`, `-`
# or `*` may produce.  Without them `s = s + s` doubles a string and
# `x = x * x` an integer's width on every step, so memory runs out long
# before the step budget does.  4,096 bits is about 1,233 decimal digits,
# well within what `str()` will convert.
MAX_STRING_CHARS = 1 << 16
MAX_INT_BITS = 1 << 12

GRAMMAR_REFERENCE = """\
Script language reference (whitespace and newlines separate statements):

  statement := NAME "=" expr            assignment
             | "if" expr { ... } ["else" { ... }]
             | "while" expr { ... }
             | "for" NAME "in" expr { ... }      iterate a list
             | "return" expr
  expr      := numbers (42, 3.5), strings ("text"), true, false,
               lists ([a, b]), names, function calls,
               arithmetic (+ - * /), comparisons (== != < <= > >=),
               record fields (row.amount), list indexing (xs[0])
  builtins  := len(xs), first(xs), plus every registered tool, e.g.
               get_record("table", "field", "value")
               filter_records("table", "field", "value")

Return the final value explicitly with `return`."""


@dataclass(frozen=True)
class SandboxLimits:
    max_eval_steps: int = 10000
    max_tool_calls: int = 50
    max_output_bytes: int = 4096

    def __post_init__(self) -> None:
        check_types(self)
        if min(self.max_eval_steps, self.max_tool_calls,
               self.max_output_bytes) <= 0:
            raise ValueError("sandbox limits must be strictly positive")


@dataclass(frozen=True)
class SandboxFault:
    kind: str  # ParseError | RuntimeError | LimitExceeded
    message: str


@dataclass
class SandboxResult:
    value: str
    steps_used: int = 0
    tool_calls_used: int = 0
    fault: Optional[SandboxFault] = None
    raw_value: Any = None  # unrendered return value, full precision

    @property
    def ok(self) -> bool:
        return self.fault is None


# --- lexer -----------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>[\s;]+)
  | (?P<number>\d+\.\d+|\d+)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>==|!=|<=|>=|[-+*/=<>(){}\[\],.])
""", re.VERBOSE)

_KEYWORDS = {"if", "else", "while", "for", "in", "return", "true", "false"}


class _Fault(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind
        self.message = message


class _Return(Exception):
    def __init__(self, value: Any):
        super().__init__("return")
        self.value = value


def _tokenize(source: str) -> Iterator[tuple[str, str]]:
    """The script's tokens, lexed as they are asked for, then `eof` forever."""
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise _Fault(FAULT_PARSE,
                         f"unexpected character {source[pos]!r} at offset {pos}")
        pos = match.end()
        kind = match.lastgroup
        if kind == "ws":
            continue
        text = match.group()
        if kind == "name" and text in _KEYWORDS:
            yield "kw", text
        else:
            yield kind, text
    while True:
        yield "eof", ""


# --- parser ----------------------------------------------------------------------

class _Parser:
    """Parses a script while lexing it, one token ahead.

    The first fault in parse order, a bad character among them, ends the
    parse: no more of the script is lexed.
    """

    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.token = next(self.tokens)
        self.depth = 0

    def peek(self) -> tuple[str, str]:
        return self.token

    def next(self) -> tuple[str, str]:
        token = self.token
        self.token = next(self.tokens)
        return token

    def expect(self, kind: str, text: Optional[str] = None) -> str:
        got_kind, got_text = self.next()
        if got_kind != kind or (text is not None and got_text != text):
            wanted = text or kind
            shown = got_text if got_text else "<eof>"
            raise _Fault(FAULT_PARSE, f"expected {wanted!r}, got {shown!r}")
        return got_text

    def deeper(self) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING_DEPTH:
            raise _Fault(FAULT_PARSE, "script nesting is deeper than "
                                      f"{MAX_NESTING_DEPTH} levels")

    def program(self) -> list[Any]:
        statements = []
        while self.peek()[0] != "eof":
            statements.append(self.statement())
        return statements

    def statement(self) -> Any:
        kind, text = self.peek()
        if kind == "kw" and text == "if":
            return self.if_statement()
        if kind == "kw" and text == "while":
            self.next()
            condition = self.expression()
            body = self.block()
            return ("while", condition, body)
        if kind == "kw" and text == "for":
            self.next()
            name = self.expect("name")
            self.expect("kw", "in")
            source = self.expression()
            body = self.block()
            return ("for", name, source, body)
        if kind == "kw" and text == "return":
            self.next()
            return ("return", self.expression())
        if kind == "name":
            name = self.next()[1]
            self.expect("op", "=")
            return ("assign", name, self.expression())
        raise _Fault(FAULT_PARSE, f"unexpected token {text!r}")

    def if_statement(self) -> Any:
        self.expect("kw", "if")
        condition = self.expression()
        then_body = self.block()
        else_body: list[Any] = []
        if self.peek() == ("kw", "else"):
            self.next()
            else_body = self.block()
        return ("if", condition, then_body, else_body)

    def block(self) -> list[Any]:
        self.expect("op", "{")
        self.deeper()
        statements = []
        while self.peek() != ("op", "}"):
            if self.peek()[0] == "eof":
                raise _Fault(FAULT_PARSE, "unterminated block")
            statements.append(self.statement())
        self.next()
        self.depth -= 1
        return statements

    def expression(self) -> Any:
        self.deeper()
        node = self.sum_expr()
        kind, text = self.peek()
        if kind == "op" and text in ("==", "!=", "<", "<=", ">", ">="):
            self.next()
            node = ("binop", text, node, self.sum_expr())
        self.depth -= 1
        return node

    # The operator and postfix loops below build left-nested trees, one level
    # deeper per operator, so each operator counts as a level of nesting.

    def sum_expr(self) -> Any:
        node, entry = self.term(), self.depth
        while self.peek() in (("op", "+"), ("op", "-")):
            op = self.next()[1]
            self.deeper()
            node = ("binop", op, node, self.term())
        self.depth = entry
        return node

    def term(self) -> Any:
        node, entry = self.unary(), self.depth
        while self.peek() in (("op", "*"), ("op", "/")):
            op = self.next()[1]
            self.deeper()
            node = ("binop", op, node, self.unary())
        self.depth = entry
        return node

    def unary(self) -> Any:
        if self.peek() == ("op", "-"):
            self.next()
            self.deeper()
            node = ("neg", self.unary())
            self.depth -= 1
            return node
        return self.postfix()

    def postfix(self) -> Any:
        node, entry = self.primary(), self.depth
        while True:
            if self.peek() == ("op", "."):
                self.next()
                self.deeper()
                node = ("field", node, self.expect("name"))
            elif self.peek() == ("op", "["):
                self.next()
                self.deeper()
                index = self.expression()
                self.expect("op", "]")
                node = ("index", node, index)
            else:
                self.depth = entry
                return node

    def primary(self) -> Any:
        kind, text = self.next()
        if kind == "number":
            try:
                value = float(text) if "." in text else int(text)
            except ValueError:  # more digits than int() will convert
                value = math.inf
            if value == math.inf:
                raise _Fault(FAULT_PARSE, f"number literal of {len(text)} "
                                          "characters is too large")
            return ("lit", value)
        if kind == "string":
            return ("lit", text[1:-1].replace('\\"', '"').replace("\\\\", "\\"))
        if kind == "kw" and text in ("true", "false"):
            return ("lit", text == "true")
        if kind == "name":
            if self.peek() == ("op", "("):
                self.next()
                args = []
                if self.peek() != ("op", ")"):
                    args.append(self.expression())
                    while self.peek() == ("op", ","):
                        self.next()
                        args.append(self.expression())
                self.expect("op", ")")
                return ("call", text, args)
            return ("var", text)
        if kind == "op" and text == "[":
            items = []
            if self.peek() != ("op", "]"):
                items.append(self.expression())
                while self.peek() == ("op", ","):
                    self.next()
                    items.append(self.expression())
            self.expect("op", "]")
            return ("list", items)
        if kind == "op" and text == "(":
            node = self.expression()
            self.expect("op", ")")
            return node
        raise _Fault(FAULT_PARSE, f"unexpected token {text!r} in expression")


# --- evaluator -------------------------------------------------------------------

class _Interpreter:
    def __init__(self, env: ToolEnvironment, limits: SandboxLimits):
        self.env = env
        self.limits = limits
        self.vars: dict[str, Any] = {}
        self.steps = 0
        self.tool_calls = 0

    def tick(self) -> None:
        if self.steps >= self.limits.max_eval_steps:
            raise _Fault(FAULT_LIMIT,
                         f"evaluation stopped at {self.limits.max_eval_steps} steps")
        self.steps += 1

    def run(self, statements: list[Any]) -> Any:
        try:
            self.exec_block(statements)
        except _Return as ret:
            return ret.value
        return None

    def exec_block(self, statements: list[Any]) -> None:
        for statement in statements:
            self.exec_statement(statement)

    def exec_statement(self, node: Any) -> None:
        self.tick()
        op = node[0]
        if op == "assign":
            self.vars[node[1]] = self.eval(node[2])
        elif op == "if":
            if self.truthy(self.eval(node[1])):
                self.exec_block(node[2])
            else:
                self.exec_block(node[3])
        elif op == "while":
            while self.truthy(self.eval(node[1])):
                self.exec_block(node[2])
                self.tick()
        elif op == "for":
            source = self.eval(node[2])
            if not isinstance(source, list):
                raise _Fault(FAULT_RUNTIME, "for-each needs a list")
            for item in source:
                self.tick()
                self.vars[node[1]] = item
                self.exec_block(node[3])
        elif op == "return":
            raise _Return(self.eval(node[1]))
        else:  # pragma: no cover - parser emits no other statements
            raise _Fault(FAULT_RUNTIME, f"unknown statement {op}")

    @staticmethod
    def truthy(value: Any) -> bool:
        if isinstance(value, bool):
            return value
        raise _Fault(FAULT_RUNTIME,
                     "conditions must be boolean (use a comparison)")

    def eval(self, node: Any) -> Any:
        self.tick()
        op = node[0]
        if op == "lit":
            return node[1]
        if op == "var":
            if node[1] not in self.vars:
                raise _Fault(FAULT_RUNTIME, f"undefined variable {node[1]!r}")
            return self.vars[node[1]]
        if op == "list":
            return [self.eval(item) for item in node[1]]
        if op == "neg":
            value = self.eval(node[1])
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise _Fault(FAULT_RUNTIME, "negation needs a number")
            return -value
        if op == "field":
            record = self.eval(node[1])
            if not isinstance(record, dict):
                raise _Fault(FAULT_RUNTIME, "field access needs a record")
            if node[2] not in record:
                raise _Fault(FAULT_RUNTIME,
                             f"record has no field {node[2]!r}")
            return record[node[2]]
        if op == "index":
            target = self.eval(node[1])
            index = self.eval(node[2])
            if not isinstance(target, (list, str)):
                raise _Fault(FAULT_RUNTIME, "indexing needs a list or string")
            if isinstance(index, bool) or not isinstance(index, int):
                raise _Fault(FAULT_RUNTIME, "index must be an integer")
            if not 0 <= index < len(target):
                raise _Fault(FAULT_RUNTIME,
                             f"index {index} out of range (length {len(target)})")
            return target[index]
        if op == "binop":
            try:
                return self.binop(node[1], self.eval(node[2]),
                                  self.eval(node[3]))
            except OverflowError:  # an integer too wide to meet a float
                raise _Fault(FAULT_LIMIT, "number result too large for a float")
        if op == "call":
            return self.call(node[1], [self.eval(arg) for arg in node[2]])
        raise _Fault(FAULT_RUNTIME, f"unknown expression {op}")

    @staticmethod
    def _numeric(value: Any) -> bool:
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    @staticmethod
    def bounded(value: Any) -> Any:
        if isinstance(value, float):
            if math.isfinite(value):
                return value
            raise _Fault(FAULT_LIMIT, "number result too large for a float")
        if isinstance(value, str) and len(value) > MAX_STRING_CHARS:
            raise _Fault(FAULT_LIMIT, "string result longer than "
                                      f"{MAX_STRING_CHARS} characters")
        if isinstance(value, int) and value.bit_length() > MAX_INT_BITS:
            raise _Fault(FAULT_LIMIT,
                         f"integer result wider than {MAX_INT_BITS} bits")
        return value

    def equal(self, left: Any, right: Any) -> bool:
        """Python's `left == right`, walked depth first with an explicit stack
        up to the first mismatch.  Each member pair costs one step; as in
        Python, a member pair that is one object is equal unexamined."""
        stack: list[Iterator[tuple[Any, Any]]] = []
        while True:
            kind = type(left)
            if kind in (list, dict) and type(right) is kind:
                if len(left) != len(right):
                    return False
                # A key missing on the right pairs with _DONE, equal to no value.
                stack.append(zip(left, right) if kind is list else zip(
                    left.values(), [right.get(key, _DONE) for key in left]))
            elif left != right:
                return False
            while stack:  # find the next member pair that is not one object
                pair = next(stack[-1], _DONE)
                if pair is _DONE:
                    stack.pop()
                    continue
                self.tick()
                left, right = pair
                if left is not right:
                    break
            else:
                return True

    def binop(self, op: str, left: Any, right: Any) -> Any:
        if op == "==":
            return self.equal(left, right)
        if op == "!=":
            return not self.equal(left, right)
        if op in ("<", "<=", ">", ">="):
            if self._numeric(left) and self._numeric(right):
                pass
            elif isinstance(left, str) and isinstance(right, str):
                pass
            else:
                raise _Fault(FAULT_RUNTIME,
                             f"cannot order {type(left).__name__} against "
                             f"{type(right).__name__}")
            return {"<": left < right, "<=": left <= right,
                    ">": left > right, ">=": left >= right}[op]
        if op == "+":
            if isinstance(left, str) and isinstance(right, str):
                return self.bounded(left + right)
            if self._numeric(left) and self._numeric(right):
                return self.bounded(left + right)
            raise _Fault(FAULT_RUNTIME, "+ needs two numbers or two strings")
        if not (self._numeric(left) and self._numeric(right)):
            raise _Fault(FAULT_RUNTIME, f"{op} needs numbers")
        if op == "-":
            return self.bounded(left - right)
        if op == "*":
            return self.bounded(left * right)
        if op == "/":
            if right == 0:
                raise _Fault(FAULT_RUNTIME, "division by zero")
            return self.bounded(left / right)
        raise _Fault(FAULT_RUNTIME, f"unknown operator {op}")

    def call(self, name: str, args: list[Any]) -> Any:
        if name == "len":
            if len(args) != 1 or not isinstance(args[0], (list, str)):
                raise _Fault(FAULT_RUNTIME, "len takes one list or string")
            return len(args[0])
        if name == "first":
            if len(args) != 1 or not isinstance(args[0], list):
                raise _Fault(FAULT_RUNTIME, "first takes one list")
            if not args[0]:
                raise _Fault(FAULT_RUNTIME, "first of an empty list")
            return args[0][0]
        return self.call_tool(name, args)

    def call_tool(self, name: str, args: list[Any]) -> Any:
        if name not in TOOLS:
            raise _Fault(FAULT_RUNTIME, f"unknown tool or function {name!r}")
        if len(args) != len(TOOL_PARAMETERS):
            raise _Fault(FAULT_RUNTIME,
                         f"{name} takes {len(TOOL_PARAMETERS)} arguments, "
                         f"got {len(args)}")
        if self.tool_calls >= self.limits.max_tool_calls:
            raise _Fault(FAULT_LIMIT,
                         f"tool budget of {self.limits.max_tool_calls} calls "
                         "exhausted")
        self.tool_calls += 1
        call = ToolCall(tool_name=name,
                        arguments=dict(zip(TOOL_PARAMETERS, args)))
        try:
            rows = self.env.invoke_tool(call)
        except ToolError as exc:
            raise _Fault(FAULT_RUNTIME, f"tool {name} failed: {exc}")
        return dict(rows[0]) if name == "get_record" \
            else [dict(r) for r in rows]


_DONE = object()


def _members(value: list[Any]) -> Iterator[Any]:
    for i, item in enumerate(value):
        if i:
            yield ", "
        yield item
    yield "]"


def _record_fields(value: dict[Any, Any]) -> Iterator[Any]:
    for i, (key, item) in enumerate(value.items()):
        yield f'{", " if i else ""}"{key}": '
        yield item
    yield "}"


def render_value(value: Any, limit: int) -> str:
    """Render a sandbox value as observation text, up to about `limit`.

    Lists render as `[a, b]`, records as `{"k": v}`, strings as themselves
    and None as `null`.  Rendering stops once the text is longer than
    `limit` characters, so a text returned early is a prefix of the full
    rendering that is already over a `limit`-byte budget: it truncates to
    the same bytes, however large the value.  Nested values are walked with
    an explicit stack, so depth cannot exhaust the Python stack.
    """
    parts: list[str] = []
    size = 0
    # Each frame yields text pieces (a str value renders as itself) and the
    # values still to render, in output order.
    stack: list[Iterator[Any]] = [iter((value,))]
    while stack:
        item = next(stack[-1], _DONE)
        if item is _DONE:
            stack.pop()
            continue
        if item is None:
            text = "null"
        elif isinstance(item, (bool, int, float)):
            text = render_number(item)
        elif isinstance(item, str):
            text = item
        elif isinstance(item, list):
            text = "["
            stack.append(_members(item))
        elif isinstance(item, dict):
            text = "{"
            stack.append(_record_fields(item))
        else:
            text = str(item)
        parts.append(text)
        size += len(text)
        if size > limit:
            break
    return "".join(parts)


def eval_script(source: str, env: ToolEnvironment,
                limits: SandboxLimits = SandboxLimits()) -> SandboxResult:
    """Run one script to completion; faults come back inside the result."""
    interp = _Interpreter(env, limits)
    try:
        statements = _Parser(source).program()
    except _Fault as fault:
        return SandboxResult(value="", fault=SandboxFault(fault.kind,
                                                          fault.message))
    try:
        raw = interp.run(statements)
    except _Fault as fault:
        return SandboxResult(
            value="", steps_used=interp.steps,
            tool_calls_used=interp.tool_calls,
            fault=SandboxFault(fault.kind, fault.message))
    rendered = truncate_observation(
        render_value(raw, limits.max_output_bytes), limits.max_output_bytes)
    return SandboxResult(value=rendered, steps_used=interp.steps,
                         tool_calls_used=interp.tool_calls, raw_value=raw)
