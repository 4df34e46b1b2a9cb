"""Resource-bounded scripting substrate for the Coding skill.

A small deterministic language whose only side effects are read-only tool
calls against the table environment.  It supports variables, arithmetic,
comparisons, if/else, while, for-each over lists, list and record values,
and an explicit return; tools appear as built-in functions.  Every
evaluation is metered: an expression-step budget, a tool-call budget, and an
output byte budget, all enforced inside the interpreter so faults come back
as data, never as exceptions.  The Coding skill that runs scripts lives in
`skills`, which imports this module.

A script is parsed while it is lexed, one regex match per token, into a
tree of closures; running the tree is calling its statement closures, each
of which calls the closures of its parts, so no node is dispatched by name.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterator, Optional

from .environment import (TOOL_PARAMETERS, TOOLS, ToolCall, ToolEnvironment,
                          render_number)
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

# One match per token: the separators before it, then the token, the end of
# the script, or the one character that starts no token.  A keyword is a
# whole name (`iffy` is a name), tried before names; the other kinds start
# with different characters, so their order only sets which is tried first.
_TOKEN_RE = re.compile(r"""
    [\s;]*
    (?: (?P<op>==|!=|<=|>=|[-+*/=<>(){}\[\],.])
      | (?P<kw>(?:if|else|while|for|in|return|true|false)(?![A-Za-z0-9_]))
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<string>"(?:[^"\\]|\\.)*")
      | (?P<number>\d+\.\d+|\d+)
      | (?P<eof>\Z)
      | (?P<bad>.)
    )
""", re.VERBOSE)

_COMPARISONS = frozenset({"==", "!=", "<", "<=", ">", ">="})
_OPERATORS = _COMPARISONS | {"+", "-", "*", "/"}


class _Fault(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind
        self.message = message


# A parsed statement or expression: run, it takes its step and evaluates.
_Node = Callable[[], Any]


# --- parser ----------------------------------------------------------------------

class _Parser:
    """Parses a script while lexing it, one token ahead, into nodes.

    The lookahead token is `kind` and `text`.  An operator or keyword is
    known by its text alone, since no name, number or string has the same
    text.  The first fault in parse order, a bad character among them, ends
    the parse: no more of the script is lexed.  The nodes come from `nodes`.
    """

    def __init__(self, source: str, nodes: _Interpreter):
        self.source = source
        self.match = _TOKEN_RE.match
        self.pos = 0
        self.depth = 0
        self.nodes = nodes
        self.kind = self.text = ""
        self.advance()

    def advance(self) -> str:
        """Lex the next token into the lookahead; return the replaced text."""
        text = self.text
        match = self.match(self.source, self.pos)
        kind = self.kind = match.lastgroup
        if kind == "bad":
            raise _Fault(FAULT_PARSE, f"unexpected character {match[kind]!r} "
                                      f"at offset {match.start(kind)}")
        self.text = match[kind]
        self.pos = match.end()
        return text

    def expect(self, text: str) -> None:
        got = self.advance()
        if got != text:
            raise _Fault(FAULT_PARSE,
                         f"expected {text!r}, got {got or '<eof>'!r}")

    def name(self) -> str:
        kind, got = self.kind, self.advance()
        if kind != "name":
            raise _Fault(FAULT_PARSE,
                         f"expected 'name', got {got or '<eof>'!r}")
        return got

    def deeper(self) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING_DEPTH:
            raise _Fault(FAULT_PARSE, "script nesting is deeper than "
                                      f"{MAX_NESTING_DEPTH} levels")

    def program(self) -> tuple[_Node, ...]:
        statements = []
        while self.kind != "eof":
            statements.append(self.statement())
        return tuple(statements)

    def statement(self) -> _Node:
        nodes, text = self.nodes, self.text
        if self.kind == "name":  # an assignment, the commonest statement
            name = self.advance()
            self.expect("=")
            return nodes.assign(name, self.expression())
        if text == "if":
            self.advance()
            condition = self.expression()
            then_body = self.block()
            else_body: tuple[_Node, ...] = ()
            if self.text == "else":
                self.advance()
                else_body = self.block()
            return nodes.if_(condition, then_body, else_body)
        if text == "while":
            self.advance()
            condition = self.expression()
            return nodes.while_(condition, self.block())
        if text == "for":
            self.advance()
            name = self.name()
            self.expect("in")
            source = self.expression()
            return nodes.for_(name, source, self.block())
        if text == "return":
            self.advance()
            return nodes.return_(self.expression())
        raise _Fault(FAULT_PARSE, f"unexpected token {text!r}")

    def block(self) -> tuple[_Node, ...]:
        self.expect("{")
        self.deeper()
        statements = []
        while self.text != "}":
            if self.kind == "eof":
                raise _Fault(FAULT_PARSE, "unterminated block")
            statements.append(self.statement())
        self.advance()
        self.depth -= 1
        return tuple(statements)

    def expression(self) -> _Node:
        self.deeper()
        node = self.operand()
        if self.text in _OPERATORS:
            node = self.sum_tail(self.term_tail(node))
            if self.text in _COMPARISONS:
                op = self.advance()
                right = self.term_tail(self.operand())
                node = self.nodes.binop(op, node, self.sum_tail(right))
        self.depth -= 1
        return node

    # A sum is a chain of terms and a term a chain of operands.  The operator
    # and postfix loops below build left-nested trees, one level deeper per
    # operator, so each operator counts as a level of nesting.  Given the
    # first term or operand, a tail parses the rest of its chain.

    def sum_tail(self, node: _Node) -> _Node:
        entry = self.depth
        while self.text == "+" or self.text == "-":
            op = self.advance()
            self.deeper()
            node = self.nodes.binop(op, node, self.term_tail(self.operand()))
        self.depth = entry
        return node

    def term_tail(self, node: _Node) -> _Node:
        entry = self.depth
        while self.text == "*" or self.text == "/":
            op = self.advance()
            self.deeper()
            node = self.nodes.binop(op, node, self.operand())
        self.depth = entry
        return node

    def operand(self) -> _Node:
        """A negation, or a primary and its field and index postfixes."""
        nodes, kind, text = self.nodes, self.kind, self.advance()
        if text == "-":
            self.deeper()
            node = nodes.neg(self.operand())
            self.depth -= 1
            return node
        if kind == "name":
            if self.text == "(":
                self.advance()
                node = nodes.call(text, self.items(")"))
            else:
                node = nodes.var(text)
        elif kind == "string":
            text = text[1:-1]
            if "\\" in text:
                text = text.replace('\\"', '"').replace("\\\\", "\\")
            node = nodes.lit(text)
        elif kind == "number":
            try:
                value = float(text) if "." in text else int(text)
            except ValueError:  # more digits than int() will convert
                value = math.inf
            if value == math.inf:
                raise _Fault(FAULT_PARSE, f"number literal of {len(text)} "
                                          "characters is too large")
            node = nodes.lit(value)
        elif text == "true" or text == "false":
            node = nodes.lit(text == "true")
        elif text == "[":
            node = nodes.list_(self.items("]"))
        elif text == "(":
            node = self.expression()
            self.expect(")")
        else:
            raise _Fault(FAULT_PARSE,
                         f"unexpected token {text!r} in expression")
        entry = self.depth
        while True:
            if self.text == ".":
                self.advance()
                self.deeper()
                node = nodes.field(node, self.name())
            elif self.text == "[":
                self.advance()
                self.deeper()
                index = self.expression()
                self.expect("]")
                node = nodes.index(node, index)
            else:
                self.depth = entry
                return node

    def items(self, close: str) -> tuple[_Node, ...]:
        """The comma-separated expressions before `close`, consumed too."""
        items = []
        if self.text != close:
            items.append(self.expression())
            while self.text == ",":
                self.advance()
                items.append(self.expression())
        self.expect(close)
        return tuple(items)


# --- evaluator -------------------------------------------------------------------

def _run(statements: tuple[_Node, ...]) -> Optional[tuple[Any]]:
    """Run statements in order up to a `return`, whose value comes back in
    a 1-tuple; None when none ran."""
    for statement in statements:
        returned = statement()
        if returned is not None:
            return returned
    return None


def _truthy(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    raise _Fault(FAULT_RUNTIME,
                 "conditions must be boolean (use a comparison)")


def _numeric(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _bounded(value: Any) -> Any:
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


def _add(left: Any, right: Any) -> Any:
    if (isinstance(left, str) and isinstance(right, str)
            or _numeric(left) and _numeric(right)):
        return _bounded(left + right)
    raise _Fault(FAULT_RUNTIME, "+ needs two numbers or two strings")


def _arithmetic(op: str, apply: Callable[[Any, Any], Any]
                ) -> Callable[[Any, Any], Any]:
    def checked(left: Any, right: Any) -> Any:
        if not (_numeric(left) and _numeric(right)):
            raise _Fault(FAULT_RUNTIME, f"{op} needs numbers")
        if op == "/" and right == 0:
            raise _Fault(FAULT_RUNTIME, "division by zero")
        return _bounded(apply(left, right))
    return checked


def _ordering(apply: Callable[[Any, Any], bool]) -> Callable[[Any, Any], bool]:
    def checked(left: Any, right: Any) -> bool:
        if not (_numeric(left) and _numeric(right)
                or isinstance(left, str) and isinstance(right, str)):
            raise _Fault(FAULT_RUNTIME,
                         f"cannot order {type(left).__name__} against "
                         f"{type(right).__name__}")
        return apply(left, right)
    return checked


# operator -> its checked function of the two operand values
_ARITHMETIC = {"+": _add, "-": _arithmetic("-", operator.sub),
               "*": _arithmetic("*", operator.mul),
               "/": _arithmetic("/", operator.truediv)}
_ORDERINGS = {"<": _ordering(operator.lt), "<=": _ordering(operator.le),
              ">": _ordering(operator.gt), ">=": _ordering(operator.ge)}


class _Interpreter:
    """A script's run-time state, and the builder of the nodes that run it.

    Each node is a closure over the script's variables and step budget.
    Run, it takes one step before anything else, as every statement and
    expression does, then evaluates its parts in source order.  A statement
    returns None, or the 1-tuple of the value of the `return` it ran.

    A step is one item of `budget`, an iterator over `max_eval_steps`
    items, so a step past the budget raises StopIteration, which `run`
    reports as the step fault.  No node runs inside a generator, where
    StopIteration would turn into a RuntimeError.
    """

    def __init__(self, env: ToolEnvironment, limits: SandboxLimits):
        self.env = env
        self.limits = limits
        self.vars: dict[str, Any] = {}
        self.budget = iter(range(limits.max_eval_steps))
        self.tick = self.budget.__next__
        self.tool_calls = 0

    @property
    def steps(self) -> int:
        return self.limits.max_eval_steps - self.budget.__length_hint__()

    def run(self, program: tuple[_Node, ...]) -> Any:
        try:
            returned = _run(program)
        except StopIteration:
            raise _Fault(FAULT_LIMIT, "evaluation stopped at "
                         f"{self.limits.max_eval_steps} steps") from None
        return None if returned is None else returned[0]

    # --- statements

    def assign(self, name: str, value: _Node) -> _Node:
        tick, variables = self.tick, self.vars

        def assign() -> None:
            tick()
            variables[name] = value()
        return assign

    def if_(self, condition: _Node, then_body: tuple[_Node, ...],
            else_body: tuple[_Node, ...]) -> _Node:
        tick = self.tick

        def if_() -> Optional[tuple[Any]]:
            tick()
            return _run(then_body if _truthy(condition()) else else_body)
        return if_

    def while_(self, condition: _Node, body: tuple[_Node, ...]) -> _Node:
        tick = self.tick

        def while_() -> Optional[tuple[Any]]:
            tick()
            while _truthy(condition()):
                returned = _run(body)
                if returned is not None:
                    return returned
                tick()
            return None
        return while_

    def for_(self, name: str, source: _Node, body: tuple[_Node, ...]) -> _Node:
        tick, variables = self.tick, self.vars

        def for_() -> Optional[tuple[Any]]:
            tick()
            items = source()
            if not isinstance(items, list):
                raise _Fault(FAULT_RUNTIME, "for-each needs a list")
            for item in items:
                tick()
                variables[name] = item
                returned = _run(body)
                if returned is not None:
                    return returned
            return None
        return for_

    def return_(self, value: _Node) -> _Node:
        tick = self.tick

        def return_() -> tuple[Any]:
            tick()
            return (value(),)
        return return_

    # --- expressions

    def lit(self, value: Any) -> _Node:
        tick = self.tick

        def lit() -> Any:
            tick()
            return value
        return lit

    def var(self, name: str) -> _Node:
        tick, variables = self.tick, self.vars

        def var() -> Any:
            tick()
            try:
                return variables[name]
            except KeyError:
                raise _Fault(FAULT_RUNTIME,
                             f"undefined variable {name!r}") from None
        return var

    def list_(self, items: tuple[_Node, ...]) -> _Node:
        tick = self.tick

        def list_() -> list[Any]:
            tick()
            return [item() for item in items]
        return list_

    def neg(self, operand: _Node) -> _Node:
        tick = self.tick

        def neg() -> Any:
            tick()
            value = operand()
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise _Fault(FAULT_RUNTIME, "negation needs a number")
            return -value
        return neg

    def field(self, target: _Node, name: str) -> _Node:
        tick = self.tick

        def field() -> Any:
            tick()
            record = target()
            if not isinstance(record, dict):
                raise _Fault(FAULT_RUNTIME, "field access needs a record")
            if name not in record:
                raise _Fault(FAULT_RUNTIME, f"record has no field {name!r}")
            return record[name]
        return field

    def index(self, target: _Node, position: _Node) -> _Node:
        tick = self.tick

        def index() -> Any:
            tick()
            value, at = target(), position()
            if not isinstance(value, (list, str)):
                raise _Fault(FAULT_RUNTIME, "indexing needs a list or string")
            if isinstance(at, bool) or not isinstance(at, int):
                raise _Fault(FAULT_RUNTIME, "index must be an integer")
            if not 0 <= at < len(value):
                raise _Fault(FAULT_RUNTIME,
                             f"index {at} out of range (length {len(value)})")
            return value[at]
        return index

    def binop(self, op: str, left: _Node, right: _Node) -> _Node:
        tick = self.tick
        if op == "==" or op == "!=":
            equal, want = self.equal, op == "=="

            def compare() -> bool:
                tick()
                return equal(left(), right()) is want
            return compare
        if op in _ORDERINGS:
            order = _ORDERINGS[op]

            def ordered() -> bool:
                tick()
                return order(left(), right())
            return ordered
        apply = _ARITHMETIC[op]

        def arithmetic() -> Any:
            tick()
            try:
                return apply(left(), right())
            except OverflowError:  # an integer too wide to meet a float
                raise _Fault(FAULT_LIMIT,
                             "number result too large for a float") from None
        return arithmetic

    def call(self, name: str, args: tuple[_Node, ...]) -> _Node:
        tick = self.tick
        function = _BUILTINS.get(name) or partial(self.call_tool, name)

        def call() -> Any:
            tick()
            return function([arg() for arg in args])
        return call

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
        result = self.env.call(ToolCall(
            tool_name=name, arguments=dict(zip(TOOL_PARAMETERS, args))))
        if result.error is not None:
            raise _Fault(FAULT_RUNTIME, f"tool {name} failed: {result.error}")
        return dict(result.rows[0]) if name == "get_record" \
            else [dict(r) for r in result.rows]


def _len(args: list[Any]) -> int:
    if len(args) != 1 or not isinstance(args[0], (list, str)):
        raise _Fault(FAULT_RUNTIME, "len takes one list or string")
    return len(args[0])


def _first(args: list[Any]) -> Any:
    if len(args) != 1 or not isinstance(args[0], list):
        raise _Fault(FAULT_RUNTIME, "first takes one list")
    if not args[0]:
        raise _Fault(FAULT_RUNTIME, "first of an empty list")
    return args[0][0]


# The functions a script calls by name before its tools.
_BUILTINS = {"len": _len, "first": _first}


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
        program = _Parser(source, interp).program()
    except _Fault as fault:
        return SandboxResult(value="", fault=SandboxFault(fault.kind,
                                                          fault.message))
    try:
        raw = interp.run(program)
    except _Fault as fault:
        return SandboxResult(
            value="", steps_used=interp.steps,
            tool_calls_used=interp.tool_calls,
            fault=SandboxFault(fault.kind, fault.message))
    rendered = truncate_observation(
        render_value(raw, limits.max_output_bytes), limits.max_output_bytes)
    return SandboxResult(value=rendered, steps_used=interp.steps,
                         tool_calls_used=interp.tool_calls, raw_value=raw)
