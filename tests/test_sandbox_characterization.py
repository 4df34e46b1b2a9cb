"""Pins what `eval_script` returns, byte for byte, for a fixed set of scripts.

Every script the scripted oracle's CodeAct and Coding rules emit, over the
seven categories and seeds 1-5, is pinned by one digest of its value, step
count, tool-call count and fault.  The hand-written cases below are pinned
one by one: bad characters after whitespace and after a parse error,
nesting at and past the limit, the exact step and tool-call budgets, each
size limit, and every parse and runtime fault message.  A change to how a
script is lexed, parsed or run must leave all of them as they are.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from goalact.generator import CATEGORY_ORDER, generate_task
from goalact.oracle import build_oracle_rules
from goalact.orchestrator import CODEACT_MARKER
from goalact.planner import finish_answer, strip_code_fences
from goalact.sandbox import (FAULT_LIMIT, FAULT_PARSE, FAULT_RUNTIME,
                             MAX_INT_BITS, MAX_NESTING_DEPTH, MAX_STRING_CHARS,
                             SandboxLimits, eval_script)
from goalact.skills import CODING_MARKER

ORACLE_SCRIPTS_DIGEST = \
    "433c6cd3b61dd808404f51c229a2bedda9f86edf26401da1c7c4a61dbc4215ba"


def _outcome(result) -> tuple:
    fault = (result.fault.kind, result.fault.message) if result.fault else None
    return result.value, result.steps_used, result.tool_calls_used, fault


def test_every_oracle_script_runs_as_pinned():
    digest = hashlib.sha256()
    count = 0
    for category in CATEGORY_ORDER:
        for seed in range(1, 6):
            task, env = generate_task(category, seed)
            for marker, build in build_oracle_rules(task):
                if marker not in (CODEACT_MARKER, CODING_MARKER):
                    continue
                for rule in build():
                    source = strip_code_fences(rule.response)
                    if finish_answer(source) is not None:
                        continue  # CodeAct finishes; no script runs
                    result = eval_script(source, env, SandboxLimits())
                    assert result.ok, (rule.name, result.fault)
                    digest.update(json.dumps(
                        [task.id, rule.name, *_outcome(result)]).encode())
                    count += 1
    assert count == 40
    assert digest.hexdigest() == ORACLE_SCRIPTS_DIGEST


# --- hand-written cases ---------------------------------------------------

_RECORD = 'get_record("companies", "name", "AlphaCorp")'
_HALF_STRING = "a" * (MAX_STRING_CHARS // 2)
_WIDEST = 2 ** MAX_INT_BITS - 1
_SQUARING = "x = {}\ni = 0\nwhile i < {} {{ x = x * x\ni = i + 1 }}\n"


def _nested(kind: str, depth: int) -> str:
    """A script whose deepest nesting, as the parser counts it, is `depth`."""
    n = depth - 1
    return {
        "parentheses": "return " + "(" * n + "1" + ")" * n,
        "brackets": "return " + "[" * n + "1" + "]" * n,
        "negations": "return " + "-" * n + "1",
        "if-blocks": "if true { " * n + "return 1" + " }" * n,
        "while-blocks": "while false { " * n + "x = 1" + " }" * n,
        "sum-chain": "return " + " + ".join(["1"] * depth),
        "product-chain": "return " + " * ".join(["2"] * depth),
        "index-chain": "x = [1]\nreturn x" + "[0]" * (depth - 2),
        "field-chain": f"r = {_RECORD}\nreturn r" + ".city" * n,
    }[kind]


_NESTING_KINDS = ("parentheses", "brackets", "negations", "if-blocks",
                  "while-blocks", "sum-chain", "product-chain", "index-chain",
                  "field-chain")

# id -> (script, SandboxLimits keywords)
CASES: dict[str, tuple[str, dict]] = {
    # lexing
    "empty": ("", {}),
    "only-separators": (" ;\n\t; ", {}),
    "trailing-separators": ("return 1 ;\n ", {}),
    "semicolon-statements": ("x = 1;y = x + 1;return y", {}),
    "bad-char-first": ("\n\n  é", {}),
    "bad-char-after-whitespace": ("x = 1\n   @ y", {}),
    "bad-char-after-separators": ("return 1;\t;\n#", {}),
    "bad-char-after-operator": ("return 1 +   $", {}),
    "bad-char-after-expect-fault": ("for 1 @", {}),
    "bad-char-in-lookahead": ("return (1 + ) $", {}),
    "parse-fault-before-bad-char": ("return 1 + \n x = = 2 @", {}),
    "unexpected-close-before-bad-char": ("y = 1 ) @", {}),
    "expect-fault-before-bad-char": ("for 1 in xs { } @", {}),
    "unterminated-string": ('return "abc', {}),
    "string-escaped-newline": ('return "a\\\nb"', {}),
    "string-escapes": ('return ["a\\"b", "a\\\\b", "a\\nb", ""]', {}),
    "float-exponent": ("return 1e3", {}),
    "keyword-prefix-name": ("iffy = 1\nreturn iffy", {}),
    "keyword-before-other-letter": ("x = 1 iné", {}),
    # parse faults
    "missing-operand": ("return +", {}),
    "bare-return": ("return", {}),
    "missing-assign": ("x 1", {}),
    "assign-to-nothing": ("x =", {}),
    "call-as-statement": ("len(x)", {}),
    "unclosed-call": ("return len([1], 2", {}),
    "unclosed-list": ("return [1, 2", {}),
    "field-at-eof": ("return r.", {}),
    "field-number": ("return r.1", {}),
    "dangling-else": ("else { }", {}),
    "chained-comparison": ("return 1 < 2 < 3", {}),
    "keyword-as-name": ("in = 1", {}),
    "true-as-name": ("true = 1", {}),
    "unterminated-block": ("if true { return 1", {}),
    "for-without-in": ("for x of [1] { }", {}),
    "for-number": ("for 1 in xs { }", {}),
    "block-without-brace": ("if true return 1", {}),
    "unclosed-paren": ("return (1 + 2", {}),
    "integer-literal-past-int": ("return " + "9" * 5000, {}),
    "float-literal-to-inf": ("return " + "9" * 400 + ".5", {}),
    # runtime faults
    "undefined-variable": ("return y", {}),
    "for-over-number": ("for r in 1 { }", {}),
    "if-number": ("if 1 { }", {}),
    "while-number": ("while 0 { }", {}),
    "negate-string": ('return -"a"', {}),
    "negate-bool": ("return -true", {}),
    "field-of-number": ("return (1).x", {}),
    "missing-field": (f"r = {_RECORD}\nreturn r.nope", {}),
    "index-number": ("return 1[0]", {}),
    "index-by-bool": ('return "ab"[true]', {}),
    "index-by-float": ("return [1][0.0]", {}),
    "index-past-end": ("return [1][1]", {}),
    "index-negative": ("return [1][-1]", {}),
    "order-mixed": ('return 1 < "a"', {}),
    "order-bools": ("return true < false", {}),
    "order-lists": ("return [1] <= [2]", {}),
    "add-mixed": ('return 1 + "a"', {}),
    "subtract-strings": ('return "a" - "b"', {}),
    "multiply-string": ('return 2 * "a"', {}),
    "divide-bool": ("return 1 / true", {}),
    "divide-by-zero": ("return 1 / 0", {}),
    "divide-by-float-zero": ("return 1 / 0.0", {}),
    "len-of-number": ("return len(1)", {}),
    "len-of-two": ('return len([1], "a")', {}),
    "first-of-empty": ("return first([])", {}),
    "first-of-string": ('return first("ab")', {}),
    "unknown-function": ("return teleport(1)", {}),
    "tool-arity": ('return get_record("companies")', {}),
    "tool-unknown-table": ('return get_record("nope", "name", "x")', {}),
    "tool-unknown-field": ('return filter_records("cases", "nope", "x")', {}),
    "tool-no-match": ('return get_record("companies", "name", "Nobody")', {}),
    "tool-numeric-table": ("return filter_records(1, 2, 3)", {}),
    "fault-after-work": ('x = 1\ny = x + 2\nreturn y + "a"', {}),
    "fault-inside-loop": ("for r in [1, 2, true] { x = -r }", {}),
    # values
    "arithmetic": ("return [7 / 2, 2.5 * 2, 10 - 3 - 2, 2 * 3 + 4 * 5, "
                   "-2 * -3, (1 + 2) * 3, 1 + 2 * 3 - 4 / 2, 1 / 3, "
                   "0.1 + 0.2, 1000000 * 1000000 * 1000, "
                   "1000000000000000.0]", {}),
    "comparisons": ('return [1 == 1.0, true == 1, 1 != 2, 2 < 3, 3 <= 3, '
                    '4 > 5, 5 >= 5.5, "a" < "b", "b" >= "ab", [1] == [1.0], '
                    '[1, [2]] != [1, [2]]]', {}),
    "equality-of-records": (f"a = {_RECORD}\nb = {_RECORD}\n"
                            "return [a == b, a == a, a != b, [a] == [b]]", {}),
    "equality-of-shared-lists": ("a = [1, 2]\nb = [a, a]\n"
                                 "return [b == [a, a], b == [[1, 2], a]]", {}),
    "equality-of-mismatches": ('return [[1, 2] == [1, 2, 3], [] == [], '
                               '"1" == 1, [[1], 2] == [[2], 2]]', {}),
    "strings-and-indexing": ('s = "abc"\nxs = [10, 20, 30]\n'
                             "return [s[1], xs[2], len(s), len(xs), "
                             "first(xs), s + s]", {}),
    "records": (f"r = {_RECORD}\n"
                'rows = filter_records("cases", "status", "open")\n'
                "return [r.city, len(rows), rows[1].amount, r]", {}),
    "filter-by-number": ('return filter_records("cases", "amount", 1200)', {}),
    "if-else": ("x = 3\nif x > 2 { y = 1 } else { y = 2 }\n"
                "if x > 5 { z = 1 } else { z = 2 }\nif x == 3 { w = 0 }\n"
                "return [y, z, w]", {}),
    "while-count": ("i = 0\nt = 0\nwhile i < 10 { t = t + i\ni = i + 1 }\n"
                    "return t", {}),
    "for-sum": ('rows = filter_records("cases", "status", "open")\n'
                "total = 0\nfor r in rows { total = total + r.amount }\n"
                "return total", {}),
    "nested-loops": ("t = 0\nfor a in [1, 2, 3] { for b in [10, 20] "
                     "{ t = t + a * b } }\nreturn t", {}),
    "return-in-loop": ("for x in [1, 2, 3] { if x == 2 { return x } }\n"
                       "return 0", {}),
    "return-in-while": ("i = 0\nwhile true { i = i + 1\n"
                        "if i >= 4 { return i } }", {}),
    "return-stops-script": ("return 1\nreturn 2", {}),
    "return-mid-line": ("return 1 x = 2", {}),
    "no-return": ("x = 5", {}),
    "loop-variable-survives": ("for r in [1, 2] { x = r }\nreturn r", {}),
    "empty-loop": ("for r in [] { x = 1 }\nreturn 0", {}),
    "empty-blocks": ("if true { } else { }\nwhile false { }\nreturn 1", {}),
    "reassign": ("x = 1\nx = x + 1\nx = [x, x]\nreturn x", {}),
    # budgets
    "steps-exact": ("return 1 + 2", {"max_eval_steps": 4}),
    "steps-one-short": ("return 1 + 2", {"max_eval_steps": 3}),
    "steps-one": ("return 1", {"max_eval_steps": 1}),
    "steps-loop-exact": ("for r in [1, 2, 3] { x = r }\nreturn x",
                         {"max_eval_steps": 16}),
    "steps-loop-one-short": ("for r in [1, 2, 3] { x = r }\nreturn x",
                             {"max_eval_steps": 15}),
    "steps-endless-loop": ("x = 0\nwhile true { x = x + 1 }",
                           {"max_eval_steps": 500}),
    "steps-in-equality": ("return [1, [2, 3]] == [1, [2, 3]]",
                          {"max_eval_steps": 16}),
    "steps-in-equality-one-short": ("return [1, [2, 3]] == [1, [2, 3]]",
                                    {"max_eval_steps": 15}),
    "tools-exact": (f"a = {_RECORD}\nb = {_RECORD}\nc = {_RECORD}\n"
                    "return c.city", {"max_tool_calls": 3}),
    "tools-one-short": (f"a = {_RECORD}\nb = {_RECORD}\nc = {_RECORD}\n"
                        "return c.city", {"max_tool_calls": 2}),
    "tools-arity-before-budget": (f"a = {_RECORD}\n"
                                  'return get_record("companies")',
                                  {"max_tool_calls": 1}),
    "tools-name-before-budget": (f"a = {_RECORD}\nreturn teleport(1, 2, 3)",
                                 {"max_tool_calls": 1}),
    "tools-endless": ('while true { x = filter_records("cases", "status", '
                      '"open") }', {"max_tool_calls": 5}),
    # size limits
    "string-at-limit": (f'return len("{_HALF_STRING}" + "{_HALF_STRING}")',
                        {}),
    "string-past-limit": (f'return len("{_HALF_STRING}" + "{_HALF_STRING}"'
                          ' + "a")', {}),
    "string-doubling": ('s = "ab"\ni = 0\nwhile i < 20 { s = s + s\n'
                        "i = i + 1 }\nreturn len(s)",
                        {"max_eval_steps": 100_000}),
    "integer-at-limit": (f"x = {_WIDEST - 1} + 1\nreturn x == {_WIDEST}", {}),
    "integer-past-limit": (f"return {_WIDEST} + 1", {}),
    "integer-squaring": (_SQUARING.format(3, 20) + "return 1",
                         {"max_eval_steps": 100_000}),
    "integer-subtraction": ("x = 1\ni = 0\nwhile i < 5000 { x = x - (0 - x)\n"
                            "i = i + 1 }\nreturn 1",
                            {"max_eval_steps": 100_000}),
    "division-past-float": (_SQUARING.format(10, 9) + "return x / 3",
                            {"max_eval_steps": 100_000}),
    "int-times-float-past-float": (_SQUARING.format(10, 9) + "return x * 1.5",
                                   {"max_eval_steps": 100_000}),
    "float-squaring-to-inf": (_SQUARING.format("10.0", 10) + "return x",
                              {"max_eval_steps": 100_000}),
    "float-inf-minus-inf": (_SQUARING.format("10.0", 10) + "return x - x",
                            {"max_eval_steps": 100_000}),
    "division-to-inf": ("return 1.5 / 0." + "0" * 320 + "1", {}),
    "output-truncated": ('return filter_records("cases", "status", "open")',
                         {"max_output_bytes": 40}),
    "output-one-byte": ('return "ab"', {"max_output_bytes": 1}),
    "output-at-budget": ('return "abcd"', {"max_output_bytes": 4}),
    "output-multibyte": ('return "ééé"',
                         {"max_output_bytes": 4}),
    "output-deep-list": ("s = [1]\ni = 0\nwhile i < 300 { s = [s]\n"
                         "i = i + 1 }\nreturn s", {"max_output_bytes": 50}),
}
for _kind in _NESTING_KINDS:
    for _depth in (MAX_NESTING_DEPTH, MAX_NESTING_DEPTH + 1):
        CASES[f"nesting-{_kind}-{_depth}"] = (_nested(_kind, _depth), {})


# An outcome: (value, steps_used, tool_calls_used, (fault kind, message) or
# None); a script that faults renders no value.

def _ok(value: str, steps: int, tool_calls: int) -> tuple:
    return value, steps, tool_calls, None


def _parse(message: str) -> tuple:
    return "", 0, 0, (FAULT_PARSE, message)


def _runtime(steps: int, tool_calls: int, message: str) -> tuple:
    return "", steps, tool_calls, (FAULT_RUNTIME, message)


def _limit(steps: int, tool_calls: int, message: str) -> tuple:
    return "", steps, tool_calls, (FAULT_LIMIT, message)


_NESTING_FAULT_OUTCOME = _parse(
    f"script nesting is deeper than {MAX_NESTING_DEPTH} levels")

EXPECTED: dict[str, tuple] = {
    "empty": _ok("null", 0, 0),
    "only-separators": _ok("null", 0, 0),
    "trailing-separators": _ok("1", 2, 0),
    "semicolon-statements": _ok("2", 8, 0),
    "bad-char-first": _parse("unexpected character 'é' at offset 4"),
    "bad-char-after-whitespace": _parse(
        "unexpected character '@' at offset 9"),
    "bad-char-after-separators": _parse(
        "unexpected character '#' at offset 12"),
    "bad-char-after-operator": _parse("unexpected character '$' at offset 13"),
    "bad-char-after-expect-fault": _parse(
        "unexpected character '@' at offset 6"),
    "bad-char-in-lookahead": _parse("unexpected character '$' at offset 14"),
    "parse-fault-before-bad-char": _parse("unexpected token '='"),
    "unexpected-close-before-bad-char": _parse("unexpected token ')'"),
    "expect-fault-before-bad-char": _parse("expected 'name', got '1'"),
    "unterminated-string": _parse("unexpected character '\"' at offset 7"),
    "string-escaped-newline": _parse("unexpected character '\"' at offset 7"),
    "string-escapes": _ok('[a"b, a\\b, a\\nb, ]', 6, 0),
    "float-exponent": _parse("expected '=', got '<eof>'"),
    "keyword-prefix-name": _ok("1", 4, 0),
    "keyword-before-other-letter": _parse("unexpected token 'in'"),
    "missing-operand": _parse("unexpected token '+' in expression"),
    "bare-return": _parse("unexpected token '' in expression"),
    "missing-assign": _parse("expected '=', got '1'"),
    "assign-to-nothing": _parse("unexpected token '' in expression"),
    "call-as-statement": _parse("expected '=', got '('"),
    "unclosed-call": _parse("expected ')', got '<eof>'"),
    "unclosed-list": _parse("expected ']', got '<eof>'"),
    "field-at-eof": _parse("expected 'name', got '<eof>'"),
    "field-number": _parse("expected 'name', got '1'"),
    "dangling-else": _parse("unexpected token 'else'"),
    "chained-comparison": _parse("unexpected token '<'"),
    "keyword-as-name": _parse("unexpected token 'in'"),
    "true-as-name": _parse("unexpected token 'true'"),
    "unterminated-block": _parse("unterminated block"),
    "for-without-in": _parse("expected 'in', got 'of'"),
    "for-number": _parse("expected 'name', got '1'"),
    "block-without-brace": _parse("expected '{', got 'return'"),
    "unclosed-paren": _parse("expected ')', got '<eof>'"),
    "integer-literal-past-int": _parse(
        "number literal of 5000 characters is too large"),
    "float-literal-to-inf": _parse(
        "number literal of 402 characters is too large"),
    "undefined-variable": _runtime(2, 0, "undefined variable 'y'"),
    "for-over-number": _runtime(2, 0, "for-each needs a list"),
    "if-number": _runtime(2, 0,
        "conditions must be boolean (use a comparison)"),
    "while-number": _runtime(2, 0,
        "conditions must be boolean (use a comparison)"),
    "negate-string": _runtime(3, 0, "negation needs a number"),
    "negate-bool": _runtime(3, 0, "negation needs a number"),
    "field-of-number": _runtime(3, 0, "field access needs a record"),
    "missing-field": _runtime(8, 1, "record has no field 'nope'"),
    "index-number": _runtime(4, 0, "indexing needs a list or string"),
    "index-by-bool": _runtime(4, 0, "index must be an integer"),
    "index-by-float": _runtime(5, 0, "index must be an integer"),
    "index-past-end": _runtime(5, 0, "index 1 out of range (length 1)"),
    "index-negative": _runtime(6, 0, "index -1 out of range (length 1)"),
    "order-mixed": _runtime(4, 0, "cannot order int against str"),
    "order-bools": _runtime(4, 0, "cannot order bool against bool"),
    "order-lists": _runtime(6, 0, "cannot order list against list"),
    "add-mixed": _runtime(4, 0, "+ needs two numbers or two strings"),
    "subtract-strings": _runtime(4, 0, "- needs numbers"),
    "multiply-string": _runtime(4, 0, "* needs numbers"),
    "divide-bool": _runtime(4, 0, "/ needs numbers"),
    "divide-by-zero": _runtime(4, 0, "division by zero"),
    "divide-by-float-zero": _runtime(4, 0, "division by zero"),
    "len-of-number": _runtime(3, 0, "len takes one list or string"),
    "len-of-two": _runtime(5, 0, "len takes one list or string"),
    "first-of-empty": _runtime(3, 0, "first of an empty list"),
    "first-of-string": _runtime(3, 0, "first takes one list"),
    "unknown-function": _runtime(3, 0, "unknown tool or function 'teleport'"),
    "tool-arity": _runtime(3, 0, "get_record takes 3 arguments, got 1"),
    "tool-unknown-table": _runtime(5, 1,
        "tool get_record failed: unknown table 'nope'"),
    "tool-unknown-field": _runtime(5, 1,
        "tool filter_records failed: table 'cases' has no field 'nope' "
        "(fields: case_id, status, amount)"),
    "tool-no-match": _runtime(5, 1,
        "tool get_record failed: no companies record with name = 'Nobody'"),
    "tool-numeric-table": _runtime(5, 1,
        "tool filter_records failed: unknown table '1'"),
    "fault-after-work": _runtime(10, 0, "+ needs two numbers or two strings"),
    "fault-inside-loop": _runtime(17, 0, "negation needs a number"),
    "arithmetic": _ok(
        "[3.5, 5, 5, 26, 6, 9, 5, 0.333333, 0.3, 1000000000000000, 1e+15]",
        51, 0),
    "comparisons": _ok(
        "[true, true, true, true, true, false, false, true, true, true, "
        "false]", 47, 0),
    "equality-of-records": _ok("[true, true, false, true]", 43, 2),
    "equality-of-shared-lists": _ok("[true, true]", 28, 0),
    "equality-of-mismatches": _ok("[false, true, false, false]", 27, 0),
    "strings-and-indexing": _ok("[b, 30, 3, 3, 10, abcabc]", 24, 0),
    "records": _ok(
        '[Port Meridell, 3, 800, {"name": AlphaCorp, "city": Port '
        'Meridell, "founded": 2019-04, "case_id": CS-100}]', 21, 2),
    "filter-by-number": _ok(
        '[{"case_id": CS-100, "status": open, "amount": 1200}]', 5, 1),
    "if-else": _ok("[1, 2, 0]", 25, 0),
    "while-count": _ok("45", 130, 0),
    "for-sum": _ok("2040", 29, 1),
    "nested-loops": _ok("180", 66, 0),
    "return-in-loop": _ok("2", 17, 0),
    "return-in-while": _ok("4", 44, 0),
    "return-stops-script": _ok("1", 2, 0),
    "return-mid-line": _ok("1", 2, 0),
    "no-return": _ok("null", 2, 0),
    "loop-variable-survives": _ok("2", 12, 0),
    "empty-loop": _ok("0", 4, 0),
    "empty-blocks": _ok("1", 6, 0),
    "reassign": _ok("[2, 2]", 12, 0),
    "steps-exact": _ok("3", 4, 0),
    "steps-one-short": _limit(3, 0, "evaluation stopped at 3 steps"),
    "steps-one": _limit(1, 0, "evaluation stopped at 1 steps"),
    "steps-loop-exact": _ok("3", 16, 0),
    "steps-loop-one-short": _limit(15, 0, "evaluation stopped at 15 steps"),
    "steps-endless-loop": _limit(500, 0, "evaluation stopped at 500 steps"),
    "steps-in-equality": _ok("true", 16, 0),
    "steps-in-equality-one-short": _limit(15, 0,
        "evaluation stopped at 15 steps"),
    "tools-exact": _ok("Port Meridell", 18, 3),
    "tools-one-short": _limit(15, 2, "tool budget of 2 calls exhausted"),
    "tools-arity-before-budget": _runtime(8, 1,
        "get_record takes 3 arguments, got 1"),
    "tools-name-before-budget": _runtime(10, 1,
        "unknown tool or function 'teleport'"),
    "tools-endless": _limit(42, 5, "tool budget of 5 calls exhausted"),
    "string-at-limit": _ok("65536", 5, 0),
    "string-past-limit": _limit(7, 0,
        "string result longer than 65536 characters"),
    "string-doubling": _limit(192, 0,
        "string result longer than 65536 characters"),
    "integer-at-limit": _ok("true", 8, 0),
    "integer-past-limit": _limit(4, 0, "integer result wider than 4096 bits"),
    "integer-squaring": _limit(144, 0, "integer result wider than 4096 bits"),
    "integer-subtraction": _limit(57344, 0,
        "integer result wider than 4096 bits"),
    "division-past-float": _limit(120, 0,
        "number result too large for a float"),
    "int-times-float-past-float": _limit(120, 0,
        "number result too large for a float"),
    "float-squaring-to-inf": _limit(108, 0,
        "number result too large for a float"),
    "float-inf-minus-inf": _limit(108, 0,
        "number result too large for a float"),
    "division-to-inf": _limit(4, 0, "number result too large for a float"),
    "output-truncated": _ok('[{"case_id": CS-100, "status"[truncated]', 5, 1),
    "output-one-byte": _ok("[", 2, 0),
    "output-at-budget": _ok("abcd", 2, 0),
    "output-multibyte": _ok("[tru", 2, 0),
    "output-deep-list": _ok(
        "[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[truncated]", 3311, 0),
    "nesting-parentheses-64": _ok("1", 2, 0),
    "nesting-parentheses-65": _NESTING_FAULT_OUTCOME,
    "nesting-brackets-64": _ok("[" * 63 + "1" + "]" * 63, 65, 0),
    "nesting-brackets-65": _NESTING_FAULT_OUTCOME,
    "nesting-negations-64": _ok("-1", 65, 0),
    "nesting-negations-65": _NESTING_FAULT_OUTCOME,
    "nesting-if-blocks-64": _ok("1", 128, 0),
    "nesting-if-blocks-65": _NESTING_FAULT_OUTCOME,
    "nesting-while-blocks-64": _ok("null", 2, 0),
    "nesting-while-blocks-65": _NESTING_FAULT_OUTCOME,
    "nesting-sum-chain-64": _ok("64", 128, 0),
    "nesting-sum-chain-65": _NESTING_FAULT_OUTCOME,
    "nesting-product-chain-64": _ok("18446744073709551616", 128, 0),
    "nesting-product-chain-65": _NESTING_FAULT_OUTCOME,
    "nesting-index-chain-64": _runtime(69, 0,
        "indexing needs a list or string"),
    "nesting-index-chain-65": _NESTING_FAULT_OUTCOME,
    "nesting-field-chain-64": _runtime(70, 1, "field access needs a record"),
    "nesting-field-chain-65": _NESTING_FAULT_OUTCOME,
}


def test_every_case_is_pinned():
    assert sorted(EXPECTED) == sorted(CASES)


@pytest.mark.parametrize("case_id", list(CASES))
def test_hand_written_case_runs_as_pinned(company_env, case_id):
    script, limits = CASES[case_id]
    result = eval_script(script, company_env, SandboxLimits(**limits))
    assert _outcome(result) == EXPECTED[case_id]


@pytest.mark.parametrize("kind", _NESTING_KINDS)
def test_nesting_of_the_limit_parses_and_one_more_does_not(company_env, kind):
    at_limit = eval_script(_nested(kind, MAX_NESTING_DEPTH), company_env)
    assert at_limit.fault is None or at_limit.fault.kind == FAULT_RUNTIME
    past = eval_script(_nested(kind, MAX_NESTING_DEPTH + 1), company_env)
    assert _outcome(past) == _NESTING_FAULT_OUTCOME

