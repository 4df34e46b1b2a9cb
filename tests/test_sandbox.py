from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import goalact

from goalact import sandbox
from goalact.backends import Rule
from goalact.environment import Table, ToolEnvironment, render_number
from goalact.errors import BackendUnavailable
from goalact.orchestrator import RecordingEnvironment
from goalact.plan import CODING, TRUNCATION_MARKER, SkillAction, Trajectory, \
    truncate_observation
from goalact.sandbox import (
    FAULT_LIMIT,
    FAULT_PARSE,
    FAULT_RUNTIME,
    MAX_INT_BITS,
    MAX_STRING_CHARS,
    SandboxLimits,
    eval_script,
    render_value,
)
from goalact.skills import (
    CODING_MARKER,
    SkillContext,
    exec_coding,
    render_sandbox_outcome,
)

from conftest import ask_of, scripted


def test_arithmetic_identity(company_env):
    result = eval_script("return 1+2", company_env)
    assert result.ok
    assert result.value == "3"
    assert result.raw_value == 3


def test_filter_then_len_matches_brute_force(company_env):
    script = 'xs = filter_records("cases", "status", "open")\nreturn len(xs)'
    result = eval_script(script, company_env)
    table = company_env.table("cases")
    expected = sum(1 for row in table.rows if row["status"] == "open")
    assert result.value == str(expected)
    assert result.tool_calls_used == 1


def test_branch_semantics_on_empty_match(company_env):
    script = (
        'if len(filter_records("cases", "status", "archived")) > 0 '
        '{ return first(filter_records("cases", "status", "archived")).case_id } '
        'return "none"'
    )
    result = eval_script(script, company_env)
    assert result.ok
    assert result.value == "none"


def test_loop_sums_a_field(company_env):
    script = "\n".join([
        'rows = filter_records("cases", "status", "open")',
        "total = 0",
        "for r in rows { total = total + r.amount }",
        "return total",
    ])
    result = eval_script(script, company_env)
    expected = sum(row["amount"] for row in company_env.table("cases").rows
                   if row["status"] == "open")
    assert result.value == str(expected)
    assert result.raw_value == expected


def test_infinite_loop_faults_at_exactly_the_step_budget(company_env):
    limits = SandboxLimits(max_eval_steps=500)
    result = eval_script("x = 0\nwhile true { x = x + 1 }",
                         company_env, limits)
    assert result.fault is not None
    assert result.fault.kind == FAULT_LIMIT
    assert result.steps_used == 500


def test_step_budget_is_never_exceeded(company_env):
    for budget in (1, 7, 40, 300):
        limits = SandboxLimits(max_eval_steps=budget)
        result = eval_script("x = 0\nwhile true { x = x + 1 }",
                             company_env, limits)
        assert result.steps_used <= budget


def test_tool_budget_is_enforced(company_env):
    limits = SandboxLimits(max_tool_calls=3)
    script = "\n".join([
        "x = 0",
        "while true { "
        'y = filter_records("cases", "status", "open") x = x + 1 }',
    ])
    result = eval_script(script, company_env, limits)
    assert result.fault is not None
    assert result.fault.kind == FAULT_LIMIT
    assert result.tool_calls_used <= 3


def test_unknown_tool_names_the_tool(company_env):
    result = eval_script('return teleport("away")', company_env)
    assert result.fault is not None
    assert result.fault.kind == FAULT_RUNTIME
    assert "teleport" in result.fault.message


def test_parse_error_reported_as_fault(company_env):
    result = eval_script("return +", company_env)
    assert result.fault is not None
    assert result.fault.kind == FAULT_PARSE


@pytest.mark.parametrize("script", [
    "return " + "(" * 5000 + "1" + ")" * 5000,
    "return " + "[" * 5000 + "1" + "]" * 5000,
    "return " + "-" * 5000 + "1",
    "if true { " * 2000 + "return 1" + " }" * 2000,
    "return " + " + ".join(["1"] * 5000),
    "x = [1]\nreturn x" + "[0]" * 5000,
], ids=["parentheses", "brackets", "negations", "if-blocks", "operator-chain",
        "index-chain"])
def test_deep_nesting_is_a_parse_fault(company_env, script):
    result = eval_script(script, company_env)
    assert result.fault is not None
    assert result.fault.kind == FAULT_PARSE
    assert "nesting" in result.fault.message


def test_moderate_nesting_still_runs(company_env):
    script = ("if true { " * 20 + "return " + "(" * 20 + "[1, 2]" + ")" * 20
              + "[1]" + " }" * 20)
    result = eval_script(script, company_env)
    assert result.ok, result.fault
    assert result.value == "2"


def _count_token_matches(monkeypatch) -> list[int]:
    """A one-item list counting the lexer's token matches from now on."""
    matches = [0]
    token_re = sandbox._TOKEN_RE

    class CountingPattern:
        def match(self, source, pos):
            matches[0] += 1
            return token_re.match(source, pos)

    monkeypatch.setattr(sandbox, "_TOKEN_RE", CountingPattern())
    return matches


def test_an_over_deep_script_is_refused_before_the_rest_is_lexed(
        company_env, monkeypatch):
    matches = _count_token_matches(monkeypatch)
    script = "return " + "[" * 100000 + "0" + "]" * 100000
    result = eval_script(script, company_env)
    assert result.fault is not None and "nesting" in result.fault.message
    assert matches[0] <= 300


@pytest.mark.parametrize("script", [
    "[" * 100000 + "0" + "]" * 100000,
    "return (1 + ) $",
    "return 1 + \n x = = 2 @",
    "if true { return 1 ~",
    "return " + "9" * 5000 + " #",
], ids=["over-deep-statement", "empty-operand", "double-equals",
        "unterminated-block", "huge-literal"])
def test_the_first_parse_fault_ends_lexing(company_env, monkeypatch, script):
    """The first fault in parse order is reported, a bad character among
    them, and no more of the script is lexed."""
    matches = _count_token_matches(monkeypatch)
    result = eval_script(script, company_env)
    assert result.fault is not None and result.fault.kind == FAULT_PARSE
    assert matches[0] <= 300


def test_runtime_faults_cover_common_misuse(company_env):
    cases = {
        "return undefined_name": "undefined",
        "return 1/0": "zero",
        'return "a" + 1': "numbers or two strings",
        'r = get_record("companies", "name", "AlphaCorp")\nreturn r.missing':
            "no field",
        'return get_record("companies", "name", "NoSuchCo")': "no companies",
    }
    for script, fragment in cases.items():
        result = eval_script(script, company_env)
        assert result.fault is not None, script
        assert result.fault.kind == FAULT_RUNTIME
        assert fragment in result.fault.message


def test_determinism_including_trace_order(company_env):
    script = "\n".join([
        'a = filter_records("cases", "status", "open")',
        'b = get_record("companies", "name", "AlphaCorp")',
        "total = 0",
        "for r in a { total = total + r.amount }",
        "return [total, b.city, len(a)]",
    ])
    runs = []
    for _ in range(2):
        trajectory = Trajectory(task_id="t", method="CodeAct")
        env = RecordingEnvironment(company_env, trajectory, 4096)
        runs.append((eval_script(script, env), trajectory.tool_calls))
    (first, first_calls), (second, second_calls) = runs
    assert first.ok and first.value == second.value
    assert first.steps_used == second.steps_used
    assert first.tool_calls_used == second.tool_calls_used == 2
    assert [(c.tool, c.arguments) for c in first_calls] == [
        ("filter_records", {"table": "cases", "field": "status",
                            "value": "open"}),
        ("get_record", {"table": "companies", "field": "name",
                        "value": "AlphaCorp"}),
    ]
    assert first_calls == second_calls


def test_float_rendering_uses_six_significant_digits(company_env):
    result = eval_script("return 1/3", company_env)
    assert result.value == "0.333333"
    assert eval_script("return 2.5 + 1", company_env).value == "3.5"
    assert eval_script("return 10/2", company_env).value == "5"


def test_string_and_list_values_render_plainly(company_env):
    assert eval_script('return "plain"', company_env).value == "plain"
    assert eval_script("return [1, 2]", company_env).value == "[1, 2]"
    assert eval_script("x = 1", company_env).value == "null"


def test_comparisons_and_indexing(company_env):
    script = 'xs = [10, 20, 30]\nif xs[1] >= 20 { return xs[2] } return xs[0]'
    assert eval_script(script, company_env).value == "30"


# --- value growth ----------------------------------------------------------------

def _render_in_full(value) -> str:
    """render_value as one recursive pass over the whole value: the oracle."""
    if value is None:
        return "null"
    if isinstance(value, (bool, int, float)):
        return render_number(value)
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        return "[" + ", ".join(_render_in_full(v) for v in value) + "]"
    if isinstance(value, dict):
        inner = ", ".join(f'"{k}": {_render_in_full(v)}'
                          for k, v in value.items())
        return "{" + inner + "}"
    return str(value)


def _random_value(rng: random.Random, depth: int = 0):
    kind = rng.randrange(8 if depth < 4 else 6)
    if kind == 0:
        return None
    if kind == 1:
        return rng.choice([True, False])
    if kind == 2:
        return rng.randint(-10**6, 10**6)
    if kind == 3:
        return rng.uniform(-1e4, 1e4)
    if kind in (4, 5):
        return "".join(rng.choice("ab, []{}\"é漢😀")
                       for _ in range(rng.randint(0, 12)))
    if kind == 6:
        return [_random_value(rng, depth + 1) for _ in range(rng.randint(0, 5))]
    return {f"k{i}": _random_value(rng, depth + 1)
            for i in range(rng.randint(0, 4))}


def test_bounded_rendering_truncates_to_the_bytes_of_a_full_rendering():
    rng = random.Random(3)
    for _ in range(3000):
        value = _random_value(rng)
        full = _render_in_full(value)
        assert render_value(value, len(full)) == full
        for budget in (1, 5, 11, 12, 40, 200, 4096):
            assert truncate_observation(render_value(value, budget), budget) \
                == truncate_observation(full, budget)


def _eval_in_subprocess(script: str) -> tuple[str, str | None, float]:
    """eval_script's (value, fault kind, seconds) for `script`, run in a
    fresh interpreter that is killed after 30 seconds."""
    probe = ("import json, sys, time\n"
             "from goalact.environment import ToolEnvironment\n"
             "from goalact.sandbox import eval_script\n"
             "start = time.perf_counter()\n"
             "r = eval_script(sys.argv[1], ToolEnvironment())\n"
             "print(json.dumps([r.value, r.fault and r.fault.kind,\n"
             "                  time.perf_counter() - start]))\n")
    src = str(Path(goalact.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", probe, script], env=env,
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    return tuple(json.loads(done.stdout))


def test_doubled_list_result_renders_only_the_output_budget():
    # 2**24 leaves: a full rendering takes minutes, so the script runs in a
    # subprocess that is killed at the timeout rather than run to the end.
    script = "s = [1]\n" + "s = [s, s]\n" * 24 + "return s"
    value, fault, _ = _eval_in_subprocess(script)
    assert fault is None
    # The full rendering opens with 14 brackets and then the whole rendering
    # of the 10-doubling subtree, which is already longer than the budget.
    subtree = [1]
    for _ in range(10):
        subtree = [subtree, subtree]
    budget = SandboxLimits().max_output_bytes
    assert len(_render_in_full(subtree)) > budget
    assert value == truncate_observation("[" * 14 + _render_in_full(subtree),
                                         budget)
    assert value.endswith(TRUNCATION_MARKER)


def test_deeply_nested_result_renders_without_recursion(company_env):
    script = "s = [1]\ni = 0\nwhile i < 5000 { s = [s]\ni = i + 1 }\nreturn s"
    result = eval_script(script, company_env,
                         SandboxLimits(max_eval_steps=100_000))
    assert result.ok, result.fault
    budget = SandboxLimits().max_output_bytes
    assert result.value == truncate_observation("[" * 5001 + "1", budget)


# --- equality ------------------------------------------------------------------

_DOUBLED_PAIR = ("s = [1]\nt = [1]\ni = 0\n"
                 "while i < {} {{ s = [s, s]  t = [t, t]  i = i + 1 }}\n"
                 "return s == t")


def test_comparing_shared_structure_is_bounded_by_the_step_budget():
    # 2**40 leaf pairs: Python's own == would not finish, so the script runs
    # in a subprocess that is killed at the timeout.
    value, fault, seconds = _eval_in_subprocess(_DOUBLED_PAIR.format(40))
    assert fault == FAULT_LIMIT
    assert seconds < 1.0


def test_comparison_charges_one_step_per_member_pair(company_env):
    steps = [eval_script(_DOUBLED_PAIR.format(n), company_env)
             for n in (2, 3)]
    assert [r.raw_value for r in steps] == [True, True]
    # A round of the loop costs 16 steps.  After n rounds, s == t compares
    # 2 + 4 + ... + 2**n list pairs and then 2**n leaf pairs: 10 at n = 2
    # and 22 at n = 3.
    assert steps[1].steps_used - steps[0].steps_used == 16 + 22 - 10


def test_comparing_deep_lists_does_not_recurse(company_env):
    script = ("s = [1]\nt = [1]\ni = 0\n"
              "while i < 5000 { s = [s]  t = [t]  i = i + 1 }\n"
              "return [s == t, s != t, s == [t]]")
    result = eval_script(script, company_env,
                         SandboxLimits(max_eval_steps=100_000))
    assert result.ok, result.fault
    assert result.raw_value == [True, False, False]


_EQUALITY_ENV = ToolEnvironment(tables=(Table("r", "id", (
    {"id": "p", "n": 1, "xs": [1, 2]},
    {"id": "q", "n": 1.0, "xs": [1, 2.0]},
    {"id": "s", "n": True, "ys": [1, 2]},
    {"id": "u", "n": 2, "xs": [[1], {"a": 1}]},
)),))
_EQUALITY_ATOMS = ("0", "1", "1.0", "2", "true", "false", '"1"', '"a"', '""',
                   *(f'get_record("r", "id", "{key}")' for key in "pqsu"))


def _random_expression(rng: random.Random, names: list[str],
                       depth: int = 0) -> str:
    roll = rng.random()
    if names and roll < 0.3:
        return rng.choice(names)
    if depth < 3 and roll < 0.6:
        items = [_random_expression(rng, names, depth + 1)
                 for _ in range(rng.randint(0, 3))]
        return "[" + ", ".join(items) + "]"
    return rng.choice(_EQUALITY_ATOMS)


def test_equality_matches_python_on_random_values():
    rng = random.Random(11)
    for _ in range(200):
        names: list[str] = []
        lines = []
        for i in range(8):
            lines.append(f"v{i} = {_random_expression(rng, names)}")
            names.append(f"v{i}")
        pairs = [(rng.randrange(8), rng.randrange(8), rng.choice(["==", "!="]))
                 for _ in range(12)]
        lines.append("return [[" + ", ".join(names) + "], [" + ", ".join(
            f"v{i} {op} v{j}" for i, j, op in pairs) + "]]")
        result = eval_script("\n".join(lines), _EQUALITY_ENV)
        assert result.ok, result.fault
        values, verdicts = result.raw_value
        assert verdicts == [(values[i] == values[j]) == (op == "==")
                            for i, j, op in pairs], lines


@pytest.mark.parametrize("script, message", [
    ('s = "ab"\ni = 0\nwhile i < 20 { s = s + s\ni = i + 1 }\nreturn len(s)',
     f"longer than {MAX_STRING_CHARS} characters"),
    ("x = 3\ni = 0\nwhile i < 20 { x = x * x\ni = i + 1 }\nreturn 1",
     f"wider than {MAX_INT_BITS} bits"),
    ("x = 1\ni = 0\nwhile i < 5000 { x = x + x\ni = i + 1 }\nreturn 1",
     f"wider than {MAX_INT_BITS} bits"),
    ("x = 1\ni = 0\nwhile i < 5000 { x = x - (0 - x)\ni = i + 1 }\nreturn 1",
     f"wider than {MAX_INT_BITS} bits"),
], ids=["string-doubling", "integer-squaring", "integer-doubling",
        "integer-subtraction"])
def test_growing_values_fault_at_the_size_limit(company_env, script, message):
    result = eval_script(script, company_env,
                         SandboxLimits(max_eval_steps=100_000))
    assert result.fault is not None
    assert result.fault.kind == FAULT_LIMIT
    assert message in result.fault.message


_SQUARE_TEN = "x = {}\ni = 0\nwhile i < {} {{ x = x * x\ni = i + 1 }}\n"


@pytest.mark.parametrize("script, kind", [
    ("return " + "9" * 5000, FAULT_PARSE),
    ("return " + "9" * 400 + ".5", FAULT_PARSE),
    (_SQUARE_TEN.format(10, 9) + "return x / 3", FAULT_LIMIT),
    (_SQUARE_TEN.format(10, 9) + "return x * 1.5", FAULT_LIMIT),
    (_SQUARE_TEN.format("10.0", 10) + "return x", FAULT_LIMIT),
    (_SQUARE_TEN.format("10.0", 10) + "return x - x", FAULT_LIMIT),
    ("return 1.5 / " + "0." + "0" * 320 + "1", FAULT_LIMIT),
], ids=["integer-literal-past-int", "float-literal-to-inf",
        "division-past-float", "int-times-float-past-float",
        "float-squaring-to-inf", "float-inf-minus-inf", "division-to-inf"])
def test_numbers_past_a_float_come_back_as_faults(company_env, script, kind):
    result = eval_script(script, company_env,
                         SandboxLimits(max_eval_steps=100_000))
    assert result.fault is not None
    assert result.fault.kind == kind
    assert "too large" in result.fault.message
    assert "Coding fault" in render_sandbox_outcome(result)


def test_values_at_the_size_limit_still_compute(company_env):
    half = "a" * (MAX_STRING_CHARS // 2)
    at_limit = eval_script(f'return len("{half}" + "{half}")',
                           company_env)
    assert at_limit.raw_value == MAX_STRING_CHARS
    over = eval_script(f'return len("{half}" + "{half}" + "a")',
                       company_env)
    assert over.fault is not None and over.fault.kind == FAULT_LIMIT
    widest = 2 ** MAX_INT_BITS - 1
    assert eval_script(f"return {widest - 1} + 1",
                       company_env).raw_value == widest
    assert eval_script(f"return {widest} + 1",
                       company_env).fault.kind == FAULT_LIMIT


def test_limits_must_be_positive():
    with pytest.raises(ValueError):
        SandboxLimits(max_eval_steps=0)


def test_exec_coding_round_trip(company_env):
    script = "\n".join([
        'rows = filter_records("cases", "status", "open")',
        "total = 0",
        "for r in rows { total = total + r.amount }",
        "return total",
    ])
    backend = scripted(Rule.on_substrings(f"```\n{script}\n```",
                                          CODING_MARKER))
    context = SkillContext(question="total open amount?", history=(),
                           env=company_env, ask=ask_of(backend),
                           sandbox_limits=SandboxLimits(),
                           observation_bytes=4096, writing_budget=12000)
    observation, payload = exec_coding(
        SkillAction(CODING, "sum open case amounts"), context)
    expected = sum(row["amount"] for row in company_env.table("cases").rows
                   if row["status"] == "open")
    assert observation.startswith(f"Result: {expected} [")
    assert payload == {"script": script}


def test_exec_coding_surfaces_faults_as_observations(company_env):
    backend = scripted(Rule.on_substrings('return teleport("x")',
                                          CODING_MARKER))
    context = SkillContext(question="q", history=(), env=company_env,
                           ask=ask_of(backend), sandbox_limits=SandboxLimits(),
                           observation_bytes=4096, writing_budget=12000)
    observation, _ = exec_coding(SkillAction(CODING, "do something odd"),
                                 context)
    assert observation.startswith(f"Coding fault ({FAULT_RUNTIME}): ")


def test_exec_coding_degrades_on_backend_outage(company_env):
    """The executor leaves its outage to `dispatch`, which renders it."""
    def down(prompt):
        raise BackendUnavailable("gave up")

    context = SkillContext(question="q", history=(), env=company_env,
                           ask=down, sandbox_limits=SandboxLimits(),
                           observation_bytes=4096, writing_budget=12000)
    with pytest.raises(BackendUnavailable, match="gave up"):
        exec_coding(SkillAction(CODING, "sum"), context)


def test_outcome_rendering_mentions_budgets(company_env):
    result = eval_script("return 1", company_env)
    rendered = render_sandbox_outcome(result)
    assert rendered.startswith("Result: 1 ")
    assert "tool calls" in rendered
