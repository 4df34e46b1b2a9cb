from __future__ import annotations

import pytest

from goalact.backends import Rule
from goalact.plan import CODING, History, SkillAction
from goalact.sandbox import (
    CODING_MARKER,
    FAULT_LIMIT,
    FAULT_PARSE,
    FAULT_RUNTIME,
    SandboxLimits,
    Script,
    eval_script,
    exec_coding,
    render_sandbox_outcome,
)
from goalact.skills import SkillContext

from conftest import scripted


def test_arithmetic_identity(company_env):
    result = eval_script(Script("return 1+2"), company_env)
    assert result.ok
    assert result.value == "3"
    assert result.raw_value == 3


def test_filter_then_len_matches_brute_force(company_env):
    script = 'xs = filter_records("cases", "status", "open")\nreturn len(xs)'
    result = eval_script(Script(script), company_env)
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
    result = eval_script(Script(script), company_env)
    assert result.ok
    assert result.value == "none"


def test_loop_sums_a_field(company_env):
    script = "\n".join([
        'rows = filter_records("cases", "status", "open")',
        "total = 0",
        "for r in rows { total = total + r.amount }",
        "return total",
    ])
    result = eval_script(Script(script), company_env)
    expected = sum(row["amount"] for row in company_env.table("cases").rows
                   if row["status"] == "open")
    assert result.value == str(expected)
    assert result.raw_value == expected


def test_infinite_loop_faults_at_exactly_the_step_budget(company_env):
    limits = SandboxLimits(max_eval_steps=500)
    result = eval_script(Script("x = 0\nwhile true { x = x + 1 }"),
                         company_env, limits)
    assert result.fault is not None
    assert result.fault.kind == FAULT_LIMIT
    assert result.steps_used == 500


def test_step_budget_is_never_exceeded(company_env):
    for budget in (1, 7, 40, 300):
        limits = SandboxLimits(max_eval_steps=budget)
        result = eval_script(Script("x = 0\nwhile true { x = x + 1 }"),
                             company_env, limits)
        assert result.steps_used <= budget


def test_tool_budget_is_enforced(company_env):
    limits = SandboxLimits(max_tool_calls=3)
    script = "\n".join([
        "x = 0",
        "while true { "
        'y = filter_records("cases", "status", "open") x = x + 1 }',
    ])
    result = eval_script(Script(script), company_env, limits)
    assert result.fault is not None
    assert result.fault.kind == FAULT_LIMIT
    assert result.tool_calls_used <= 3


def test_unknown_tool_names_the_tool(company_env):
    result = eval_script(Script('return teleport("away")'), company_env)
    assert result.fault is not None
    assert result.fault.kind == FAULT_RUNTIME
    assert "teleport" in result.fault.message


def test_parse_error_reported_as_fault(company_env):
    result = eval_script(Script("return +"), company_env)
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
    result = eval_script(Script(script), company_env)
    assert result.fault is not None
    assert result.fault.kind == FAULT_PARSE
    assert "nesting" in result.fault.message


def test_moderate_nesting_still_runs(company_env):
    script = ("if true { " * 20 + "return " + "(" * 20 + "[1, 2]" + ")" * 20
              + "[1]" + " }" * 20)
    result = eval_script(Script(script), company_env)
    assert result.ok, result.fault
    assert result.value == "2"


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
        result = eval_script(Script(script), company_env)
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
    first = eval_script(Script(script), company_env)
    second = eval_script(Script(script), company_env)
    assert first.value == second.value
    assert first.trace == second.trace
    assert first.steps_used == second.steps_used


def test_float_rendering_uses_six_significant_digits(company_env):
    result = eval_script(Script("return 1/3"), company_env)
    assert result.value == "0.333333"
    assert eval_script(Script("return 2.5 + 1"), company_env).value == "3.5"
    assert eval_script(Script("return 10/2"), company_env).value == "5"


def test_string_and_list_values_render_plainly(company_env):
    assert eval_script(Script('return "plain"'), company_env).value == "plain"
    assert eval_script(Script("return [1, 2]"), company_env).value == "[1, 2]"
    assert eval_script(Script("x = 1"), company_env).value == "null"


def test_comparisons_and_indexing(company_env):
    script = 'xs = [10, 20, 30]\nif xs[1] >= 20 { return xs[2] } return xs[0]'
    assert eval_script(Script(script), company_env).value == "30"


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
    context = SkillContext(question="total open amount?", history=History(),
                           env=company_env, backend=backend,
                           sandbox_limits=SandboxLimits())
    outcome = exec_coding(SkillAction(CODING, "sum open case amounts"), context)
    expected = sum(row["amount"] for row in company_env.table("cases").rows
                   if row["status"] == "open")
    assert f"Result: {expected}" in outcome.observation
    assert outcome.error is None
    assert outcome.payload == {"script": script}


def test_exec_coding_surfaces_faults_as_observations(company_env):
    backend = scripted(Rule.on_substrings('return teleport("x")',
                                          CODING_MARKER))
    context = SkillContext(question="q", history=History(), env=company_env,
                           backend=backend, sandbox_limits=SandboxLimits())
    outcome = exec_coding(SkillAction(CODING, "do something odd"), context)
    assert outcome.error is not None
    assert outcome.error.kind == FAULT_RUNTIME
    assert "Coding fault" in outcome.observation


def test_outcome_rendering_mentions_budgets(company_env):
    result = eval_script(Script("return 1"), company_env)
    rendered = render_sandbox_outcome(result)
    assert rendered.startswith("Result: 1 ")
    assert "tool calls" in rendered
