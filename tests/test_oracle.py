"""Pins the scripted oracle's rules, byte for byte, and its miss text.

Any change to how the oracle assembles rules - their order, responses,
substrings or names - moves the digest.  The rules come as lazily built
per-marker families; flattened in order they must keep the pin, and a
backend that matches within one family must answer and miss exactly as one
that scans the flat list.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from goalact import oracle
from goalact.backends import ScriptedBackend, user_request
from goalact.environment import TOOL_PARAMETERS, ToolCall
from goalact.errors import RuleMiss
from goalact.generator import CATEGORY_ORDER, generate_task
from goalact.oracle import build_oracle_rules, oracle_backend
from goalact.orchestrator import (
    CODEACT_MARKER,
    NO_PLAN_MARKER,
    PE_PLAN_MARKER,
    PE_SUBTASK_MARKER,
    REACT_MARKER,
    SUMMARY_MARKER,
)
from goalact.planner import PLANNING_MARKER
from goalact.sandbox import SandboxLimits, eval_script
from goalact.skills import (
    CODING_MARKER,
    SEARCHING_MARKER,
    WRITING_MARKER,
    parse_tool_emission,
)

RULES_DIGEST = "d0e2c23d8dc1cf6e58d553024824253bcf794f1d33e3256f6f25edf22bb4bdee"

TASKS = [(category, seed) for category in CATEGORY_ORDER
         for seed in range(1, 21)]


def flat_rules(task):
    return [rule for _, build in build_oracle_rules(task) for rule in build()]


def test_oracle_rules_are_pinned():
    digest = hashlib.sha256()
    count = 0
    for category, seed in TASKS:
        for rule in flat_rules(generate_task(category, seed)[0]):
            # The two Nones stand where the retired ordinal and prompt-hash
            # fields were, so the pin is unchanged.
            digest.update(json.dumps(
                [rule.name, rule.response, list(rule.substrings),
                 None, None]).encode("utf-8"))
            count += 1
    assert count == 3860
    assert digest.hexdigest() == RULES_DIGEST


@pytest.mark.parametrize("category, task_id, closest", [
    ("2hop", "khop2-s00003", "khop-search1"),
    ("writing", "writing-s00003", "writing-search1"),
    ("aggregation", "agg-s00003", "agg-script"),
])
def test_a_prompt_without_a_marker_misses_naming_the_first_rule(
        category, task_id, closest):
    backend = oracle_backend(generate_task(category, 3)[0])
    with pytest.raises(RuleMiss) as miss:
        backend.complete(user_request("Say something helpful."))
    assert str(miss.value) == (
        f"[oracle:{task_id}] no rule matched call #1 (closest: {closest}); "
        "prompt starts: 'Say something helpful.'")


METHOD_MARKERS = [SUMMARY_MARKER, PLANNING_MARKER, NO_PLAN_MARKER,
                  REACT_MARKER, CODEACT_MARKER, PE_PLAN_MARKER,
                  PE_SUBTASK_MARKER]
# Each kind lists only the families that hold rules for it.
KIND_MARKERS = {
    "khop": [SEARCHING_MARKER, *METHOD_MARKERS],
    "writing": [SEARCHING_MARKER, WRITING_MARKER, *METHOD_MARKERS],
    "aggregation": [CODING_MARKER, *METHOD_MARKERS],
}


def test_every_oracle_rule_holds_its_family_marker():
    """The invariant that makes matching within one family exact."""
    for category, seed in TASKS:
        task = generate_task(category, seed)[0]
        families = build_oracle_rules(task)
        assert [marker for marker, _ in families] == \
            KIND_MARKERS[task.recipe["kind"]]
        for marker, build in families:
            for rule in build():
                assert any(marker in key for key in rule.substrings), \
                    (category, seed, rule.name)


def _answer(backend, prompt):
    try:
        return backend.complete(user_request(prompt))
    except RuleMiss as miss:
        return f"RuleMiss: {miss}"


def _first_match(rules, prompt):
    """The response of the first rule whose substrings all occur in
    `prompt`, found with no ScriptedBackend code."""
    for rule in rules:
        if all(key in prompt for key in rule.substrings):
            return rule.response
    return None


@pytest.mark.parametrize("category", CATEGORY_ORDER)
def test_family_matching_answers_as_the_full_ordered_scan(category):
    """Each rule's own keys make a one-marker prompt; with another marker
    added they make a two-marker prompt.  Either way the lazy backend gives
    the answer of a backend scanning the flat rule list, shadowed rules
    included, and the answer the test's own scan of that list finds."""
    for seed in (1, 2, 3):
        task = generate_task(category, seed)[0]
        rules = flat_rules(task)
        for rule in rules:
            own = "\n".join(rule.substrings)
            other = CODEACT_MARKER if SUMMARY_MARKER in own else SUMMARY_MARKER
            for prompt in (own, f"{own}\n{other}", f"{other}\n{own}"):
                flat = ScriptedBackend(rules, label=f"oracle:{task.id}")
                answer = _answer(oracle_backend(task), prompt)
                assert answer == _answer(flat, prompt), (rule.name, prompt)
                assert answer == _first_match(rules, prompt), \
                    (rule.name, prompt)


@pytest.mark.parametrize("category, closest", [
    ("2hop", "khop-plan-disabled"),
    ("writing", "writing-plan-disabled"),
    ("aggregation", "agg-plan-disabled"),
])
def test_a_miss_within_the_one_family_names_the_closest_of_all_rules(
        category, closest):
    task = generate_task(category, 3)[0]
    prompt = f"{SEARCHING_MARKER} nothing to look up.\ncurrently disabled"
    backend = oracle_backend(task)
    with pytest.raises(RuleMiss) as miss:
        backend.complete(user_request(prompt))
    flat = ScriptedBackend(flat_rules(task), label=f"oracle:{task.id}")
    with pytest.raises(RuleMiss) as flat_miss:
        flat.complete(user_request(prompt))
    assert str(miss.value) == str(flat_miss.value)
    assert f"no rule matched call #1 (closest: {closest});" in str(miss.value)
    assert backend.calls_made == 1
    assert [rule.name for rule in backend.rules] == \
        [rule.name for rule in flat.rules]


@pytest.mark.parametrize("text", ['a "quoted" id', "back\\slash",
                                  "two\nlines", "a\ttab", "bell\x01",
                                  "Café", "中文", "emoji \U0001F600", ""])
def test_the_oracle_json_texts_are_json_dumps_bytes(text):
    # Generated values are ASCII, so the rules pin would not catch an
    # encoder that writes non-ASCII text unescaped.
    lookup = oracle.Lookup(f"tool {text}", f"table {text}", text, text * 2)
    assert lookup.emission == json.dumps({"tool": lookup.tool, "args": {
        "table": lookup.table, "field": lookup.field, "value": lookup.value}})
    assert oracle._react_json(text, f"Finish[{text}]") == json.dumps(
        {"Thought": text, "Action": f"Finish[{text}]"})


def test_each_lookup_spells_one_call_that_finds_rows():
    """A lookup's emission and ReAct action are one call, its script makes
    that call too, and the call finds rows in its task's environment."""
    lookups = 0
    for category, seed in TASKS:
        task, env = generate_task(category, seed)
        solution = oracle._SOLVERS[task.recipe["kind"]](task)
        for *_, lookup in solution.calls:
            call = ToolCall(lookup.tool, dict(zip(TOOL_PARAMETERS, lookup[1:])))
            assert parse_tool_emission(lookup.emission) == ([call], None)
            assert parse_tool_emission(lookup.action) == ([call], None)
            assert env.invoke_tool(call), lookup
            result = eval_script(f"return {lookup.script}", env,
                                 SandboxLimits())
            assert result.fault is None, (lookup, result.fault)
            lookups += 1
    assert lookups == 20 * (1 + 2 + 3 + 4 + 5 + 4 + 1)
