from __future__ import annotations

import json
import random
import re
import time

import pytest

from goalact import planner
from goalact.backends import Rule, decode_json
from goalact.environment import TOOL_DESCRIPTIONS, ToolCall, ToolEnvironment
from goalact.errors import FatalError, GoalActError, PlanError, PlanningFailed
from goalact.generator import CATEGORY_ORDER, generate_task
from goalact.oracle import (build_oracle_rules, join_step_objects,
                            render_step_object)
from goalact.plan import (BUILTIN_KINDS, FINISH, SEARCHING, History,
                          SkillAction, history_of)
from goalact.planner import (
    PLANNING_MARKER,
    REPAIR_INSTRUCTION,
    build_planning_prompt,
    count_word,
    finish_answer,
    load_exemplars,
    parse_action,
    parse_plan_response,
    parse_step_texts,
    parse_thought_action,
    parse_tool_emission,
    planning_frame,
    render_history,
    render_skill_menu,
    update_global_plan,
)
from goalact.skills import SkillDescriptor, default_registry, register_skill

from conftest import ask_of, executed_steps, plan_reply, scripted


def _prompt(env: ToolEnvironment, history: History = (),
            registry=None) -> str:
    return build_planning_prompt("Which city hosts AlphaCorp?", env, history,
                                 ("example one", "example two"),
                                 registry or default_registry())


def test_prompt_contains_tools_and_empty_chain(company_env):
    prompt = _prompt(company_env)
    assert "get_record(" in prompt
    assert f"{PLANNING_MARKER}\n\n" in prompt  # empty scratchpad section
    assert "Please continue to think and execute based on the existing " \
           "planning chain" in prompt


def test_prompt_places_both_exemplars_between_markers(company_env):
    prompt = _prompt(company_env)
    start = prompt.index("Here are some reference examples:")
    end = prompt.index("Reference examples end.")
    assert start < prompt.index("example one") < end
    assert start < prompt.index("example two") < end


def test_prompt_renders_history_lines_in_order(company_env):
    history = executed_steps(
        ("need the record", SkillAction(SEARCHING, "companies by name"),
         '{"name": "AlphaCorp"}'),
    )
    prompt = _prompt(company_env, history)
    assert render_history(history) in prompt
    thought_at = prompt.index("Thought: need the record")
    action_at = prompt.index("Action: Searching[companies by name]")
    observation_at = prompt.index('Observation: {"name": "AlphaCorp"}')
    assert thought_at < action_at < observation_at


def test_prompt_lists_four_builtin_action_types(company_env):
    prompt = _prompt(company_env)
    assert "one of the following four types" in prompt
    for kind in ("Searching", "Coding", "Writing", "Finish"):
        assert f"{kind}:" in prompt


def test_registered_kind_appears_as_fifth_action_type(company_env):
    registry = register_skill(default_registry(), "Reasoning",
                              SkillDescriptor(name="Reasoning",
                                              description="Think it through."))
    prompt = _prompt(company_env, registry=registry)
    assert "one of the following five types" in prompt
    assert "Reasoning: Think it through." in prompt


def test_disabled_skill_vanishes_from_prompt(company_env):
    registry = default_registry().disable("Coding")
    prompt = _prompt(company_env, registry=registry)
    assert "Coding" not in prompt


def test_values_holding_slot_markers_are_inserted_verbatim():
    markers = " ".join("{%s}" % slot for slot in (
        "question", "table_used_prompt", "tool_prompt", "memory",
        "scratchpad", "skill_count", "skill_menu"))

    class MarkerEnv:
        def render_table_schemas(self):
            return markers

    registry = default_registry()
    count, menu = render_skill_menu(registry)
    values = {"question": markers, "table_used_prompt": markers,
              "tool_prompt": TOOL_DESCRIPTIONS, "memory": markers,
              "scratchpad": markers, "skill_count": count_word(count),
              "skill_menu": menu}
    expected = re.sub(r"\{(\w+)\}", lambda m: values[m.group(1)],
                      planner.load_template())
    # The scratchpad is joined in as a round joins its rendered history.
    prompt = markers.join(planning_frame(markers, MarkerEnv(), (markers,),
                                         registry))
    assert prompt == expected
    assert prompt.count(markers) == 5 and prompt.count(menu) == 1


def test_template_without_a_slot_is_an_error(company_env, monkeypatch):
    template = planner.load_template().replace("{memory}", "")
    monkeypatch.setattr(planner, "load_template", lambda: template)
    planner._template_parts.cache_clear()
    try:
        with pytest.raises(GoalActError,
                           match=r"template lost its \{memory\} marker"):
            _prompt(company_env)
    finally:
        planner._template_parts.cache_clear()


def test_default_exemplars_match_configured_count():
    assert len(load_exemplars(None, 2)) == 2
    with pytest.raises(FatalError,
                       match="3 exemplars requested but the package holds 2"):
        load_exemplars(None, 3)


def test_default_exemplars_are_equal_tuples_on_every_call():
    first = load_exemplars(None, 2)
    assert isinstance(first, tuple)
    assert load_exemplars(None, 2) == first
    assert load_exemplars(None, 1) == first[:1]


@pytest.mark.parametrize("one_line_file", [False, True])
def test_load_exemplars_enforces_the_count(tmp_path, one_line_file):
    path = None
    if one_line_file:
        path = tmp_path / "exemplars.jsonl"
        path.write_text(json.dumps({"transcript": "only one"}) + "\n",
                        encoding="utf-8")
    held = len(load_exemplars(path, 1 if one_line_file else 2))
    assert held == (1 if one_line_file else 2)
    for count in (held + 1, -1):
        with pytest.raises(FatalError, match=f"^{count} exemplars requested "
                                             f"but .* holds {held}$"):
            load_exemplars(path, count)


def test_parse_round_trips_the_documented_format():
    raw = '[{"Thinking":"need company record","Action":"Searching[CompanyTable by name=X]"}]'
    steps = parse_plan_response(raw)
    assert len(steps) == 1
    thought, action = steps[0]
    assert thought == "need company record"
    assert action.kind == SEARCHING
    assert action.objective == "CompanyTable by name=X"


def test_parse_strips_code_fences():
    raw = '[{"Thinking":"t","Action":"Finish[]"}]'
    fenced = f"```json\n{raw}\n```"
    assert parse_plan_response(fenced) == parse_plan_response(raw)


def test_parse_rejects_unknown_kind():
    with pytest.raises(PlanError, match="kind 'Fly' is not a registered skill"):
        parse_plan_response('[{"Thinking":"done","Action":"Fly[away]"}]')


def test_parse_rejects_malformed_missing_and_empty():
    with pytest.raises(PlanError, match="holds no parseable array"):
        parse_plan_response("no array here at all")
    with pytest.raises(PlanError, match="exactly the keys Thinking and Action"):
        parse_plan_response('[{"Thinking":"t"}]')
    with pytest.raises(PlanError, match="exactly the keys Thinking and Action"):
        parse_plan_response('[{"Thinking":"t","Action":"Finish[]","Extra":1}]')
    with pytest.raises(PlanError, match="the parsed plan has no steps"):
        parse_plan_response("[]")


def test_parse_is_case_insensitive_on_kinds():
    steps = parse_plan_response('[{"Thinking":"t","Action":"searching[x]"}]')
    assert steps[0][1].kind == SEARCHING


def test_parse_render_parse_is_idempotent():
    raw = json.dumps([
        {"Thinking": "first", "Action": "Searching[companies by name]"},
        {"Thinking": "then", "Action": "Coding[sum the amounts]"},
        {"Thinking": "done", "Action": "Finish[]"},
    ])
    parsed = parse_plan_response(raw)
    assert parse_plan_response(plan_reply(
        (thought, action.render()) for thought, action in parsed)) == parsed


# Characters the JSON string encoder treats specially, plus multi-byte ones.
_FUZZ_ALPHABET = (['"', "\\", "/", "\n", "\t", "\x7f", "\u2028", "é", "漢",
                   "字", "\U0001F600", "\U00010348", " ", "a", "Z", "0", "["]
                  + [chr(c) for c in range(0x20)])


def test_step_array_writes_the_bytes_of_json_dumps_with_indent():
    rng = random.Random(20240)

    def text() -> str:
        return "".join(rng.choice(_FUZZ_ALPHABET)
                       for _ in range(rng.randint(0, 12)))

    assert join_step_objects([]) == "[]" == json.dumps([], indent=2)
    for _ in range(20_000):
        steps = [(text(), text()) for _ in range(rng.randint(0, 5))]
        assert join_step_objects([render_step_object(t, a)
                                  for t, a in steps]) == plan_reply(steps)


def _fixture_plan_text() -> str:
    return plan_reply([("find the record", "Searching[companies by name]"),
                       ("read the city", "Searching[cases by case_id]"),
                       ("answer", "Finish[]")])


def _update(env, plan_prev, ask):
    """One GoalAct planning round over the frame a run builds for
    question "q"."""
    registry = default_registry()
    frame = planning_frame("q", env, load_exemplars(None, 2), registry)
    return update_global_plan(
        plan_prev, ask, frame,
        lambda raw: parse_plan_response(raw, registry.kinds()), 12,
        "\n\n" + REPAIR_INSTRUCTION, "plan")


def test_update_builds_revision_one_from_fixture(company_env):
    backend = scripted(Rule.on_substrings(_fixture_plan_text(),
                                          PLANNING_MARKER))
    plan = _update(company_env, None, ask_of(backend))
    assert plan.revision == 1
    assert [s.action.kind for s in plan.steps] == [SEARCHING, SEARCHING, FINISH]
    assert all(not s.executed for s in plan.steps)


def test_update_preserves_the_executed_prefix_verbatim(company_env):
    backend = scripted(Rule.on_substrings(_fixture_plan_text(),
                                          PLANNING_MARKER))
    plan = _update(company_env, None, ask_of(backend))
    executed = plan.steps[0].mark_executed("saw the record")
    plan = type(plan)(steps=(executed,) + plan.steps[1:], revision=plan.revision)

    continuation = plan_reply([("new direction", "Searching[cases by status]"),
                               ("answer", "Finish[]")])
    backend2 = scripted(Rule.on_substrings(continuation, PLANNING_MARKER))
    updated = _update(company_env, plan, ask_of(backend2))
    assert updated.revision == 2
    assert updated.steps[0] == executed
    assert len(updated.steps) == 3
    assert history_of(updated) == history_of(plan)


def test_update_fails_after_two_finishless_attempts(company_env):
    no_finish = plan_reply([("just keep looking",
                             "Searching[companies by name]")])
    backend = scripted(Rule.on_substrings(no_finish, PLANNING_MARKER))
    with pytest.raises(PlanningFailed):
        _update(company_env, None, ask_of(backend))
    assert backend.calls_made == 2


def test_update_repairs_once_then_succeeds(company_env):
    backend = scripted(
        Rule.on_substrings(_fixture_plan_text(), PLANNING_MARKER,
                           "Output a valid structured array only"),
        Rule.on_substrings("not json at all", PLANNING_MARKER),
    )
    plan = _update(company_env, None, ask_of(backend))
    assert plan.revision == 1
    assert backend.calls_made == 2


def test_update_never_returns_an_invalid_plan_under_fuzzing(company_env):
    import random

    from goalact.plan import validate_plan

    rng = random.Random(808)
    kinds = ["Searching", "Coding", "Writing", "Finish", "Teleport"]
    returned = errored = 0
    for _ in range(500):
        steps = [{"Thinking": "t",
                  "Action": f"{rng.choice(kinds)}[{rng.choice(['x', ''])}]"}
                 for _ in range(rng.randrange(0, 6))]
        text = rng.choice([
            json.dumps(steps),
            "garbage " + json.dumps(steps),
            "not parseable at all",
        ])
        backend = scripted(Rule.on_substrings(text, PLANNING_MARKER))
        try:
            plan = _update(company_env, None, ask_of(backend))
        except PlanningFailed:
            errored += 1
            continue
        validate_plan(plan, max_steps=12)  # must hold for anything returned
        returned += 1
    assert returned + errored == 500
    assert returned > 0 and errored > 0


@pytest.mark.parametrize("text, answer", [
    ("Finish[AlphaCorp]", "AlphaCorp"),
    ("  finish [ 42 ]\n", "42"),
    ("FINISH", ""),
    ("Finish[]", ""),
    ("\u2003Finish[x]", "x"),
    ("Finish[a] and [b]", "a] and [b"),
    ("Finished[x]", None),
    ("Finish[x] then more", None),
    ("Finish2[x]", None),
    ("get_record[table=t]", None),
    ("", None),
])
def test_finish_answer_reads_a_finish_in_any_letter_case(text, answer):
    assert finish_answer(text) == answer


@pytest.mark.parametrize("text, calls, problem", [
    ('{"tool": "get_record", "args": {"table": "t"}}',
     [("get_record", {"table": "t"})], None),
    ('```json\n{"tool": "a"}\n```', [("a", {})], None),
    ('[{"tool": "a"}, 5, {"tool": "b", "args": {"k": 1}}]',
     [("a", {}), ("b", {"k": 1})], None),
    ("[1, 2]", [], 'array held no {"tool": ...} objects'),
    ('{"args": {}}', [], 'object lacks a "tool" key'),
    ('{"tool": "a"}\nprose\nb[k=v, j = "w"]',
     [("a", {}), ("b", {"k": "v", "j": "w"})], None),
    ("get_record[table=companies,\n field=name]",
     [("get_record", {"table": "companies", "field": "name"})], None),
    ("get_record[]", [("get_record", {})], None),
    ("get_record[table]", [], "no tool call found in the emission"),
    ("null", [], "no tool call found in the emission"),
    ("", [], "no tool call found in the emission"),
])
def test_tool_emission_forms(text, calls, problem):
    """An object, an array, one call per line, or one Tool[k=v, ...] call
    over the whole emission, lines included."""
    assert parse_tool_emission(text) == (
        [ToolCall(tool_name=name, arguments=args) for name, args in calls],
        problem)


def _oracle_emissions() -> list[str]:
    """Every response the oracle writes over 7 categories x seeds 1-5, and
    the action of each of its ReAct turns."""
    texts = []
    for category in CATEGORY_ORDER:
        for seed in range(1, 6):
            task = generate_task(category, seed)[0]
            for _, build in build_oracle_rules(task):
                for rule in build():
                    texts.append(rule.response)
                    if rule.name.split("-")[-2] == "react":
                        texts.append(json.loads(rule.response)["Action"])
    return texts


_HAND_EMISSIONS = [
    ' \t\n\r{"tool": "get_record", "args": {"table": "t"}}',
    ' \t\n\r[{"tool": "a"}]', "\v{\"tool\": \"a\"}", "\ufeff{\"tool\": \"a\"}",
    "false", "true", "null", "-1", "NaN", "Infinity", "-Infinity", '"x"',
    "[]", "{}", "", "  ", "0", "12 ", "falsehood[a=1]", "nullify[a=1]",
    "NaNa[a=1]", "Infinity[a=1]", "filter_records[table=t, field=f, value=v]",
    "get_record[table=t, field=f, value=v]",
    'get_record[table=a, field=b, value=c]\n{"tool": "filter_records", '
    '"args": {"table": "t"}}\nprose',
    'Thinking first.\n  get_record[table=a, field=b, value=c]',
    '```json\n{"tool": "a", "args": {}}\n```', "[1, 2", '{"tool": "a"',
]


def test_tool_emission_reads_as_with_every_text_decoded(monkeypatch):
    """Skipping the JSON decode of a text that cannot begin a JSON value
    changes no result: each emission reads as it does when every text is
    handed to `decode_json`."""
    rng = random.Random(24)
    corpus = _oracle_emissions() + _HAND_EMISSIONS + \
        [_hostile_text(rng) for _ in range(200)]
    assert len(corpus) > 1000
    actual = [parse_tool_emission(text) for text in corpus]

    def always_decoded(text):
        try:
            return decode_json(text)
        except json.JSONDecodeError:
            return None

    monkeypatch.setattr(planner, "_decoded", always_decoded)
    for text, got in zip(corpus, actual):
        assert got == parse_tool_emission(text), text[:80]


# --- every completion reader against hostile text ----------------------------------

_DIGITS = "1" * 5000  # past int()'s 4,300-digit conversion limit
_SOUP = ["[", "]", "{", "}", '"', ":", ",", " ", "\n", "```", "```json\n",
         '"Thinking"', '"Thought"', '"Action"', '"tool"', '"args"', "Finish",
         "finish[", "Searching[", "get_record", "=", "'", "\\", "null",
         "1e999", "-0.5", _DIGITS, "-" + _DIGITS, "\u00e9", "\ud800", "x"]
_OPENERS = ["[", '{"a":', '[{"Thinking":', '{"Thought":',
            '{"tool": "get_record", "args": {"value":', "Searching[", "("]
_DOCUMENTS = [
    json.dumps([{"Thinking": "look it up", "Action": "Searching[the city]"},
                {"Thinking": "done", "Action": "Finish[]"}]),
    json.dumps({"Thought": "look", "Action": "get_record[table=companies, "
                "field=name, value=AlphaCorp]"}),
    json.dumps({"tool": "filter_records", "args": {
        "table": "cases", "field": "status", "value": "open"}}),
    '[{"Thinking": %s, "Action": "Finish"}]' % _DIGITS,
    "Finish[AlphaCorp]",
    "Coding[sum the open amounts]",
    "get_record[table=companies, field=name, value=AlphaCorp]",
]


def _hostile_text(rng: random.Random) -> str:
    """Token soup, a nesting 100,000 deep, or a well-formed document that is
    fenced, wrapped in prose or cut short."""
    case = rng.randrange(5)
    if case == 0:
        return "".join(rng.choice(_SOUP) for _ in range(rng.randrange(120)))
    if case == 1:
        closed = rng.choice([100_000, rng.randrange(100_000), 0])
        return rng.choice(_OPENERS) * 100_000 + "0" + \
            rng.choice("]})") * closed
    document = rng.choice(_DOCUMENTS)
    if case == 2:
        return f"```{rng.choice(['', 'json'])}\n{document}\n```"
    if case == 3:
        return f"Here is my reply:\n{document}\nI hope it helps [really]."
    return document[:rng.randrange(len(document) + 1)]


def _is_tool_emission_result(result) -> bool:
    calls, problem = result
    return all(isinstance(call, ToolCall) for call in calls) and (
        problem is None if calls else isinstance(problem, str))


@pytest.mark.parametrize("reply", ['"x"', "[1]"])
def test_a_react_reply_whose_json_is_no_object_has_no_thought(reply):
    assert parse_thought_action(reply) is None


# Each reader, and what a value it returns must look like.
_READERS = {
    "parse_step_texts": (parse_step_texts, lambda pairs: pairs and all(
        isinstance(thinking, str) and isinstance(action, str)
        for thinking, action in pairs)),
    "parse_plan_response": (parse_plan_response, lambda steps: steps and all(
        isinstance(action, SkillAction) for _, action in steps)),
    "parse_action": (lambda text: parse_action(text, BUILTIN_KINDS),
                     lambda action: isinstance(action, SkillAction)),
    "parse_thought_action": (parse_thought_action, lambda pair: pair is None
                             or all(isinstance(text, str) for text in pair)),
    "finish_answer": (finish_answer,
                      lambda answer: answer is None or isinstance(answer, str)),
    "parse_tool_emission": (parse_tool_emission, _is_tool_emission_result),
}


def test_every_completion_reader_returns_or_raises_plan_error_on_hostile_text():
    """Whatever a model writes, each reader in `planner` returns a value, a
    None or a problem text, or raises PlanError, within a second."""
    rng = random.Random(20261019)
    for _ in range(300):
        text = _hostile_text(rng)
        for name, (read, well_formed) in _READERS.items():
            began = time.monotonic()
            try:
                assert well_formed(read(text)), (name, text[:80])
            except PlanError:
                pass
            elapsed = time.monotonic() - began
            assert elapsed < 1.0, (name, text[:80], elapsed)
