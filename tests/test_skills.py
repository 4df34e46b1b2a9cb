from __future__ import annotations

import json
import re

import pytest

from goalact.backends import Rule
from goalact.errors import BackendUnavailable, FatalError
from goalact.orchestrator import RecordingEnvironment, RunConfig
from goalact.plan import (
    CODING,
    FINISH,
    SEARCHING,
    WRITING,
    History,
    SkillAction,
    Trajectory,
)
from goalact.skills import (
    SEARCHING_MARKER,
    WRITING_MARKER,
    SkillContext,
    SkillDescriptor,
    default_registry,
    dispatch,
    exec_searching,
    exec_writing,
    parse_tool_emission,
    register_skill,
    render_source_material,
)

from conftest import ask_of, executed_steps, scripted

_OUTAGE = "gave up after 4 attempts (timeout)"
_CONFIG = RunConfig()


def _context(env, backend, history: History = ()) -> SkillContext:
    return SkillContext(question="Which city hosts AlphaCorp?",
                        history=history, env=env, ask=ask_of(backend),
                        sandbox_limits=_CONFIG.sandbox_limits,
                        observation_bytes=_CONFIG.observation_bytes,
                        writing_budget=_CONFIG.writing_budget)


def _logged(env) -> tuple[RecordingEnvironment, Trajectory]:
    """`env` with every tool call it answers logged into a trajectory."""
    trajectory = Trajectory(task_id="t", method="GoalAct")
    return RecordingEnvironment(env, trajectory,
                                _CONFIG.observation_bytes), trajectory


class _FailingBackend:
    def complete(self, request):
        raise BackendUnavailable(_OUTAGE)


# --- registry -----------------------------------------------------------------

def test_default_registry_lists_finish_last():
    entries = default_registry().enabled_entries()
    assert entries[-1][0] == FINISH
    assert [name for name, _ in entries] == [SEARCHING, CODING, WRITING, FINISH]


def test_register_skill_appears_before_finish():
    registry = register_skill(default_registry(), "Reasoning",
                              SkillDescriptor(name="Reasoning",
                                              description="Derive it."))
    names = [name for name, _ in registry.enabled_entries()]
    assert names == [SEARCHING, CODING, WRITING, "Reasoning", FINISH]


def test_register_rejects_duplicates_and_finish():
    registry = default_registry()
    with pytest.raises(FatalError, match="'Searching' is already registered"):
        register_skill(registry, SEARCHING,
                       SkillDescriptor(name=SEARCHING, description="again"))
    with pytest.raises(FatalError, match="Finish is built in"):
        register_skill(registry, FINISH,
                       SkillDescriptor(name=FINISH, description="no"))
    with pytest.raises(FatalError, match="must be non-empty"):
        register_skill(registry, "", SkillDescriptor(name="", description=""))


def test_finish_cannot_be_disabled():
    with pytest.raises(FatalError, match="Finish cannot be disabled"):
        default_registry().disable(FINISH)
    with pytest.raises(FatalError, match="cannot disable unregistered kind"):
        default_registry().disable("Fly")


# --- dispatch -----------------------------------------------------------------

def test_dispatch_routes_searching(company_env):
    backend = scripted(Rule.on_substrings(
        json.dumps({"tool": "get_record",
                    "args": {"table": "companies", "field": "name",
                             "value": "AlphaCorp"}}),
        SEARCHING_MARKER))
    env, trajectory = _logged(company_env)
    observation, _ = dispatch(SkillAction(SEARCHING, "companies by name"),
                              _context(env, backend), default_registry())
    assert "Port Meridell" in observation
    assert len(trajectory.tool_calls) == 1


def test_dispatch_rejects_disabled_kind(company_env):
    registry = default_registry().disable(CODING)
    assert dispatch(SkillAction(CODING, "sum things"),
                    _context(company_env, scripted()), registry) == \
        ("Action not executed: skill 'Coding' is currently disabled", None)


def test_dispatch_rejects_unknown_and_finish(company_env):
    assert dispatch(SkillAction("Fly", "away"),
                    _context(company_env, scripted()), default_registry()) == \
        ("Action not executed: no skill registered for kind 'Fly'", None)
    assert dispatch(SkillAction(FINISH), _context(company_env, scripted()),
                    default_registry()) == \
        ("Action not executed: skill 'Finish' has no executor "
         "(Finish is handled by the run loop)", None)


def test_dispatch_answers_a_custom_skill_with_no_executor(company_env):
    registry = register_skill(default_registry(), "Reasoning",
                              SkillDescriptor("Reasoning", "think it over"))
    assert dispatch(SkillAction("Reasoning", "weigh the facts"),
                    _context(company_env, scripted()), registry) == \
        ("Action not executed: skill 'Reasoning' has no executor", None)


@pytest.mark.parametrize("kind", [SEARCHING, CODING, WRITING])
def test_dispatch_turns_a_skill_outage_into_an_observation(company_env, kind):
    env, trajectory = _logged(company_env)
    assert dispatch(SkillAction(kind, "anything"),
                    _context(env, _FailingBackend()), default_registry()) == \
        (f"{kind} failed: {_OUTAGE}", None)
    assert trajectory.tool_calls == []


def test_dispatch_routes_writing(company_env):
    backend = scripted(Rule.on_substrings("A short document.", WRITING_MARKER))
    env, trajectory = _logged(company_env)
    observation, payload = dispatch(SkillAction(WRITING, "draft something"),
                                    _context(env, backend), default_registry())
    assert (observation, payload) == ("A short document.", None)
    assert trajectory.tool_calls == []


@pytest.mark.parametrize("action", [SkillAction(WRITING, "draft"),
                                    SkillAction("Fly" * 100, "away")],
                         ids=["writing", "not-executed"])
def test_dispatch_truncates_observations(company_env, action):
    backend = scripted(Rule.on_substrings("x" * 9000, WRITING_MARKER))
    context = _context(company_env, backend)
    context.observation_bytes = 256
    observation, _ = dispatch(action, context, default_registry())
    assert observation.endswith("[truncated]")
    assert len(observation.encode("utf-8")) <= 256


def test_dispatch_reports_an_empty_observation(company_env):
    backend = scripted(Rule.on_substrings("", WRITING_MARKER))
    observation, _ = dispatch(SkillAction(WRITING, "draft"),
                              _context(company_env, backend),
                              default_registry())
    assert observation == "(empty observation)"


def test_custom_skill_executor_runs():
    def run(action, context):
        return f"thought about {action.objective}", {"depth": 1}

    registry = register_skill(default_registry(), "Reasoning",
                              SkillDescriptor(name="Reasoning",
                                              description="Derive.", run=run))
    assert dispatch(SkillAction("Reasoning", "the gap"),
                    _context(None, scripted()), registry) == \
        ("thought about the gap", {"depth": 1})


# --- searching -----------------------------------------------------------------

def test_searching_matches_direct_lookup(company_env):
    call = {"tool": "get_record", "args": {"table": "companies",
                                           "field": "name",
                                           "value": "AlphaCorp"}}
    backend = scripted(Rule.on_substrings(json.dumps(call), SEARCHING_MARKER))
    env, trajectory = _logged(company_env)
    observation, payload = exec_searching(
        SkillAction(SEARCHING, "companies by name"), _context(env, backend))
    expected = company_env.invoke_tool(
        parse_tool_emission(json.dumps(call))[0][0])[0]
    for field_name, value in expected.items():
        assert str(value) in observation
    assert [record.ok for record in trajectory.tool_calls] == [True]
    assert payload == {"tool": "get_record", "args": call["args"]}


def test_searching_reports_unknown_tool(company_env):
    backend = scripted(Rule.on_substrings(
        json.dumps({"tool": "teleport", "args": {}}), SEARCHING_MARKER))
    env, trajectory = _logged(company_env)
    observation, payload = exec_searching(SkillAction(SEARCHING, "go somewhere"),
                                          _context(env, backend))
    assert observation == "Tool call teleport failed: unknown tool 'teleport'"
    assert [record.ok for record in trajectory.tool_calls] == [False]
    assert payload == {"tool": "teleport", "args": {}}


def test_searching_executes_only_the_first_of_two_calls(company_env):
    two = "\n".join([
        json.dumps({"tool": "get_record",
                    "args": {"table": "companies", "field": "name",
                             "value": "AlphaCorp"}}),
        json.dumps({"tool": "get_record",
                    "args": {"table": "companies", "field": "name",
                             "value": "BetaWorks"}}),
    ])
    backend = scripted(Rule.on_substrings(two, SEARCHING_MARKER))
    env, trajectory = _logged(company_env)
    observation, _ = exec_searching(SkillAction(SEARCHING, "both companies"),
                                    _context(env, backend))
    assert len(trajectory.tool_calls) == 1
    assert "AlphaCorp" in observation
    assert "BetaWorks" not in observation.split("(")[0]
    assert observation.endswith(" (1 extra emitted call discarded)")


def test_searching_accepts_react_style_calls(company_env):
    backend = scripted(Rule.on_substrings(
        "get_record[table=companies, field=name, value=AlphaCorp]",
        SEARCHING_MARKER))
    observation, _ = exec_searching(SkillAction(SEARCHING, "companies by name"),
                                    _context(company_env, backend))
    assert "Port Meridell" in observation


def test_searching_never_makes_two_tool_calls_randomized(company_env):
    import random

    rng = random.Random(5)
    for _ in range(50):
        n_calls = rng.randint(0, 3)
        lines = [json.dumps({"tool": "get_record",
                             "args": {"table": "companies", "field": "name",
                                      "value": "AlphaCorp"}})
                 for _ in range(n_calls)]
        body = "\n".join(lines) if lines else "nothing useful"
        backend = scripted(Rule.on_substrings(body, SEARCHING_MARKER))
        env, trajectory = _logged(company_env)
        observation, _ = exec_searching(SkillAction(SEARCHING, "anything"),
                                        _context(env, backend))
        assert len(trajectory.tool_calls) == min(n_calls, 1)
        assert observation  # never empty


def test_searching_degrades_on_backend_outage(company_env):
    """The executor leaves its outage to `dispatch`, which renders it."""
    env, trajectory = _logged(company_env)
    with pytest.raises(BackendUnavailable, match=re.escape(_OUTAGE)):
        exec_searching(SkillAction(SEARCHING, "companies by name"),
                       _context(env, _FailingBackend()))
    assert trajectory.tool_calls == []


def test_searching_reports_an_emission_with_no_tool_call(company_env):
    backend = scripted(Rule.on_substrings("nothing useful", SEARCHING_MARKER))
    assert exec_searching(SkillAction(SEARCHING, "anything"),
                          _context(company_env, backend)) == \
        ("Searching emitted no usable tool call "
         "(no tool call found in the emission).", None)


# --- writing -------------------------------------------------------------------

def test_writing_echoes_gathered_keywords(company_env):
    history = executed_steps(
        ("f1", SkillAction(SEARCHING, "a"), "fact alpha"),
        ("f2", SkillAction(SEARCHING, "b"), "fact beta"),
        ("f3", SkillAction(SEARCHING, "c"), "fact gamma"),
    )
    backend = scripted(Rule.on_substrings(
        "Drafted around fact alpha, fact beta, fact gamma.",
        WRITING_MARKER, "fact alpha", "fact gamma"))
    observation, _ = exec_writing(SkillAction(WRITING, "draft the defense"),
                                  _context(company_env, backend, history))
    for keyword in ("fact alpha", "fact beta", "fact gamma"):
        assert keyword in observation


def test_writing_works_from_question_alone(company_env):
    backend = scripted(Rule.on_substrings("Document from the question only.",
                                          WRITING_MARKER))
    env, trajectory = _logged(company_env)
    observation, _ = exec_writing(SkillAction(WRITING, "draft"),
                                  _context(env, backend, ()))
    assert observation == "Document from the question only."
    assert trajectory.tool_calls == []


def test_writing_degrades_on_backend_outage(company_env):
    """The executor leaves its outage to `dispatch`, which renders it."""
    with pytest.raises(BackendUnavailable, match=re.escape(_OUTAGE)):
        exec_writing(SkillAction(WRITING, "draft"),
                     _context(company_env, _FailingBackend()))


def test_source_material_drops_oldest_first():
    history = executed_steps(*(
        (f"t{i}", SkillAction(SEARCHING, f"obj{i}"), f"observation-{i} " + "y" * 60)
        for i in range(10)
    ))
    material = render_source_material(history, budget=300)
    assert "observation-9" in material  # newest survives
    assert "observation-0" not in material  # oldest dropped
    assert material.index("observation-8") < material.index("observation-9")


def test_source_material_cuts_a_newest_block_over_the_budget_to_it():
    history = executed_steps(
        ("t0", SkillAction(SEARCHING, "old"), "observation-0"),
        ("t1", SkillAction(SEARCHING, "new"), "observation-1 " + "y" * 400))
    material = render_source_material(history, budget=300)
    assert material == \
        f"Action: Searching[new]\nObservation: observation-1 {'y' * 400}"[:300]


def test_source_material_counts_two_separator_characters_per_block():
    history = executed_steps(
        ("t0", SkillAction(SEARCHING, "old"), "observation-0"),
        ("t1", SkillAction(SEARCHING, "new"), "observation-1"))
    old, new = (f"Action: Searching[{objective}]\nObservation: observation-{i}"
                for i, objective in enumerate(("old", "new")))
    both = len(old) + 2 + len(new) + 2
    assert render_source_material(history, budget=both) == f"{old}\n\n{new}"
    # The older block fits only if a separator goes uncounted.
    assert render_source_material(history, budget=both - 1) == new
