from __future__ import annotations

import hashlib
import json

import pytest

from goalact import orchestrator
from goalact.backends import Rule, ScriptedBackend
from goalact.environment import ToolEnvironment
from goalact.errors import BackendUnavailable, FatalError, RuleMiss
from goalact.generator import (
    Task,
    generate_aggregation_task,
    generate_khop_task,
    generate_writing_task,
)
from goalact.evaluation import success_rate
from goalact.oracle import build_oracle_rules, oracle_backend
from goalact.orchestrator import (
    ABLATION_NO_GLOBAL_PLAN,
    CODEACT_MARKER,
    METHOD_CODEACT,
    METHOD_GOALACT,
    METHOD_PLAN_AND_EXECUTE,
    METHOD_PLAN_AND_SOLVE,
    METHOD_REACT,
    NO_PLAN_MARKER,
    PE_PLAN_MARKER,
    PE_SUBTASK_MARKER,
    REACT_MARKER,
    SUMMARY_MARKER,
    RecordingBackend,
    RecordingEnvironment,
    RunConfig,
    normalize_method,
    run_task,
    summarize,
)
from goalact.plan import (
    SEARCHING,
    TERMINATION_FATAL,
    TERMINATION_FINISH,
    TERMINATION_MAX_ITERATIONS,
    SkillAction,
    encode_trajectory,
    history_of,
)
from goalact.planner import PLANNING_MARKER, render_history, update_global_plan
from goalact.skills import (
    SEARCHING_MARKER,
    SkillContext,
    dispatch,
    observe_emission,
)

from conftest import ask_of, never_finishing_backend, scripted


def _run(method: str, task, env, backend=None, **config_kwargs):
    config = RunConfig(method=method, **config_kwargs)
    return run_task(task, env, config, backend or oracle_backend(task))


# --- config ------------------------------------------------------------------------

def test_config_rejects_bad_values():
    with pytest.raises(FatalError):
        RunConfig(method="Wander")
    with pytest.raises(FatalError):
        RunConfig(max_iterations=0)
    with pytest.raises(FatalError):
        RunConfig(ablations=frozenset({"no_planning"}))
    with pytest.raises(FatalError):
        RunConfig(method=METHOD_REACT, ablations=frozenset({"no_coding"}))


def test_run_needs_one_enabled_skill_besides_finish():
    with pytest.raises(FatalError):
        RunConfig(method=METHOD_GOALACT,
                  ablations=frozenset({"no_searching", "no_coding",
                                       "no_writing"}))


def test_method_name_normalization():
    assert normalize_method("goalact") == METHOD_GOALACT
    assert normalize_method("plan-and-solve") == METHOD_PLAN_AND_SOLVE
    assert normalize_method("Plan_And_Execute") == METHOD_PLAN_AND_EXECUTE
    assert normalize_method("ReAct") == METHOD_REACT
    with pytest.raises(FatalError):
        normalize_method("mystery")


# --- GoalAct loop --------------------------------------------------------------------

def test_goalact_solves_two_hop_within_step_bound():
    task, env = generate_khop_task(seed=21, k=2)
    traj = _run(METHOD_GOALACT, task, env)
    assert traj.termination_reason == TERMINATION_FINISH
    assert traj.step_count <= 2 + 2
    assert task.key_answers[0] in traj.final_answer
    assert len(traj.revisions) == traj.step_count


@pytest.mark.parametrize("method", [METHOD_GOALACT, METHOD_PLAN_AND_SOLVE,
                                    METHOD_PLAN_AND_EXECUTE])
def test_a_revision_keeps_the_steps_pending_when_it_was_made(method):
    """A revision is the plan object itself: executing a step makes a new
    plan, so the first revision still shows its first step pending (the
    only revision of Plan-and-Solve, which plans once)."""
    task, env = generate_khop_task(seed=21, k=2)
    traj = _run(method, task, env)
    assert traj.termination_reason == TERMINATION_FINISH
    first = traj.revisions[0].steps[0]
    assert (first.status, first.observation, first.action.payload) == \
        ("pending", None, None)
    doc = json.loads(encode_trajectory(traj))["revisions"][0]["steps"][0]
    assert (doc["status"], doc["observation"]) == ("pending", None)
    assert traj.tool_calls  # the step did run


def test_goalact_honors_the_iteration_cap_exactly():
    task, env = generate_khop_task(seed=22, k=1)
    traj = _run(METHOD_GOALACT, task, env, backend=never_finishing_backend())
    assert traj.step_count == 10
    assert traj.termination_reason == TERMINATION_MAX_ITERATIONS
    assert traj.final_answer is not None


def test_goalact_prefix_monotonicity_across_revisions():
    task, env = generate_khop_task(seed=23, k=4)
    traj = _run(METHOD_GOALACT, task, env)
    executed_so_far: list[tuple] = []
    for plan in traj.revisions:
        executed = [(s.thought, s.action.kind, s.action.objective,
                     s.observation)
                    for s in plan.steps if s.executed]
        assert executed[:len(executed_so_far)] == executed_so_far
        executed_so_far = executed


def test_goalact_planless_ablation_keeps_skills_but_no_plan():
    task, env = generate_khop_task(seed=24, k=2)
    traj = _run(METHOD_GOALACT, task, env,
                ablations=frozenset({"no_global_plan"}))
    assert traj.revisions == []
    assert all(call.purpose != "planning" for call in traj.llm_calls)
    assert any(call.purpose.startswith("skill:") for call in traj.llm_calls)
    assert traj.termination_reason == TERMINATION_FINISH
    assert task.key_answers[0] in traj.final_answer


def test_goalact_disabled_skill_becomes_an_observation_not_a_crash():
    task, env = generate_aggregation_task(seed=25)
    traj = _run(METHOD_GOALACT, task, env,
                ablations=frozenset({"no_coding"}))
    assert traj.termination_reason == TERMINATION_FINISH
    assert all(not call.purpose.startswith("skill:Coding")
               for call in traj.llm_calls)
    assert success_rate(task.key_answers, traj.final_answer).s == 0.0


def test_goalact_planning_failure_summarizes_what_we_have():
    task, env = generate_khop_task(seed=26, k=1)
    backend = ScriptedBackend([
        Rule.on_substrings("not a plan at all", "Existing planning chain:"),
        Rule.on_substrings("summarized anyway", SUMMARY_MARKER),
    ])
    traj = _run(METHOD_GOALACT, task, env, backend=backend)
    assert traj.termination_reason == "fatal_error"
    assert traj.final_answer == "summarized anyway"


def test_fatal_rule_miss_propagates_with_trajectory_attached():
    task, env = generate_khop_task(seed=27, k=1)
    backend = ScriptedBackend([])  # nothing matches anything
    with pytest.raises(RuleMiss) as exc_info:
        _run(METHOD_GOALACT, task, env, backend=backend)
    attached = exc_info.value.trajectory
    assert attached.termination_reason == "fatal_error"
    assert attached.final_answer is None


# --- ablation containment ---------------------------------------------------------------

@pytest.mark.parametrize("ablation,skill", [
    ("no_searching", "skill:Searching"),
    ("no_coding", "skill:Coding"),
    ("no_writing", "skill:Writing"),
])
def test_ablation_containment(ablation, skill):
    cases = {
        "no_searching": generate_khop_task(seed=31, k=2),
        "no_coding": generate_aggregation_task(seed=32),
        "no_writing": generate_writing_task(seed=33),
    }
    task, env = cases[ablation]
    traj = _run(METHOD_GOALACT, task, env, ablations=frozenset({ablation}))
    assert all(call.purpose != skill for call in traj.llm_calls)


# --- baselines ---------------------------------------------------------------------------

def test_plan_and_solve_plans_exactly_once():
    task, env = generate_khop_task(seed=41, k=3)
    traj = _run(METHOD_PLAN_AND_SOLVE, task, env)
    assert sum(1 for call in traj.llm_calls
               if call.purpose == "planning") == 1
    assert len(traj.revisions) == 1
    assert traj.termination_reason == TERMINATION_FINISH
    assert task.key_answers[0] in traj.final_answer


def test_plan_and_solve_executes_later_steps_after_an_error():
    task, env = generate_khop_task(seed=42, k=2)
    rules = [rule for _, build in build_oracle_rules(task) for rule in build()]
    # Sabotage the first hop's emission so its tool call misses.
    sabotaged = []
    for rule in rules:
        if rule.name == "khop-search1":
            sabotaged.append(Rule(response='{"tool": "get_record", "args": '
                                           '{"table": "companies", "field": '
                                           '"name", "value": "NoSuchCo"}}',
                                  substrings=rule.substrings, name=rule.name))
        else:
            sabotaged.append(rule)
    traj = _run(METHOD_PLAN_AND_SOLVE, task, env,
                backend=ScriptedBackend(sabotaged))
    skill_calls = [c for c in traj.llm_calls if c.purpose.startswith("skill:")]
    assert len(skill_calls) == 2  # the second step still ran
    assert sum(1 for c in traj.llm_calls if c.purpose == "planning") == 1


def test_react_makes_zero_planning_calls():
    task, env = generate_khop_task(seed=43, k=1)
    traj = _run(METHOD_REACT, task, env)
    assert traj.revisions == []
    assert all(call.purpose != "planning" for call in traj.llm_calls)
    assert traj.termination_reason == TERMINATION_FINISH
    assert task.key_answers[0] in traj.final_answer
    assert traj.step_count <= 3


def test_react_unknown_tool_becomes_an_observation():
    task, env = generate_khop_task(seed=44, k=1)
    backend = ScriptedBackend([
        Rule.on_substrings('{"Thought": "use magic", '
                           '"Action": "teleport[place=away]"}',
                           "Respond with the next thought and action."),
        Rule.on_substrings("gave up", SUMMARY_MARKER),
    ])
    traj = _run(METHOD_REACT, task, env, backend=backend)
    assert traj.termination_reason == TERMINATION_MAX_ITERATIONS
    assert any(not record.ok for record in traj.tool_calls)


def test_react_caps_at_ten():
    task, env = generate_khop_task(seed=45, k=1)
    backend = ScriptedBackend([
        Rule.on_substrings('{"Thought": "look again", "Action": '
                           '"get_record[table=companies, field=name, '
                           'value=NoSuchCo]"}',
                           "Respond with the next thought and action."),
        Rule.on_substrings("never got there", SUMMARY_MARKER),
    ])
    traj = _run(METHOD_REACT, task, env, backend=backend)
    assert traj.step_count == 10
    assert traj.termination_reason == TERMINATION_MAX_ITERATIONS


HOSTILE_VALUE = "Z" * 100_000


def _observation_sizes(lines: list[str]) -> list[int]:
    return [len(line.encode("utf-8")) for line in lines]


def _hostile_react_run(**config_kwargs):
    """A ReAct run whose every action is get_record of a 100,000-character
    value on a real table."""
    task, env = generate_khop_task(seed=45, k=1)
    table = env.tables[0]
    backend = ScriptedBackend([
        Rule.on_substrings(json.dumps({
            "Thought": "look it up",
            "Action": f"get_record[table={table.name}, "
                      f"field={table.key_field}, value={HOSTILE_VALUE}]"}),
            REACT_MARKER),
        Rule.on_substrings("never got there", SUMMARY_MARKER),
    ])
    return table, _run(METHOD_REACT, task, env, backend=backend,
                       **config_kwargs)


def test_react_bounds_the_observation_of_a_failing_tool_call():
    table, traj = _hostile_react_run(max_iterations=2)
    assert "no " + table.name + " record" in traj.tool_calls[0].result
    second_prompt = traj.llm_calls[1].messages[-1]["content"]
    observations = [line for line in second_prompt.splitlines()
                    if line.startswith("Observation: ")]
    assert len(observations) == 1
    assert max(_observation_sizes(observations)) <= \
        len("Observation: ") + 4096


def test_a_failing_tool_call_logs_its_error_within_the_run_budget():
    table, traj = _hostile_react_run(max_iterations=3, observation_bytes=1000)
    assert len(traj.tool_calls) == 3
    for record in traj.tool_calls:
        assert not record.ok
        assert record.result.startswith(f"no {table.name} record")
        assert len(record.result.encode("utf-8")) <= 1000


def test_react_prompts_grow_by_less_than_three_budgets_per_step():
    # Each step adds a Thought, an Action and an Observation line, each cut
    # to the observation budget, however long the model's action text is.
    _, traj = _hostile_react_run(max_iterations=3, observation_bytes=1000)
    sizes = [len(call.messages[-1]["content"].encode("utf-8"))
             for call in traj.llm_calls]
    assert len(sizes) == 4
    assert all(later - earlier < 3 * 1000
               for earlier, later in zip(sizes, sizes[1:]))


def test_plan_and_execute_bounds_the_observation_of_a_failing_tool_call():
    task, env = generate_khop_task(seed=46, k=1)
    table = env.tables[0]
    backend = ScriptedBackend([
        Rule.on_substrings(json.dumps([
            {"Thinking": "look it up", "Action": "Fetch the company"},
            {"Thinking": "done", "Action": "Finish"}]), PE_PLAN_MARKER),
        Rule.on_substrings(json.dumps({
            "tool": "get_record",
            "args": {"table": table.name, "field": table.key_field,
                     "value": HOSTILE_VALUE}}), PE_SUBTASK_MARKER),
        Rule.on_substrings("never got there", SUMMARY_MARKER),
    ])
    traj = _run(METHOD_PLAN_AND_EXECUTE, task, env, backend=backend,
                max_iterations=2)
    assert "no " + table.name + " record" in traj.tool_calls[0].result
    observations = [step.observation for plan in traj.revisions
                    for step in plan.steps if step.observation]
    assert observations
    assert max(_observation_sizes(observations)) <= 4096


def test_plan_and_execute_replans_and_solves():
    task, env = generate_khop_task(seed=46, k=3)
    traj = _run(METHOD_PLAN_AND_EXECUTE, task, env)
    assert traj.termination_reason == TERMINATION_FINISH
    assert task.key_answers[0] in traj.final_answer
    assert len(traj.revisions) >= 2
    assert any(call.purpose == "subtask" for call in traj.llm_calls)
    assert all(not call.purpose.startswith("skill:")
               for call in traj.llm_calls)


def test_plan_and_execute_makes_one_plan_round_per_revision(monkeypatch):
    rounds = []

    def counting_update(*args):
        rounds.append(args)
        return update_global_plan(*args)

    monkeypatch.setattr(orchestrator, "update_global_plan", counting_update)
    task, env = generate_khop_task(seed=46, k=3)
    traj = _run(METHOD_PLAN_AND_EXECUTE, task, env)
    assert len(traj.revisions) >= 2
    assert len(rounds) == len(traj.revisions)


@pytest.mark.parametrize("method", [METHOD_GOALACT, METHOD_PLAN_AND_SOLVE,
                                    METHOD_PLAN_AND_EXECUTE])
def test_every_planning_prompt_is_the_executed_steps_in_the_frame(method):
    task, env = generate_khop_task(seed=11, k=3)
    config = RunConfig(method=method)
    traj = run_task(task, env, config, oracle_backend(task))
    policy = orchestrator._POLICIES[method](
        task, config, RecordingBackend(oracle_backend(task), traj, "m"),
        RecordingEnvironment(env, traj, config.observation_bytes))
    prompts = [call.messages[-1]["content"] for call in traj.llm_calls
               if call.purpose == "planning"]
    assert traj.termination_reason == TERMINATION_FINISH
    assert len(prompts) == len(traj.revisions) >= 1
    # A revision keeps the executed steps its round was prompted with.
    for prompt, plan in zip(prompts, traj.revisions):
        executed = history_of(plan)
        assert prompt == render_history(executed).join(policy.frame)
    if method != METHOD_PLAN_AND_SOLVE:  # a later round saw executed steps
        assert history_of(traj.revisions[-1])


@pytest.mark.parametrize("method, ablations, purpose", [
    (METHOD_REACT, frozenset(), "react_step"),
    (METHOD_CODEACT, frozenset(), "codeact_step"),
    (METHOD_GOALACT, frozenset({ABLATION_NO_GLOBAL_PLAN}), "next_step"),
])
def test_every_decision_prompt_is_the_transcript_in_the_frame(
        method, ablations, purpose):
    task, env = generate_khop_task(seed=11, k=3)
    config = RunConfig(method=method, ablations=ablations)
    traj = run_task(task, env, config, oracle_backend(task))
    policy_class = orchestrator._NextStepPolicy if ablations \
        else orchestrator._POLICIES[method]
    policy = policy_class(
        task, config, RecordingBackend(oracle_backend(task), traj, "m"),
        RecordingEnvironment(env, traj, config.observation_bytes))
    prompts = [call.messages[-1]["content"] for call in traj.llm_calls
               if call.purpose == purpose]
    assert traj.termination_reason == TERMINATION_FINISH
    assert len(prompts) > 1
    assert prompts[0] == "".join(policy.frame)
    head, tail = policy.frame
    for prompt in prompts:
        assert prompt.startswith(head) and prompt.endswith(tail)


# --- one path from a tool-call emission to an observation ---------------------------

def _call(tool: str, **args) -> str:
    return json.dumps({"tool": tool, "args": args})


_EMISSIONS = {
    "no-call": "nothing useful",
    "two-calls": "\n".join([
        _call("get_record", table="companies", field="name", value="AlphaCorp"),
        _call("get_record", table="companies", field="name",
              value="BetaWorks")]),
    "unknown-tool": _call("teleport"),
    "unknown-field": _call("get_record", table="companies", field="zip",
                           value="1"),
    "get-record-miss": _call("get_record", table="companies", field="name",
                             value="Nobody"),
    "filter-records-hit": _call("filter_records", table="cases",
                                field="status", value="open"),
    "react-form": "get_record[table=companies, field=name, value=AlphaCorp]",
}


def _last_observation(traj) -> str:
    """The one Observation line of the run's summarize prompt."""
    prompt = traj.llm_calls[-1].messages[-1]["content"]
    [observation] = [line[len("Observation: "):]
                     for line in prompt.splitlines()
                     if line.startswith("Observation: ")]
    return observation


@pytest.mark.parametrize("emission", list(_EMISSIONS.values()),
                         ids=list(_EMISSIONS))
def test_every_caller_observes_an_emission_the_same_way(company_env,
                                                        emission):
    task = Task(id="t", category="1hop", query="Which city hosts AlphaCorp?",
                key_answers=("Port Meridell",), key_middles=(), gold_path=())
    config = RunConfig()
    searching, _ = dispatch(SkillAction(SEARCHING, "anything"), SkillContext(
        question=task.query, history=(), env=company_env,
        ask=lambda prompt: emission, sandbox_limits=config.sandbox_limits,
        observation_bytes=config.observation_bytes,
        writing_budget=config.writing_budget), config.registry)
    subtask = _last_observation(_run(
        METHOD_PLAN_AND_EXECUTE, task, company_env, max_iterations=1,
        backend=ScriptedBackend([
            Rule.on_substrings(json.dumps([
                {"Thinking": "look it up", "Action": "Fetch the company"},
                {"Thinking": "done", "Action": "Finish"}]), PE_PLAN_MARKER),
            Rule.on_substrings(emission, PE_SUBTASK_MARKER),
            Rule.on_substrings("done", SUMMARY_MARKER)])))
    action = _last_observation(_run(
        METHOD_REACT, task, company_env, max_iterations=1,
        backend=ScriptedBackend([
            Rule.on_substrings(json.dumps({"Thought": "look it up",
                                           "Action": emission}),
                               REACT_MARKER),
            Rule.on_substrings("done", SUMMARY_MARKER)])))
    observed = {"Searching": searching, "Sub-task": subtask, "Action": action}
    assert observed == {who: observe_emission(emission, company_env, who)[0]
                        for who in observed}
    assert len({text.replace(who, "<who>")
                for who, text in observed.items()}) == 1


def test_codeact_solves_aggregation_in_one_script():
    task, env = generate_aggregation_task(seed=47)
    traj = _run(METHOD_CODEACT, task, env)
    assert traj.termination_reason == TERMINATION_FINISH
    assert task.key_answers[0] in traj.final_answer
    assert traj.revisions == []


def test_codeact_faulting_script_keeps_the_loop_alive():
    task, env = generate_khop_task(seed=48, k=1)
    backend = ScriptedBackend([
        Rule.on_substrings("return teleport()", "Computation turn:"),
        Rule.on_substrings("no luck", SUMMARY_MARKER),
    ])
    traj = _run(METHOD_CODEACT, task, env, backend=backend)
    assert traj.step_count == 10
    assert traj.termination_reason == TERMINATION_MAX_ITERATIONS
    assert traj.final_answer == "no luck"


# --- summarize ----------------------------------------------------------------------------

def test_summarize_echoes_history_content():
    backend = scripted(Rule.on_substrings("the key is K-9", SUMMARY_MARKER,
                                          "K-9 was observed"))
    answer, degraded = summarize("what is the key?",
                                 "Observation: K-9 was observed",
                                 ask_of(backend))
    assert answer == "the key is K-9"
    assert degraded is False


def test_summarize_from_question_alone():
    backend = scripted(Rule.on_substrings("no steps were taken",
                                          SUMMARY_MARKER))
    answer, degraded = summarize("anything?", "", ask_of(backend))
    assert answer == "no steps were taken"
    assert degraded is False


def test_config_registers_custom_skill_descriptors():
    task, env = generate_khop_task(seed=51, k=1)
    traj = _run(METHOD_GOALACT, task, env,
                custom_skills=(("Reasoning", "Derive it from the facts."),))
    planning_prompts = [call.messages[-1]["content"]
                        for call in traj.llm_calls
                        if call.purpose == "planning"]
    assert planning_prompts
    assert all("Reasoning: Derive it from the facts." in p
               for p in planning_prompts)


def test_config_loads_exemplars_from_file(tmp_path):
    import json as _json

    path = tmp_path / "exemplars.jsonl"
    lines = [_json.dumps({"id": f"e{i}", "transcript": f"exemplar body {i}"})
             for i in range(2)]
    path.write_text("\n".join(lines) + "\n")
    task, env = generate_khop_task(seed=52, k=1)
    traj = _run(METHOD_GOALACT, task, env, exemplars_file=str(path))
    planning_prompt = next(call.messages[-1]["content"]
                           for call in traj.llm_calls
                           if call.purpose == "planning")
    assert "exemplar body 0" in planning_prompt
    assert "exemplar body 1" in planning_prompt


def test_trajectory_records_retry_attempts():
    from goalact.backends import Completion
    from goalact.orchestrator import RecordingBackend
    from goalact.plan import Trajectory

    class _RetryingStub:
        def complete(self, request):
            completion = Completion("fine")
            completion.attempts = 3
            return completion

    traj = Trajectory(task_id="t", method="GoalAct")
    recorder = RecordingBackend(_RetryingStub(), traj, "m")
    assert recorder.ask("planning", "hello") == "fine"
    [call] = traj.llm_calls
    assert (call.purpose, call.model, call.attempts) == ("planning", "m", 3)
    assert call.messages == [{"role": "user", "content": "hello"}]


def test_summarize_degrades_when_the_backend_is_down():
    def down(prompt):
        raise BackendUnavailable("gave up")

    answer, degraded = summarize("q", "history", down,
                                 best_observation="best known fact")
    assert degraded is True
    assert "best known fact" in answer
    assert "[degraded" in answer


# --- pinned trajectory bytes --------------------------------------------------------------

class _DownAfter:
    """Answers its first `calls` requests from `inner`, then is down."""

    def __init__(self, inner, calls: int):
        self.inner = inner
        self.calls = calls

    def complete(self, request):
        if self.calls <= 0:
            raise BackendUnavailable("backend went down")
        self.calls -= 1
        return self.inner.complete(request)


_PIN_CONFIGS = {
    "GoalAct": {"method": METHOD_GOALACT},
    "PlanAndSolve": {"method": METHOD_PLAN_AND_SOLVE},
    "PlanAndExecute": {"method": METHOD_PLAN_AND_EXECUTE},
    "ReAct": {"method": METHOD_REACT},
    "CodeAct": {"method": METHOD_CODEACT},
    "GoalAct-no_global_plan": {"method": METHOD_GOALACT,
                               "ablations": frozenset({"no_global_plan"})},
    "GoalAct-no_coding-no_writing": {
        "method": METHOD_GOALACT,
        "ablations": frozenset({"no_coding", "no_writing"})},
}

_PIN_BACKENDS = {
    "oracle": oracle_backend,
    "never_finishing": lambda task: never_finishing_backend(),
    "not_json": lambda task: ScriptedBackend(
        [Rule.on_substrings("not json at all", "Question:")]),
    "rule_miss": lambda task: ScriptedBackend([]),
    "down": lambda task: _DownAfter(None, 0),
}


def _pin_tasks():
    return [generate_khop_task(seed=7, k=2), generate_aggregation_task(seed=7),
            generate_writing_task(seed=7)]


def _cell_digest(config_name: str, backend_name: str) -> str:
    """sha256 of the encoded trajectories of one config x backend cell.

    A run that raises RuleMiss contributes the partial trajectory attached
    to the exception.
    """
    digest = hashlib.sha256()
    config = RunConfig(max_iterations=4, **_PIN_CONFIGS[config_name])
    for task, env in _pin_tasks():
        try:
            traj = run_task(task, env, config, _PIN_BACKENDS[backend_name](task))
        except RuleMiss as exc:
            traj = exc.trajectory
        digest.update(encode_trajectory(traj).encode("utf-8") + b"\n")
    return digest.hexdigest()


# Cells whose decision call meets an outage; their fatal_error runs are
# tested below rather than pinned.
_OUTAGE_CELLS = {("ReAct", "down"), ("CodeAct", "down"),
                 ("GoalAct-no_global_plan", "down")}

PINNED_DIGESTS = {
    ('GoalAct', 'oracle'):
        "19281a160929a8af425ded343d3758ecd83e26be605e365c67bbc1f79fa5e00f",
    ('GoalAct', 'never_finishing'):
        "9103f57091a65ac5bb8e9f85cdea12a87704e1cf153b91441ef80b4d22a90754",
    ('GoalAct', 'not_json'):
        "7821b391fa55434ff33a4eb65ab1c76c482a3a92c6db336bf896674c922b1894",
    ('GoalAct', 'rule_miss'):
        "34b696f5bb58d083bc7bdcf4b580d3c1d5265f1659ae9307949e15fb599536e9",
    ('GoalAct', 'down'):
        "10647c545f9626698d478dc74d6887abcb54ad8da2fabbb03ffae0203709b75b",
    ('PlanAndSolve', 'oracle'):
        "6c5d16413c2e7fc729d387811c6df6d4082aa9d40abef6bee16921fcce9c1510",
    ('PlanAndSolve', 'never_finishing'):
        "1d8c5472cf6bcf65b3683e2a1a84cb3d343e4e47fe8aa74e5fc43a9edcda751e",
    ('PlanAndSolve', 'not_json'):
        "3821358f18b878e6332590590f2789382db47a3a450e780750b78c18ce570f72",
    # Plan-and-Solve plans inside its first iteration, as GoalAct does, so a
    # RuleMiss in that call leaves a partial trajectory with step_count 1.
    ('PlanAndSolve', 'rule_miss'):
        "5d9ece1a77840482ad70adbe486f92bbc04db5e6753be692cbe5bd5f7e031f44",
    ('PlanAndSolve', 'down'):
        "b075c186cfd86784b3239ba6ae7cb9cca51cc4ce508b4da765930f7d8b3de379",
    ('PlanAndExecute', 'oracle'):
        "6bd27a3eeb12e436f844969df18b34139d39be1f4931ee71433edc8d6144c12d",
    # never_finishing_backend gained Plan-and-Execute, ReAct and CodeAct
    # rules, so these three cells run to the cap instead of a RuleMiss.
    ('PlanAndExecute', 'never_finishing'):
        "75cbedd512a33b13c67963ab1fe1f7f6ac8197655b21d599cec8f495ed66f222",
    ('PlanAndExecute', 'not_json'):
        "2576b97b83675a8d00ff19787532e9cc18b3ea98a02cccaa6545c968472e711e",
    ('PlanAndExecute', 'rule_miss'):
        "6e049eed4fb467376498941f5a944c2416c7ead22327d8b25fc99a0e38ef02a3",
    ('PlanAndExecute', 'down'):
        "26da2338db67198591eb4ab55dc424a9f3b7ff6a5b71001d8fe2002106c896b6",
    ('ReAct', 'oracle'):
        "98e373eac92507b07983c427088d3860c3c89a616fc7d6c2869b4cb04a905366",
    ('ReAct', 'never_finishing'):
        "4a94352615ef921ba0e326abdba36a4aad434035f438f6127884bddf11b9bc00",
    ('ReAct', 'not_json'):
        "a3ca2863861ed0068af72d00bb0eecfe8cc15cca39654ffdb792bb8191e40b79",
    ('ReAct', 'rule_miss'):
        "45937d0bc4da4fa07abae869f8979e76ca42ae61ea26983a3107724def8ad8db",
    ('CodeAct', 'oracle'):
        "d1edce3e64315198c25aca9e94b67cc5546c55509cc9fda6612e6859f60477c3",
    ('CodeAct', 'never_finishing'):
        "9cbff38ec63ac06e362c7a1c925e7714730d7eecb7f0df53221703f5992fc5be",
    ('CodeAct', 'not_json'):
        "8cfd08b50ce55503a58a8f0d0f1488830ee93df99711adaa39a2ae243e96a6c5",
    ('CodeAct', 'rule_miss'):
        "c2c74f98b308d3bd46970c2d75e1517a3a157b2a6141462d140843f9a99629f4",
    ('GoalAct-no_global_plan', 'oracle'):
        "2992e5dfb1dd794d988050708da2902518d9d3f5ea7e0010d823cbcaebef42d5",
    ('GoalAct-no_global_plan', 'never_finishing'):
        "a04e9972febd641a2d7da164063f60cf51be91ab46f4468214d44c37ae2b7b16",
    ('GoalAct-no_global_plan', 'not_json'):
        "4a49bb0df704e779c4eb924fb21c32f12d64398f223b9bbe5034d0ffdd66c112",
    ('GoalAct-no_global_plan', 'rule_miss'):
        "34b696f5bb58d083bc7bdcf4b580d3c1d5265f1659ae9307949e15fb599536e9",
    ('GoalAct-no_coding-no_writing', 'oracle'):
        "5a84580a5ec0cf91a4ce0ccc20a2b396a8f57fe9b55288ee74c9ec5ce891dd6b",
    ('GoalAct-no_coding-no_writing', 'never_finishing'):
        "c2fe7bbb8f7189ca2d8a7800e52fc7449e40d8861867fdbb20893bd541b41b44",
    ('GoalAct-no_coding-no_writing', 'not_json'):
        "bdcf71deec17dce0ae2ebfd943ec41e63839f11ecd2f1fc236056662f5dd04fe",
    ('GoalAct-no_coding-no_writing', 'rule_miss'):
        "34b696f5bb58d083bc7bdcf4b580d3c1d5265f1659ae9307949e15fb599536e9",
    ('GoalAct-no_coding-no_writing', 'down'):
        "10647c545f9626698d478dc74d6887abcb54ad8da2fabbb03ffae0203709b75b",
}


@pytest.mark.parametrize("cell", sorted(PINNED_DIGESTS),
                         ids=lambda cell: "-".join(cell))
def test_trajectory_bytes_are_pinned(cell):
    config_name, backend_name = cell
    assert _cell_digest(config_name, backend_name) == PINNED_DIGESTS[cell]


def test_pinned_table_covers_every_cell():
    cells = {(c, b) for c in _PIN_CONFIGS for b in _PIN_BACKENDS}
    assert set(PINNED_DIGESTS) == cells - _OUTAGE_CELLS


@pytest.mark.parametrize("config_name", [
    "GoalAct", "PlanAndExecute", "ReAct", "CodeAct", "GoalAct-no_global_plan",
    "GoalAct-no_coding-no_writing"])
def test_never_finishing_backend_runs_every_method_to_the_cap(config_name):
    for task, env in _pin_tasks():
        traj = run_task(task, env,
                        RunConfig(max_iterations=4, **_PIN_CONFIGS[config_name]),
                        never_finishing_backend())
        assert traj.termination_reason == TERMINATION_MAX_ITERATIONS
        assert traj.step_count == 4
        assert traj.final_answer.startswith("The iteration budget was exhausted")


def test_never_finishing_backend_lets_plan_and_solve_run_its_one_plan():
    # Plan-and-Solve plans once, so the probe-then-Finish plan ends its run.
    for task, env in _pin_tasks():
        traj = _run(METHOD_PLAN_AND_SOLVE, task, env, max_iterations=4,
                    backend=never_finishing_backend())
        assert traj.termination_reason == TERMINATION_FINISH
        assert [c.purpose for c in traj.llm_calls] == [
            "planning", "skill:Searching", "summarize"]


# --- outages in a decision call ----------------------------------------------------------

@pytest.mark.parametrize("config_name,good_calls,steps", [
    ("ReAct", 0, 1), ("ReAct", 2, 3),
    # CodeAct's oracle makes two decision calls (a script, then Finish), so
    # only an outage at the second one falls on a decision call.
    ("CodeAct", 0, 1), ("CodeAct", 1, 2),
    # The ablation's second call is a skill call, which degrades in place.
    ("GoalAct-no_global_plan", 0, 1), ("GoalAct-no_global_plan", 2, 2),
])
def test_decision_call_outage_ends_the_run_as_fatal(config_name, good_calls,
                                                    steps):
    task, env = generate_khop_task(seed=7, k=2)
    backend = _DownAfter(oracle_backend(task), good_calls)
    traj = run_task(task, env, RunConfig(**_PIN_CONFIGS[config_name]),
                    backend)
    assert traj.termination_reason == TERMINATION_FATAL
    assert traj.degraded is True
    assert traj.step_count == steps
    assert traj.final_answer.startswith("[degraded: backend went down]")
    assert traj.final_answer.endswith(" failed: backend went down")


class _DownOn:
    """Down for every prompt holding `marker`; the rest go to `inner`."""

    def __init__(self, inner, marker: str):
        self.inner, self.marker = inner, marker

    def complete(self, request):
        if self.marker in request.rendered():
            raise BackendUnavailable("backend went down")
        return self.inner.complete(request)


def test_a_sub_task_outage_is_the_step_observation():
    task, env = generate_khop_task(seed=7, k=2)
    traj = _run(METHOD_PLAN_AND_EXECUTE, task, env, max_iterations=2,
                backend=_DownOn(oracle_backend(task), PE_SUBTASK_MARKER))
    assert traj.termination_reason == TERMINATION_MAX_ITERATIONS
    executed = traj.revisions[-1].steps[0]
    assert executed.executed
    assert executed.observation == "Subtask failed: backend went down"


# --- hostile completions -----------------------------------------------------------------

class _Answers:
    """Answers every prompt holding `marker` with `text`; the rest go to
    `inner`."""

    def __init__(self, inner, marker: str, text: str):
        self.inner, self.marker, self.text = inner, marker, text

    def complete(self, request):
        if self.marker in request.rendered():
            return self.text
        return self.inner.complete(request)


# Each decision or skill call a hostile completion can answer: (method,
# ablations, the marker of that call's prompt, how the run then ends).
_HOSTILE_CALLS = [
    (METHOD_GOALACT, (), PLANNING_MARKER, TERMINATION_FATAL),
    (METHOD_GOALACT, (), SEARCHING_MARKER, TERMINATION_MAX_ITERATIONS),
    (METHOD_GOALACT, ("no_global_plan",), NO_PLAN_MARKER,
     TERMINATION_MAX_ITERATIONS),
    (METHOD_PLAN_AND_SOLVE, (), PLANNING_MARKER, TERMINATION_FATAL),
    (METHOD_PLAN_AND_SOLVE, (), SEARCHING_MARKER, TERMINATION_FINISH),
    (METHOD_PLAN_AND_EXECUTE, (), PE_PLAN_MARKER, TERMINATION_FATAL),
    (METHOD_PLAN_AND_EXECUTE, (), PE_SUBTASK_MARKER,
     TERMINATION_MAX_ITERATIONS),
    (METHOD_REACT, (), REACT_MARKER, TERMINATION_MAX_ITERATIONS),
]
_HOSTILE_IDS = [f"{method}-{marker}-{reason}"
                for method, _, marker, reason in _HOSTILE_CALLS]


def _run_answering(method, ablations, marker, document):
    """A khop2 oracle run whose calls holding `marker` answer `document`."""
    task, env = generate_khop_task(seed=7, k=2)
    return _run(method, task, env,
                backend=_Answers(oracle_backend(task), marker, document),
                ablations=frozenset(ablations))


@pytest.mark.parametrize("document", [
    "[" * 100000 + "]" * 100000,
    '{"a":' * 100000,
], ids=["brackets", "objects"])
@pytest.mark.parametrize("method, ablations, marker, reason", _HOSTILE_CALLS,
                         ids=_HOSTILE_IDS)
def test_deeply_nested_json_completion_is_a_fault_not_a_crash(
        method, ablations, marker, reason, document):
    traj = _run_answering(method, ablations, marker, document)
    assert traj.termination_reason == reason
    assert traj.final_answer == "The requested value could not be determined."
    encode_trajectory(traj)


@pytest.mark.parametrize("method, ablations, marker, reason", _HOSTILE_CALLS,
                         ids=_HOSTILE_IDS)
def test_an_over_long_integer_in_a_completion_is_a_fault_not_a_crash(
        method, ablations, marker, reason):
    """An integer past `int()`'s 4,300-digit conversion limit makes the
    whole document malformed, in a plan, a ReAct step and an emission."""
    document = '[{"Thinking": %s, "Action": "Finish"}]' % ("1" * 5000)
    traj = _run_answering(method, ablations, marker, document)
    assert traj.termination_reason == reason
    assert traj.final_answer == "The requested value could not be determined."
    assert "1" * 5000 in encode_trajectory(traj)


@pytest.mark.parametrize("method, marker, document, reason", [
    (METHOD_REACT, REACT_MARKER,
     '{"Thought": "x \\ud800", "Action": "Finish[y]"}',
     TERMINATION_MAX_ITERATIONS),
    (METHOD_GOALACT, SEARCHING_MARKER,
     '{"tool": "get_record", "args": {"table": "x \\ud800", "field": "name", '
     '"value": "v"}}', TERMINATION_MAX_ITERATIONS),
    (METHOD_GOALACT, PLANNING_MARKER,
     '[{"Thinking": "x \\ud800", "Action": "Finish[]"}]', TERMINATION_FATAL),
], ids=["react-thought", "searching-table", "plan-thinking"])
def test_a_lone_surrogate_escape_is_a_malformed_completion(
        method, marker, document, reason):
    """A JSON `\\ud800` escape decodes to a string UTF-8 cannot encode, so
    the document is malformed: the run ends as data and its trajectory
    encodes, holding the escape as the raw response's six characters."""
    traj = _run_answering(method, (), marker, document)
    assert traj.termination_reason == reason
    assert traj.final_answer == "The requested value could not be determined."
    assert "x \\\\ud800" in encode_trajectory(traj)


@pytest.mark.parametrize("method, marker, document", [
    (METHOD_CODEACT, CODEACT_MARKER, 'return "x \ud800"'),
    (METHOD_REACT, REACT_MARKER,
     '{"Thought": "x \ud800", "Action": "Finish[y]"}'),
], ids=["codeact-script", "react-thought"])
def test_a_completion_holding_a_lone_surrogate_is_refused(
        method, marker, document):
    """A completion UTF-8 cannot encode, as a rules file or cassette can
    give, is an unusable reply: the decision call fails, the run ends as
    fatal_error, and its trajectory, which does not hold the reply, encodes."""
    traj = _run_answering(method, (), marker, document)
    assert traj.termination_reason == TERMINATION_FATAL
    assert "\ud800" not in encode_trajectory(traj)
    encode_trajectory(traj).encode("utf-8")


def test_the_recording_environment_forwards_nothing_but_calls():
    """A policy reads table schemas from the bare environment; the wrapper
    a run hands its skills and sandbox only runs and logs calls."""
    assert "__getattr__" not in vars(RecordingEnvironment)
    assert not hasattr(RecordingEnvironment, "invoke_tool")
    assert not hasattr(ToolEnvironment, "row_texts")
