from __future__ import annotations

import json
import random
import weakref
from dataclasses import fields

import pytest

from goalact.errors import PlanError
from goalact.records import record_from_dict, record_to_dict
from goalact.plan import (
    EXECUTED,
    FINISH,
    SEARCHING,
    GlobalPlan,
    LlmExchange,
    PlanStep,
    SkillAction,
    ToolCallRecord,
    Trajectory,
    decode_trajectory,
    encode_trajectory,
    first_pending,
    history_of,
    make_plan,
    read_trajectories,
    truncate_observation,
    validate_plan,
    write_trajectories,
)


def _plan(kinds: list[str], executed: int = 0, revision: int = 1) -> GlobalPlan:
    steps = []
    for i, kind in enumerate(kinds, start=1):
        step = PlanStep(index=i, thought=f"t{i}",
                        action=SkillAction(kind=kind, objective=f"o{i}"))
        if i <= executed:
            step = step.mark_executed(f"obs{i}")
        steps.append(step)
    return GlobalPlan(steps=tuple(steps), revision=revision)


def test_validate_accepts_terminal_finish():
    plan = _plan([SEARCHING, FINISH])
    assert validate_plan(plan) is plan


def test_validate_rejects_missing_finish():
    with pytest.raises(PlanError, match="must end with a Finish step"):
        validate_plan(_plan([SEARCHING]))


def test_validate_rejects_premature_finish():
    with pytest.raises(PlanError, match="Finish at step 1 is not terminal"):
        validate_plan(_plan([FINISH, SEARCHING, FINISH]))


def test_validate_rejects_non_contiguous_indices():
    plan = _plan([SEARCHING, FINISH])
    broken = GlobalPlan(steps=(plan.steps[0],
                               PlanStep(index=5, thought="t",
                                        action=SkillAction(kind=FINISH))),
                        revision=1)
    with pytest.raises(PlanError, match="position 2 carries index 5"):
        validate_plan(broken)


def test_validate_rejects_pending_before_executed():
    plan = _plan([SEARCHING, SEARCHING, FINISH])
    steps = list(plan.steps)
    steps[1] = steps[1].mark_executed("obs")
    with pytest.raises(PlanError,
                       match="executed step 2 follows a pending step"):
        validate_plan(GlobalPlan(steps=tuple(steps), revision=1))


def test_validate_enforces_optional_cap():
    plan = _plan([SEARCHING, SEARCHING, FINISH])
    assert validate_plan(plan, max_steps=3) is plan
    with pytest.raises(PlanError, match="3 steps exceed the cap of 2"):
        validate_plan(plan, max_steps=2)


def test_history_empty_before_any_execution():
    assert len(history_of(_plan([SEARCHING, FINISH]))) == 0
    assert len(history_of(None)) == 0


def test_history_is_the_executed_prefix_in_order():
    plan = _plan([SEARCHING, SEARCHING, SEARCHING, FINISH], executed=2)
    history = history_of(plan)
    assert len(history) == 2
    assert [step.thought for step in history] == ["t1", "t2"]
    assert [step.observation for step in history] == ["obs1", "obs2"]


def test_history_is_the_plans_own_executed_steps():
    plan = _plan([SEARCHING, SEARCHING, SEARCHING, FINISH], executed=2)
    history = history_of(plan)
    assert len(history) == 2
    assert all(step is own for step, own in zip(history, plan.steps))


def test_history_excludes_the_unexecuted_finish():
    plan = _plan([SEARCHING, SEARCHING, FINISH], executed=2)
    assert len(history_of(plan)) == 2


def test_first_pending_walks_forward():
    assert first_pending(_plan([SEARCHING, FINISH])).index == 1
    assert first_pending(_plan([SEARCHING, SEARCHING, FINISH],
                               executed=2)).index == 3
    fully = _plan([SEARCHING, FINISH], executed=2)
    assert first_pending(fully) is None


def test_history_plus_pending_accounts_for_every_step():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 8)
        executed = rng.randint(0, n)
        plan = _plan([SEARCHING] * (n - 1) + [FINISH], executed=executed)
        pending = sum(1 for s in plan.steps if not s.executed)
        assert len(history_of(plan)) + pending == len(plan.steps)


def test_executed_steps_are_new_values():
    plan = _plan([SEARCHING, FINISH])
    executed = plan.steps[0].mark_executed("saw it", payload={"tool": "x"})
    assert plan.steps[0].status != EXECUTED
    assert executed.observation == "saw it"
    assert executed.action.payload == {"tool": "x"}


def test_an_empty_payload_leaves_the_action_and_writes_null():
    plan = _plan([SEARCHING, FINISH])
    executed = plan.steps[0].mark_executed("saw it", payload={})
    assert executed.action is plan.steps[0].action
    traj = Trajectory(task_id="t", method="GoalAct", revisions=[
        GlobalPlan(revision=1, steps=(executed,) + plan.steps[1:])])
    doc = json.loads(encode_trajectory(traj))
    assert doc["revisions"][0]["steps"][0]["payload"] is None


def test_truncate_observation_marks_the_cut():
    text = "x" * 5000
    clipped = truncate_observation(text, 100)
    assert clipped.endswith("[truncated]")
    assert len(clipped.encode("utf-8")) <= 100
    assert truncate_observation("short", 100) == "short"


def test_truncate_observation_respects_utf8_boundaries():
    text = "é" * 300  # two bytes each
    clipped = truncate_observation(text, 64)
    clipped.encode("utf-8")  # must not raise
    assert clipped.endswith("[truncated]")


@pytest.mark.parametrize("text", ["hello world, a long observation", "é" * 30])
def test_truncate_observation_never_exceeds_a_budget_below_the_marker(text):
    for budget in range(1, 21):
        clipped = truncate_observation(text, budget)
        assert len(clipped.encode("utf-8")) <= budget
        assert clipped.endswith("[truncated]") if budget >= 11 \
            else clipped == "[truncated]"[:budget]


def _sample_trajectory() -> Trajectory:
    traj = Trajectory(task_id="khop1-s00001", method="GoalAct")
    plan = _plan([SEARCHING, FINISH], executed=1)
    traj.revisions.append(plan)
    traj.llm_calls.append(LlmExchange(
        purpose="planning", model="scripted", temperature=0.0,
        messages=[{"role": "user", "content": "plan"}], response="[]"))
    traj.tool_calls.append(ToolCallRecord(
        tool="get_record", arguments={"table": "companies"},
        result='{"name": "AlphaCorp"}'))
    traj.final_answer = "AlphaCorp"
    traj.step_count = 2
    traj.termination_reason = "finish"
    return traj


def test_trajectory_round_trip_is_bit_exact():
    encoded = encode_trajectory(_sample_trajectory())
    again = encode_trajectory(decode_trajectory(encoded))
    assert encoded == again


def test_trajectory_round_trip_survives_unicode_payloads():
    traj = _sample_trajectory()
    traj.final_answer = "réponse — 中文"
    encoded = encode_trajectory(traj)
    assert decode_trajectory(encoded).final_answer == traj.final_answer
    assert encode_trajectory(decode_trajectory(encoded)) == encoded


def test_trajectory_lines_are_the_bytes_json_dumps_writes():
    """The shared encoder writes what `json.dumps` with the log's options
    writes, for text that is not ASCII, holds control characters or quotes,
    and for a tool call's nested payload."""
    traj = _sample_trajectory()
    traj.final_answer = "réponse — 中文 \ud83d\ude00 \x00\x1f\x7f\t\n\"q\" \\"
    traj.tool_calls[0].arguments = {
        "table": "companies", "value": "Zoë\u2028", "limit": 3,
        "nested": [1.5, None, True, {"k": [float("inf"), -0.0, 10 ** 30]}]}
    traj.llm_calls.append(LlmExchange(
        purpose="skill", model="m", temperature=0.25,
        messages=[{"role": "user", "content": "ünïcode\r\n\b\f"}],
        response='{"tool": "get_record", "args": {}}', attempts=2))
    encoded = encode_trajectory(traj)
    assert encoded == json.dumps(record_to_dict(traj), ensure_ascii=False,
                                 separators=(",", ":"))
    assert "\\u0000" in encoded and "中文" in encoded


def test_trajectory_document_keys_are_the_declared_fields_in_order():
    doc = json.loads(encode_trajectory(_sample_trajectory()))
    assert list(doc) == [f.name for f in fields(Trajectory)]
    assert list(doc["llm_calls"][0]) == [f.name for f in fields(LlmExchange)]
    assert list(doc["tool_calls"][0]) == \
        [f.name for f in fields(ToolCallRecord)]
    assert list(doc["revisions"][0]) == ["revision", "steps"]
    assert list(doc["revisions"][0]["steps"][0]) == [
        "index", "thought", "kind", "objective", "payload", "status",
        "observation"]


@pytest.mark.parametrize("where", ["trajectory", "llm_call", "tool_call",
                                   "revision", "step",
                                   "step without payload"])
def test_trajectory_from_dict_refuses_an_unknown_key(where):
    doc = json.loads(encode_trajectory(_sample_trajectory()))
    step = doc["revisions"][0]["steps"][0]
    if where == "step without payload":
        del step["payload"]
    else:
        {"trajectory": doc, "llm_call": doc["llm_calls"][0],
         "tool_call": doc["tool_calls"][0], "revision": doc["revisions"][0],
         "step": step}[where]["bogus"] = 1
    with pytest.raises(TypeError):
        record_from_dict(Trajectory, doc)


def test_trajectory_log_is_written_fresh(tmp_path):
    path = tmp_path / "GoalAct.jsonl"
    trajectories = [_sample_trajectory(), _sample_trajectory()]
    write_trajectories(path, trajectories)
    write_trajectories(path, trajectories[:1])
    assert path.read_text("utf-8") == encode_trajectory(trajectories[0]) + "\n"
    assert [encode_trajectory(t) for t in read_trajectories(path)] == \
        [encode_trajectory(trajectories[0])]


def test_a_log_is_read_one_trajectory_at_a_time(tmp_path):
    path = tmp_path / "GoalAct.jsonl"
    write_trajectories(path, [Trajectory(f"t{i}", "GoalAct")
                              for i in range(3)])
    read = []
    for trajectory in read_trajectories(path):
        read.append(weakref.ref(trajectory))
        assert [ref() is not None for ref in read] == \
            [False] * (len(read) - 1) + [True]
    assert len(read) == 3


def test_make_plan_numbers_from_one():
    plan = make_plan([("a", SkillAction(SEARCHING, "x")),
                      ("b", SkillAction(FINISH))], revision=3)
    assert [s.index for s in plan.steps] == [1, 2]
    assert plan.revision == 3
