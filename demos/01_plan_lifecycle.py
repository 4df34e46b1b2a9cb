#!/usr/bin/env python3
# Tour of the plan data model: build a plan, execute steps immutably,
# extract the history, and round-trip a trajectory record.

from goalact.plan import (
    FINISH,
    SEARCHING,
    GlobalPlan,
    SkillAction,
    Trajectory,
    decode_trajectory,
    encode_trajectory,
    first_pending,
    history_of,
    make_plan,
    validate_plan,
)
from goalact.errors import PlanError

# A plan is an ordered list of (thought, action) steps; the last action is
# always Finish. validate_plan enforces that shape.
plan = make_plan([
    ("find the company record", SkillAction(SEARCHING, "companies by name")),
    ("read the linked case", SkillAction(SEARCHING, "cases by case_id")),
    ("everything needed is known", SkillAction(FINISH)),
])
validate_plan(plan)
print("valid plan with", len(plan), "steps, revision", plan.revision)

# Plans without a terminal Finish are rejected outright.
try:
    validate_plan(make_plan([("look around", SkillAction(SEARCHING, "x"))]))
except PlanError as exc:
    print("rejected:", exc)

# Steps are executed by producing new values; the original stays pending.
step = first_pending(plan)
print("next up: step", step.index, step.action.render())
executed = step.mark_executed('{"name": "AlphaCorp", "case_id": "CS-100"}')
plan = GlobalPlan(steps=(executed,) + plan.steps[1:], revision=plan.revision)

# The history is the executed prefix: the plan's own executed steps, each
# with its thought, action and observation. It is what the next planning
# round sees.
history = history_of(plan)
assert history[0] is executed
print("history length:", len(history))
print("next pending after execution:", first_pending(plan).index)

# Trajectories capture a whole run and encode to one JSON document per line.
traj = Trajectory(task_id="demo-1", method="GoalAct")
traj.revisions.append(plan)
traj.final_answer = "AlphaCorp"
traj.step_count = 2
traj.termination_reason = "finish"
line = encode_trajectory(traj)
assert encode_trajectory(decode_trajectory(line)) == line
print("trajectory encodes to", len(line), "bytes, round-trips bit-exact")
