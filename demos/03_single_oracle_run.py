#!/usr/bin/env python3
# Generate a 3-hop lookup task, run the globally re-planned loop against the
# scripted oracle backend, and inspect what the trajectory recorded.

from goalact.evaluation import path_coverage, success_rate
from goalact.generator import generate_khop_task
from goalact.oracle import oracle_backend
from goalact.orchestrator import RunConfig, run_task

task, env = generate_khop_task(seed=11, k=3)
print("task:", task.id)
print("query:", task.query)
print("gold keywords:", ", ".join(task.key_answers))

trajectory = run_task(task, env, RunConfig(method="GoalAct"),
                      oracle_backend(task))

score = success_rate(task.key_answers, trajectory.final_answer or "")
print("\nfinal answer:", trajectory.final_answer)
print("success:", score.s, "| steps:", trajectory.step_count,
      "| termination:", trajectory.termination_reason)

# The plan was re-generated before every executed action; executed steps
# never change across revisions, only the pending suffix does.
print("\nplan revisions:", len(trajectory.revisions))
for plan in trajectory.revisions:
    executed = sum(1 for s in plan.steps if s.executed)
    print(f"  revision {plan.revision}: {len(plan)} steps, {executed} executed")

print("\nLLM calls by purpose:")
for call in trajectory.llm_calls:
    print("  -", call.purpose)

print("\ntool calls:")
for record in trajectory.tool_calls:
    print("  -", record.tool, record.arguments)

# Intermediate link values are tracked as a diagnostic, separate from the
# success score.
transcript = "\n".join(call.response for call in trajectory.llm_calls)
print("\npath coverage:", path_coverage(task.key_middles, transcript))
