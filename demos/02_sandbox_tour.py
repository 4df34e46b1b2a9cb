#!/usr/bin/env python3
# The coding skill's substrate: a tiny deterministic script language with
# tool built-ins, run under strict step / tool-call / output budgets.

from goalact.environment import Table, ToolEnvironment
from goalact.orchestrator import RecordingEnvironment
from goalact.plan import Trajectory
from goalact.sandbox import SandboxLimits, eval_script

env = ToolEnvironment(tables=(
    Table(name="ledger", key_field="entry_id", rows=tuple(
        {"entry_id": f"E-{i:03d}", "branch": "north" if i % 3 else "south",
         "amount": 100 + 7 * i}
        for i in range(30)
    )),
))

# Loops, conditionals, records, and tool calls compose freely.
script = """
rows = filter_records("ledger", "branch", "north")
total = 0
biggest = 0
for r in rows {
    total = total + r.amount
    if r.amount > biggest { biggest = r.amount }
}
return [total, biggest, len(rows)]
"""
result = eval_script(script, env)
print("value:", result.value)
print("steps used:", result.steps_used, "tool calls:", result.tool_calls_used)

# Budgets are enforced inside the interpreter; overruns come back as data.
runaway = eval_script("x = 0\nwhile true { x = x + 1 }", env,
                      SandboxLimits(max_eval_steps=2000))
print("runaway loop ->", runaway.fault.kind, "at", runaway.steps_used, "steps")

# Faults never escape as exceptions; a bad tool name is an observation too.
broken = eval_script('return launch_rockets("now")', env)
print("bad tool ->", broken.fault.kind, "-", broken.fault.message)

# Evaluation is deterministic. A run logs the script's tool calls into its
# trajectory through the environment it hands the sandbox.
trajectory = Trajectory(task_id="demo", method="CodeAct")
again = eval_script(script, RecordingEnvironment(env, trajectory, 4096))
assert (again.value, again.steps_used) == (result.value, result.steps_used)
print("re-evaluation is identical; logged tool calls:",
      [(call.tool, call.arguments) for call in trajectory.tool_calls])
